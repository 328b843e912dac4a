"""Benchmark of famlearn, run through its command-line entry point.

Usage, from the root of a checkout:

    python3 bench/run.py --workload star_scale --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

One run builds the workload's specs from ``--seed``, times whole passes
over its operations for at least ``--seconds`` seconds after one warm-up
pass, times fresh-interpreter set-ups between the passes, checks every
output against the references in ``checks.py``, and
prints the metrics by name followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps famlearn's layers (see
``tracing.py``) and reports the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the machine is shared and
# multithreaded BLAS calls add scheduling noise to every timing.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in MANIFEST["workloads"])
#: Fresh interpreters timed for ``setup_s``; their median is reported.
SETUP_PROBES = 9
#: Fewest timed passes in a run, whatever ``--seconds`` says.
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_package():
    if not (SRC / "famlearn" / "cli.py").is_file():
        _fail(f"no famlearn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import famlearn.cli

    return famlearn.cli


def _workdir(workload: str) -> Path:
    base = ROOT / ".bench_out"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))


def probe(workload: str, seed: int) -> None:
    """Fresh-interpreter set-up: import the CLI, write the specs, say ready."""
    _load_package()
    import workloads

    workdir = _workdir(workload)
    try:
        workloads.build(workload, seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_seconds(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its specs are ready."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe"]
    command += ["--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        if child.wait(timeout=PROBE_TIMEOUT_S) != 0 or line.strip() != "ready":
            _fail(f"set-up probe exited {child.returncode} without getting ready")
    return elapsed


class Runner:
    """Times passes over one workload's operations and records their outcomes.

    With a tracer, every second pass runs with the layers wrapped; traced
    and untraced passes alternate, so a change in machine speed during the
    run weighs on both sides of the tracing overhead.
    """

    def __init__(self, cli, ops, tracer=None):
        self.cli = cli
        self.ops = ops
        self.tracer = tracer
        self.op_s: list[list[float]] = [[] for _ in ops]  # untraced passes
        self.pass_s: list[float] = []
        self.traced_s: list[float] = []
        self.bad = [0] * len(ops)  # passes in which the operation failed to run
        self.errors = [""] * len(ops)
        self.values = [None] * len(ops)
        self.digests: list[set] = [set() for _ in ops]
        self.passes = 0

    def run_pass(self, timed: bool = True) -> None:
        traced = timed and self.tracer is not None and self.passes % 2 == 1
        if traced:
            self.tracer.new_pass()
            wrapping = tracing.installed(self.tracer)
        else:
            wrapping = contextlib.nullcontext()
        sink = io.StringIO()
        times = []
        outcomes = []
        with wrapping:
            start = time.perf_counter()
            for op in self.ops:
                t0 = time.perf_counter()
                outcomes.append(self._run_op(op, sink))
                times.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
        if not timed:
            return
        (self.traced_s if traced else self.pass_s).append(elapsed)
        if not traced:
            for samples, t in zip(self.op_s, times):
                samples.append(t)
        self.passes += 1
        for i, (op, (value, error)) in enumerate(zip(self.ops, outcomes)):
            if op.call is not None and not traced:
                self.values[i] = value
            if error:
                self.bad[i] += 1
                self.errors[i] = error
            digest = hashlib.sha256()
            for path in op.artifacts:
                digest.update(path.read_bytes() if path.exists() else b"<missing>")
            self.digests[i].add(digest.hexdigest())

    def _run_op(self, op, sink):
        """Run one operation; returns (library result, failure or "")."""
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                if op.argv is None:
                    return op.call(), ""
                rc = self.cli.main(op.argv)
                return None, "" if rc == op.expect_rc else f"exit {rc}"
            # The benchmark must outlive an exception escaping famlearn:
            # it is that operation's failure, recorded and counted.
            except Exception as exc:  # noqa: BLE001
                return None, f"{type(exc).__name__}: {exc}"

    def run_for(self, seconds: float, between=None, count: int = 0) -> None:
        """Time passes for ``seconds``, calling ``between`` ``count`` times
        between them, spread evenly over the run."""
        least = MIN_PASSES if self.tracer is None else 2 * MIN_PASSES
        start = time.perf_counter()
        done = 0
        while self.passes < least or time.perf_counter() - start < seconds:
            self.run_pass()
            while done < min(count, count * (time.perf_counter() - start) / seconds):
                between()
                done += 1
        for _ in range(done, count):
            between()


def check_outputs(runner: Runner):
    """Failed operations per pass, problems found, and the largest passing chain."""
    from checks import OutputInvalid

    failed_ops = 0
    problems = []
    max_ok = 0
    for i, op in enumerate(runner.ops):
        if runner.bad[i]:
            if runner.bad[i] != runner.passes:
                problems.append(f"{op.name}: failed in {runner.bad[i]} of {runner.passes} passes")
            failed_ops += 1
            print(f"failed: {op.name}: {runner.errors[i]}")
            continue
        if len(runner.digests[i]) != 1:
            problems.append(f"{op.name}: artifacts differ between passes")
        try:
            found = op.check(runner.values[i])
        except OutputInvalid as exc:
            failed_ops += 1
            print(f"failed: {op.name}: {exc}")
            continue
        problems += [f"{op.name}: {p}" for p in found]
        if not found:
            max_ok = max(max_ok, op.states)
    return failed_ops, problems, max_ok


def measure(args) -> dict:
    cli = _load_package()
    import workloads

    units = {m["name"]: m["unit"] for m in MANIFEST["per_layer" if args.trace else "end_to_end"]}
    workdir = _workdir(args.workload)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(cli, ops, tracing.Tracer() if args.trace else None)
        runner.run_pass(timed=False)
        # The set-up probes are spread over the run, not made in a burst at
        # its start: the host's start-up speed changes in phases of tens of
        # seconds, and a burst samples one phase.
        setup = []
        runner.run_for(
            args.seconds,
            lambda: setup.append(setup_seconds(args.workload, args.seed)),
            0 if args.trace else SETUP_PROBES,
        )
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed_ops, problems, max_ok = check_outputs(runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"workload={args.workload} seed={args.seed} passes={runner.passes} "
        f"ops/pass={len(ops)} untraced passes={len(runner.pass_s)} blas_threads={BLAS_THREADS}"
    )
    if args.trace:
        metrics = tracing.layer_metrics(runner.tracer)
        overhead = statistics.median(runner.traced_s) / statistics.median(runner.pass_s)
        print(f"tracing overhead: {100.0 * (overhead - 1.0):+.1f}% of the median untraced pass")
    else:
        # Medians, not minima: the host's speed drifts and jumps, and a run's
        # fastest pass depends on whether a brief fast phase fell inside it.
        # Each operation's median comes first, then the median over the
        # operations, so that a workload whose operations differ in size by
        # orders of magnitude reports a middle-sized operation, not a gap.
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(runner.pass_s),
            "op_p50_ms": 1e3 * statistics.median(statistics.median(t) for t in runner.op_s),
            "peak_rss_mb": peak_mb,
            "max_ok_states": max_ok,
        }
        print(f"setup probes (s): {' '.join(f'{t:.3f}' for t in setup)}")
    if set(metrics) != set(units):
        _fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for problem in problems:
        print(f"incorrect: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    attempted = runner.passes * len(ops)
    failed = runner.passes * failed_ops
    print(f"attempted = {attempted}  failed = {failed}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> None:
    """Each workload in its own process, so peak RSS stays per workload."""
    results = {}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            _fail(f"{workload} exited {done.returncode}")
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.probe:
        probe(args.workload, args.seed)
    elif args.workload == "all":
        run_all(args)
    else:
        print(json.dumps(measure(args)))


if __name__ == "__main__":
    main()
