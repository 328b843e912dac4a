"""Time ``famlearn eval`` of large stars, each in a fresh child process.

Each size runs ``famlearn eval`` on the 0.6/0.4 binary model with a star
blueprint (``delta = 5``) in a child interpreter, which writes
``eval.json`` into a temporary directory.  ``seconds`` covers the child's
whole call of ``cli.main``, ``write_seconds`` the time in
``cli.write_json``, ``bytes`` is the size of ``eval.json`` and
``maxrss_mb`` the child's peak resident set (``ru_maxrss``).  The run
must exit 0, and each world's occupancy must match
``diagnostics.star_occupancy_closed_form`` to a relative ``RTOL`` on the
entries at or above the smallest normal double and to that double on the
rest; ``rel_error`` is the worst relative gap on the former.

Usage:
    OPENBLAS_NUM_THREADS=1 python3 scripts/eval_scaling.py [--lams 5000 50000]

Output: one JSON line per size, ``{"lam": ..., "states": ..., "seconds":
..., "write_seconds": ..., "bytes": ..., "maxrss_mb": ..., "rel_error":
...}``.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from famlearn.diagnostics import star_occupancy_closed_form
from famlearn.signals import SignalModel

#: Each step out along a branch adds a rounding to both the solver's
#: occupancy and the closed form's ``log(ratio) * level``, so at depth
#: 50,000 the two may part by about 1e-11; this leaves a wide margin.
RTOL = 1e-9
DELTA = 5.0

CHILD = """
import json, resource, sys, time
from famlearn import cli

written = []
write_json = cli.write_json

def timed(path, obj):
    start = time.perf_counter()
    write_json(path, obj)
    written.append(time.perf_counter() - start)

cli.write_json = timed
start = time.perf_counter()
code = cli.main(sys.argv[1:])
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"code": code, "seconds": seconds, "write_seconds": sum(written), "maxrss_mb": peak}))
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lams", type=int, nargs="+", default=[5_000, 50_000])
    args = parser.parse_args()
    model = {"states": 2, "alphabet": 2, "mass": [[0.6, 0.4], [0.4, 0.6]]}
    signal_model, tiny = SignalModel.from_json(model), np.finfo(np.float64).tiny
    for lam in args.lams:
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "spec.json"
            star = {"family": "star", "params": {"lam": lam, "delta": DELTA}}
            spec.write_text(json.dumps({"problem": {"model": model}, "mechanism": {"blueprint": star}}))
            argv = ["eval", "--spec", str(spec), "--out", tmp]
            done = subprocess.run(
                [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, check=False
            )
            if done.returncode != 0:
                raise SystemExit(f"lam = {lam}: child exited {done.returncode}: {done.stderr}")
            child = json.loads(done.stdout.splitlines()[-1])
            if child["code"] != 0:
                raise SystemExit(f"lam = {lam}: eval exited {child['code']}: {done.stderr}")
            artifact = Path(tmp) / "eval.json"
            occupancy = np.array(json.loads(artifact.read_text())["occupancy"])
            rel_error = 0.0
            for w, pi in enumerate(occupancy):
                ref = star_occupancy_closed_form(signal_model, None, lam, DELTA, w)
                normal = ref >= tiny
                gap = np.abs(pi - ref)
                rel_error = max(rel_error, float((gap[normal] / ref[normal]).max()))
                if not (rel_error <= RTOL and gap[~normal].max(initial=0.0) <= tiny):
                    raise SystemExit(f"lam = {lam}: world {w}'s occupancy is off its closed form")
            report = {
                "lam": lam,
                "states": 2 * lam + 1,
                "seconds": round(child["seconds"], 3),
                "write_seconds": round(child["write_seconds"], 3),
                "bytes": artifact.stat().st_size,
                "maxrss_mb": round(child["maxrss_mb"], 1),
                "rel_error": rel_error,
            }
        print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
