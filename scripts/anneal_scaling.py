"""Time the memory-budget study's anneals and count their solves and gamma calls.

Each anneal is ``famlearn.local_search`` on the 0.8/0.2 binary problem with
uniform prior and utilities, at memory sizes ``--sizes``, with ``--restarts``
restarts of ``--iterations`` proposals each and seed ``--seed``: by default
the six anneals of the ``search`` bench workload.  A step whose proposed
row does not move prices nothing; the share of such steps over all
restarts is counted on one run that counts the calls of
``search._fast_loss`` (one per restart prices its starting tensor).  The
same run counts each restart's ``standard_gamma`` calls: one per window
of steps, and more where a restart accepts a row the rest of its window
reads again.  Each time is the median over ``--repeats`` uncounted runs.

Usage:
    OPENBLAS_NUM_THREADS=1 python3 scripts/anneal_scaling.py [--sizes 1 2 3 4 5 6]
        [--restarts 4] [--iterations 1000] [--seed 11] [--repeats 5]

Output: one JSON line, ``{"restarts": 4, "iterations": 1000, "seed": 11,
"ms": {"1": ..., ...}, "us_per_proposal": {...}, "skipped": {...},
"gamma_calls_per_restart": {...}, "loss": {...}}``, keyed by memory size.
"""

import argparse
import json
import time

import numpy as np

from famlearn import SearchConfig, SignalModel, local_search, search, uniform_problem

MODEL = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])


class CountedGenerator:
    """A generator that counts its ``standard_gamma`` calls in ``calls``."""

    def __init__(self, rng, calls):
        self.rng, self.calls = rng, calls

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def standard_gamma(self, *args, **kwargs):
        self.calls.append(None)
        return self.rng.standard_gamma(*args, **kwargs)


def counted_run(problem, config) -> tuple[float, float, float]:
    """Share of steps that priced nothing, gamma calls per restart, and the
    loss, from one counted run."""
    solves, gammas = [], []
    fast_loss, default_rng = search._fast_loss, np.random.default_rng

    def counted(*args):
        solves.append(None)
        return fast_loss(*args)

    search._fast_loss = counted
    np.random.default_rng = lambda seed: CountedGenerator(default_rng(seed), gammas)
    try:
        loss = local_search(problem, config).loss
    finally:
        search._fast_loss, np.random.default_rng = fast_loss, default_rng
    steps = config.restarts * config.iterations
    skipped = round(1.0 - (len(solves) - config.restarts) / steps, 4)
    return skipped, len(gammas) / config.restarts, loss


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="*", default=list(range(1, 7)))
    parser.add_argument("--restarts", type=int, default=4)
    parser.add_argument("--iterations", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    problem = uniform_problem(MODEL)
    report = {"restarts": args.restarts, "iterations": args.iterations, "seed": args.seed}
    ms, per_proposal, skipped, gamma_calls, losses = {}, {}, {}, {}, {}
    for m in args.sizes:
        config = SearchConfig(
            m_size=m, restarts=args.restarts, iterations=args.iterations, seed=args.seed
        )
        skipped[m], gamma_calls[m], losses[m] = counted_run(problem, config)
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            local_search(problem, config)
            times.append(time.perf_counter() - start)
        ms[m] = round(1e3 * float(np.median(times)), 2)
        per_proposal[m] = round(1e3 * ms[m] / (args.restarts * args.iterations), 2)
    report.update(
        ms=ms,
        us_per_proposal=per_proposal,
        skipped=skipped,
        gamma_calls_per_restart=gamma_calls,
        loss=losses,
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
