"""Time the Monte Carlo walk on the builders' mechanisms.

Each case runs ``chain.monte_carlo_occupancy`` once for ``--steps``
periods (1,000 of them burn-in) under world 0 of its model: the 6-state
line and the stars on a 0.6/0.4 binary model, the noisy star at
``lam = 2`` and the symmetric full design at ``n = 4``.  The time covers
the whole call: the draws, the set-up of the successor tables and the
walk.  Each occupancy must sum to 1.

Usage:
    OPENBLAS_NUM_THREADS=1 python3 scripts/monte_carlo_scaling.py [--seed 0] [--steps 40000]

Output: one JSON line, ``{"seed": ..., "steps": ..., "seconds": {"line m=6":
..., ...}, "steps_per_s": {"line m=6": ..., ...}}``.
"""

import argparse
import json
import time

import numpy as np

from famlearn import (
    SignalModel,
    build_line,
    build_noisy_star,
    build_star,
    build_symmetric_full,
    chain,
    uniform_problem,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=40_000)
    args = parser.parse_args()
    model = SignalModel.from_rows([[0.6, 0.4], [0.4, 0.6]])
    symmetric, symmetric_model = build_symmetric_full(4, 2.0, 0.5)
    cases = {
        "line m=6": (build_line(model, 6), model),
        "symmetric_full n=4": (symmetric, symmetric_model),
        "noisy_star lam=2": (build_noisy_star(model, 2, 5.0, 0.5), model),
        "star lam=400": (build_star(model, 400, 5.0), model),
        "star lam=50000": (build_star(model, 50_000, 5.0), model),
    }
    line, _ = cases["line m=6"]
    chain.monte_carlo_occupancy(uniform_problem(model), line, 0, 100, seed=args.seed)
    seconds, steps_per_s = {}, {}
    for name, (mech, mc_model) in cases.items():
        problem = uniform_problem(mc_model)
        start = time.perf_counter()
        occupancy, _ = chain.monte_carlo_occupancy(
            problem, mech, 0, args.steps, burn_in=1_000, seed=args.seed
        )
        elapsed = time.perf_counter() - start
        if not abs(float(np.sum(occupancy)) - 1.0) <= 1e-12:
            raise SystemExit(f"{name}: occupancy sums to {np.sum(occupancy)!r}")
        seconds[name] = round(elapsed, 4)
        steps_per_s[name] = round(args.steps / elapsed)
    print(
        json.dumps(
            {"seed": args.seed, "steps": args.steps, "seconds": seconds, "steps_per_s": steps_per_s}
        )
    )


if __name__ == "__main__":
    main()
