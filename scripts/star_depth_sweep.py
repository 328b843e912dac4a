"""Branch-depth sweep for hub-and-spoke mechanisms.

For each depth the script reports the exact asymptotic loss of the clean
star and of a noisy variant where half of all updates slip toward the
hub, plus the closed-form prediction as a consistency column.

Usage:
    python3 scripts/star_depth_sweep.py [--delta 5.0] [--gamma 0.5]

Output: aligned table on stdout.
"""

import argparse

import numpy as np

from famlearn import (
    SignalModel,
    build_noisy_star,
    build_star,
    star_occupancy_closed_form,
    uniform_problem,
    utility_loss,
)

MODEL = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
DEPTHS = (1, 2, 3, 5, 8, 12, 20, 30)


def closed_form_loss(delta: float, lam: int, decision: np.ndarray) -> float:
    total = 0.0
    for w in range(MODEL.n_states):
        occ = star_occupancy_closed_form(MODEL, None, lam, delta, w)
        total += 0.5 * occ[decision != w].sum()
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delta", type=float, default=5.0)
    parser.add_argument("--gamma", type=float, default=0.5)
    args = parser.parse_args()

    prob = uniform_problem(MODEL)
    print(f"delta={args.delta}  gamma={args.gamma}")
    print(f"{'lam':>4s} {'states':>7s} {'loss':>12s} {'closed_form':>12s} {'noisy_loss':>12s}")
    for lam in DEPTHS:
        star = build_star(MODEL, lam=lam, delta=args.delta)
        noisy = build_noisy_star(MODEL, lam=lam, delta=args.delta, gamma=args.gamma)
        loss = utility_loss(prob, star)
        predicted = closed_form_loss(args.delta, lam, np.asarray(star.decision))
        print(
            f"{lam:>4d} {star.m_size:>7d} {loss:>12.3e} "
            f"{predicted:>12.3e} {utility_loss(prob, noisy):>12.3e}"
        )


if __name__ == "__main__":
    main()
