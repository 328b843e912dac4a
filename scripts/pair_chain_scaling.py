"""Time two-agent disagreement on full and sparse pair chains.

A full pair is two seeded noisy ladders on the 0.6/0.4 binary model.  Each
ladder steps up on signal 0 and down on signal 1 with probability
``1 - noise`` and otherwise moves by a row drawn from a flat Dirichlet, so
it can move every state to every state and the pair chain has no zero
entry.  The sparse pair is a line and a star (``delta = 5``), whose pair
chain has few entries per row.  Each time is the median over ``--repeats``
calls of ``chain.disagreement_probability``, which builds and solves the
pair chain once per world, divided by the two worlds.  Each world's joint
occupancy ``pi`` is checked against the pair kernel ``Q``, rebuilt here as
the sum over signals of ``mass[w, s]`` times the Kronecker product of the
two rules' rows: ``max |pi Q - pi|`` must be within ``chain.RESIDUAL_TOL``.

Usage:
    OPENBLAS_NUM_THREADS=1 python3 scripts/pair_chain_scaling.py [--seed 0]
        [--ladders 18x22 40x40] [--line-star 4x2] [--repeats 5]

``--ladders AxB`` pairs ladders of A and B states; ``--line-star MxL``
pairs a line of M states with a star of depth L.

Output: one JSON line, ``{"seed": ..., "states": {"ladders 18x22": 396,
...}, "ms_per_world": {...}, "residual": {...}}``.
"""

import argparse
import json
import time

import numpy as np

from famlearn import automata, chain
from famlearn.signals import SignalModel

MODEL = SignalModel.from_rows([[0.6, 0.4], [0.4, 0.6]])


def noisy_ladder(rng, m: int, noise: float = 0.1) -> automata.UpdatingMechanism:
    step = np.zeros((m, 2, m))
    rungs = np.arange(m)
    step[rungs, 0, np.minimum(rungs + 1, m - 1)] = 1.0
    step[rungs, 1, np.maximum(rungs - 1, 0)] = 1.0
    transition = (1.0 - noise) * step + noise * rng.dirichlet(np.ones(m), size=(m, 2))
    decision = np.array([1] * (m // 2) + [0] * (m - m // 2))
    return automata.UpdatingMechanism(m, transition, decision)


def worst_residual(problem, mech_a, mech_b) -> float:
    worst = 0.0
    for w, mass in enumerate(problem.model.mass):
        q = sum(
            mass[s] * np.kron(mech_a.transition[:, s, :], mech_b.transition[:, s, :])
            for s in range(problem.model.alphabet_size)
        )
        pi = chain.joint_occupancy(problem, mech_a, mech_b, w).ravel()
        worst = max(worst, float(np.abs(pi @ q - pi).max()))
    return worst


def sizes(text: str) -> tuple[int, int]:
    a, b = text.split("x")
    return int(a), int(b)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ladders", type=sizes, nargs="*", default=[(18, 22), (40, 40)])
    parser.add_argument("--line-star", type=sizes, nargs="*", default=[(4, 2)])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    problem = chain.uniform_problem(MODEL)
    pairs = {f"ladders {a}x{b}": (noisy_ladder(rng, a), noisy_ladder(rng, b)) for a, b in args.ladders}
    for m, lam in args.line_star:
        pairs[f"line {m} x star {lam}"] = (
            automata.build_line(MODEL, m),
            automata.build_star(MODEL, lam, 5.0),
        )
    states, ms_per_world, residual = {}, {}, {}
    for name, (mech_a, mech_b) in pairs.items():
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            chain.disagreement_probability(problem, mech_a, mech_b)
            times.append(time.perf_counter() - start)
        states[name] = mech_a.m_size * mech_b.m_size
        ms_per_world[name] = round(1e3 * float(np.median(times)) / problem.n_states, 3)
        residual[name] = worst_residual(problem, mech_a, mech_b)
        if not residual[name] <= chain.RESIDUAL_TOL:
            raise SystemExit(f"{name}: residual {residual[name]:.3e} is past the tolerance")
    print(
        json.dumps(
            {"seed": args.seed, "states": states, "ms_per_world": ms_per_world, "residual": residual}
        )
    )


if __name__ == "__main__":
    main()
