"""Time exhaustive enumeration and check each winner against its frozen table.

Cases are binary 0.8/0.2 at m = 3, 4 and 5, the skewed ternary
instance (``symmetric_model(3, 2.0)``, prior ``[0.499, 0.499, 0.002]``) at
m = 3, and a dominated stake at m = 3: two worlds of utility 1.942 and
0.032 under ternary signals, where all 8,022 tables tie to within a few ulps.
Each winner's transition table, decision and loss must equal the frozen
ones: binary m = 3 is 1/7, m = 4 is 1/17, m = 5 is the ``build_line``
ladder (states numbered from its other end) at 13/341, the skewed m = 3
is 201/700, and the dominated stake is the all-zero table at 0.016.
``seconds`` is the best of ``--repeats`` calls of
``enumerate_deterministic``.  A winner that differs exits non-zero.

Usage:
    OPENBLAS_NUM_THREADS=1 python3 scripts/enumeration_scaling.py [--repeats 3]

Output: one JSON line, ``{"binary m=3": {"seconds": ..., "loss": ...}, ...}``.
"""

import argparse
import json
import time

import numpy as np

from famlearn import (
    Problem,
    SignalModel,
    enumerate_deterministic,
    symmetric_model,
    uniform_problem,
)

BINARY = uniform_problem(SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]]))
SKEWED = Problem(
    model=symmetric_model(3, 2.0),
    utilities=np.ones(3),
    prior=np.array([0.499, 0.499, 0.002]),
)
DOMINATED = Problem(
    model=SignalModel.from_rows([[0.135, 0.239, 0.626], [0.481, 0.142, 0.377]]),
    utilities=np.array([1.942, 0.032]),
    prior=np.array([0.5, 0.5]),
)
# problem, memory size, and the winning table (successor per memory state
# and signal), decision and loss
CASES = {
    "binary m=3": (BINARY, 3, [[0, 1], [0, 2], [1, 2]], [0, 0, 1], 1 / 7),
    "binary m=4": (BINARY, 4, [[0, 1], [0, 2], [1, 3], [2, 3]], [0, 0, 1, 1], 1 / 17),
    "binary m=5": (
        BINARY, 5, [[0, 1], [0, 2], [1, 3], [2, 4], [3, 4]], [0, 0, 0, 1, 1], 13 / 341
    ),
    "skewed m=3": (SKEWED, 3, [[0, 1, 0], [0, 2, 1], [1, 2, 2]], [0, 0, 1], 201 / 700),
    "dominated m=3": (DOMINATED, 3, [[0, 0, 0]] * 3, [0, 0, 0], 0.016),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    report = {}
    for name, (problem, m_size, table, decision, loss) in CASES.items():
        seconds = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            result = enumerate_deterministic(problem, m_size)
            seconds.append(time.perf_counter() - start)
        mech = result.mechanism
        got = mech.transition.argmax(axis=2).tolist()
        if got != table:
            raise SystemExit(f"{name}: winning table {got}, expected {table}")
        if mech.decision.tolist() != decision or abs(result.loss - loss) > 1e-12:
            raise SystemExit(f"{name}: decision {mech.decision.tolist()}, loss {result.loss}")
        report[name] = {"seconds": round(min(seconds), 4), "loss": result.loss}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
