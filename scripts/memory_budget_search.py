"""Best achievable loss as a function of the memory budget.

Runs exhaustive enumeration over deterministic tables where the count
of canonical tables (the ``tables`` column) stays below the budget guard,
so m = 1-5 are enumerated, and seeded annealing everywhere,
writing one CSV row per memory size.  The annealing column shows how
much of the enumeration optimum the heuristic recovers (and, for larger
memories, continues past the point where enumeration becomes infeasible).

Usage:
    python3 scripts/memory_budget_search.py [out.csv]

Output: CSV to the given path (default results/memory_budget.csv),
progress lines to stderr.
"""

import csv
import pathlib
import sys

from famlearn import (
    SearchConfig,
    SignalModel,
    enumeration_count,
    enumerate_deterministic,
    local_search,
    uniform_problem,
)

MODEL = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
MEMORY_SIZES = range(1, 7)
ENUMERATION_BUDGET = 10**6
ANNEAL = dict(restarts=10, iterations=6000, seed=11)
OUT_DEFAULT = pathlib.Path("results/memory_budget.csv")


def main() -> None:
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else OUT_DEFAULT
    out.parent.mkdir(parents=True, exist_ok=True)
    prob = uniform_problem(MODEL)

    rows = []
    for m in MEMORY_SIZES:
        count = enumeration_count(prob, m)
        exact = None
        if count <= ENUMERATION_BUDGET:
            exact = enumerate_deterministic(prob, m).loss
        annealed = local_search(prob, SearchConfig(m_size=m, **ANNEAL))
        rows.append(
            {
                "m": m,
                "tables": count,
                "enumerated_loss": "" if exact is None else f"{exact:.10f}",
                "annealed_loss": f"{annealed.loss:.10f}",
            }
        )
        print(
            f"m={m}: tables={count} exact={exact} anneal={annealed.loss:.6f}",
            file=sys.stderr,
        )

    with out.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
