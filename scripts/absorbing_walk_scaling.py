"""Time ``chain.stationary`` on absorbing walks and a fan, each in a fresh child process.

The walk on ``n`` states moves one step up or down with probability 1/2
each, and its two ends absorb.  Started at ``n // 3``, it ends at the top
with probability ``(n // 3) / (n - 1)`` (gambler's ruin), which weights
the two one-state classes.  The fan's start jumps with probability 1/k
into each of ``k`` = 16,000 absorbing states, which each end with exactly
1/k.  ``seconds`` covers the child's call of ``chain.stationary`` on the
sparse kernel, ``maxrss_mb`` is the child's peak resident set
(``ru_maxrss``) and ``rel_error`` the largest relative error of the
absorbing states' occupancies against those values.

Usage:
    OPENBLAS_NUM_THREADS=1 python3 scripts/absorbing_walk_scaling.py [--sizes 2000 100001]

Output: one JSON line per walk size, then one for the fan, each
``{"states": ..., "initial": ..., "seconds": ..., "maxrss_mb": ...,
"rel_error": ...}``.
"""

import argparse
import json
import subprocess
import sys

#: Absorbing states of the fan.
FAN = 16_000

CHILD = """
import json, resource, sys, time
import numpy as np
from famlearn import SparseRows, chain

kind, n = sys.argv[1], int(sys.argv[2])
if kind == "walk":
    initial = n // 3
    inner = np.arange(1, n - 1)
    q = SparseRows.from_sorted(
        np.concatenate([[0], np.repeat(inner, 2), [n - 1]]),
        np.concatenate([[0], np.stack([inner - 1, inner + 1], axis=1).ravel(), [n - 1]]),
        np.concatenate([[1.0], np.full(2 * inner.size, 0.5), [1.0]]),
        n,
        n,
    )
    ends, expected = [0, n - 1], np.array([n - 1 - initial, initial]) / (n - 1)
else:
    initial, tips = 0, np.arange(1, n)
    q = SparseRows.from_sorted(
        np.concatenate([np.zeros(n - 1, dtype=np.int64), tips]),
        np.concatenate([tips, tips]),
        np.concatenate([np.full(n - 1, 1.0 / (n - 1)), np.ones(n - 1)]),
        n,
        n,
    )
    ends, expected = tips, 1.0 / (n - 1)
start = time.perf_counter()
pi = chain.stationary(q, initial)
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
error = float(np.abs(pi[ends] / expected - 1.0).max())
print(json.dumps({"initial": initial, "seconds": seconds, "maxrss_mb": peak, "rel_error": error}))
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[2_000, 100_001])
    args = parser.parse_args()
    for n in args.sizes:
        if n < 3:
            raise SystemExit(f"a walk needs at least 3 states, got {n}")
    for kind, n in [("walk", n) for n in args.sizes] + [("fan", FAN + 1)]:
        done = subprocess.run(
            [sys.executable, "-c", CHILD, kind, str(n)], capture_output=True, text=True, check=False
        )
        if done.returncode != 0:
            raise SystemExit(f"{kind} of {n} states: child exited {done.returncode}: {done.stderr}")
        child = json.loads(done.stdout.splitlines()[-1])
        report = {
            "states": n,
            "initial": child["initial"],
            "seconds": round(child["seconds"], 3),
            "maxrss_mb": round(child["maxrss_mb"], 1),
            "rel_error": child["rel_error"],
        }
        print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
