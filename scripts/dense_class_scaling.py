"""Time the dense elimination on random classes that fill in.

Each size ``k`` gets a seeded kernel with every entry positive (rows drawn
from a flat Dirichlet), so the whole chain is one class with no zero to
skip and ``chain.stationary`` sends it straight to the dense elimination.
The time covers the whole call: the kernel check, the elimination, the
back-substitution and the residual check.  Each occupancy's residual
``max |pi Q - pi|`` is recomputed here and must be within
``chain.RESIDUAL_TOL``.

Usage:
    OPENBLAS_NUM_THREADS=1 python3 scripts/dense_class_scaling.py [--seed 0] [--sizes 400 800 1600]

Output: one JSON line, ``{"seed": ..., "seconds": {"400": ..., ...},
"residual": {"400": ..., ...}}``.
"""

import argparse
import json
import time

import numpy as np

from famlearn import chain


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sizes", type=int, nargs="+", default=[400, 800, 1600])
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    seconds, residual = {}, {}
    for k in args.sizes:
        q = rng.dirichlet(np.ones(k), size=k)
        start = time.perf_counter()
        pi = chain.stationary(q)
        seconds[k] = round(time.perf_counter() - start, 4)
        residual[k] = float(np.abs(pi @ q - pi).max())
        if not residual[k] <= chain.RESIDUAL_TOL:
            raise SystemExit(f"k = {k}: residual {residual[k]:.3e} is past the tolerance")
    print(json.dumps({"seed": args.seed, "seconds": seconds, "residual": residual}))


if __name__ == "__main__":
    main()
