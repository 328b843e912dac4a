"""Independent references and output checks for the famlearn benchmark.

Nothing here calls famlearn's solvers.  Occupancies come from closed forms
evaluated in log space, from exact rational arithmetic, or from this
module's own least-squares solve of a kernel that the benchmark builds.

Two kinds of trouble are kept apart.  An artifact that is not a usable
result at all (unreadable, a ``NaN`` token, a schema violation) raises
:class:`OutputInvalid`; the operation that wrote it counts as failed.  A
usable artifact whose numbers disagree with a reference is reported by the
``check_*`` functions as a list of problems; that makes the run incorrect.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

#: Smallest normal double; below it no solver owes relative accuracy.
NORMAL_MIN = sys.float_info.min
#: Entrywise relative tolerance against a closed-form occupancy.
OCC_REL_TOL = 1e-9
#: Absolute tolerance on a loss or utility.
LOSS_TOL = 1e-12
#: Absolute tolerance against this module's least-squares solves.
SOLVE_TOL = 1e-9
#: Largest accepted ``max |pi Q - pi|``.
RESIDUAL_TOL = 1e-10
#: Monte Carlo occupancy must lie within this many standard errors.
MC_SIGMAS = 6.0

SCHEMA_PATH = (
    Path(__file__).resolve().parent.parent
    / "src"
    / "famlearn"
    / "schemas"
    / "output.schema.json"
)


class OutputInvalid(Exception):
    """An artifact is not a usable result: the operation failed."""


# ---------------------------------------------------------------------------
# reading artifacts
# ---------------------------------------------------------------------------


def _reject_constant(token: str):
    raise OutputInvalid(f"non-finite token {token}")


def strict_json(path: Path):
    """Parse ``path`` as strict JSON: ``NaN`` and ``Infinity`` are errors."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise OutputInvalid(f"cannot read {path.name}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OutputInvalid(f"{path.name} is not JSON: {exc}") from exc
    except OutputInvalid as exc:
        raise OutputInvalid(f"{path.name}: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _validator(definition: str):
    import jsonschema

    schema = json.loads(SCHEMA_PATH.read_text())
    return jsonschema.Draft7Validator(
        {"$ref": f"#/definitions/{definition}", "definitions": schema["definitions"]}
    )


def load_artifact(path: Path, definition: str):
    """Strict-JSON artifact that validates against ``output.schema.json``."""
    doc = strict_json(path)
    errors = [e.message for e in _validator(definition).iter_errors(doc)]
    if errors:
        raise OutputInvalid(f"{path.name} breaks the {definition} schema: {errors[0]}")
    return doc


def load_csv(path: Path, header) -> list[list]:
    """Data rows of a CSV artifact that must carry ``header``.

    Cells that parse as numbers come back as floats and must be finite;
    label cells come back as strings.
    """
    try:
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise OutputInvalid(f"cannot read {path.name}: {exc}") from exc
    if not rows or tuple(rows[0]) != tuple(header):
        raise OutputInvalid(f"{path.name} header {rows[:1]} is not {list(header)}")
    out = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise OutputInvalid(f"{path.name} row {row} has the wrong width")
        values = []
        for text in row:
            try:
                value = float(text)
            except ValueError:
                values.append(text)
                continue
            if not math.isfinite(value):
                raise OutputInvalid(f"{path.name}: non-finite value {text!r}")
            values.append(value)
        out.append(values)
    return out


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def logsumexp(x: np.ndarray) -> float:
    top = float(np.max(x))
    return top + math.log(float(np.exp(x - top).sum()))


def stakes(prior, utilities) -> np.ndarray:
    return np.asarray(utilities, dtype=float) * np.asarray(prior, dtype=float)


def star_log_occupancy(mass, delta: float, lam: int, w: int) -> np.ndarray:
    """Log occupancy of the hub-and-spokes automaton under world ``w``.

    Lottery ``w2`` confirms signal ``s`` with weight proportional to
    ``mass[w2, s] / |mass[w2]|``; the common scale cancels from every
    ratio.  Branch ``w2`` is a level-independent birth-death ladder with
    odds ``delta * F(w2) / sum_{w3 != w2} F(w3)``, so its level ``k``
    holds ``odds**k`` times the hub's mass.  Order: hub, then each branch
    inward to tip.
    """
    mass = np.asarray(mass, dtype=float)
    unit = mass / np.linalg.norm(mass, axis=1, keepdims=True)
    confirm = unit @ mass[w]
    log_odds = np.log(delta * confirm / (confirm.sum() - confirm))
    levels = np.arange(1, lam + 1)
    logs = np.concatenate([[0.0]] + [odds * levels for odds in log_odds])
    return logs - logsumexp(logs)


def star_decision(n: int, lam: int) -> np.ndarray:
    """Hub decides action 0; every branch decides its own action."""
    return np.concatenate([[0], np.repeat(np.arange(n), lam)])


def star_loss(mass, delta: float, lam: int, stake: np.ndarray) -> float:
    """Stake-weighted mass on mis-deciding states, summed in log space."""
    n = len(mass)
    decision = star_decision(n, lam)
    total = 0.0
    for w in range(n):
        logs = star_log_occupancy(mass, delta, lam, w)
        total += stake[w] * math.exp(logsumexp(logs[decision != w]))
    return total


def loss_from_occupancy(occupancy: np.ndarray, decision, stake: np.ndarray) -> float:
    """Loss as the stake on mis-deciding states; no ``total - utility``."""
    wrong = np.asarray(decision)[None, :] != np.arange(len(stake))[:, None]
    return float((stake[:, None] * occupancy * wrong).sum())


def kernel(transition: np.ndarray, mass_row) -> np.ndarray:
    """One-period kernel: signal ``s`` drawn with ``mass_row[s]``, then a move."""
    return sum(p * transition[:, s, :] for s, p in enumerate(mass_row))


def pair_kernel(mass_row, trans_a: np.ndarray, trans_b: np.ndarray) -> np.ndarray:
    """Two automata reading the same signal: one Kronecker product per signal."""
    return sum(
        p * np.kron(trans_a[:, s, :], trans_b[:, s, :]) for s, p in enumerate(mass_row)
    )


def _stationary_lstsq(q: np.ndarray) -> np.ndarray:
    k = q.shape[0]
    lhs = np.vstack([q.T - np.eye(k), np.ones((1, k))])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    return np.linalg.lstsq(lhs, rhs, rcond=None)[0]


def reference_occupancy(q: np.ndarray, initial: int) -> np.ndarray:
    """Cesaro-limit occupancy of ``q`` from ``initial``, by class splitting.

    Reachability comes from repeated boolean squaring, each closed class
    is solved by least squares, and absorption into each class from the
    transient states by one linear solve.
    """
    k = q.shape[0]
    reach = (q > 0.0) | np.eye(k, dtype=bool)
    while True:
        wider = (reach.astype(np.float32) @ reach.astype(np.float32)) > 0.0
        if (wider == reach).all():
            break
        reach = wider
    recurrent = np.array([(~reach[i] | reach[:, i]).all() for i in range(k)])
    transient = np.flatnonzero(~recurrent)
    pi = np.zeros(k)
    seen = np.zeros(k, dtype=bool)
    for i in np.flatnonzero(recurrent):
        if seen[i]:
            continue
        members = np.flatnonzero(reach[i])
        seen[members] = True
        if recurrent[initial] and initial in members:
            weight = 1.0
        elif recurrent[initial]:
            weight = 0.0
        else:
            lhs = np.eye(transient.size) - q[np.ix_(transient, transient)]
            rhs = q[np.ix_(transient, members)].sum(axis=1)
            hit = np.linalg.solve(lhs, rhs)
            weight = float(hit[np.searchsorted(transient, initial)])
        if weight > 0.0:
            pi[members] += weight * _stationary_lstsq(q[np.ix_(members, members)])
    return pi


def mc_standard_errors(q: np.ndarray, pi: np.ndarray, samples: int) -> np.ndarray:
    """Standard error of each state's sample occupancy after ``samples`` steps.

    Uses the asymptotic variance of a state indicator on an irreducible
    chain, ``sum_i pi_i f_i (2 (Z f)_i - f_i)`` with ``f`` the centred
    indicator and ``Z = (I - Q + 1 pi)^-1`` the fundamental matrix.
    """
    k = q.shape[0]
    fundamental = np.linalg.inv(np.eye(k) - q + np.outer(np.ones(k), pi))
    centred = np.eye(k) - pi[None, :]
    variance = (pi[:, None] * centred * (2.0 * fundamental @ centred - centred)).sum(
        axis=0
    )
    return np.sqrt(np.maximum(variance, 0.0) / samples)


def line_loss_exact(mass, m_size: int, prior, utilities) -> Fraction:
    """Loss of the saturating ladder in exact rationals.

    Signals likelier under world 0 step up, the rest step down.  Detailed
    balance makes the occupancy geometric with ratio ``up / down``; the
    lower ``m_size // 2`` rungs decide action 1, the rest action 0.
    """
    rows = [[Fraction(x) for x in row] for row in mass]
    ups = [rows[0][s] > rows[1][s] for s in range(len(rows[0]))]
    loss = Fraction(0)
    for w, row in enumerate(rows):
        up = sum(x for x, u in zip(row, ups) if u)
        down = sum(x for x, u in zip(row, ups) if not u)
        weights = [(up / down) ** k for k in range(m_size)]
        lower = sum(weights[: m_size // 2])
        wrong = lower if w == 0 else sum(weights) - lower
        loss += Fraction(prior[w]) * Fraction(utilities[w]) * wrong / sum(weights)
    return loss


def hellman_cover_floor(ratio: float, m_size: int) -> float:
    """Least error of any ``m_size``-state automaton on a symmetric binary test.

    ``ratio`` is the largest one-signal likelihood ratio; equal priors and
    unit payoffs.
    """
    return 1.0 / (1.0 + ratio ** (m_size - 1))


# ---------------------------------------------------------------------------
# checks on usable artifacts
# ---------------------------------------------------------------------------


def near(name: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{name} = {got!r}, reference {want!r} (tolerance {tol:g})"]


def check_distribution(occupancy: np.ndarray) -> list[str]:
    problems = []
    if (occupancy < 0.0).any():
        problems.append(f"negative occupancy {occupancy.min()!r}")
    worst = float(np.abs(occupancy.sum(axis=-1) - 1.0).max())
    if worst > SOLVE_TOL:
        problems.append(f"occupancy row sums off 1 by {worst:.3e}")
    return problems


def check_fixed_point(occupancy: np.ndarray, kernels) -> list[str]:
    """``max |pi Q - pi|`` of each world's row against the benchmark's kernel."""
    problems = []
    for w, (row, q) in enumerate(zip(occupancy, kernels)):
        residual = float(np.abs(row @ q - row).max())
        if not residual <= RESIDUAL_TOL:
            problems.append(f"world {w}: residual |pi Q - pi| = {residual:.3e}")
    return problems


def check_star_occupancy(occupancy, mass, delta: float, lam: int, w: int) -> list[str]:
    """Entrywise relative error against the log-space geometric form."""
    occupancy = np.asarray(occupancy, dtype=float)
    ref = np.exp(star_log_occupancy(mass, delta, lam, w))
    if occupancy.shape != ref.shape:
        return [f"world {w}: occupancy shape {occupancy.shape}, expected {ref.shape}"]
    normal = ref >= NORMAL_MIN
    rel = np.abs(occupancy[normal] - ref[normal]) / ref[normal]
    problems = []
    if not float(rel.max()) <= OCC_REL_TOL:
        problems.append(f"world {w}: occupancy relative error {float(rel.max()):.3e}")
    tiny = np.abs(occupancy[~normal] - ref[~normal])
    if tiny.size and not float(tiny.max()) <= NORMAL_MIN:
        problems.append(f"world {w}: subnormal occupancy off by {float(tiny.max()):.3e}")
    return problems


def check_trace(trace) -> list[str]:
    values = [float(x) for _, x in trace]
    if any(b > a for a, b in zip(values, values[1:])):
        return [f"search trace increases: {values}"]
    return []
