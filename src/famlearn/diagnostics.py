"""Analytical quantities: likelihood ratios, spreads, ignorance, closed forms.

These are the read-outs used to interpret a mechanism rather than run it:
how indicative each memory state is of one state of the world versus
another (likelihood ratios and their spread), hard information-theoretic
caps on that spread, the accuracy/mistake trade-off floor they imply,
which actions a mechanism has effectively abandoned, and a small-versus
big-world classification of the instance.

The module also carries the closed-form solutions this library can check
its solvers against: the geometric occupancy of the hub-and-spokes
mechanism, the exact losses of every two-memory-state commitment pattern
in a three-state world, and the utilities of the two symmetric-family
designs in the vanishing-step limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .automata import (
    UpdatingMechanism,
    _confirmation_matrix,
    check_star_condition,
)
from .chain import Problem, StationaryProfile
from .signals import Lottery, SignalModel, confirmatory_lotteries, sup_likelihood_ratio

#: Occupancy mass below which an action counts as abandoned.
IGNORANCE_TOL = 1e-9
#: Default cutoff on n/m separating small worlds from big ones.
WORLD_RATIO_THRESHOLD = 0.1


def likelihood_ratio_matrix(profile: StationaryProfile) -> np.ndarray:
    """Per-memory-state occupancy ratios between all ordered state pairs.

    ``ratio[w, w2, m] = occupancy[w, m] / occupancy[w2, m]``; entries with
    a zero denominator, or past the float range, are flagged ``inf``
    rather than raising, so callers can see exactly where a comparison
    broke down.
    """
    occ = profile.occupancy
    num = occ[:, None, :]
    den = occ[None, :, :]
    with np.errstate(all="ignore"):
        ratio = np.where(den > 0.0, num / den, np.inf)
    return ratio


def spread(
    profile: StationaryProfile, decisions: np.ndarray, w: int, w2: int
) -> float:
    """How cleanly memory separates ``w`` from ``w2`` under ``decisions``.

    Defined as the largest ``w``-vs-``w2`` likelihood ratio on the states
    that decide ``w`` divided by the smallest such ratio on the states
    that decide ``w2``.  Both decision regions must be nonempty —
    otherwise the mechanism is ignoring an action and the spread is
    undefined (use :func:`detect_ignorance`).  A spread past the float
    range is ``inf``, and ``nan`` where the ratios it divides are both
    zero or both infinite.
    """
    decisions = np.asarray(decisions)
    own = np.flatnonzero(decisions == w)
    other = np.flatnonzero(decisions == w2)
    if own.size == 0 or other.size == 0:
        empty = w if own.size == 0 else w2
        raise ValueError(
            f"no memory state decides action {empty}; spread undefined "
            "(the action is ignored)"
        )
    ratio = likelihood_ratio_matrix(profile)[w, w2]
    with np.errstate(all="ignore"):
        return float(ratio[own].max() / ratio[other].min())


def spread_upper_bound(model: SignalModel, m_size: int, w: int, w2: int) -> float:
    """Cap on any ``m_size``-state mechanism's ``w``–``w2`` spread.

    One signal can shift the per-state likelihood ratio by at most the
    largest one-shot density ratio in each direction, and a memory of
    size ``m_size`` can chain at most ``m_size - 1`` such shifts.  A cap
    past the float range is ``inf``.
    """
    if w == w2:
        raise ValueError("spread bound needs two distinct states")
    if m_size < 1:
        raise ValueError(f"m_size must be >= 1, got {m_size}")
    forward = sup_likelihood_ratio(model, w, w2)
    backward = sup_likelihood_ratio(model, w2, w)
    try:
        return float((forward * backward) ** (m_size - 1))
    except OverflowError:
        return math.inf


def tradeoff_floor(spread_cap: float, accuracy: float) -> float:
    """Unavoidable mistake mass in the other state, given accuracy here.

    In a two-state world with spread capped at ``spread_cap``, an agent
    who takes the correct action with probability ``accuracy`` under
    state 0 must sit in state 0's decision region with probability at
    least ``accuracy / (accuracy + spread_cap * (1 - accuracy))`` under
    state 1 — which is exactly its mistake probability there.
    """
    if not spread_cap >= 1.0:
        raise ValueError(f"spread cap must be >= 1, got {spread_cap}")
    if not 0.0 < accuracy < 1.0:
        raise ValueError(f"accuracy must lie in (0, 1), got {accuracy}")
    return accuracy / (accuracy + spread_cap * (1.0 - accuracy))


def detect_ignorance(
    profile: StationaryProfile, decisions: np.ndarray, tol: float = IGNORANCE_TOL
) -> set[int]:
    """Actions the mechanism has asymptotically abandoned.

    An action is ignored when no memory state decides it, or when the
    states that do carry at most ``tol`` occupancy under *every* state of
    the world.  Exact-zero occupancy is the idealized notion; the
    tolerance makes it decidable in floating point.
    """
    decisions = np.asarray(decisions)
    ignored = set()
    for w in range(profile.n_states):
        region = decisions == w
        if not region.any() or profile.occupancy[:, region].sum(axis=1).max() <= tol:
            ignored.add(w)
    return ignored


def ignorance_predicate(
    problem: Problem, varsigma: float, m_size: int, w: int
) -> bool:
    """Is abandoning action ``w`` forced on any near-optimal mechanism?

    With every one-shot density ratio at least ``varsigma``, no
    ``m_size``-state mechanism can tilt occupancy toward ``w`` by more
    than ``varsigma**(-2 * (m_size - 1))``.  If some rival state's
    stake ``u * p`` exceeds ``w``'s by more than that factor, the rival
    outbids ``w`` at every memory state, so mechanisms close enough to
    optimal never play ``w``.
    """
    if not 0.0 < varsigma < 1.0:
        raise ValueError(f"varsigma must lie in (0, 1), got {varsigma}")
    if m_size < 1:
        raise ValueError(f"m_size must be >= 1, got {m_size}")
    if not 0 <= w < problem.n_states:
        raise ValueError(f"state {w} out of range")
    stakes = problem.stakes
    tilt = varsigma ** (2 * (m_size - 1))
    own = stakes[w]
    return bool(any(tilt * stakes[w2] / own > 1.0 for w2 in range(problem.n_states)))


@dataclass(frozen=True)
class WorldClassification:
    """Small/big verdict for a world of ``n`` states against memory ``m``."""

    label: str
    ratio: float

    def to_json(self) -> dict:
        return {"label": self.label, "ratio": self.ratio}


def classify_world(
    n: int, m: int, threshold: float = WORLD_RATIO_THRESHOLD
) -> WorldClassification:
    """Call the instance Small when ``n/m`` falls below ``threshold``.

    The underlying notion is asymptotic (the ratio tending to zero versus
    staying bounded away from it), so any finite cutoff is a proxy; the
    threshold is exposed rather than hidden for that reason.
    """
    if m < 1:
        raise ValueError(f"memory size must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"state count must be >= 1, got {n}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    ratio = n / m
    label = "Small" if ratio < threshold else "Big"
    return WorldClassification(label=label, ratio=ratio)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Bundle of the per-mechanism read-outs, JSON-serializable.

    ``spreads[w, w2]`` is ``nan`` where a decision region is empty (the
    spread is undefined there); ``spread_bounds`` has 1 on the diagonal.
    Non-finite entries serialize as ``null``.
    """

    likelihood_ratios: np.ndarray
    spreads: np.ndarray
    spread_bounds: np.ndarray
    ignored_states: frozenset
    world_class: WorldClassification

    def to_json(self) -> dict:
        def scrub(value: float):
            return float(value) if math.isfinite(value) else None

        return {
            "likelihood_ratios": [
                [[scrub(x) for x in row] for row in block]
                for block in self.likelihood_ratios
            ],
            "spreads": [[scrub(x) for x in row] for row in self.spreads],
            "spread_bounds": [[scrub(x) for x in row] for row in self.spread_bounds],
            "ignored_states": sorted(int(w) for w in self.ignored_states),
            "world_class": self.world_class.to_json(),
        }


def diagnostics_report(
    problem: Problem,
    mech: UpdatingMechanism,
    profile: StationaryProfile,
    tol: float = IGNORANCE_TOL,
    threshold: float = WORLD_RATIO_THRESHOLD,
) -> DiagnosticsReport:
    """Every diagnostic for one mechanism, from its solved occupancy profile."""
    n = problem.n_states
    ratios = likelihood_ratio_matrix(profile)
    spreads = np.full((n, n), np.nan)
    bounds = np.ones((n, n))
    for w in range(n):
        for w2 in range(n):
            if w != w2:
                bounds[w, w2] = spread_upper_bound(problem.model, mech.m_size, w, w2)
            try:
                spreads[w, w2] = spread(profile, mech.decision, w, w2)
            except ValueError:
                pass
    return DiagnosticsReport(
        likelihood_ratios=ratios,
        spreads=spreads,
        spread_bounds=bounds,
        ignored_states=frozenset(detect_ignorance(profile, mech.decision, tol)),
        world_class=classify_world(n, mech.m_size, threshold),
    )


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def star_occupancy_closed_form(
    model: SignalModel,
    lotteries: list[Lottery] | None,
    lam: int,
    delta: float,
    w: int,
) -> np.ndarray:
    """Exact occupancy of the star mechanism under state ``w``.

    Each branch is a birth-death ladder whose up/down odds do not depend
    on the level, so its occupancy is geometric with ratio
    ``r = delta * F_w(own) / F_w(others)`` anchored at the center.  The
    result is ordered like the built mechanism: center first, then each
    branch inward-to-tip.  Matching the linear-algebra solver on this is
    a two-independent-computations check, which is why the construction
    is kept separate from :func:`famlearn.automata.build_star`.
    """
    if lam < 1:
        raise ValueError(f"branch depth must be >= 1, got {lam}")
    if not delta > 1.0:
        raise ValueError(f"star mechanisms need delta > 1, got {delta}")
    if not 0 <= w < model.n_states:
        raise ValueError(f"state {w} out of range")
    if lotteries is None:
        lotteries = confirmatory_lotteries(model)
    check_star_condition(model, delta, lotteries)
    F = _confirmation_matrix(model, lotteries)
    totals = F.sum(axis=1)
    n = model.n_states
    ratios = np.array(
        [delta * F[w, w2] / (totals[w] - F[w, w2]) for w2 in range(n)]
    )
    # ratio**lam leaves the float range on deep branches: work in logs.
    levels = np.outer(np.log(ratios), np.arange(1, lam + 1))
    logs = np.concatenate(([0.0], levels.ravel()))
    occ = np.exp(logs - logs.max())
    return occ / occ.sum()


@dataclass(frozen=True)
class PairCommitmentLosses:
    """Losses of every two-memory-state commitment in the 3-state world.

    Keys are 0-based action pairs: ``(a, a)`` plays ``a`` in both memory
    states, ``(a, b)`` splits the two states between the actions.  The
    ``(0, 2)`` pattern is omitted because it costs exactly as much as
    ``(0, 1)`` — states 1 and 2 are symmetric.  ``argmin`` is the
    cheapest pattern, first-listed on ties.
    """

    losses: dict
    argmin: tuple

    def to_json(self) -> dict:
        return {
            "losses": {f"{a}-{b}": float(v) for (a, b), v in self.losses.items()},
            "argmin": f"{self.argmin[0]}-{self.argmin[1]}",
        }


def pair_commitment_losses(nu: float, tau: float, ups: float) -> PairCommitmentLosses:
    """Exact minimal losses in the skewed three-state world, by pattern.

    The world has prior ``(1/3 + 2*nu, 1/3 - nu, 1/3 - nu)`` and unit
    payoffs.  ``tau`` caps the pairwise informativeness of state 0
    against either rival (two-state spread at most ``1 + tau``), ``ups``
    the informativeness between states 1 and 2 (spread at most
    ``1 + ups``); the closed forms assume signal structures that attain
    these caps, such as :func:`pair_commitment_problem`.  ``ups`` is a
    deliberate name: it is an informativeness parameter, not the spread
    diagnostic, even though both ideas cap the same ratio.

    Requires ``ups > tau > 0``, ``nu`` in ``[0, 1/3)``, and a prior not
    so skewed that committing to action 0 beats hedging:
    ``1 + tau >= (1/3 + 2*nu) / (1/3 - nu)``.
    """
    if not 0.0 <= nu < 1.0 / 3.0:
        raise ValueError(f"nu must lie in [0, 1/3), got {nu}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not ups > tau:
        raise ValueError(f"need ups > tau, got ups={ups}, tau={tau}")
    p_major = 1.0 / 3.0 + 2.0 * nu
    p_minor = 1.0 / 3.0 - nu
    if not 1.0 + tau >= p_major / p_minor:
        raise ValueError(
            f"prior too skewed for tau: need 1+tau >= {p_major / p_minor:.6f}, "
            f"got {1.0 + tau}"
        )
    loss_01 = p_minor + (
        2.0 * math.sqrt((1.0 + tau) * p_major * p_minor) - (p_major + p_minor)
    ) / tau
    loss_12 = p_major + 2.0 * p_minor / (math.sqrt(1.0 + ups) + 1.0)
    losses = {
        (0, 0): p_minor + p_minor,
        (1, 1): p_major + p_minor,
        (2, 2): p_major + p_minor,
        (0, 1): loss_01,
        (1, 2): loss_12,
    }
    argmin = min(losses, key=lambda key: (losses[key], key))
    return PairCommitmentLosses(losses=losses, argmin=argmin)


def pair_commitment_problem(nu: float, tau: float, ups: float) -> Problem:
    """A three-signal world attaining the informativeness caps exactly.

    Builds densities whose largest one-shot ratio products are exactly
    ``1 + tau`` for the 0–1 and 0–2 pairs and ``1 + ups`` for the 1–2
    pair, so the pattern losses from :func:`pair_commitment_losses` are
    achieved rather than merely bounded.  Needs
    ``1 + ups <= (1 + tau)**2`` — beyond that no three-signal table can
    keep the 0-versus-rival ratios down while spreading 1 versus 2 out.
    """
    if not ups > tau > 0.0:
        raise ValueError(f"need ups > tau > 0, got tau={tau}, ups={ups}")
    if not 1.0 + ups <= (1.0 + tau) ** 2:
        raise ValueError(
            "no attaining 3-signal alphabet: need 1 + ups <= (1 + tau)**2, "
            f"got 1+ups={1.0 + ups}, (1+tau)**2={(1.0 + tau) ** 2}"
        )
    r = math.sqrt(1.0 + tau)
    q = math.sqrt(1.0 + ups)
    v = (r - 1.0) * q / (r * r * (q + 1.0) - 2.0 * q)
    w = 1.0 - 2.0 * v
    mass = np.array(
        [
            [w, v, v],
            [w / r, r * v, r * v / q],
            [w / r, r * v / q, r * v],
        ]
    )
    model = SignalModel(n_states=3, alphabet_size=3, mass=mass)
    p_major = 1.0 / 3.0 + 2.0 * nu
    p_minor = 1.0 / 3.0 - nu
    return Problem(
        model=model,
        utilities=np.ones(3),
        prior=np.array([p_major, p_minor, p_minor]),
    )


def symmetric_utilities(n: int, info: float):
    """Vanishing-step utilities of the two symmetric designs, and a verdict.

    Returns ``(u_full, u_ignorant, ignorant_better)`` where ``u_full``
    is the utility of tracking every action with one memory state each
    and ``u_ignorant`` that of spending two confidence levels on half the
    actions.  The verdict evaluates the closed-form crossover inequality,
    which flips to the ignorant design once ``n`` is large enough for a
    given informativeness ``info``.
    """
    if n < 4 or n % 2:
        raise ValueError(f"need an even n >= 4, got {n}")
    if not info > 1.0:
        raise ValueError(f"informativeness must exceed 1, got {info}")
    u_full = info / (n + info - 1.0)
    bulk = n + 2.0 * info - 4.0
    u_ignorant = info**2 * bulk / (2.0 * info**2 * bulk + (n - 2.0) ** 2)
    lhs = (n + (info - 4.0) / 2.0) ** 2
    rhs = (4.0 + info * (2.0 * info - 4.0) * (info + 1.0)) / (info - 1.0) + (
        info - 4.0
    ) ** 2 / 4.0
    return u_full, u_ignorant, bool(lhs > rhs)
