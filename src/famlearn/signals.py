"""Finite signal structures and the confirmatory-lottery construction.

A :class:`SignalModel` assigns each state of the world a probability mass
function over a shared finite signal alphabet.  Everything downstream
(automaton builders, stationary analysis, diagnostics) consumes these
models.  States and signals are indexed from 0 throughout the package,
including in the JSON serialization.

The module also houses the two generative constructions used by the rest
of the package:

* :func:`confirmatory_lotteries` — for each state ``w``, a randomized rule
  that labels an incoming signal as "supporting w".  Weights are
  proportional to ``mass[w][s]`` scaled by the row's Euclidean norm, so by
  the Cauchy-Schwarz inequality the true state is strictly the most likely
  to be confirmed.  A common scale factor keeps every lottery and every
  per-signal column a valid sub-probability.
* :func:`rademacher_family` — stepped two-level mass functions whose
  low/high pattern follows the binary (Rademacher) pattern of the bin
  index, one frequency per state.  Any two distinct members have the same
  Cauchy-Schwarz divergence ``log(10/9)`` and density ratios confined to
  ``[1/2, 2]``, which makes the family a convenient stress test: states
  are pairwise identifiable but only barely so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IdenticalRowsError

#: Two rows closer than this (max absolute difference) count as identical.
IDENTICAL_ROW_TOL = 1e-12

#: Row sums must match 1 within this tolerance to validate.
ROW_SUM_TOL = 1e-12

#: Largest state count accepted by rademacher_family (alphabet is 2**n bins).
RADEMACHER_CAP = 12


@dataclass(frozen=True)
class SignalModel:
    """Per-state signal distributions over a finite alphabet.

    ``mass[w, s]`` is the probability of signal ``s`` when the state of the
    world is ``w``.  The constructor only enforces shape and finiteness;
    numeric well-formedness (row sums, nonnegativity, full support) is the
    job of :func:`validate`, so that malformed inputs can be *reported*
    rather than exploded on.
    """

    n_states: int
    alphabet_size: int
    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.ndim != 2:
            raise ValueError(f"mass must be a 2-D array, got shape {mass.shape}")
        if self.n_states < 1:
            # single-row models are legal so the generative families can
            # emit them; decision problems themselves need >= 2 states
            raise ValueError(f"need at least 1 state, got {self.n_states}")
        if self.alphabet_size < 2:
            raise ValueError(f"need at least 2 signals, got {self.alphabet_size}")
        if mass.shape != (self.n_states, self.alphabet_size):
            raise ValueError(
                f"mass shape {mass.shape} does not match "
                f"({self.n_states}, {self.alphabet_size})"
            )
        if not np.isfinite(mass).all():
            raise ValueError(f"mass must be finite, got {float(mass[~np.isfinite(mass)][0])}")
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @classmethod
    def from_rows(cls, rows) -> "SignalModel":
        """Build a model from a sequence of per-state mass rows."""
        mass = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        return cls(n_states=mass.shape[0], alphabet_size=mass.shape[1], mass=mass)

    def to_json(self) -> dict:
        return {
            "states": self.n_states,
            "alphabet": self.alphabet_size,
            "mass": self.mass.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SignalModel":
        return cls(
            n_states=int(obj["states"]),
            alphabet_size=int(obj["alphabet"]),
            mass=np.asarray(obj["mass"], dtype=np.float64),
        )


@dataclass(frozen=True)
class Lottery:
    """A sub-probability over the alphabet plus an explicit null outcome.

    ``weights[s]`` is the probability that signal ``s`` is labeled a hit;
    with probability ``null_mass`` the lottery returns nothing.  The two
    must form a probability distribution.
    """

    weights: np.ndarray
    null_mass: float

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 1:
            raise ValueError("lottery weights must be a vector")
        if (weights < 0).any() or self.null_mass < 0:
            raise ValueError("lottery weights and null mass must be nonnegative")
        total = float(weights.sum()) + float(self.null_mass)
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"lottery masses sum to {total!r}, not 1")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_weights(cls, weights) -> "Lottery":
        """Build a lottery from hit weights alone; the null soaks up the rest."""
        weights = np.asarray(weights, dtype=np.float64)
        return cls(weights=weights, null_mass=max(0.0, 1.0 - float(weights.sum())))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`.

    ``failures`` lists malformed rows by index; ``identical_pairs`` lists
    state pairs that are numerically indistinguishable.  ``min_ratio`` is
    the smallest cross-state density ratio found (the model's effective
    support bound), ``inf`` for a one-state model.
    """

    ok: bool
    min_ratio: float
    varsigma: float
    failures: tuple[str, ...]
    identical_pairs: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "min_ratio": self.min_ratio,
            "varsigma": self.varsigma,
            "failures": list(self.failures),
            "identical_pairs": [list(p) for p in self.identical_pairs],
        }


def _pair_min_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """Smallest value of num[s]/den[s]; a zero numerator pins it at 0."""
    out = np.full_like(num, np.inf)
    np.divide(num, den, out=out, where=den > 0)
    out[num == 0] = 0.0
    return float(out.min())


def min_density_ratio(model: SignalModel) -> float:
    """min over ordered state pairs and signals of mass[w][s] / mass[w2][s].

    This is the model's effective full-support constant: any zero mass
    anywhere drives it to 0.
    """
    best = math.inf
    for w in range(model.n_states):
        for w2 in range(model.n_states):
            if w == w2:
                continue
            best = min(best, _pair_min_ratio(model.mass[w], model.mass[w2]))
    return best


def _identical_pairs(mass: np.ndarray):
    """Yield each state pair ``(w, w2)``, ``w < w2``, whose rows agree
    entrywise within :data:`IDENTICAL_ROW_TOL`, by ``w`` and then ``w2``."""
    for w in range(len(mass) - 1):
        close = np.abs(mass[w + 1 :] - mass[w]).max(axis=1) < IDENTICAL_ROW_TOL
        for gap in np.flatnonzero(close):
            yield w, w + 1 + int(gap)


def validate(model: SignalModel, varsigma: float) -> ValidationReport:
    """Check full support above ``varsigma`` and pairwise identifiability.

    A model passes iff every row is a probability vector, the minimum
    cross-state density ratio exceeds ``varsigma``, and no two rows agree
    entrywise within :data:`IDENTICAL_ROW_TOL`.
    """
    failures: list[str] = []
    mass = model.mass
    for i in range(model.n_states):
        row = mass[i]
        if (row < 0).any():
            failures.append(f"row {i}: negative mass at signal {int(np.argmin(row))}")
        total = float(row.sum())
        if abs(total - 1.0) > ROW_SUM_TOL:
            failures.append(f"row {i}: masses sum to {total!r}, not 1")

    identical = list(_identical_pairs(mass))
    min_ratio = min_density_ratio(model)
    ok = (
        not failures
        and not identical
        and math.isfinite(min_ratio)
        and min_ratio > varsigma
    )
    return ValidationReport(
        ok=ok,
        min_ratio=min_ratio,
        varsigma=float(varsigma),
        failures=tuple(failures),
        identical_pairs=tuple(identical),
    )


def sup_likelihood_ratio(model: SignalModel, w: int, w2: int) -> float:
    """Largest single-signal likelihood ratio of state ``w`` against ``w2``."""
    if w == w2:
        raise ValueError(f"likelihood ratio needs two distinct states, got {w} twice")
    return float(_sup_ratios(model.mass[w], model.mass[w2]))


def _sup_ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Largest ``num / den`` over the last axis, broadcasting the others.

    A signal only ``den`` rules out counts as ``inf``; one both rule out, as 0.
    """
    out = np.full(np.broadcast_shapes(num.shape, den.shape), np.inf)
    np.divide(num, den, out=out, where=den > 0)
    out[(num == 0) & (den == 0)] = 0.0
    return out.max(axis=-1)


def cs_distance(model: SignalModel, w: int, w2: int) -> float:
    """Cauchy-Schwarz divergence between the two signal rows.

    ``-log( <f,g> / (||f|| ||g||) )``; zero exactly when the rows coincide,
    strictly positive otherwise.
    """
    f, g = model.mass[w], model.mass[w2]
    cosine = float(f @ g) / (float(np.linalg.norm(f)) * float(np.linalg.norm(g)))
    # rounding can push the cosine a hair above 1 for equal rows
    return max(0.0, -math.log(min(cosine, 1.0)))


def expected_lottery_mass(model: SignalModel, w: int, lottery: Lottery) -> float:
    """Probability that ``lottery`` confirms, given the state is ``w``."""
    return float(model.mass[w] @ lottery.weights)


def confirmatory_lotteries(model: SignalModel) -> list[Lottery]:
    """One confirmation lottery per state, own state strictly most likely.

    Lottery ``w`` weights signal ``s`` proportionally to
    ``mass[w][s] / ||mass[w]||``; the Cauchy-Schwarz inequality then makes
    the expected confirmation mass ``F^w(S^w)`` strictly larger than any
    cross term ``F^w(S^w2)`` as long as the rows differ.  All lotteries are
    scaled by one common ``beta`` chosen so that (a) each lottery's weights
    total at most 1 and (b) the weights assigned to any single signal
    across all lotteries total at most 1 — the latter so that a central
    automaton state can branch on "which lottery confirmed" as a bona fide
    randomization.  A common positive scale preserves every ratio between
    expected confirmation masses, so the strictness survives.
    """
    mass = model.mass
    pair = next(_identical_pairs(mass), None)
    if pair is not None:
        raise IdenticalRowsError(*pair)
    norms = np.sqrt((mass**2).sum(axis=1))
    raw = mass / norms[:, None]
    beta = min(
        1.0,
        1.0 / float(raw.sum(axis=0).max()),  # per-signal column totals
        1.0 / float(raw.sum(axis=1).max()),  # per-lottery weight totals
    )
    weights = beta * raw
    return [
        Lottery(weights=weights[w], null_mass=max(0.0, 1.0 - float(weights[w].sum())))
        for w in range(model.n_states)
    ]


def rademacher_family(n_states: int) -> SignalModel:
    """The stepped equal-divergence family on ``2**n_states`` equal bins.

    Row ``w`` takes the low value ``(2/3)/2**n`` on bins whose bit
    ``n - 1 - w`` (counting from the least significant) is 0 and the high
    value ``(4/3)/2**n`` otherwise, i.e. the alternation frequency doubles
    with each state.  Distinct rows then overlap on exactly half of each
    level pattern, giving every pair the same Cauchy-Schwarz divergence
    ``log(10/9)`` and min/max density ratios of exactly 1/2 and 2.
    """
    if n_states < 1:
        raise ValueError(f"need at least one state, got {n_states}")
    if n_states > RADEMACHER_CAP:
        raise ValueError(
            f"n_states={n_states} exceeds the cap {RADEMACHER_CAP} "
            f"(alphabet would have 2**{n_states} bins)"
        )
    n_bins = 2**n_states
    low = (2.0 / 3.0) / n_bins
    high = (4.0 / 3.0) / n_bins  # exactly 2 * low in binary floating point
    bins = np.arange(n_bins)
    mass = np.empty((n_states, n_bins))
    for w in range(n_states):
        bit = (bins >> (n_states - 1 - w)) & 1
        mass[w] = np.where(bit == 0, low, high)
    return SignalModel(n_states=n_states, alphabet_size=n_bins, mass=mass)
