"""Bounded-memory updating mechanisms and the standard constructions.

An :class:`UpdatingMechanism` is a finite automaton over ``m_size`` memory
states: on receiving signal ``s`` in memory state ``m`` it moves to ``m2``
with probability ``transition[m, s, m2]``, and in each memory state it
takes the (deterministic) action ``decision[m]``.  The rule is stationary:
the same tensor applies at every period, which is what makes long-run
behavior a Markov chain question (see :mod:`famlearn.chain`).

Builders provided here:

* :func:`build_line` — a deterministic birth-death ladder for two states
  of the world: step up on signals favoring state 0, down otherwise.
* :func:`build_star` — a hub-and-spokes automaton: a central undecided
  state plus one branch of ``lam`` confidence levels per action.  Signals
  are first passed through confirmation lotteries; own-branch confirmation
  moves the agent outward, contradicting confirmation moves it inward but
  only with probability ``1/delta`` (underreaction), which is exactly what
  drives own-branch occupancy to 1 as ``lam`` grows.
* :func:`build_noisy_star` — the same with probability ``gamma`` of a
  purely local random slip each period.
* :func:`build_symmetric_full` / :func:`build_symmetric_ignorant` — the
  one-memory-state-per-action design versus the design that spends two
  confidence levels on each of half the actions and ignores the rest,
  both over the symmetric alphabet where the true state's own signal is
  ``info`` times as likely as any other.

All indices (memory states, signals, actions) are 0-based, in code and in
JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StarConditionError
from .signals import (
    Lottery,
    SignalModel,
    confirmatory_lotteries,
    expected_lottery_mass,
)
from .sparse import SparseRows

#: Transition rows must sum to 1 within this tolerance.
TRANSITION_ROW_TOL = 1e-12

BLUEPRINT_FAMILIES = (
    "line",
    "star",
    "noisy_star",
    "symmetric_full",
    "symmetric_ignorant",
)


class UpdatingMechanism:
    """A stationary memory-update rule plus a deterministic decision rule.

    On signal ``s`` in memory state ``m`` the agent moves to ``m2`` with
    probability ``transition[m, s, m2]``.  ``decision[m]`` is the action
    index taken while in ``m`` (actions are state-of-the-world indices).
    ``initial_state`` matters only when the induced chain is reducible,
    but is always carried so runs are reproducible.

    ``transition`` is given either as the dense ``(m_size, alphabet_size,
    m_size)`` tensor or as :class:`~famlearn.sparse.SparseRows` with one
    row per (state, signal) pair, row ``m * alphabet_size + s``.  The
    mechanism keeps the sparse form as ``rows``, which is all the chain
    analysis reads; the dense tensor is built on the first read of
    ``transition``.  Instances are treated as immutable.
    """

    __slots__ = (
        "m_size", "alphabet_size", "rows", "decision", "initial_state", "_dense", "_moves"
    )

    def __init__(self, m_size: int, transition, decision, initial_state: int = 0):
        if isinstance(transition, SparseRows):
            rows, dense = transition, None
            if m_size < 1 or rows.width != m_size or len(rows) % m_size:
                raise ValueError(
                    f"transition rows must be (m*s, m) with m={m_size}, "
                    f"got ({len(rows)}, {rows.width})"
                )
            alphabet = len(rows) // m_size
        else:
            dense = np.asarray(transition, dtype=np.float64)
            if dense.ndim != 3 or dense.shape[0] != dense.shape[2]:
                raise ValueError(
                    f"transition must have shape (m, s, m), got {dense.shape}"
                )
            if m_size != dense.shape[0]:
                raise ValueError(f"m_size={m_size} does not match tensor {dense.shape}")
            alphabet = dense.shape[1]
            rows = SparseRows.from_dense(dense.reshape(m_size * alphabet, m_size))
            dense.setflags(write=False)
        decision = np.asarray(decision, dtype=np.int64)
        if decision.shape != (m_size,):
            raise ValueError(
                f"decision must have one action per memory state, got {decision.shape}"
            )
        if (decision < 0).any():
            raise ValueError("decision entries must be nonnegative action indices")
        if not 0 <= initial_state < m_size:
            raise ValueError(f"initial_state {initial_state} out of range")
        if (rows.value < 0).any():
            raise ValueError("transition probabilities must be nonnegative")
        row_sums = rows.row_sums()
        gap = np.abs(row_sums - 1.0)
        worst = float(gap.max())
        if worst > TRANSITION_ROW_TOL:
            bad = int(gap.argmax())
            raise ValueError(
                f"transition row (m={bad // alphabet}, s={bad % alphabet}) sums to "
                f"{row_sums[bad]!r}, off by {worst:.2e}"
            )
        decision.setflags(write=False)
        self.m_size = m_size
        self.alphabet_size = alphabet
        self.rows = rows
        self.decision = decision
        self.initial_state = initial_state
        self._dense = dense
        self._moves = None

    @property
    def transition(self) -> np.ndarray:
        """The dense ``(m_size, alphabet_size, m_size)`` tensor."""
        if self._dense is None:
            dense = self.rows.dense().reshape(self.m_size, self.alphabet_size, self.m_size)
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    @property
    def moves(self):
        """Each (state, successor) pair the rule takes on some signal.

        Returns ``(source, target, prob)``, ordered by source, then target,
        with ``prob[i, s]`` the chance of move ``i`` on signal ``s``.
        """
        if self._moves is None:
            state, signal = np.divmod(self.rows.row_index, self.alphabet_size)
            move, which = np.unique(
                state * self.m_size + self.rows.index, return_inverse=True
            )
            prob = np.zeros((move.size, self.alphabet_size))
            prob[which, signal] = self.rows.value
            self._moves = (*np.divmod(move, self.m_size), prob)
        return self._moves

    def __repr__(self) -> str:
        return (
            f"UpdatingMechanism(m_size={self.m_size}, alphabet_size={self.alphabet_size}, "
            f"nonzeros={self.rows.nnz}, initial_state={self.initial_state})"
        )

    def to_json(self) -> dict:
        return {
            "m": self.m_size,
            "transition": [
                [[float(x) for x in row] for row in per_signal]
                for per_signal in self.transition
            ],
            "decision": [int(a) for a in self.decision],
            "initial": int(self.initial_state),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "UpdatingMechanism":
        return cls(
            m_size=int(obj["m"]),
            transition=np.asarray(obj["transition"], dtype=np.float64),
            decision=np.asarray(obj["decision"], dtype=np.int64),
            initial_state=int(obj.get("initial", 0)),
        )


def _mechanism(m_size: int, alphabet: int, parts, decision) -> UpdatingMechanism:
    """Mechanism from ``(state, signal, successor, probability)`` parts.

    The four fields of a part broadcast against each other.  Probability
    landing on one (state, signal, successor) cell adds up in the order
    given, as ``+=`` into a zero tensor would.
    """
    shapes = [np.broadcast(*part).shape for part in parts]
    total = sum(math.prod(shape) for shape in shapes)
    fields = [np.empty(total, np.int64) for _ in range(3)] + [np.empty(total)]
    start = 0
    for part, shape in zip(parts, shapes):
        stop = start + math.prod(shape)
        for field, x in zip(fields, part):
            field[start:stop].reshape(shape)[...] = x
        start = stop
    state, signal, succ, prob = fields
    rows = SparseRows.from_entries(
        state * alphabet + signal, succ, prob, m_size * alphabet, m_size
    )
    return UpdatingMechanism(m_size=m_size, transition=rows, decision=decision)


@dataclass(frozen=True)
class MechanismBlueprint:
    """A buildable description of a mechanism family plus its parameters.

    ``family`` is one of ``line``, ``star``, ``noisy_star``,
    ``symmetric_full``, ``symmetric_ignorant``.  ``params`` carries the
    family's knobs: ``m_size`` (line), ``lam``/``delta`` (star families,
    ``delta > 1``), ``gamma`` (noisy star), ``n``/``info``/``delta``
    (symmetric families, ``delta < 1``).  Blueprints exist so experiment
    files can name a construction instead of shipping a tensor.
    """

    family: str
    params: dict

    def __post_init__(self):
        if self.family not in BLUEPRINT_FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {BLUEPRINT_FAMILIES}"
            )
        object.__setattr__(self, "params", dict(self.params))

    def to_json(self) -> dict:
        return {"family": self.family, "params": dict(sorted(self.params.items()))}

    @classmethod
    def from_json(cls, obj: dict) -> "MechanismBlueprint":
        return cls(family=str(obj["family"]), params=dict(obj.get("params", {})))


def transition_kernel(mech: UpdatingMechanism, model: SignalModel, w: int) -> SparseRows:
    """Signal-averaged one-period kernel ``Q^w`` when the true state is ``w``.

    Each of the mechanism's moves gets its chance on each signal times
    ``mass[w, s]``, added in signal order, so ``Q^w`` holds no more
    entries than the mechanism has moves.
    """
    if model.alphabet_size != mech.alphabet_size:
        raise ValueError(
            f"alphabet mismatch: model has {model.alphabet_size} signals, "
            f"mechanism expects {mech.alphabet_size}"
        )
    source, target, prob = mech.moves
    value = 0.0
    for s in range(mech.alphabet_size):
        value = value + prob[:, s] * model.mass[w, s]
    keep = value != 0.0
    return SparseRows.from_sorted(
        source[keep], target[keep], value[keep], mech.m_size, mech.m_size
    )


def expected_transition_matrix(
    mech: UpdatingMechanism, model: SignalModel, w: int
) -> np.ndarray:
    """:func:`transition_kernel` as a dense ``(m_size, m_size)`` array."""
    return transition_kernel(mech, model, w).dense()


# ---------------------------------------------------------------------------
# line (birth-death ladder) for two states of the world
# ---------------------------------------------------------------------------


def build_line(model: SignalModel, m_size: int) -> UpdatingMechanism:
    """Deterministic ladder: up on signals where state 0 is likelier.

    Signals with ``mass[0][s] > mass[1][s]`` move one memory state up
    (saturating at the top), all others — including exact ties, which
    carry no information — move one state down (saturating at the
    bottom).  The lower half of the ladder decides action 1, the upper
    half action 0.
    """
    if model.n_states != 2:
        raise ValueError(f"line mechanism needs exactly 2 states, got {model.n_states}")
    if m_size < 2:
        raise ValueError(f"line mechanism needs m_size >= 2, got {m_size}")
    step = np.where(model.mass[0] > model.mass[1], 1, -1)
    successor = np.clip(np.arange(m_size)[:, None] + step, 0, m_size - 1).ravel()
    # One successor per (state, signal) row, so the rows come sorted.
    rows = SparseRows.from_sorted(
        np.arange(successor.size), successor, np.ones(successor.size),
        successor.size, m_size,
    )
    decision = np.array([1] * (m_size // 2) + [0] * (m_size - m_size // 2))
    return UpdatingMechanism(m_size=m_size, transition=rows, decision=decision)


# ---------------------------------------------------------------------------
# star and noisy star
# ---------------------------------------------------------------------------


def _confirmation_matrix(model: SignalModel, lotteries: list[Lottery]) -> np.ndarray:
    """``F[w, w2]`` = chance lottery ``w2`` confirms when the state is ``w``."""
    n = model.n_states
    out = np.empty((n, n))
    for w in range(n):
        for w2 in range(n):
            out[w, w2] = expected_lottery_mass(model, w, lotteries[w2])
    return out


def check_star_condition(
    model: SignalModel, delta: float, lotteries: list[Lottery]
) -> None:
    """Raise unless every branch drifts outward under every true state.

    The requirement is ``delta * F^w(S^w2) > sum_{w3 != w2} F^w(S^w3)``
    for all ``(w, w2)``: even the least-confirmed branch must beat the
    dampened inward pull, otherwise the geometric occupancy profile
    breaks down.
    """
    F = _confirmation_matrix(model, lotteries)
    totals = F.sum(axis=1)
    for w in range(model.n_states):
        for w2 in range(model.n_states):
            other = totals[w] - F[w, w2]
            ratio = np.inf if other == 0 else delta * F[w, w2] / other
            if not ratio > 1.0:
                raise StarConditionError(w, w2, float(ratio), float(delta))


def minimal_star_delta(
    model: SignalModel, lotteries: list[Lottery] | None = None, safety: float = 2.0
) -> float:
    """Smallest feasible underreaction scale, padded by ``safety``.

    Returns ``safety`` times the infimum ``delta`` satisfying the star
    drift condition (and never less than ``safety`` itself, since the
    construction needs ``delta > 1``).
    """
    if lotteries is None:
        lotteries = confirmatory_lotteries(model)
    F = _confirmation_matrix(model, lotteries)
    totals = F.sum(axis=1)
    needed = 1.0
    for w in range(model.n_states):
        for w2 in range(model.n_states):
            other = totals[w] - F[w, w2]
            if F[w, w2] > 0:
                needed = max(needed, other / F[w, w2])
    return safety * needed


def _star_layout(n_states: int, lam: int, m_size: int | None):
    core = n_states * lam + 1
    if m_size is None:
        m_size = core
    if m_size < core:
        raise ValueError(f"m_size={m_size} cannot hold {n_states} branches of depth {lam}")
    return core, m_size


def _branch_state(branch, depth, lam: int):
    """Memory index of the given branch/depth (or depths); the center is 0."""
    return 1 + branch * lam + (depth - 1)


def build_star(
    model: SignalModel,
    lam: int,
    delta: float,
    lotteries: list[Lottery] | None = None,
    m_size: int | None = None,
) -> UpdatingMechanism:
    """Hub automaton with one confidence branch per action.

    From the center, the agent enters branch ``w`` whenever lottery ``w``
    confirms.  Inside branch ``w`` at depth ``k``, own confirmation moves
    one step outward (absorbed into staying at the tip), any other
    branch's confirmation moves one step inward with probability
    ``1/delta``, and otherwise the agent stays put.  Branch states decide
    their branch's action; the center (whose long-run weight vanishes as
    ``lam`` grows) is pinned to action 0 to keep decisions deterministic.
    Memory states beyond the ``n*lam + 1`` core, if any, self-loop and are
    never entered from the center.
    """
    m_size, parts, decision = _star_parts(model, lam, delta, lotteries, m_size)
    return _mechanism(m_size, model.alphabet_size, parts, decision)


def _star_parts(model, lam, delta, lotteries, m_size):
    """Check a star's parameters; return its size, parts and decisions."""
    if lam < 1:
        raise ValueError(f"branch depth must be >= 1, got {lam}")
    if not delta > 1.0:
        raise ValueError(f"star mechanisms need delta > 1, got {delta}")
    if model.n_states < 2:
        raise ValueError("star mechanism needs at least 2 states of the world")
    if lotteries is None:
        lotteries = confirmatory_lotteries(model)
    if len(lotteries) != model.n_states:
        raise ValueError(
            f"need one lottery per state: {len(lotteries)} != {model.n_states}"
        )
    check_star_condition(model, delta, lotteries)

    n, alphabet = model.n_states, model.alphabet_size
    core, m_size = _star_layout(n, lam, m_size)
    S = np.vstack([lot.weights for lot in lotteries])  # (n, alphabet)
    col_total = S.sum(axis=0)
    if col_total.max() > 1.0 + TRANSITION_ROW_TOL:
        raise ValueError("lottery weights exceed 1 on some signal; cannot branch")

    # Axes: branch, depth, signal.
    signals = np.arange(alphabet)
    depth = np.arange(1, lam + 1)[:, None]
    u = _branch_state(np.arange(n)[:, None, None], depth, lam)
    up_mass = S[:, None, :]
    down_mass = ((col_total - S) / delta)[:, None, :]
    stay = np.where(depth < lam, 1.0 - down_mass - up_mass, 1.0 - down_mass)
    extra = np.arange(core, m_size)[:, None]
    parts = [
        # Weights summing to 1 plus an ulp would leave -1e-16 here.
        (0, signals, 0, np.maximum(0.0, 1.0 - col_total)),
        (0, signals, u[:, 0], S),
        (u[:, :-1], signals, u[:, :-1] + 1, up_mass),
        (u, signals, np.where(depth >= 2, u - 1, 0), down_mass),
        (u, signals, u, stay),
        (extra, signals, extra, 1.0),
    ]
    decision = np.zeros(m_size, dtype=np.int64)
    decision[u[..., 0]] = np.arange(n)[:, None]
    return m_size, parts, decision


def build_noisy_star(
    model: SignalModel,
    lam: int,
    delta: float,
    gamma: float,
    lotteries: list[Lottery] | None = None,
    m_size: int | None = None,
) -> UpdatingMechanism:
    """Star mechanism with probability ``gamma`` of a local random slip.

    Each period, with probability ``1 - gamma`` the star rule applies;
    with probability ``gamma`` the agent instead moves to a uniformly
    chosen neighbor: the center slips into a random branch's first level,
    a first-level state slips half up / half back to the center, interior
    states slip half a level either way, and a tip slips one level inward
    (for ``lam == 1`` a branch state is a tip, so it slips to the center).
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    m_size, parts, decision = _star_parts(model, lam, delta, lotteries, m_size)
    n, alphabet = model.n_states, model.alphabet_size
    core, m_size = _star_layout(n, lam, m_size)

    parts = [(*part[:3], (1.0 - gamma) * part[3]) for part in parts]
    # Slips (state, successor, chance), the same under every signal.
    branch = np.arange(n)
    depth = np.arange(1, lam)  # below the tip
    u = _branch_state(branch[:, None], depth, lam)
    tip = _branch_state(branch, lam, lam)
    extra = np.arange(core, m_size)
    slips = [
        (0, _branch_state(branch, 1, lam), 1.0 / n),
        (u, u + 1, 0.5),
        (u, np.where(depth >= 2, u - 1, 0), 0.5),
        (tip, tip - 1 if lam >= 2 else 0, 1.0),
        (extra, extra, 1.0),
    ]
    signals = np.arange(alphabet)
    parts += [
        (np.reshape(source, (-1, 1)), signals, np.reshape(target, (-1, 1)), gamma * chance)
        for source, target, chance in slips
    ]
    return _mechanism(m_size, alphabet, parts, decision)


# ---------------------------------------------------------------------------
# symmetric families (one signal per state, own signal `info` times likelier)
# ---------------------------------------------------------------------------


def symmetric_model(n: int, info: float) -> SignalModel:
    """Alphabet of one signal per state; own signal ``info`` times likelier."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not info > 1.0:
        raise ValueError(f"informativeness must exceed 1, got {info}")
    base = 1.0 / (n + info - 1.0)
    mass = np.full((n, n), base)
    np.fill_diagonal(mass, info * base)
    return SignalModel(n_states=n, alphabet_size=n, mass=mass)


def build_symmetric_full(n: int, info: float, delta: float):
    """One memory state per action; jump to the signaled action w.p. ``delta``.

    Returns ``(mechanism, model)`` over the symmetric alphabet.  The
    long-run correct-action probability works out to
    ``info / (n + info - 1)`` under every state, independent of ``delta``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"symmetric family needs 0 < delta < 1, got {delta}")
    model = symmetric_model(n, info)
    state = np.arange(n)[:, None]
    signal = np.arange(n)
    parts = [(state, signal, signal, delta), (state, signal, state, 1.0 - delta)]
    return _mechanism(n, n, parts, np.arange(n)), model


def build_symmetric_ignorant(n: int, info: float, delta: float):
    """Two confidence levels for each of the first ``n/2`` actions.

    Returns ``(mechanism, model)``.  Action ``a < n/2`` owns memory states
    ``2a`` (doubting) and ``2a + 1`` (confident).  Own-action signals
    promote; rival considered-action signals demote the confident state or
    switch the doubting state to the rival's doubting state, each with
    probability ``delta``; signals for the ignored half of the actions
    change nothing.  Actions ``a >= n/2`` are never taken.
    """
    if n < 4 or n % 2:
        raise ValueError(f"ignorant design needs an even n >= 4, got {n}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"symmetric family needs 0 < delta < 1, got {delta}")
    model = symmetric_model(n, info)
    half = n // 2
    entries = []
    decision = np.zeros(n, dtype=np.int64)
    for a in range(half):
        lo, hi = 2 * a, 2 * a + 1
        decision[lo] = decision[hi] = a
        for s in range(n):
            if s == a:
                entries += [(hi, s, hi, 1.0), (lo, s, hi, 1.0)]
            elif s < half:
                entries += [(hi, s, lo, delta), (hi, s, hi, 1.0 - delta)]
                entries += [(lo, s, 2 * s, delta), (lo, s, lo, 1.0 - delta)]
            else:
                entries += [(hi, s, hi, 1.0), (lo, s, lo, 1.0)]
    return _mechanism(n, n, [tuple(map(np.array, zip(*entries)))], decision), model


# ---------------------------------------------------------------------------
# blueprints
# ---------------------------------------------------------------------------


def build_from_blueprint(
    blueprint: MechanismBlueprint, model: SignalModel | None = None
):
    """Realize a blueprint; returns ``(mechanism, model)``.

    The line and star families require the caller's ``model``; the
    symmetric families generate their own and reject a supplied one so a
    mismatch cannot pass silently.
    """
    fam, p = blueprint.family, blueprint.params
    if fam in ("line", "star", "noisy_star"):
        if model is None:
            raise ValueError(f"family {fam!r} needs a signal model")
        if fam == "line":
            return build_line(model, int(p["m_size"])), model
        lam = int(p["lam"])
        delta = float(p["delta"])
        m_size = int(p["m_size"]) if "m_size" in p else None
        if fam == "star":
            return build_star(model, lam, delta, m_size=m_size), model
        return (
            build_noisy_star(model, lam, delta, float(p["gamma"]), m_size=m_size),
            model,
        )
    if model is not None:
        raise ValueError(f"family {fam!r} generates its own model; do not pass one")
    n = int(p["n"])
    info = float(p["info"])
    delta = float(p["delta"])
    if fam == "symmetric_full":
        return build_symmetric_full(n, info, delta)
    return build_symmetric_ignorant(n, info, delta)
