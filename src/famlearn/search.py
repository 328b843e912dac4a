"""Searching for near-optimal mechanisms at a fixed memory budget.

The true optimum over stochastic mechanisms is an infimum that need not
be attained, so nothing here ever claims it.  Instead:

* :func:`enumerate_deterministic` brute-forces every mechanism whose
  transitions are deterministic, which is exact *within that class* and
  small enough to be a trustworthy reference on tiny instances;
* :func:`local_search` runs restarted simulated annealing over the full
  stochastic class, reporting the best loss found and an improvement
  trace;
* :func:`epsilon_gap` turns a reference loss (enumeration, a closed
  form, or a bound) into the certified suboptimality of a result.

Both searches re-optimize the decision rule at every evaluation — given
occupancies, the best action per memory state is a pointwise argmax, so
carrying decision variables would only slow things down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .automata import UpdatingMechanism
from .chain import Problem, _price, occupancy_profile
from .errors import BudgetExceededError

#: Enumeration refuses instances with more transition tables than this.
DEFAULT_ENUMERATION_BUDGET = 1_000_000
#: Doublings of the averaging operator; reaches horizon 2**this.
_CESARO_DOUBLINGS = 60


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for :func:`local_search`; defaults solve small instances fast.

    Proposals redraw one transition row from a Dirichlet centered on its
    current value with concentration ``row / step_scale``, so smaller
    ``step_scale`` means bolder moves; because the Dirichlet piles mass
    on faces when a row is already extreme, the walk can approach the
    deterministic corners where optima often sit.
    """

    m_size: int
    restarts: int = 8
    iterations: int = 5000
    step_scale: float = 0.25
    initial_temperature: float = 0.1
    cooling: float = 0.995
    seed: int = 0

    def __post_init__(self):
        if self.m_size < 1:
            raise ValueError(f"m_size must be >= 1, got {self.m_size}")
        if self.restarts < 1 or self.iterations < 1:
            raise ValueError("restarts and iterations must be >= 1")
        if not self.step_scale > 0.0:
            raise ValueError(f"step_scale must be positive, got {self.step_scale}")
        if not self.initial_temperature > 0.0:
            raise ValueError("initial_temperature must be positive")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError(f"cooling must lie in (0, 1), got {self.cooling}")

    def to_json(self) -> dict:
        return {
            "m_size": self.m_size,
            "restarts": self.restarts,
            "iterations": self.iterations,
            "step_scale": self.step_scale,
            "initial_temperature": self.initial_temperature,
            "cooling": self.cooling,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SearchConfig":
        return cls(**{k: obj[k] for k in obj})


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search: the mechanism, its exact loss, and provenance.

    ``loss`` is recomputed through the chain solver on the returned
    mechanism, so it is citable independent of any shortcuts the search
    took.  ``trace`` records (iteration, best-loss-so-far) improvement
    events and is non-increasing.  ``epsilon_gap`` is ``None`` until a
    reference is supplied: a gap nobody measured is unknown, not zero.
    """

    mechanism: UpdatingMechanism
    loss: float
    trace: tuple
    epsilon_gap: float | None = None

    def to_json(self) -> dict:
        return {
            "mechanism": self.mechanism.to_json(),
            "loss": self.loss,
            "trace": [[int(i), float(x)] for i, x in self.trace],
            "epsilon_gap": self.epsilon_gap,
        }


def epsilon_gap(result: SearchResult, reference_loss: float) -> float:
    """Suboptimality of ``result`` against a trusted reference loss.

    Clamped at zero: beating the reference means the reference was loose
    (or class-restricted), not that the gap is negative.
    """
    return max(0.0, result.loss - reference_loss)


def _exact_result(problem: Problem, transition: np.ndarray, trace) -> SearchResult:
    """Rebuild a candidate through the chain solver and price it exactly."""
    m_size = transition.shape[0]
    probe = UpdatingMechanism(
        m_size=m_size,
        transition=transition,
        decision=np.zeros(m_size, dtype=np.int64),
        initial_state=0,
    )
    profile = occupancy_profile(problem, probe)
    _, loss, decision = _price(problem.stakes, profile.occupancy)
    mech = UpdatingMechanism(m_size=m_size, transition=probe.rows, decision=decision)
    return SearchResult(mechanism=mech, loss=float(loss), trace=tuple(trace))


# ---------------------------------------------------------------------------
# exhaustive enumeration over deterministic transition tables
# ---------------------------------------------------------------------------


def _cesaro_rows(kernels: np.ndarray, initial: int) -> np.ndarray:
    """Long-run occupancy row of each stacked kernel, via averaged powers.

    Carries row ``initial`` of the Cesaro mean ``(I + Q + ... + Q^(T-1)) / T``
    to horizon ``T = 2**k`` by operator doubling, ``row <- (row + row Q^T) / 2``,
    which converges for periodic and reducible chains alike — both show up
    constantly among deterministic tables, so an eigenvector solve won't do.
    """
    row = np.zeros(kernels.shape[:-1])
    row[:, initial] = 1.0
    power = kernels.copy()
    for _ in range(_CESARO_DOUBLINGS):
        row = 0.5 * (row + (row[:, None, :] @ power)[:, 0, :])
        power = power @ power
        # Repeated squaring squares the row-sum error along with the
        # matrix, so renormalise every round; otherwise the drift grows
        # like (1 + eps)**(2**k) and wrecks the later horizons.
        row /= row.sum(axis=-1, keepdims=True)
        power /= power.sum(axis=-1, keepdims=True)
    return row


def _canonical_codes(tables: np.ndarray) -> np.ndarray:
    """Index of each table's canonical form among the raw tables.

    The canonical form relabels states in breadth-first order from state 0,
    scanning signals in order, and zeroes the rows of unreachable states
    (Almeida, Moreira & Reis, *Theor. Comput. Sci.* 387, 2007); neither
    changes the occupancy seen from state 0.  Read as base-``m`` digits,
    its entries give its own index in the enumeration order.
    """
    n_tables, m, alphabet = tables.shape
    rows = np.arange(n_tables)
    label = np.full((n_tables, m), -1)
    label[:, 0] = 0
    order = np.zeros((n_tables, m), dtype=np.int64)
    found = np.ones(n_tables, dtype=np.int64)
    codes = np.zeros(n_tables, dtype=np.int64)
    for pos in range(m * alphabet):
        state, signal = divmod(pos, alphabet)
        live = state < found
        target = tables[rows, order[:, state], signal]
        new = live & (label[rows, target] < 0)
        label[rows[new], target[new]] = found[new]
        order[rows[new], found[new]] = target[new]
        found += new
        codes = codes * m + np.where(live, label[rows, target], 0)
    return codes


def enumeration_count(problem: Problem, m_size: int) -> int:
    """Deterministic transition tables that enumeration scores.

    Decision rules are not enumerated: each table takes its pointwise
    optimal rule.
    """
    return m_size ** (m_size * problem.model.alphabet_size)


def enumerate_deterministic(
    problem: Problem, m_size: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> SearchResult:
    """Best mechanism with deterministic transitions, by brute force.

    Every transition table is scored in one vectorized pass, once per
    canonical form (decisions by pointwise argmax, which is never worse
    than any fixed decision rule), then one table of each near-tied class
    is re-solved exactly and the first-indexed winner is returned.  The
    result's ``epsilon_gap`` is 0 *relative to the deterministic class*;
    stochastic mechanisms may still do better.
    """
    n_tables = enumeration_count(problem, m_size)
    if n_tables > budget:
        raise BudgetExceededError(n_tables, budget)
    model = problem.model
    m, alphabet, n = m_size, model.alphabet_size, problem.n_states

    # Table t holds the base-m digits of t, most significant first.
    tables = np.indices((m,) * (m * alphabet)).reshape(m * alphabet, -1).T
    tables = tables.reshape(n_tables, m, alphabet)

    # Score each canonical table once and hand its loss to its whole class.
    classes, inverse = np.unique(_canonical_codes(tables), return_inverse=True)
    onehot = tables[classes, ..., None] == np.arange(m)
    kernels = np.einsum("ws,tmsj->twmj", model.mass, onehot).reshape(-1, m, m)
    occ = _cesaro_rows(kernels, initial=0).reshape(classes.size, n, m)
    losses = _price(problem.stakes, occ)[1][inverse]

    # Members of a class share one loss: re-solve each tied class once,
    # through its first raw table, so the first-indexed winner is kept.
    shortlist = np.flatnonzero(losses <= losses.min() + 1e-9)
    _, first = np.unique(inverse[shortlist], return_index=True)
    shortlist = shortlist[np.sort(first)]
    best = None
    for idx in shortlist:
        onehot = tables[idx, ..., None] == np.arange(m)
        candidate = _exact_result(problem, onehot, trace=())
        if best is None or candidate.loss < best.loss - 1e-15:
            best = candidate
    return replace(best, trace=((0, best.loss),), epsilon_gap=0.0)


# ---------------------------------------------------------------------------
# simulated annealing over stochastic transition tensors
# ---------------------------------------------------------------------------


def _fast_loss(problem: Problem, transition: np.ndarray, stakes, eye, unit) -> float:
    """Loss of a (generically irreducible) tensor via one batched solve.

    For an irreducible kernel the stationary system with a normalization
    row replacing one equation is nonsingular, so no class analysis is
    needed — this is the annealer's hot path.  Proposals that wander onto
    a reducible boundary make the system singular or the answer invalid;
    those score ``inf`` and are simply never accepted.
    """
    kernels = np.einsum("ws,msj->wjm", problem.model.mass, transition)
    a = kernels - eye
    a[:, -1, :] = 1.0
    try:
        pi = np.linalg.solve(a, unit[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return math.inf
    np.clip(pi, 0.0, None, out=pi)
    totals = pi.sum(axis=1, keepdims=True)
    if not (totals > 0.0).all():
        return math.inf
    pi /= totals
    loss = float(_price(stakes, pi)[1])
    return loss if math.isfinite(loss) else math.inf


#: Keeps Dirichlet concentrations positive when a row entry hits zero.
_ALPHA_FLOOR = 1e-6


def local_search(problem: Problem, config: SearchConfig) -> SearchResult:
    """Restarted simulated annealing over stochastic transition tensors.

    Each proposal redraws one (memory, signal) row from a Dirichlet
    centered on its current value, and the decision rule is re-optimized
    inside every evaluation.  Restarts use independent spawned RNG
    streams, so the answer is a pure function of the config; the winner
    is the lowest loss with ties going to the earlier restart.  A final
    rounding pass prices the deterministic table nearest the best tensor
    and keeps it when it does at least as well — optima frequently sit
    exactly on those corners, which a stochastic walk only approaches.
    """
    m, n = config.m_size, problem.n_states
    stakes = problem.stakes
    eye = np.broadcast_to(np.eye(m), (n, m, m)).copy()
    unit = np.zeros((n, m))
    unit[:, -1] = 1.0

    streams = np.random.SeedSequence(config.seed).spawn(config.restarts)
    best_transition = None
    best_loss = math.inf
    events = []
    for restart, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        current = rng.dirichlet(np.ones(m), size=(m, problem.model.alphabet_size))
        current_loss = _fast_loss(problem, current, stakes, eye, unit)
        if current_loss < best_loss:
            best_loss = current_loss
            best_transition = current.copy()
            events.append((restart * config.iterations, best_loss))
        temperature = config.initial_temperature
        for it in range(1, config.iterations + 1):
            temperature *= config.cooling
            row_m = int(rng.integers(m))
            row_s = int(rng.integers(problem.model.alphabet_size))
            proposal = current.copy()
            proposal[row_m, row_s] = rng.dirichlet(
                current[row_m, row_s] / config.step_scale + _ALPHA_FLOOR
            )
            proposal_loss = _fast_loss(problem, proposal, stakes, eye, unit)
            delta = proposal_loss - current_loss
            if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                current = proposal
                current_loss = proposal_loss
            if current_loss < best_loss:
                best_loss = current_loss
                best_transition = current.copy()
                events.append((restart * config.iterations + it, best_loss))

    result = _exact_result(problem, best_transition, trace=events)
    corners = np.zeros_like(best_transition)
    np.put_along_axis(corners, best_transition.argmax(axis=2)[..., None], 1.0, axis=2)
    snapped = _exact_result(problem, corners, trace=events)
    if snapped.loss <= result.loss:
        result = snapped
    if events and result.loss <= events[-1][1]:
        result = replace(
            result,
            trace=tuple(events) + ((config.restarts * config.iterations, result.loss),),
        )
    return result
