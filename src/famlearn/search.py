"""Searching for near-optimal mechanisms at a fixed memory budget.

The true optimum over stochastic mechanisms is an infimum that need not
be attained, so nothing here ever claims it.  Instead:

* :func:`enumerate_deterministic` brute-forces every mechanism whose
  transitions are deterministic, one canonical table per relabelling
  class, which is exact *within that class* and a trustworthy reference
  on small instances; each slice of tables is scored at once by the
  chain solver's dense elimination, so every score is an exact loss;
* :func:`local_search` runs restarted simulated annealing over the full
  stochastic class, reporting the best loss found and an improvement
  trace; its restarts run one after another, each on its own spawned
  RNG stream (the gamma draws of a window of proposals per call, a
  window ending where a row accepted in it is read again), with one
  solve pricing each proposal that moves a row and none elsewhere;
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
from .chain import Problem, _gth_stack, _price, occupancy_profile
from .errors import BudgetExceededError

#: Enumeration refuses instances with more canonical tables than this:
#: binary m = 5 (166,152) fits, binary m = 6 and ternary m = 4 do not.
DEFAULT_ENUMERATION_BUDGET = 1_000_000
#: Kernels scored at once by enumeration; bounds its working memory.
_SCORE_KERNELS = 2**12
#: Enumeration's winner is the lowest-coded table scoring within this of the
#: minimum: scores are within 5.3e-16 of the exact losses, and a table that
#: scores near 1e-300 keeps beating a later one whose outflow underflowed to 0.
_TIE_ATOL = 1e-15


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for :func:`local_search`; defaults solve small instances fast.

    Proposals redraw one transition row from a Dirichlet centered on its
    current value with concentration ``row / step_scale`` (plus a 1e-6
    floor; a ``step_scale`` below 1e-300 counts as 1e-300), so larger
    ``step_scale`` means bolder moves; because the Dirichlet piles mass on
    faces when a row is already extreme, the walk can approach the
    deterministic corners where optima often sit.  A row on a corner is
    mostly proposed back onto that corner; proposals are drawn a window of
    steps at a time, a window ending at the first step that reads a row
    accepted in it, and a step whose row does not move costs no solve and
    no loop iteration.  ``restarts`` independent walks of
    ``iterations`` proposals each run from ``seed``; a restart's walk does
    not depend on how many restarts run.  The temperature starts at
    ``initial_temperature`` and is multiplied by ``cooling`` every step.
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
    (or class-restricted), not that the gap is negative.  A reference that
    is not finite certifies nothing, so it raises ``ValueError``.
    """
    if not math.isfinite(reference_loss):
        raise ValueError(f"reference_loss must be finite, got {reference_loss!r}")
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


def _canonical_tables(m_size: int, alphabet: int) -> np.ndarray:
    """Every breadth-first canonical table, in ascending code order.

    Code position ``p`` is the successor of state ``p // alphabet`` on
    signal ``p % alphabet``: a state already found or the next new one,
    and 0 in the row of a state never found (Almeida, Moreira & Reis,
    *Theor. Comput. Sci.* 387, 2007).  Prefixes grow in digit order.
    """
    tables = np.zeros((1, 0), dtype=np.int64)
    found = np.ones(1, dtype=np.int64)
    for pos in range(m_size * alphabet):
        live = pos // alphabet < found
        width = np.where(live, np.minimum(found + 1, m_size), 1)
        parent = np.repeat(np.arange(found.size), width)
        digit = np.arange(parent.size) - np.repeat(np.cumsum(width) - width, width)
        tables = np.column_stack([tables[parent], digit])
        found = found[parent] + (digit == found[parent])
    return tables.reshape(-1, m_size, alphabet)


def _count_tables(m_size: int, alphabet: int, stop_above: float = math.inf) -> int:
    """Canonical tables, counted by prefixes per number of states found.

    Prefix counts never fall as prefixes grow: counting stops past ``stop_above``.
    """
    prefixes = [0, 1]  # prefixes[f]: prefixes that have found f states
    for pos in range(m_size * alphabet):
        state = pos // alphabet
        prefixes.append(0)
        # A live prefix (f > state) keeps f on any of f found states and
        # reaches f + 1 on the new one; a finished prefix only writes 0.
        for f in range(min(m_size, pos + 2), state, -1):
            prefixes[f] = prefixes[f] * f + (prefixes[f - 1] if f - 1 > state else 0)
        if sum(prefixes) > stop_above:
            break
    return sum(prefixes)


def _table_kernels(mass: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Kernels ``(t, n, m, m)`` of tables ``(t, m, k)``: signal masses added at successors."""
    t, m, k = tables.shape
    kernels = np.zeros((t, mass.shape[0], m, m))
    cells = np.arange(t)[:, None], slice(None), np.arange(m)
    for s in range(k):
        kernels[(*cells, tables[:, :, s])] += mass[:, s]
    return kernels


def _scored_tables(problem: Problem, m_size: int):
    """Canonical tables ``(t, m, k)`` and their losses, one stacked GTH per slice."""
    m, n = m_size, problem.n_states
    tables = _canonical_tables(m, problem.model.alphabet_size)
    losses = np.empty(len(tables))
    step = max(1, _SCORE_KERNELS // n)
    for lo in range(0, len(tables), step):
        kernels = _table_kernels(problem.model.mass, tables[lo : lo + step])
        occ = _gth_stack(kernels.reshape(-1, m, m)).reshape(-1, n, m)
        losses[lo : lo + step] = _price(problem.stakes, occ)[1]
    return tables, losses


def enumeration_count(problem: Problem, m_size: int) -> int:
    """Canonical deterministic tables that enumeration scores.

    One table stands for each class of relabellings from state 0, so
    binary m = 4 scores 5,477 tables, not 4**8.  Decision rules are not
    enumerated: each table takes its pointwise optimal rule.
    """
    return _count_tables(m_size, problem.model.alphabet_size)


def enumerate_deterministic(
    problem: Problem, m_size: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> SearchResult:
    """Best mechanism with deterministic transitions, by brute force.

    Every canonical transition table, one per relabelling class, is scored
    in vectorized slices (decisions by pointwise argmax, which is never
    worse than any fixed decision rule).  The scores are the chain solver's
    own losses, so the winner is the lowest-coded table scoring within
    ``_TIE_ATOL`` (1e-15) of the minimum, and it alone is priced again
    through the chain solver.  The result's ``epsilon_gap`` is 0
    *relative to the deterministic class*; stochastic mechanisms may still
    do better.
    """
    if m_size < 1:
        raise ValueError(f"m_size must be >= 1, got {m_size}")
    n_tables = _count_tables(m_size, problem.model.alphabet_size, stop_above=budget)
    if n_tables > budget:
        raise BudgetExceededError(n_tables, budget)
    tables, losses = _scored_tables(problem, m_size)
    idx = np.argmax(losses <= losses.min() + _TIE_ATOL)
    best = _exact_result(problem, np.eye(m_size)[tables[idx]], trace=())
    return replace(best, trace=((0, best.loss),), epsilon_gap=0.0)


# ---------------------------------------------------------------------------
# simulated annealing over stochastic transition tensors
# ---------------------------------------------------------------------------


def _fast_loss(problem: Problem, transition: np.ndarray, stakes, eye, unit) -> float:
    """Loss of one (generically irreducible) ``(m, k, m)`` tensor.

    One ``linalg.solve`` covers every world.  For an irreducible kernel the
    stationary system with a normalization row replacing one equation is
    nonsingular, so no class analysis is needed — this is the annealer's
    hot path.  Proposals that wander onto a reducible boundary make the
    system singular or the answer invalid; those score ``inf`` and are
    simply never accepted.  The solution is clipped at zero, normalised
    and priced by :func:`chain._price`, each memory state taking its
    pointwise best action.
    """
    kernels = np.einsum("ws,msj->wjm", problem.model.mass, transition)
    a = kernels - eye
    a[:, -1, :] = 1.0
    try:
        pi = np.linalg.solve(a, unit)[..., 0]
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
#: Smallest ``step_scale`` the walk uses: below it ``row / step_scale``
#: could overflow to ``inf``, and at it a row is all but fixed anyway.
_STEP_SCALE_FLOOR = 1e-300
#: Steps whose row cells and acceptance uniforms a restart draws at once.
_CHUNK = 256
#: Steps of a chunk whose gamma draws a restart makes in one call.
_WINDOW = 32


def _draw_rows(rng, state, alpha: np.ndarray) -> np.ndarray:
    """Proposal rows for consecutive steps, drawn as one call per step would.

    ``rng`` sits at ``state`` and ``alpha`` is ``(steps, m)``.  One
    ``standard_gamma`` call fills the block in C order, so it equals a call
    per row; each row is divided by its sum.  When some row's gamma draws
    all underflow, the generator goes back to ``state`` and the block is
    drawn again a row at a time, each such row with ``dirichlet`` instead.
    """
    gamma = rng.standard_gamma(alpha)
    total = gamma.sum(axis=1)
    if not total.all():
        rng.bit_generator.state = state
        for j, a in enumerate(alpha):
            gamma[j] = rng.standard_gamma(a)
            total[j] = gamma[j].sum()
            if total[j] == 0.0:
                gamma[j], total[j] = rng.dirichlet(a), 1.0
    return gamma / total[:, None]


def local_search(problem: Problem, config: SearchConfig) -> SearchResult:
    """Restarted simulated annealing over stochastic transition tensors.

    Each proposal redraws one (memory, signal) row from a Dirichlet
    centered on its current value, and the decision rule is re-optimized
    inside every evaluation.  The restarts run one after another, each on
    its own spawned RNG stream, so a restart's walk does not depend on how
    many restarts run.  Every ``_CHUNK`` steps a restart draws that chunk's
    row cells and then its acceptance uniforms, and at every step the
    row's gamma draws over its concentrations, divided by their sum (or,
    when every gamma draw underflows to zero, one ``dirichlet`` call).  A
    window of up to ``_WINDOW`` steps, never crossing a chunk's end, takes
    its gamma draws from one ``standard_gamma`` call over the rows as they
    stand; numpy fills the block in C order, so these are the draws of one
    call per step for as long as the steps read unchanged rows.  The window
    ends at its first step that reads a row accepted in it: the generator
    goes back to the window's start, replays the draws of the steps before
    that one, and the next window starts there.  Only the steps whose
    proposed row differs from the current row are visited, since the same
    tensor prices to the same loss, and :func:`_fast_loss` prices each
    visited proposal.  The answer is a pure function of the config; the
    winner is the lowest loss with ties going to the earlier restart, and
    the trace numbers restart ``r``'s iteration ``it`` as
    ``r * (iterations + 1) + it`` and the rounding pass as
    ``restarts * (iterations + 1)``, so its numbers strictly increase.  A
    final rounding pass prices the deterministic table nearest the best
    tensor and keeps it when it does at least as well — optima frequently
    sit exactly on those corners, which a stochastic walk only approaches.
    """
    m, n, k = config.m_size, problem.n_states, problem.model.alphabet_size
    stakes = problem.stakes
    eye = np.broadcast_to(np.eye(m), (n, m, m)).copy()
    unit = np.zeros((n, m, 1))
    unit[:, -1] = 1.0
    step_scale = max(config.step_scale, _STEP_SCALE_FLOOR)

    best_transition, best_loss, trace = None, math.inf, []
    for r, stream in enumerate(np.random.SeedSequence(config.seed).spawn(config.restarts)):
        rng = np.random.default_rng(stream)
        current = rng.dirichlet(np.ones(m), size=(m, k))
        current_loss = _fast_loss(problem, current, stakes, eye, unit)
        if best_transition is None:  # kept only if no tensor ever prices
            best_transition = current.copy()
        first = r * (config.iterations + 1)
        if current_loss < best_loss:
            best_transition, best_loss = current.copy(), current_loss
            trace.append((first, best_loss))
        rows = current.reshape(-1, m)  # a view: rows[cell] is the row at cell
        temperature = config.initial_temperature
        for start in range(0, config.iterations, _CHUNK):
            size = min(_CHUNK, config.iterations - start)
            cells = rng.integers(m * k, size=_CHUNK)[:size]
            uniforms = rng.random(_CHUNK)
            temperatures = np.multiply.accumulate(np.append(temperature, [config.cooling] * size))
            temperature = temperatures[-1]
            lo = 0
            while lo < size:
                window = cells[lo : lo + _WINDOW]
                alpha = rows[window] / step_scale + _ALPHA_FLOOR
                state = rng.bit_generator.state
                drawn = _draw_rows(rng, state, alpha)
                stale = window.size  # first later step reading a row accepted here
                for step in (drawn != rows[window]).any(axis=1).nonzero()[0].tolist():
                    if step >= stale:
                        break
                    t, cell = step + 1, window[step]
                    proposal = current.copy()
                    proposal.reshape(-1, m)[cell] = drawn[step]
                    proposal_loss = _fast_loss(problem, proposal, stakes, eye, unit)
                    heat = temperatures[lo + t]  # cooled through this step
                    # inf - inf, a zero temperature and exp of a gain are all
                    # decided by the comparisons alone
                    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                        delta = np.float64(proposal_loss) - current_loss
                        accept = delta <= 0.0 or uniforms[lo + step] < np.exp(-delta / heat)
                    if not accept:
                        continue
                    rows[cell] = drawn[step]
                    current_loss = proposal_loss
                    if current_loss < best_loss:
                        best_transition, best_loss = current.copy(), current_loss
                        trace.append((first + start + lo + t, best_loss))
                    reread = (window[t:stale] == cell).nonzero()[0]
                    if reread.size:
                        stale = t + int(reread[0])
                if stale < window.size:
                    # The window ends where a row accepted in it is read again:
                    # advance the generator past the draws of the steps before.
                    rng.bit_generator.state = state
                    _draw_rows(rng, state, alpha[:stale])
                lo += stale

    result = _exact_result(problem, best_transition, trace=trace)
    corners = np.zeros_like(best_transition)
    np.put_along_axis(corners, best_transition.argmax(axis=2)[..., None], 1.0, axis=2)
    snapped = _exact_result(problem, corners, trace=trace)
    if snapped.loss <= result.loss:
        result = snapped
    if trace and result.loss <= trace[-1][1]:
        result = replace(
            result,
            trace=tuple(trace) + ((config.restarts * (config.iterations + 1), result.loss),),
        )
    return result
