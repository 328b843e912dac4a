"""Long-run analysis of the memory chain a mechanism induces.

Fixing the true state of the world ``w``, a mechanism's memory state
evolves as a Markov chain with kernel ``Q^w`` (signal-averaged
transitions).  Everything asymptotic lives here: stationary/occupancy
distributions (including the reducible case, where only what the
initial state reaches is split and solved, by absorption probabilities),
expected utility and loss, Monte Carlo cross-checks, and the
synchronized two-agent product chain used for disagreement calculations.

Occupancy is always the Cesaro limit of time spent in each memory state,
which for a unichain is the stationary vector and in general is the
absorption-weighted mixture of the recurrent classes' stationaries.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .automata import UpdatingMechanism, check_fit, transition_kernel
from .errors import SolverError
from .signals import SignalModel
from .sparse import SparseRows

#: Tolerance for rows of a kernel handed to the chain solvers.
CHAIN_ROW_TOL = 1e-9
#: A computed occupancy vector must satisfy ``pi Q = pi`` this tightly.
RESIDUAL_TOL = 1e-8
#: The plain back-substitution is trusted while every partial occupancy
#: stays within ``[1/PLAIN_RANGE, PLAIN_RANGE]`` of the first state's.
PLAIN_RANGE = 1e100
#: Pivots per panel of the dense elimination (see :func:`_dense_gth`).
_PANEL = 48


@dataclass(frozen=True)
class Problem:
    """A decision problem: signal model, payoffs, and a prior.

    ``utilities[w]`` is the (strictly positive) payoff for taking action
    ``w`` when the state is ``w``; mismatches pay zero.  ``prior`` is a
    strictly positive distribution over states.
    """

    model: SignalModel
    utilities: np.ndarray
    prior: np.ndarray

    def __post_init__(self):
        utilities = np.asarray(self.utilities, dtype=np.float64)
        prior = np.asarray(self.prior, dtype=np.float64)
        n = self.model.n_states
        if utilities.shape != (n,):
            raise ValueError(f"need one utility per state, got shape {utilities.shape}")
        if prior.shape != (n,):
            raise ValueError(f"need one prior weight per state, got shape {prior.shape}")
        if not ((utilities > 0) & (utilities < np.inf)).all():
            raise ValueError(f"utilities must be finite and positive, got {utilities.tolist()}")
        if not (prior > 0).all():
            raise ValueError("prior must be strictly positive")
        if abs(prior.sum() - 1.0) > 1e-12:
            raise ValueError(f"prior sums to {prior.sum()!r}, not 1")
        utilities.setflags(write=False)
        prior.setflags(write=False)
        object.__setattr__(self, "utilities", utilities)
        object.__setattr__(self, "prior", prior)

    @property
    def n_states(self) -> int:
        return self.model.n_states

    @property
    def stakes(self) -> np.ndarray:
        """What a right action earns in each state, weighted: ``u_w p_w``."""
        return self.utilities * self.prior

    @property
    def total_level(self) -> float:
        """Payoff of an agent who always guesses right: ``sum_w u_w p_w``."""
        return float(self.utilities @ self.prior)

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "utilities": self.utilities.tolist(),
            "prior": self.prior.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Problem":
        return cls(
            model=SignalModel.from_json(obj["model"]),
            utilities=np.asarray(obj["utilities"], dtype=np.float64),
            prior=np.asarray(obj["prior"], dtype=np.float64),
        )


def uniform_problem(model: SignalModel) -> Problem:
    """Unit payoffs and a uniform prior over the model's states."""
    n = model.n_states
    return Problem(
        model=model,
        utilities=np.ones(n),
        prior=np.full(n, 1.0 / n),
    )


@dataclass(frozen=True)
class StationaryProfile:
    """Occupancy of each memory state under each state of the world.

    ``occupancy[w]`` is the long-run fraction of time spent in each
    memory state when the truth is ``w``, started from the mechanism's
    initial state.
    """

    occupancy: np.ndarray

    def __post_init__(self):
        occupancy = np.asarray(self.occupancy, dtype=np.float64)
        if occupancy.ndim != 2:
            raise ValueError(f"occupancy must be (states, memory), got {occupancy.shape}")
        occupancy.setflags(write=False)
        object.__setattr__(self, "occupancy", occupancy)

    @property
    def n_states(self) -> int:
        return self.occupancy.shape[0]

    @property
    def m_size(self) -> int:
        return self.occupancy.shape[1]

    def to_json(self) -> dict:
        return {"occupancy": self.occupancy.tolist()}


def _check_kernel(q):
    """A dense array or :class:`SparseRows` kernel, checked and kept in its form."""
    sparse = isinstance(q, SparseRows)
    if not sparse:
        q = np.asarray(q, dtype=np.float64)
    shape = (len(q), q.width) if sparse else q.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"kernel must be square, got {shape}")
    if ((q.value if sparse else q) < 0).any():
        raise ValueError("kernel entries must be nonnegative")
    row_sums = q.row_sums() if sparse else q.sum(axis=1)
    gap = float(np.abs(row_sums - 1.0).max(initial=0.0))
    if not gap <= CHAIN_ROW_TOL:
        raise ValueError(f"kernel rows must be stochastic; worst row off by {gap:.2e}")
    return q


def _strong_components(n: int, indptr: list, succ: list, roots):
    """Label every state reached from ``roots`` with its strongly connected component.

    Iterative Tarjan over the successor lists ``succ[indptr[v]:indptr[v+1]]``;
    returns ``(n_components, labels)``, with label -1 on unreached states.
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    labels = [-1] * n
    stack = []
    counter = n_comp = 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [[root, indptr[root]]]
        while work:
            frame = work[-1]
            v, i = frame
            if i < indptr[v + 1]:
                frame[1] = i + 1
                u = succ[i]
                if index[u] < 0:
                    index[u] = low[u] = counter
                    counter += 1
                    stack.append(u)
                    on_stack[u] = True
                    work.append([u, indptr[u]])
                elif on_stack[u] and index[u] < low[v]:
                    low[v] = index[u]
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    labels[u] = n_comp
                    if u == v:
                        break
                n_comp += 1
    return n_comp, np.asarray(labels, dtype=np.int64)


def recurrent_classes(q):
    """Split states into recurrent classes and transient states.

    ``q`` is a dense array or a :class:`SparseRows` kernel.  Returns
    ``(classes, transient)`` where ``classes`` is a list of sorted index
    lists (the closed communicating classes, in order of their smallest
    member) and ``transient`` is a sorted list of the remaining states.
    A strongly connected component is closed when no edge of ``q`` leaves
    it.
    """
    q = _check_kernel(q)
    if not isinstance(q, SparseRows):
        q = SparseRows.from_dense(q)
    return _split(q, range(len(q)))


def _split(q: SparseRows, roots):
    """:func:`recurrent_classes` over the states reached from ``roots`` alone."""
    n_comp, labels = _strong_components(len(q), q.indptr.tolist(), q.index.tolist(), roots)
    reached = labels[q.row_index] >= 0
    rows, cols = q.row_index[reached], q.index[reached]
    closed = np.ones(n_comp, dtype=bool)
    closed[labels[rows[labels[rows] != labels[cols]]]] = False
    classes = [np.flatnonzero(labels == c).tolist() for c in np.flatnonzero(closed)]
    classes.sort(key=lambda c: c[0])
    transient = np.flatnonzero((labels >= 0) & ~closed[labels]).tolist()
    return classes, transient


def _stationary_on_class(q: SparseRows, members) -> np.ndarray:
    """Stationary vector of ``q`` restricted to one closed class.

    Uses state-elimination (the subtraction-free Gaussian variant of
    Grassmann, Taksar & Heyman) rather than a plain linear solve:
    occupancies of strongly biased chains span many orders of magnitude,
    and elimination keeps componentwise relative accuracy where a
    replaced-row solve returns small negative garbage.

    The class is first eliminated on its nonzero entries alone (see
    :func:`_eliminate_sparse`).  Once that has cost more updates than the
    class has nonzeros, the class has filled in, and it is eliminated
    again by :func:`_dense_gth` on a dense block.
    """
    feeds = _eliminate_sparse(q, members)
    if feeds is None:
        return _dense_gth(q.block(members, members), members)
    return _back_substitute(feeds)


def _eliminate_sparse(q: SparseRows, members):
    """GTH elimination of a closed class on its nonzero entries.

    States are eliminated last to first.  Eliminating state ``j`` adds
    the outer product of its normalised inflow column and its outflow row
    to the states before it; a star, eliminated tip-inward, so costs one
    update per state.  Returns each state's outflow ``s`` and raw inflow
    ``(s, [(i, a[i, j]), ...])`` over ``i < j``, which is all the
    back-substitution reads, or ``None`` as soon as the running count of
    updates would exceed the class's nonzero count.  Each update is the
    textbook loop's, added in the same per-pivot order; only an outflow
    row's sum may be taken in another order.  :func:`_dense_gth` sums in
    panels instead, so the two agree to rounding, not bitwise.  The
    diagonal, which GTH never reads, is not kept.
    """
    local = np.full(len(q), -1)
    local[members] = np.arange(len(members))
    entry_rows = local[q.row_index]
    keep = entry_rows >= 0
    row, col, value = entry_rows[keep], local[q.index[keep]], q.value[keep]
    budget = row.size
    off = row != col
    k = len(members)
    rows = [{} for _ in range(k)]
    cols = [[] for _ in range(k)]
    for i, c, v in zip(row[off].tolist(), col[off].tolist(), value[off].tolist()):
        rows[i][c] = v
        cols[c].append(i)

    updates = 0
    feeds = [()] * k
    for j in range(k - 1, 0, -1):
        outflow = rows[j]
        s = sum(outflow.values())
        if not s > 0.0:
            raise SolverError(
                f"class member {members[j]} cannot reach the rest of its class"
            )
        inflow = [i for i in cols[j] if i < j]
        updates += len(inflow) * len(outflow)
        if updates > budget:
            return None
        feeds[j] = s, [(i, rows[i].pop(j)) for i in inflow]
        for i, a in feeds[j][1]:
            f, target = a / s, rows[i]
            for c, o in outflow.items():
                if c != i:
                    if c in target:
                        target[c] += f * o
                    else:
                        target[c] = f * o
                        cols[c].append(i)
    return feeds


def _back_substitute(feeds) -> np.ndarray:
    """Occupancy of an eliminated class from its outflows and inflows.

    ``feeds[j]`` is ``(s, pairs)``: state ``j``'s outflow and the pairs
    ``(i, a[i, j])`` with ``i < j`` and ``a[i, j]`` nonzero, and
    ``pi[j] = sum(pi[i] * a[i, j]) / s`` runs from ``pi[0] = 1``.  Dividing
    by ``s`` as a mantissa and an exponent keeps a subnormal ``s`` from
    overflowing.  Along a long, strongly drifting branch the partial
    entries leave the float range, and an entry flushed to zero would zero
    every state fed from it, however large their true mass.  So each entry
    is kept as a mantissa and a binary exponent, and the entries are only
    brought to a common scale at the end, where what underflows lies below
    the smallest normal double after normalisation.  Scaling by powers of
    two commutes with rounding, so within the float range this is bitwise
    the plain sum taken in the same order.
    """
    k = len(feeds)
    mantissa = [1.0] * k
    exponent = [0] * k
    for j in range(1, k):
        s, feed = feeds[j]
        if not feed:
            raise SolverError(
                "a class member cannot be reached from the rest of its class"
            )
        top = max([exponent[i] for i, _ in feed])
        scale, drop = math.frexp(s)
        total = 0.0
        for i, a in feed:
            total += math.ldexp(mantissa[i], exponent[i] - top) * (a / scale)
        mantissa[j], shift = math.frexp(total)
        exponent[j] = top + shift - drop
    exponent = np.asarray(exponent)
    pi = np.ldexp(mantissa, exponent - exponent.max())
    return pi / pi.sum()


def _dense_gth(a: np.ndarray, members) -> np.ndarray:
    """GTH elimination and back-substitution on the dense class block ``a``.

    Pivots are eliminated last to first in panels of ``_PANEL``.  A pivot's
    outflow row and inflow column are its entries of ``a`` plus the
    panel's pending updates, one matrix-vector product each; its
    normalised inflow is written back to ``a[:j, j]``.  After the panel,
    the block before it takes the panel's updates as one matrix product,
    from the first row with a nonzero inflow and the first column with a
    nonzero outflow on, so a banded class costs its band.  Every update
    still adds nonnegative terms and the diagonal is never read: only the
    order of the sums differs from the textbook per-pivot loop.  With one
    BLAS thread on a 2-core x86 host, a 396-state class takes about 9 ms
    and a 1,500-state one 0.15 s.  The back-substitution
    ``pi[j] = pi[:j] @ a[:j, j]`` runs plain while every partial entry
    stays within ``[1/PLAIN_RANGE, PLAIN_RANGE]`` of ``pi[0] = 1``, and
    otherwise restarts in :func:`_back_substitute` on the block's nonzero
    entries.
    """
    k = a.shape[0]
    for hi in range(k, 1, -_PANEL):
        lo = max(1, hi - _PANEL)
        inflows, outflows = np.zeros((hi, hi - lo)), np.zeros((hi - lo, hi))
        for t, j in enumerate(range(hi - 1, lo - 1, -1)):
            outflow = outflows[t, :j] = a[j, :j] + inflows[j, :t] @ outflows[:t, :j]
            s = outflow.sum()
            if not s > 0.0:
                raise SolverError(
                    f"class member {members[j]} cannot reach the rest of its class"
                )
            inflows[:j, t] = a[:j, j] = (a[:j, j] + inflows[:j, :t] @ outflows[:t, j]) / s
        hit_rows, hit_cols = inflows[:lo].any(axis=1), outflows[:, :lo].any(axis=0)
        r, c = hit_rows.argmax(), hit_cols.argmax()
        if hit_rows[r]:
            a[r:lo, c:lo] += inflows[r:lo] @ outflows[:, c:lo]
    pi = np.empty(k)
    pi[0] = 1.0
    for j in range(1, k):
        pi[j] = pi[:j] @ a[:j, j]
        if not 1.0 / PLAIN_RANGE <= pi[j] <= PLAIN_RANGE:
            sources = [np.flatnonzero(a[:i, i]) for i in range(k)]
            return _back_substitute(
                [(1.0, list(zip(s.tolist(), a[s, i].tolist()))) for i, s in enumerate(sources)]
            )
    return pi / pi.sum()


def _absorption_weights(q: SparseRows, classes, transient, initial: int) -> np.ndarray:
    """Probability of ending in each recurrent class, from a transient ``initial``.

    Every recurrent state is sent back to ``initial``.  Each cycle of that
    restart chain enters exactly one class once, and its one closed class
    is the reached transient states plus the recurrent states they enter,
    so a class's share of its occupancy, found by the same subtraction-free
    elimination, is the class's absorption probability.
    """
    label = np.full(len(q), -1)
    for c, members in enumerate(classes):
        label[members] = c
    keep = np.isin(q.row_index, transient)
    members = np.union1d(transient, q.index[keep])
    recurrent = members[label[members] >= 0]
    restart = SparseRows.from_entries(
        np.concatenate([q.row_index[keep], recurrent]),
        np.concatenate([q.index[keep], np.full(recurrent.size, initial)]),
        np.concatenate([q.value[keep], np.ones(recurrent.size)]),
        len(q),
        len(q),
    )
    pi = np.zeros(len(q))
    pi[members] = _stationary_on_class(restart, members.tolist())
    _check_residual(pi, restart)
    weights = np.bincount(label[recurrent], weights=pi[recurrent], minlength=len(classes))
    return weights / weights.sum()


def stationary(q, initial: int = 0) -> np.ndarray:
    """Long-run occupancy of the chain ``q`` started at ``initial``.

    ``q`` is a dense array or a :class:`SparseRows` kernel.  For a
    unichain this is the unique stationary distribution, with zeros on
    the transient states.  Only what ``initial`` reaches is split into
    classes and solved.  When that holds several closed classes, each is
    weighted by the probability of being absorbed into it, so the result
    is the Cesaro limit of the empirical occupancy.  A kernel with no
    zero entry is one class with nothing to skip, and goes straight to
    the dense elimination; a dense one is never converted to
    :class:`SparseRows` on the way.
    """
    q = _check_kernel(q)
    n = len(q)
    if not 0 <= initial < n:
        raise ValueError(f"initial state {initial} out of range for {n} states")
    dense = isinstance(q, np.ndarray)
    if dense and not q.all():
        q, dense = SparseRows.from_dense(q), False
    if dense or q.nnz == n * n:
        pi = _dense_gth(q.copy() if dense else q.dense(), range(n))
        _check_residual(pi, q)
        return pi
    classes, transient = _split(q, [initial])
    weights = [1.0]
    if len(classes) > 1:
        weights = _absorption_weights(q, classes, transient, initial)
    pi = np.zeros(n)
    for weight, members in zip(weights, classes):
        if weight > 0.0:
            pi[members] += weight * _stationary_on_class(q, members)
    _check_residual(pi, q)
    return pi


def _check_residual(pi: np.ndarray, q) -> None:
    """Reject an occupancy that is not finite, not a distribution, or not fixed.

    Written as ``not value <= tol`` so that a NaN fails every comparison.
    """
    if not np.isfinite(pi).all():
        raise SolverError("occupancy has non-finite entries")
    gap = abs(float(pi.sum()) - 1.0)
    if not gap <= RESIDUAL_TOL:
        raise SolverError("occupancy does not sum to 1", residual=gap)
    residual = float(np.abs(pi @ q - pi).max())
    if not residual <= RESIDUAL_TOL:
        raise SolverError("occupancy failed the fixed-point check", residual=residual)


def occupancy_profile(problem: Problem, mech: UpdatingMechanism) -> StationaryProfile:
    """Occupancy vector under every state of the world."""
    rows = [
        stationary(transition_kernel(mech, problem.model, w), mech.initial_state)
        for w in range(problem.n_states)
    ]
    return StationaryProfile(occupancy=np.vstack(rows))


def _price(stakes: np.ndarray, occupancy: np.ndarray, decision=None):
    """Utility and loss of decisions under one occupancy profile or a stack.

    ``occupancy`` is ``(..., states, memory)``, ``decision`` ``(..., memory)``
    and by default the best action per memory state (see
    :func:`optimal_decisions`).  Returns ``(utility, loss, decision)``.  The
    loss sums the stake-weighted occupancy decided wrongly instead of
    subtracting from the total, so a loss far below the total's rounding
    error keeps its relative accuracy.
    """
    weighted = stakes[:, None] * occupancy
    if decision is None:
        decision = weighted.argmax(axis=-2)
    right = np.asarray(decision)[..., None, :] == np.arange(stakes.size)[:, None]
    utility = weighted.sum(axis=(-2, -1), where=right)
    loss = weighted.sum(axis=(-2, -1), where=~right)
    return utility, loss, decision


def optimal_decisions(problem: Problem, profile: StationaryProfile) -> np.ndarray:
    """Best action per memory state given the occupancy profile.

    Memory state ``m`` gets the action maximizing
    ``utilities[w] * prior[w] * occupancy[w, m]``; ties break toward the
    lowest state index.
    """
    return _price(problem.stakes, profile.occupancy)[2].astype(np.int64)


def profile_utility(
    problem: Problem, profile: StationaryProfile, decision: np.ndarray
) -> float:
    """Expected long-run payoff of a decision rule under the profile."""
    return float(_price(problem.stakes, profile.occupancy, decision)[0])


def asymptotic_utility(problem: Problem, mech: UpdatingMechanism) -> float:
    """Long-run expected payoff of the mechanism with its own decisions."""
    return profile_utility(problem, occupancy_profile(problem, mech), mech.decision)


def utility_loss(problem: Problem, mech: UpdatingMechanism) -> float:
    """Shortfall against an agent who always matches the state."""
    profile = occupancy_profile(problem, mech)
    return float(_price(problem.stakes, profile.occupancy, mech.decision)[1])


# ---------------------------------------------------------------------------
# simulation cross-check
# ---------------------------------------------------------------------------


def monte_carlo_occupancy(
    problem: Problem,
    mech: UpdatingMechanism,
    w: int,
    steps: int,
    burn_in: int = 0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical memory occupancy and action frequencies from one long run.

    Simulates ``steps`` act/observe/transit periods under state ``w`` and
    tallies the memory state occupied in each period after the first
    ``burn_in``, plus the frequency of each action taken there.  All
    signals are drawn first, i.i.d. from the state's density, then one
    uniform ``u`` per period; from state ``x`` on signal ``s`` the walk
    moves to the first successor of row ``(x, s)`` whose running sum of
    probabilities exceeds ``u`` (the last one if none does).  A row whose
    largest entry is at least ``1 - 1e-12`` always takes its first largest
    move.  One run estimates the stationary law only where the chain
    mixes within it: a slow chain can end trapped far from that law.
    """
    check_fit(mech, problem.model, w)
    if not steps > burn_in >= 0:
        raise ValueError(
            f"need steps > burn_in >= 0, got steps={steps} burn_in={burn_in}"
        )
    rng = np.random.default_rng(seed)
    rows, k = mech.rows, mech.alphabet_size
    signals = rng.choice(k, size=steps, p=problem.model.mass[w]).tolist()
    uniforms = rng.random(steps).tolist()

    start, stop, value = rows.indptr[:-1], rows.indptr[1:], rows.value
    entry, row_of = np.arange(rows.nnz), rows.row_index
    # Running sums within each row, added in np.cumsum's order: entry j
    # gains entry j - 1 for every row longer than j.
    cum, pos = value.copy(), entry - start[row_of]
    order = np.argsort(pos, kind="stable")
    for at in np.split(order, np.cumsum(np.bincount(pos))[:-1])[1:]:
        cum[at] += cum[at - 1]
    # A near-certain row searches only its first largest entry.
    top = np.maximum.reduceat(value, start)
    first = np.minimum.reduceat(np.where(value == top[row_of], entry, rows.nnz), start)
    sure = top >= 1.0 - 1e-12
    last = np.where(sure, first, stop - 1)
    cum[last] = np.inf
    # A state x is held as x * k, so row (x, s) is x + s.
    cum, succ = cum.tolist(), (rows.index * k).tolist()
    lo, hi = np.where(sure, first, start).tolist(), (last + 1).tolist()
    walk = zip(signals, uniforms)
    x = mech.initial_state * k
    for s, u in islice(walk, burn_in):
        x = succ[bisect_right(cum, u, lo[x + s], hi[x + s])]
    counts = [0] * (mech.m_size * k)
    for s, u in walk:
        counts[x] += 1
        x = succ[bisect_right(cum, u, lo[x + s], hi[x + s])]
    occupancy = np.array(counts[::k], dtype=float) / (steps - burn_in)
    frequencies = np.zeros(problem.n_states)
    np.add.at(frequencies, mech.decision, occupancy)
    return occupancy, frequencies


# ---------------------------------------------------------------------------
# two agents watching the same signals
# ---------------------------------------------------------------------------


def joint_occupancy(
    problem: Problem,
    mech_a: UpdatingMechanism,
    mech_b: UpdatingMechanism,
    w: int,
) -> np.ndarray:
    """Long-run joint occupancy of two mechanisms fed identical signals.

    The pair evolves as one chain on memory-state pairs; the returned
    matrix has shape ``(mech_a.m_size, mech_b.m_size)`` and sums to 1.
    Because both agents react to the *same* draw each period, this is not
    the product of the marginal occupancies.  The pair kernel is the sum
    over signals of ``mass[w, s]`` times the Kronecker product of the two
    mechanisms' rows for signal ``s``, summed in signal order and built
    sparse.
    """
    model = problem.model
    check_fit(mech_a, model, w)
    check_fit(mech_b, model, w)
    ma, mb = mech_a.m_size, mech_b.m_size
    # Every pair of moves, one per agent, is one cell of the pair kernel.
    source_a, target_a, prob_a = mech_a.moves
    source_b, target_b, prob_b = mech_b.moves
    value = np.zeros((source_a.size, source_b.size))
    for s in range(model.alphabet_size):
        a, b = np.flatnonzero(prob_a[:, s]), np.flatnonzero(prob_b[:, s])
        value[np.ix_(a, b)] += (model.mass[w, s] * prob_a[a, s])[:, None] * prob_b[b, s]
    # A stable sort by pair state keeps each row's columns in order.
    row = (source_a[:, None] * mb + source_b).ravel()
    order = np.argsort(row, kind="stable")
    row, value = row[order], value.ravel()[order]
    col = (target_a[:, None] * mb + target_b).ravel()[order]
    keep = value != 0.0
    kernel = SparseRows.from_sorted(row[keep], col[keep], value[keep], ma * mb, ma * mb)
    start = mech_a.initial_state * mb + mech_b.initial_state
    return stationary(kernel, start).reshape(ma, mb)


def disagreement_probability(
    problem: Problem, mech_a: UpdatingMechanism, mech_b: UpdatingMechanism
) -> np.ndarray:
    """Long-run chance the two mechanisms act differently, per true state."""
    differ = mech_a.decision[:, None] != mech_b.decision
    out = np.empty(problem.n_states)
    for w in range(problem.n_states):
        joint = joint_occupancy(problem, mech_a, mech_b, w)
        out[w] = joint[differ].sum()
    return out
