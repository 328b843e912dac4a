"""Long-run analysis of the memory chain a mechanism induces.

Fixing the true state of the world ``w``, a mechanism's memory state
evolves as a Markov chain with kernel ``Q^w`` (signal-averaged
transitions).  Everything asymptotic lives here: stationary/occupancy
distributions (including the reducible case, resolved from the initial
state via absorption probabilities), expected utility and loss, Monte
Carlo cross-checks, and the synchronized two-agent product chain used
for disagreement calculations.

Occupancy is always the Cesaro limit of time spent in each memory state,
which for a unichain is the stationary vector and in general is the
absorption-weighted mixture of the recurrent classes' stationaries.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .automata import UpdatingMechanism, transition_kernel
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
        if not (utilities > 0).all():
            raise ValueError("utilities must be strictly positive")
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
            "utilities": [float(x) for x in self.utilities],
            "prior": [float(x) for x in self.prior],
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
        return {"occupancy": [[float(x) for x in row] for row in self.occupancy]}


def _check_kernel(q) -> SparseRows:
    """A dense array or :class:`SparseRows` kernel, checked, as ``SparseRows``."""
    if not isinstance(q, SparseRows):
        q = np.asarray(q, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"kernel must be square, got {q.shape}")
        q = SparseRows.from_dense(q)
    if q.width != len(q):
        raise ValueError(f"kernel must be square, got {(len(q), q.width)}")
    if (q.value < 0).any():
        raise ValueError("kernel entries must be nonnegative")
    gap = float(np.abs(q.row_sums() - 1.0).max(initial=0.0))
    if gap > CHAIN_ROW_TOL:
        raise ValueError(f"kernel rows must be stochastic; worst row off by {gap:.2e}")
    return q


def _strong_components(n: int, indptr: list, succ: list):
    """Label every state with its strongly connected component.

    Iterative Tarjan over the successor lists ``succ[indptr[v]:indptr[v+1]]``;
    returns ``(n_components, labels)``.
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    labels = [0] * n
    stack = []
    counter = n_comp = 0
    for root in range(n):
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
    n_comp, labels = _strong_components(len(q), q.indptr.tolist(), q.index.tolist())
    rows, cols = q.row_index, q.index
    closed = np.ones(n_comp, dtype=bool)
    closed[labels[rows[labels[rows] != labels[cols]]]] = False
    classes = [np.flatnonzero(labels == c).tolist() for c in np.flatnonzero(closed)]
    classes.sort(key=lambda c: c[0])
    transient = np.flatnonzero(~closed[labels]).tolist()
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
    update per state.  Returns each state's normalised inflow
    ``[(i, a[i, j]), ...]`` over ``i < j``, which is all the
    back-substitution reads, or ``None`` as soon as the running count of
    updates would exceed the class's nonzero count.  Each value is formed
    by the same operations as in :func:`_dense_gth`; the diagonal, which
    GTH never reads, is not kept.
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
        feed = feeds[j] = [(i, rows[i].pop(j) / s) for i in inflow]
        for i, f in feed:
            target = rows[i]
            for c, o in outflow.items():
                if c != i:
                    if c in target:
                        target[c] += f * o
                    else:
                        target[c] = f * o
                        cols[c].append(i)
    return feeds


def _back_substitute(feeds) -> np.ndarray:
    """Occupancy of an eliminated class from its normalised inflows.

    ``feeds[j]`` lists the pairs ``(i, a[i, j])`` with ``i < j`` and
    ``a[i, j]`` nonzero, and ``pi[j] = sum(pi[i] * a[i, j])`` runs from
    ``pi[0] = 1``.  Along a long, strongly drifting branch the partial
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
        feed = feeds[j]
        if not feed:
            raise SolverError(
                "a class member cannot be reached from the rest of its class"
            )
        top = max([exponent[i] for i, _ in feed])
        total = 0.0
        for i, a in feed:
            total += math.ldexp(mantissa[i], exponent[i] - top) * a
        mantissa[j], shift = math.frexp(total)
        exponent[j] = top + shift
    exponent = np.asarray(exponent)
    pi = np.ldexp(mantissa, exponent - exponent.max())
    return pi / pi.sum()


def _dense_gth(a: np.ndarray, members) -> np.ndarray:
    """GTH elimination and back-substitution on the dense class block ``a``.

    Each pivot adds the outer product of its inflow column and outflow
    row to the block before it, from the first nonzero entry of each on:
    the rows and columns before those would only have zeros added, so the
    result is bitwise the whole-block update's, and a banded class costs
    its band.  The back-substitution ``pi[j] = pi[:j] @ a[:j, j]`` runs
    plain while every partial entry stays within ``[1/PLAIN_RANGE,
    PLAIN_RANGE]`` of ``pi[0] = 1``, and otherwise restarts in
    :func:`_back_substitute` on the block's nonzero entries.
    """
    k = a.shape[0]
    for j in range(k - 1, 0, -1):
        outflow = a[j, :j]
        s = outflow.sum()
        if not s > 0.0:
            raise SolverError(
                f"class member {members[j]} cannot reach the rest of its class"
            )
        inflow = a[:j, j]
        inflow /= s
        r, c = (inflow != 0.0).argmax(), (outflow != 0.0).argmax()
        if inflow[r]:
            a[r:j, c:j] += inflow[r:, None] * outflow[c:]
    pi = np.empty(k)
    pi[0] = 1.0
    for j in range(1, k):
        pi[j] = pi[:j] @ a[:j, j]
        if not 1.0 / PLAIN_RANGE <= pi[j] <= PLAIN_RANGE:
            sources = [np.flatnonzero(a[:i, i]) for i in range(k)]
            return _back_substitute(
                [list(zip(src.tolist(), a[src, i].tolist())) for i, src in enumerate(sources)]
            )
    return pi / pi.sum()


def _absorption_weights(q: SparseRows, classes, transient, initial: int) -> np.ndarray:
    """Probability of ending in each recurrent class, from ``initial``.

    A single class takes all the mass without a solve; nearly closed
    transient states would make that solve ill-conditioned.
    """
    if len(classes) == 1:
        return np.ones(1)
    weights = np.zeros(len(classes))
    for c, members in enumerate(classes):
        if initial in members:
            weights[c] = 1.0
            return weights
    t_index = {m: i for i, m in enumerate(transient)}
    lhs = np.eye(len(transient)) - q.block(transient, transient)
    for c, members in enumerate(classes):
        rhs = q.block(transient, members).sum(axis=1)
        try:
            hit = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"absorption system is singular: {exc}") from exc
        weights[c] = hit[t_index[initial]]
    if abs(weights.sum() - 1.0) > 1e-9:
        raise SolverError(
            "absorption probabilities do not sum to 1",
            residual=float(abs(weights.sum() - 1.0)),
        )
    return weights


def stationary(q, initial: int = 0) -> np.ndarray:
    """Long-run occupancy of the chain ``q`` started at ``initial``.

    ``q`` is a dense array or a :class:`SparseRows` kernel.  For a
    unichain this is the unique stationary distribution, with zeros on
    the transient states.  When several closed classes exist, each is
    weighted by the probability of being absorbed into it from the
    initial state, so the result is the Cesaro limit of the empirical
    occupancy, not a solution of a single eigenproblem.  A kernel with no
    zero entry is one class with nothing to skip, and goes straight to
    the dense elimination.
    """
    q = _check_kernel(q)
    n = len(q)
    if not 0 <= initial < n:
        raise ValueError(f"initial state {initial} out of range for {n} states")
    if q.nnz == n * n:
        pi = _dense_gth(q.dense(), range(n))
        _check_residual(pi, q)
        return pi
    classes, transient = recurrent_classes(q)
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
    ``burn_in``, plus the frequency of each action taken there.  Signals
    are drawn i.i.d. from the state's density.  Deterministic transition
    rows skip the inverse-CDF draw, which keeps long runs cheap for the
    ladder-style mechanisms.
    """
    if not 0 <= w < problem.n_states:
        raise ValueError(f"state {w} out of range")
    if not steps > burn_in >= 0:
        raise ValueError(
            f"need steps > burn_in >= 0, got steps={steps} burn_in={burn_in}"
        )
    rng = np.random.default_rng(seed)
    total = steps
    signals = rng.choice(mech.alphabet_size, size=total, p=problem.model.mass[w])
    uniforms = rng.random(total)

    rows = mech.rows
    indptr = rows.indptr.tolist()
    successors = rows.index.tolist()
    deterministic: list[list[int | None]] = []
    cumulative: list[list[tuple]] = []
    for m in range(mech.m_size):
        det_row: list[int | None] = []
        cum_row: list[tuple] = []
        for r in range(m * mech.alphabet_size, (m + 1) * mech.alphabet_size):
            start, stop = indptr[r], indptr[r + 1]
            row = rows.value[start:stop]
            top = int(np.argmax(row))
            det_row.append(successors[start + top] if row[top] >= 1.0 - 1e-12 else None)
            cum_row.append((tuple(np.cumsum(row)), successors[start:stop]))
        deterministic.append(det_row)
        cumulative.append(cum_row)

    counts = np.zeros(mech.m_size)
    m = mech.initial_state
    sig_list = signals.tolist()
    uni_list = uniforms.tolist()
    for t in range(total):
        if t >= burn_in:
            counts[m] += 1.0
        s = sig_list[t]
        jump = deterministic[m][s]
        if jump is None:
            cum, targets = cumulative[m][s]
            jump = targets[min(bisect_right(cum, uni_list[t]), len(targets) - 1)]
        m = jump
    occupancy = counts / (steps - burn_in)
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
    if not 0 <= w < problem.n_states:
        raise ValueError(f"state {w} out of range")
    model = problem.model
    if mech_a.alphabet_size != model.alphabet_size or (
        mech_b.alphabet_size != model.alphabet_size
    ):
        raise ValueError("both mechanisms must read the model's alphabet")
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
    differ = (
        np.asarray(mech_a.decision)[:, None] != np.asarray(mech_b.decision)[None, :]
    )
    out = np.empty(problem.n_states)
    for w in range(problem.n_states):
        joint = joint_occupancy(problem, mech_a, mech_b, w)
        out[w] = joint[differ].sum()
    return out
