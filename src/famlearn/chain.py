"""Long-run analysis of the memory chain a mechanism induces.

Fixing the true state of the world ``w``, a mechanism's memory state
evolves as a Markov chain with kernel ``Q^w`` (signal-averaged
transitions).  Everything asymptotic lives here: stationary/occupancy
distributions (including the reducible case, where what the initial
state reaches is solved in one elimination that finds its closed classes),
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
#: Pivots per panel of the dense elimination (see :func:`_gth_stack`).
_PANEL = 48


@dataclass(frozen=True)
class Problem:
    """A decision problem: signal model, payoffs, and a prior.

    ``utilities[w]`` is the (strictly positive) payoff for taking action
    ``w`` when the state is ``w``; mismatches pay zero.  ``prior`` is a
    strictly positive distribution over states.  The model's mass must be
    nonnegative: :class:`SignalModel` leaves that to :func:`validate` to
    report, but a negative probability is no basis for a decision.
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
        lowest = float(self.model.mass.min())
        if lowest < 0.0:
            raise ValueError(f"signal mass must be nonnegative, got {lowest!r}")
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
    if (q.value if sparse else q).min(initial=0.0) < 0.0:
        raise ValueError("kernel entries must be nonnegative")
    row_sums = q.row_sums() if sparse else q.sum(axis=1)
    gap = float(np.abs(row_sums - 1.0).max(initial=0.0))
    if not gap <= CHAIN_ROW_TOL:
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


def _reach(q: SparseRows, start: int) -> np.ndarray:
    """The states ``start`` reaches along ``q``'s entries, breadth first from it.

    ``start`` comes first.  Reads the successors of the states it visits
    and no others.
    """
    indptr, succ = q.indptr.tolist(), memoryview(np.ascontiguousarray(q.index))
    seen = [False] * len(q)
    seen[start] = True
    order = [start]
    for v in order:  # grows as it goes: each state is visited once
        for u in succ[indptr[v] : indptr[v + 1]]:
            if not seen[u]:
                seen[u] = True
                order.append(u)
    return np.array(order)


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
    n = len(q)
    n_comp, labels = _strong_components(n, q.indptr.tolist(), q.index.tolist())
    rows, cols = q.row_index, q.index
    closed = np.ones(n_comp, dtype=bool)
    closed[labels[rows[labels[rows] != labels[cols]]]] = False
    components = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    classes = sorted((components[c].tolist() for c in np.flatnonzero(closed)), key=lambda c: c[0])
    return classes, np.flatnonzero(~closed[labels]).tolist()


def _tree_feeds(q: SparseRows, members):
    """The feeds of a tree with absorbing members, for :func:`_back_substitute`;
    else ``None``.

    ``members`` are what the start reaches, breadth first from it.  A member
    with no entry off the diagonal absorbs, and any member may enter it.
    The others, the start among them, form a tree when each after the start
    has exactly one entry to an earlier one and exactly one from an earlier
    one, both joining it to the same member ``p(j)``: stars, noisy stars,
    lines and absorbing walks, from any start.  GTH elimination, last
    member first (Grassmann, Taksar & Heyman, *Oper. Res.* 33, 1985), then
    updates nothing but the flows into the absorbing members.  One pass up
    the tree finds them: ``j``, whose flow into them is ``R_j``, leaves
    with ``s_j = q[j, p(j)] + R_j`` and adds ``q[p(j), j] R_j / s_j`` to
    ``R_p(j)``.  ``j``'s feed is ``(p(j), q[p(j), j])``.  The absorbing
    members are roots, and so is the start when ``R_0`` is not ``s > 0``,
    as when none is reached or every flow underflows; every ``q[j, p(j)]``
    must be positive, so no other member is one.  Otherwise the start's
    flow into ``r`` is ``sum_j w_j q[j, r]``, from one pass down with
    ``w_0 = 1`` and ``w_j = w_p(j) q[p(j), j] / s_j``.  As ``w_j`` can
    leave the float range, the pass keeps the share ``w_j R_j / R_0`` of
    the start's flows that passes through ``j``, which lies in ``[0, 1]``.
    Only the members' rows are read.
    """
    k = len(members)
    local = np.full(len(q), -1)
    local[members] = np.arange(k)
    states = np.sort(members)
    entry, place = q.entries(states)
    row, col, value = local[states][place], local[q.index[entry]], q.value[entry]
    off = row != col
    tree = np.zeros(k, dtype=bool)
    tree[row[off]] = tree[0] = True
    edge = off & tree[col]
    back, ahead = edge & (col < row), edge & (col > row)
    size = np.count_nonzero(tree)
    if np.count_nonzero(back) != size - 1 or np.count_nonzero(ahead) != size - 1:
        return None
    # Unset, the two differ; set, each tree member after the start was met once.
    parent, feeder = np.full(k, -1), np.full(k, -2)
    parent[row[back]], feeder[col[ahead]] = col[back], row[ahead]
    if not (parent == feeder)[tree][1:].all() or not (value[back] > 0.0).all():
        return None
    outflow, inflow = np.zeros(k), np.zeros(k)
    outflow[row[back]], inflow[col[ahead]] = value[back], value[ahead]
    fed = tree.copy()
    fed[0] = False
    feeds = np.r_[0, np.cumsum(fed)], parent[fed], inflow[fed]
    into = off & ~tree[col]
    if not into.any():
        return (outflow, *feeds, {0: 1.0})
    flow = np.bincount(row[into], value[into], minlength=k).tolist()
    out, up, down, part = outflow.tolist(), parent.tolist(), inflow.tolist(), [0.0] * k
    order = np.flatnonzero(fed).tolist()
    for j in reversed(order):
        out[j] += flow[j]
        part[j] = down[j] * (flow[j] / out[j])
        flow[up[j]] += part[j]
    outflow = np.array(out)
    if not flow[0] > 0.0:
        return (outflow, *feeds, {0: 1.0})
    outflow[0], share = flow[0], [1.0] + [0.0] * (k - 1)
    for j in order:
        if part[j]:  # then R_p(j) >= part[j] > 0
            share[j] = share[up[j]] * (part[j] / flow[up[j]])
    ratio = value[into] / np.array(flow)[row[into]]  # R_j >= q[j, r] > 0
    flows = np.bincount(col[into], np.array(share)[row[into]] * ratio, minlength=k)
    absorbing = np.flatnonzero(~tree).tolist()
    return (outflow, *feeds, dict(zip(absorbing, flows[absorbing].tolist())))


def _back_substitute(outflow, indptr, source, inflow, flows) -> np.ndarray:
    """Occupancy of eliminated members from their feeds and the start's flows.

    Member ``j`` leaves with outflow sum ``outflow[j]`` and is fed by the
    pairs ``t`` in ``indptr[j]:indptr[j + 1]``, from member ``source[t]``
    with weight ``inflow[t]``, as the tree read-off (:func:`_tree_feeds`)
    and :func:`_gth_stack` hand them over.  A root (``outflow`` 0, as the test
    ``s > 0`` found it) starts at 1.  Any other member takes ``pi[j] =
    sum(pi[i] * a[i, j]) / s`` over the pairs whose ``i`` lies in a class,
    and 0 when none does: a transient member or one the start misses.
    Partial entries can leave the float range along a drifting branch, so
    each is kept as a mantissa and a binary exponent, and ``s`` and each
    ``a`` are split the same way: a subnormal ``s`` cannot overflow and a
    subnormal ``a`` keeps its bits.  Each class comes to a common scale
    only at the end, where what underflows lies below the smallest normal
    double; within the float range this is bitwise the plain sum.  Each
    class is normalised and scaled by its root's share of ``flows``.
    """
    k = outflow.size
    (scale, drop), (mant, grow) = np.frexp(outflow), np.frexp(inflow)
    ratio = (mant / np.repeat(scale, indptr[1:] - indptr[:-1])).tolist()
    src, grow, drop = source.tolist(), grow.tolist(), drop.tolist()
    ptr, fed = indptr.tolist(), (outflow > 0.0).tolist()
    mantissa, exponent, label = [0.0] * k, [0] * k, [-1] * k
    for j, lo, hi, d in zip(range(k), ptr, ptr[1:], drop):
        if not fed[j]:
            mantissa[j], label[j] = 1.0, j
            continue
        if hi - lo == 1:  # every step on a tree; a source in no class has mantissa 0
            i = src[lo]
            top, total, label[j] = exponent[i] + grow[lo], mantissa[i] * ratio[lo], label[i]
        else:
            pairs = [t for t in range(lo, hi) if label[src[t]] >= 0]
            if not pairs:
                continue
            label[j] = label[src[pairs[0]]]
            top, total = max([exponent[src[t]] + grow[t] for t in pairs]), 0.0
            for t in pairs:  # one pair gives the tree step's bits: ldexp(x, 0) is x, 0.0 + x is x
                i = src[t]
                total += math.ldexp(mantissa[i], exponent[i] + grow[t] - top) * ratio[t]
        mantissa[j], shift = math.frexp(total)
        exponent[j] = top + shift - d
    weight, total = np.zeros(k), math.fsum(flows.values())
    weight[list(flows)] = [f / total for f in flows.values()]
    label = np.asarray(label)
    member = np.flatnonzero(label >= 0)
    label, exponent = label[member], np.asarray(exponent)[member]
    top = np.zeros(k, dtype=exponent.dtype)
    np.maximum.at(top, label, exponent)
    part = np.ldexp(np.asarray(mantissa)[member], exponent - top[label])
    pi = np.zeros(k)
    pi[member] = part / np.bincount(label, part, minlength=k)[label] * weight[label]
    return pi


def _gth_stack(a: np.ndarray) -> np.ndarray:
    """Long-run occupancy from state 0 of each kernel of the stack ``a``.

    ``a`` is ``(t, k, k)``, eliminated in place last state first (Grassmann,
    Taksar & Heyman, *Oper. Res.* 33, 1985) in panels of ``_PANEL`` pivots:
    a pivot's outflow row, over the states before it and its entry's roots,
    and its inflow column take the panel's pending updates by a
    matrix-vector product each, and each entry's block before the panel
    then takes them as one matrix product over its band.  A pivot whose
    outflow sum is not ``s > 0`` is the root of a closed class (Sonin,
    *Adv. Math.* 145, 1999): it keeps its raw inflows and spreads nothing.
    State 0, last, is a root or spreads over the roots.  ``pi[j] = pi[:j] @
    a[:j, j] / s``, from 1 at each root, runs on the whole stack; each class
    is normalised and scaled by the start's flow into its root.  An entry
    with a subnormal ``s``, a feed below ``PLAIN_RANGE`` times the smallest
    normal double, or a partial entry outside ``[1/PLAIN_RANGE,
    PLAIN_RANGE]`` goes to :func:`_back_substitute` instead.  An entry's
    shapes and sums depend on ``k``, the pivot and the entry alone, so its
    row is bitwise the same in any stack.  One BLAS thread on a 2-core x86
    host takes about 12 ms at 400 states and 0.18 s at 1,600.
    """
    depth, k = a.shape[0], a.shape[-1]
    root, classes = np.zeros((depth, k)), np.zeros(depth, dtype=np.int64)  # 1.0 at a root
    sums, toward = [], []  # each pivot's outflow sum (inf at a root), where it spreads most
    low, tiny, rooted = np.zeros(depth, dtype=bool), np.finfo(np.float64).tiny, False
    for hi in range(k, 0, -_PANEL):
        lo = max(0, hi - _PANEL)
        inflows, outflows = np.zeros((depth, hi, hi - lo)), np.zeros((depth, hi - lo, k))
        for t, j in enumerate(range(hi - 1, lo - 1, -1)):
            pending = inflows[:, j, None, :t]
            outflow = (pending @ outflows[:, :t, :j])[:, 0] + a[:, j, :j]
            s = outflow.sum(axis=1)
            if rooted:  # the roots beyond j are live too; an entry with none adds 0.0
                beyond = (pending @ outflows[:, :t, j + 1 :])[:, 0] + a[:, j, j + 1 :]
                beyond *= root[:, j + 1 :]
                s += beyond.sum(axis=1)
            found = np.count_nonzero(s) < depth  # a sum of terms >= 0: s != 0 is s > 0
            if found:
                root[:, j] = here = ~(s > 0.0)
                classes += here
                s[here] = np.inf  # a root's outflow row becomes 0
            sums.append(s)
            np.divide(outflow, s[:, None], out=outflows[:, t, :j])
            if rooted:
                np.divide(beyond, s[:, None], out=outflows[:, t, j + 1 :])
            rooted |= found
            if not j:
                break
            update = (inflows[:, :j, :t] @ outflows[:, :t, j, None])[..., 0]
            if found:  # a root keeps its raw inflows; its 0 outflow row spreads them nowhere
                update[here] = 0.0
            column = a[:, :j, j]
            column += update
            inflows[:, :j, t] = column
        low |= ((0.0 < inflows) & (inflows < tiny * PLAIN_RANGE)).any(axis=(1, 2))
        toward.append(outflows.argmax(axis=2))
        for e in range(depth) if lo else ():  # each entry's own band
            hit_rows, hit_cols = inflows[e, :lo].any(axis=1), outflows[e, :, :lo].any(axis=0)
            if hit_rows.any():
                r, c = hit_rows.argmax(), hit_cols.argmax()
                roots = np.flatnonzero(root[e, lo:]) + lo
                cols = np.r_[c:lo, roots] if roots.size else slice(c, lo)
                a[e][r:lo, cols] += inflows[e, r:lo] @ outflows[e][:, cols]
    scale, weight = np.array(sums[::-1]), outflows[:, -1]  # (k, t); the start's flows
    weight[:, 0] = root[:, 0]
    starts, pi = root.any(axis=0).tolist(), root[:, None].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, k):
            feed = pi[:, :, :j] @ a[:, :j, j, None]
            np.divide(feed, scale[j, :, None, None], out=pi[:, :, j, None])
            if starts[j]:  # a root takes nothing from its feeds and starts at 1
                pi[:, 0, j] += root[:, j]
        pi = pi[:, 0]
        held = np.where(pi > 0.0, pi, 1.0)
        bad = (held < 1.0 / PLAIN_RANGE) | (held > PLAIN_RANGE) | (scale.T < tiny)
        plain = ~low & ~bad.any(axis=1) if bad.any() else ~low
        total, share = pi.sum(axis=1, keepdims=True), 1.0  # one class: the start's flow is 1
        if classes.max() > 1:  # a recurrent state spreads within its class: follow it to the root
            toward = np.concatenate(toward, axis=1)[:, ::-1]
            cell = np.arange(depth)[:, None] * k + np.where(root > 0.0, np.arange(k), toward)
            for _ in range(k.bit_length()):
                cell = cell.ravel()[cell]
            by_class = np.bincount(cell.ravel(), pi.ravel(), minlength=depth * k)[cell]
            total, share = np.where(classes[:, None] > 1, by_class, total), weight.ravel()[cell]
        pi = pi / total * share
    for e in np.flatnonzero(~plain).tolist():
        out = np.where(root[e] > 0.0, 0.0, scale[:, e])
        feeds = np.triu(a[e], 1).T * (out > 0.0)[:, None]  # feeds[j, i]: a[i, j] into a non-root
        target, source = np.nonzero(feeds)
        indptr = np.r_[0, np.cumsum(np.bincount(target, minlength=k))]
        flows = {r: weight[e, r] for r in np.flatnonzero(root[e]).tolist()}
        pi[e] = _back_substitute(out, indptr, source, feeds[target, source], flows)
    return pi


def stationary(q, initial: int = 0) -> np.ndarray:
    """Long-run occupancy of the chain ``q`` started at ``initial``.

    ``q`` is a dense array or a :class:`SparseRows` kernel.  The result is
    the Cesaro limit of the empirical occupancy: each closed class's
    stationary vector weighted by the probability of being absorbed into
    it, with zeros on the transient states.  What ``initial`` reaches is
    put in breadth-first order from it and eliminated last member first,
    ``initial`` last.  When those members form a tree once the absorbing
    ones are set aside, as a star's, a noisy star's, a line's or an
    absorbing walk's do, the elimination updates only the flows into the
    absorbing members, and its feeds are read off the entries (see
    :func:`_tree_feeds`); any other reached chain is one dense block
    (:func:`_gth_stack`).  A kernel with no zero entry is one class and
    goes straight to the dense elimination; a dense one is never converted
    to :class:`SparseRows`.  A sparse kernel's rows that ``initial`` does
    not reach are read only by the kernel checks.
    """
    q = _check_kernel(q)
    n = len(q)
    if not 0 <= initial < n:
        raise ValueError(f"initial state {initial} out of range for {n} states")
    dense = isinstance(q, np.ndarray)
    if dense and not q.all():
        q, dense = SparseRows.from_dense(q), False
    if dense or q.nnz == n * n:  # one class: no start to put last
        pi = _gth_stack((q.copy() if dense else q.dense())[None])[0]
    else:
        members = _reach(q, initial)
        feeds = _tree_feeds(q, members)
        pi = np.zeros(n)
        if feeds:
            pi[members] = _back_substitute(*feeds)
        else:
            pi[members] = _gth_stack(q.block(members, members)[None])[0]
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
    mechanisms' rows for signal ``s``, summed in signal order.  When each
    mechanism can move every state to every state, that is a dense block;
    otherwise it is built sparse.
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
        value += np.outer(model.mass[w, s] * prob_a[:, s], prob_b[:, s])
    if source_a.size == ma * ma and source_b.size == mb * mb:
        # Each rule moves every state to every state, in (source, target)
        # order, so the grid is the kernel with its axes permuted.
        kernel = value.reshape(ma, ma, mb, mb).transpose(0, 2, 1, 3).reshape(ma * mb, ma * mb)
    else:
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
