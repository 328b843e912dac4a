"""Independent reference computations backing the test expectations.

Nothing in here reuses the package's solvers: occupancies come from
brute-force power averaging, ladder chains from exact rational
arithmetic, star occupancies from the geometric form in ``mpmath``,
absorption from a hitting system solved in ``mpmath``, class splits
from ``networkx``'s condensation, and optimal pattern losses from a
generic numeric optimizer.  The exceptions are former
loops kept as references for their faster replacements, which must match
them bit for bit: :func:`sequential_anneal`, the annealer's
one-proposal-per-step loop, shares the package's pricing and exact
re-solve, because only the skip of a step that moves nothing and the
drawing of a window of steps per gamma call changed; and
:func:`sequential_monte_carlo` is the Monte Carlo walk's per-row set-up
and loop.
Expected values in the test modules were produced by these functions
(and are frozen there as literals); the cheap ones are also called
directly inside tests to cross-check the fast implementations.
"""

from __future__ import annotations

from fractions import Fraction
import math
from bisect import bisect_right
from dataclasses import replace
from itertools import product

import mpmath
import networkx as nx
import numpy as np
from scipy.optimize import minimize

from famlearn.chain import _price
from famlearn.search import _ALPHA_FLOOR, _CHUNK, _exact_result


def cesaro_occupancy(kernel: np.ndarray, initial: int, doublings: int = 50) -> np.ndarray:
    """Long-run occupancy row by averaging matrix powers, no eigen-anything.

    Repeatedly doubles the horizon of the running average
    ``(I + Q + ... + Q^(T-1)) / T``, which converges for periodic and
    reducible chains alike.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    avg = np.eye(kernel.shape[0])
    power = kernel.copy()
    for _ in range(doublings):
        avg = 0.5 * (avg + avg @ power)
        power = power @ power
        # Row sums drift multiplicatively under repeated squaring (the
        # error squares along with the matrix), so restore stochasticity
        # every round instead of letting (1+eps)^(2^k) blow up.
        avg /= avg.sum(axis=1, keepdims=True)
        power /= power.sum(axis=1, keepdims=True)
    return avg[initial]


def state_kernel(transition: np.ndarray, mass_row: np.ndarray) -> np.ndarray:
    """Signal-averaged one-period kernel for one state of the world."""
    return np.einsum("s,msj->mj", mass_row, transition)


def mechanism_loss(
    transition: np.ndarray,
    decision: np.ndarray,
    mass: np.ndarray,
    utilities: np.ndarray,
    prior: np.ndarray,
    initial: int = 0,
) -> float:
    """Asymptotic loss recomputed from scratch via power averaging."""
    total = float(utilities @ prior)
    gained = 0.0
    for w in range(mass.shape[0]):
        occ = cesaro_occupancy(state_kernel(transition, mass[w]), initial)
        gained += utilities[w] * prior[w] * occ[np.asarray(decision) == w].sum()
    return total - gained


def best_deterministic_loss(
    mass: np.ndarray, utilities: np.ndarray, prior: np.ndarray, m_size: int
):
    """Exhaustive reference over deterministic tables (argmax decisions).

    Returns ``(best_loss, best_decision)`` where the decision vector is
    the stake-weighted argmax under the best table's occupancies.
    """
    n, alphabet = mass.shape
    stakes = utilities * prior
    total = float(utilities @ prior)
    best = (np.inf, None)
    for table in product(range(m_size), repeat=m_size * alphabet):
        transition = np.zeros((m_size, alphabet, m_size))
        for flat, target in enumerate(table):
            transition[flat // alphabet, flat % alphabet, target] = 1.0
        occ = np.vstack(
            [cesaro_occupancy(state_kernel(transition, mass[w]), 0) for w in range(n)]
        )
        score = stakes[:, None] * occ
        utility = score.max(axis=0).sum()
        loss = total - utility
        if loss < best[0] - 1e-12:
            best = (loss, score.argmax(axis=0))
    return best


def minimize_pattern_loss(
    mass: np.ndarray,
    utilities: np.ndarray,
    prior: np.ndarray,
    decision,
    attempts: int = 40,
    seed: int = 0,
) -> float:
    """Best loss of a 2-memory-state mechanism with the decisions pinned.

    Optimizes the six free transition probabilities with a generic
    gradient-free method from many random starts; used to double-check
    closed-form pattern losses.
    """
    decision = np.asarray(decision)
    rng = np.random.default_rng(seed)

    def loss_of(params: np.ndarray) -> float:
        params = np.clip(params, 0.0, 1.0)
        transition = np.empty((2, mass.shape[1], 2))
        transition[:, :, 1] = params.reshape(2, mass.shape[1])
        transition[:, :, 0] = 1.0 - transition[:, :, 1]
        return mechanism_loss(transition, decision, mass, utilities, prior)

    best = np.inf
    for _ in range(attempts):
        start = rng.random(2 * mass.shape[1])
        result = minimize(
            loss_of,
            start,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
        )
        best = min(best, float(result.fun))
    return best


def exact_ladder_occupancy(up: Fraction, m_size: int) -> list[Fraction]:
    """Stationary law of a saturating birth-death ladder, exactly.

    ``up`` is the per-period probability of moving toward the top; the
    occupancy is geometric in ``up / (1 - up)``.
    """
    ratio = up / (1 - up)
    weights = [ratio**k for k in range(m_size)]
    total = sum(weights)
    return [x / total for x in weights]


def star_occupancy_mp(mass, delta: float, lam: int, w: int, digits: int = 40) -> np.ndarray:
    """Star occupancy under world ``w`` from its geometric form, in mpmath.

    Lottery ``w2`` weights signal ``s`` by ``mass[w2][s] / ||mass[w2]||``
    (a common scale cancels from every odds), and branch ``w2`` holds
    ``odds**k`` times the hub's mass at level ``k``, with odds
    ``delta * F(w2) / sum_{w3 != w2} F(w3)``.  Order: hub, then each
    branch inward to tip.  Entries below the float range round to
    subnormals or zero only in the final conversion.
    """
    with mpmath.workdps(digits):
        rows = [[mpmath.mpf(x) for x in row] for row in mass]
        norms = [mpmath.sqrt(mpmath.fsum(x * x for x in row)) for row in rows]
        units = [[x / norm for x in row] for row, norm in zip(rows, norms)]
        confirm = [mpmath.fsum(a * b for a, b in zip(rows[w], unit)) for unit in units]
        total = mpmath.fsum(confirm)
        occ = [mpmath.mpf(1)]
        for own in confirm:
            odds = mpmath.mpf(delta) * own / (total - own)
            occ.extend(odds**k for k in range(1, lam + 1))
        norm = mpmath.fsum(occ)
        return np.array([float(x / norm) for x in occ])


def dense_gth(kernel: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible kernel by the textbook GTH loop.

    Every pivot updates its whole leading block and the back-substitution
    never rescales.  The package's solvers sum in other orders (the dense
    one in panels), so they agree with this loop to rounding, not bitwise.
    """
    a = np.array(kernel, dtype=np.float64)
    k = a.shape[0]
    for j in range(k - 1, 0, -1):
        a[:j, j] /= a[j, :j].sum()
        a[:j, :j] += np.outer(a[:j, j], a[j, :j])
    pi = np.empty(k)
    pi[0] = 1.0
    for j in range(1, k):
        pi[j] = pi[:j] @ a[:j, j]
    return pi / pi.sum()


def pair_kernel(mass_row, trans_a: np.ndarray, trans_b: np.ndarray) -> np.ndarray:
    """Kernel of two rules fed one signal stream, with pair ``(x, y)`` at ``x * m_b + y``.

    It is ``sum_s mass_row[s] * kron(trans_a[:, s, :], trans_b[:, s, :])``,
    with the mass multiplied into agent A's rows and the signals added in
    order from zero, so every entry is rounded as the package rounds it.
    """
    kernel = np.zeros((trans_a.shape[0] * trans_b.shape[0],) * 2)
    for s, mass in enumerate(mass_row):
        kernel += np.kron(mass * trans_a[:, s, :], trans_b[:, s, :])
    return kernel


def gth_mp(kernel: np.ndarray, digits: int = 40) -> np.ndarray:
    """The textbook GTH loop of :func:`dense_gth` in mpmath at ``digits``.

    Zero inflows and outflows are skipped, which changes no value, so a
    banded kernel costs its band.  The result is rounded to doubles once,
    at the end.
    """
    with mpmath.workdps(digits):
        a = [[mpmath.mpf(float(x)) for x in row] for row in np.asarray(kernel)]
        k = len(a)
        for j in range(k - 1, 0, -1):
            outflow = [(c, o) for c, o in enumerate(a[j][:j]) if o]
            s = mpmath.fsum(o for _, o in outflow)
            for i in range(j):
                if a[i][j]:
                    f = a[i][j] = a[i][j] / s
                    row = a[i]
                    for c, o in outflow:
                        row[c] += f * o
        pi = [mpmath.mpf(1)]
        for j in range(1, k):
            pi.append(mpmath.fdot([a[i][j] for i in range(j)], pi))
        total = mpmath.fsum(pi)
        return np.array([float(x / total) for x in pi])


def absorption_mp(kernel: np.ndarray, initial: int, digits: int | None = None) -> np.ndarray:
    """Long-run occupancy of a reducible kernel from ``initial``, in mpmath.

    Classes come from :func:`recurrent_classes_nx`.  The probability of
    ending in each class solves the hitting system ``(I - Q_TT) h = Q_TC 1``
    by LU at ``digits``, and each class is weighted by :func:`gth_mp` on
    its block.  Every diagonal is taken as 1 minus its row's off-diagonal
    sum, as GTH does: a float kernel stores ``1 - 1e-300`` as exactly
    ``1.0``, and a system read off that diagonal would be singular.  By
    default ``digits`` leaves 100 digits over twice the smallest entry's
    exponent, 700 for an entry of 1e-300.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if digits is None:
        digits = 100 + 2 * math.ceil(-math.log10(kernel[kernel > 0.0].min()))
    classes, transient = recurrent_classes_nx(kernel)
    if initial in transient:
        with mpmath.workdps(digits):
            a = [[mpmath.mpf(float(x)) for x in row] for row in kernel]
            lhs = mpmath.matrix(len(transient))
            for r, i in enumerate(transient):
                lhs[r, r] = mpmath.fsum(x for j, x in enumerate(a[i]) if j != i)
                for c, j in enumerate(transient):
                    if j != i:
                        lhs[r, c] = -a[i][j]
            start = transient.index(initial)
            weights = [
                mpmath.lu_solve(lhs, [mpmath.fsum(a[i][j] for j in members) for i in transient])[start]
                for members in classes
            ]
            weights = [float(w) for w in weights]
    else:
        weights = [float(initial in members) for members in classes]
    occupancy = np.zeros(len(kernel))
    for weight, members in zip(weights, classes):
        occupancy[members] = weight * gth_mp(kernel[np.ix_(members, members)], digits)
    return occupancy


def recurrent_classes_nx(kernel: np.ndarray):
    """Closed classes and transient states from networkx's condensation.

    Same contract as ``famlearn.recurrent_classes``: classes as sorted
    lists ordered by smallest member, transient states sorted.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(range(kernel.shape[0]))
    graph.add_edges_from(zip(*np.nonzero(np.asarray(kernel) > 0.0)))
    dag = nx.condensation(graph)
    classes, transient = [], []
    for node in dag.nodes:
        members = sorted(int(m) for m in dag.nodes[node]["members"])
        if dag.out_degree(node) == 0:
            classes.append(members)
        else:
            transient.extend(members)
    return sorted(classes), sorted(transient)


def canonical_table(table) -> tuple:
    """Breadth-first relabelling of a deterministic table from state 0.

    ``table[state][signal]`` is the successor.  States are numbered in the
    order a queue from state 0 first meets them, scanning signals in
    order; rows of states never met are all 0.
    """
    label = {0: 0}
    queue = [0]
    for state in queue:
        for target in table[state]:
            if target not in label:
                label[target] = len(label)
                queue.append(target)
    canon = [(0,) * len(table[0])] * len(table)
    for state, new in label.items():
        canon[new] = tuple(label[t] for t in table[state])
    return tuple(canon)


def canonical_strings(m_size: int, alphabet: int):
    """Every breadth-first canonical table with at most ``m_size`` states.

    A plain recursion over flat codes: position ``p`` is the successor of
    state ``p // alphabet`` on signal ``p % alphabet``, either a state
    already found or the next new one, and 0 for a state never found.
    Codes come out in lexicographic order; a code's state count is its
    largest entry plus one.
    """

    def grow(prefix, found):
        if len(prefix) == m_size * alphabet:
            yield prefix
        elif len(prefix) // alphabet >= found:
            yield from grow(prefix + (0,), found)
        else:
            for digit in range(min(found + 1, m_size)):
                yield from grow(prefix + (digit,), found + (digit == found))

    yield from grow((), 1)


def scalar_fast_loss(problem, transition, stakes, eye, unit) -> float:
    """The annealer's one-tensor objective, written out apart from it."""
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


def sequential_anneal(problem, config):
    """``famlearn.local_search`` with its restarts run one after another.

    Each restart walks on its own spawned stream, drawn in the annealer's
    layout: every ``_CHUNK`` steps the chunk's row cells and then its
    acceptance uniforms, and at every step one ``standard_gamma`` call
    divided by its sum, or one ``dirichlet`` call when every gamma draw
    underflows.  Every proposal is priced alone, with no skip for a row
    that did not move.  The trace numbers restart ``r``'s step ``it`` as
    ``r * (iterations + 1) + it``.  The annealer, which draws a window of
    steps at a time and skips the steps where no row moves, must return
    this result bit for bit.
    """
    m, n, k = config.m_size, problem.n_states, problem.model.alphabet_size
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
        current = rng.dirichlet(np.ones(m), size=(m, k))
        current_loss = scalar_fast_loss(problem, current, stakes, eye, unit)
        if current_loss < best_loss:
            best_loss = current_loss
            best_transition = current.copy()
            events.append((restart * (config.iterations + 1), best_loss))
        temperature = config.initial_temperature
        for it in range(1, config.iterations + 1):
            temperature *= config.cooling
            step = (it - 1) % _CHUNK
            if step == 0:
                cells = rng.integers(m * k, size=_CHUNK)
                uniforms = rng.random(_CHUNK)
            row_m, row_s = divmod(int(cells[step]), k)
            alpha = current[row_m, row_s] / config.step_scale + _ALPHA_FLOOR
            gamma = rng.standard_gamma(alpha)
            total = gamma.sum()
            proposal = current.copy()
            proposal[row_m, row_s] = gamma / total if total > 0.0 else rng.dirichlet(alpha)
            proposal_loss = scalar_fast_loss(problem, proposal, stakes, eye, unit)
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                delta = np.float64(proposal_loss) - current_loss
                if delta <= 0.0 or uniforms[step] < np.exp(-delta / temperature):
                    current = proposal
                    current_loss = proposal_loss
            if current_loss < best_loss:
                best_loss = current_loss
                best_transition = current.copy()
                events.append((restart * (config.iterations + 1) + it, best_loss))

    result = _exact_result(problem, best_transition, trace=events)
    corners = np.zeros_like(best_transition)
    np.put_along_axis(corners, best_transition.argmax(axis=2)[..., None], 1.0, axis=2)
    snapped = _exact_result(problem, corners, trace=events)
    if snapped.loss <= result.loss:
        result = snapped
    if events and result.loss <= events[-1][1]:
        result = replace(
            result,
            trace=tuple(events) + ((config.restarts * (config.iterations + 1), result.loss),),
        )
    return result


def sequential_monte_carlo(problem, mech, w, steps, burn_in=0, seed=0):
    """``famlearn.monte_carlo_occupancy`` as it ran with a per-row set-up loop.

    Builds each row's cumulative sums and deterministic jump one row at a
    time, then walks with numpy-array counts; the flat-table walk must
    return this occupancy and these frequencies bit for bit.
    """
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
