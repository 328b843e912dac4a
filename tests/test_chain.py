"""Stationary analysis: solver, occupancy, utilities, simulation, coupling."""

import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from famlearn import chain
from famlearn import (
    Problem,
    SignalModel,
    SolverError,
    SparseRows,
    UpdatingMechanism,
    asymptotic_utility,
    build_line,
    build_noisy_star,
    build_star,
    build_symmetric_full,
    disagreement_probability,
    expected_transition_matrix,
    joint_occupancy,
    monte_carlo_occupancy,
    occupancy_profile,
    optimal_decisions,
    profile_utility,
    recurrent_classes,
    star_occupancy_closed_form,
    stationary,
    transition_kernel,
    uniform_problem,
    utility_loss,
)

# exact ladder occupancy for the 0.7/0.3 model: ratio 7/3 per rung
LADDER_OCC = [Fraction(27, 580), Fraction(63, 580), Fraction(147, 580), Fraction(343, 580)]


def det_mech(table, decision, alphabet=2):
    table = np.asarray(table)
    m_size = table.shape[0]
    tr = np.zeros((m_size, alphabet, m_size))
    for (m, s), target in np.ndenumerate(table):
        tr[m, s, target] = 1.0
    return UpdatingMechanism(m_size=m_size, transition=tr, decision=np.asarray(decision))


# --- problem type -----------------------------------------------------------


def test_problem_validates_prior():
    model = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
    with pytest.raises(ValueError):
        Problem(model=model, utilities=np.ones(2), prior=np.array([0.7, 0.2]))


def test_problem_validates_utilities():
    model = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
    with pytest.raises(ValueError):
        Problem(model=model, utilities=np.array([1.0, -1.0]), prior=np.array([0.5, 0.5]))


def test_uniform_problem_total(binary_model):
    prob = uniform_problem(binary_model)
    assert prob.total_level == pytest.approx(1.0)
    np.testing.assert_allclose(prob.prior, 0.5)


# --- recurrent structure ----------------------------------------------------


def test_recurrent_classes_irreducible():
    q = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert recurrent_classes(q) == ([[0, 1]], [])


def test_recurrent_classes_two_absorbers():
    q = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.3, 0.4, 0.3],
            [0.0, 0.0, 1.0],
        ]
    )
    assert recurrent_classes(q) == ([[0], [2]], [1])


def test_recurrent_classes_transient_cycle():
    # 0 <-> 1 feed into the absorbing pair {2, 3}
    q = np.array(
        [
            [0.0, 0.9, 0.1, 0.0],
            [0.9, 0.0, 0.0, 0.1],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    assert recurrent_classes(q) == ([[2, 3]], [0, 1])


def _random_support_kernel(rng, n, density):
    """Sparse kernel with random support; every state has one forced exit."""
    support = rng.random((n, n)) < density
    support[np.arange(n), rng.integers(0, n, size=n)] = True
    q = support * rng.uniform(0.1, 1.0, size=(n, n))
    return q / q.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("seed", range(30))
def test_recurrent_classes_match_condensation_oracle(seed):
    rng = np.random.default_rng(seed)
    q = _random_support_kernel(rng, int(rng.integers(1, 60)), rng.uniform(0.0, 0.12))
    assert recurrent_classes(q) == oracles.recurrent_classes_nx(q)


def test_recurrent_classes_oracle_cases_are_reducible():
    """The seeds above cover several closed classes and transient states."""
    shapes = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        q = _random_support_kernel(rng, int(rng.integers(1, 60)), rng.uniform(0.0, 0.12))
        classes, transient = recurrent_classes(q)
        shapes.append((len(classes), len(transient)))
    assert any(c >= 3 and t >= 10 for c, t in shapes)
    assert any(c == 1 and t == 0 for c, t in shapes)


def test_recurrent_classes_long_path_needs_no_recursion():
    n = 3000
    q = np.zeros((n, n))
    q[np.arange(n - 1), np.arange(1, n)] = 1.0
    q[n - 1, n - 1] = 1.0
    assert recurrent_classes(q) == ([[n - 1]], list(range(n - 1)))


# --- stationary solver ------------------------------------------------------


def test_stationary_two_state_closed_form():
    p, q = 0.3, 0.1
    kernel = np.array([[1 - p, p], [q, 1 - q]])
    pi = stationary(kernel)
    np.testing.assert_allclose(pi, [q / (p + q), p / (p + q)], atol=1e-14)


def test_stationary_periodic_chain_time_average():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(stationary(flip), [0.5, 0.5], atol=1e-14)


def test_stationary_absorbing_depends_on_start():
    q = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.25, 0.5, 0.25],
            [0.0, 0.0, 1.0],
        ]
    )
    np.testing.assert_allclose(stationary(q, initial=1), [0.5, 0.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(stationary(q, initial=0), [1.0, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-12, 1e-14, 1e-300])
def test_slow_exit_splits_exactly_between_absorbing_states(eps):
    """The start keeps itself with probability 1 - eps and leaves 0.3/0.7 to
    two absorbing states.  For small eps its diagonal rounds to 1, so only
    a solver that never forms 1 - (1 - eps) finds the split."""
    q = np.array([[1.0 - eps, 0.3 * eps, 0.7 * eps], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for occupancy in (stationary(q), oracles.absorption_mp(q, 0)):
        np.testing.assert_allclose(occupancy, [0.0, 0.3, 0.7], rtol=1e-15, atol=0.0)


def test_a_subnormal_pivot_outflow_solves_without_overflow():
    """Eliminating state 2 leaves state 1 an outflow of 1e-320, a subnormal
    whose reciprocal overflows; the occupancy of state 0 is about 1e-320."""
    q = np.array([[1e-160, 1.0, 0.0], [0.0, 1.0, 1e-160], [1e-160, 1.0, 0.0]])
    pi = stationary(q)
    np.testing.assert_allclose(pi[1:], oracles.absorption_mp(q, 0)[1:], rtol=1e-12, atol=0.0)
    assert 0.0 < pi[0] < 1e-300


RARE_EXITS = [None, 1e-300, 1e-150, 1e-30, 1e-12, 1e-6]


@st.composite
def reducible_kernels(draw):
    """3 to 11 states: one to three closed classes, some periodic cycles,
    and transient states.  A transient state, or a member of a class that is
    not a cycle, may leave itself only at a rate as rare as 1e-300.  States
    are shuffled over the indices, and a transient row may point anywhere,
    so some classes are out of the start's reach."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3))
    closed = sum(sizes)
    n = closed + draw(st.integers(min_value=max(0, 3 - closed), max_value=11 - closed))
    order = rng.permutation(n)
    q = np.zeros((n, n))
    slow = []
    for members in np.split(order[:closed], np.cumsum(sizes)[:-1]):
        if len(members) > 1 and draw(st.booleans()):
            q[members, np.roll(members, -1)] = 1.0
            continue
        square = (len(members),) * 2
        q[np.ix_(members, members)] = rng.random(square) * (rng.random(square) < 0.6)
        q[members, np.roll(members, -1)] += 0.5
        if len(members) > 1:
            slow.extend(members)
    transient = order[closed:]
    for t, i in enumerate(transient):
        # A forced exit to a class or an earlier transient state keeps every
        # transient state transient; the extra exits may point anywhere.
        q[i, rng.choice(np.concatenate([order[:closed], transient[:t]]))] = 1.0
        extra = rng.random(n) < 0.3
        q[i, extra] += rng.random(extra.sum())
        slow.append(i)
    q /= q.sum(axis=1, keepdims=True)
    for i in slow:
        eps = draw(st.sampled_from(RARE_EXITS))
        if eps is not None:
            q[i, i] = 0.0
            q[i] *= eps / q[i].sum()
            q[i, i] = 1.0 - eps
    initial = draw(st.sampled_from(transient.tolist() or [0]) | st.integers(0, n - 1))
    return q, initial


@settings(max_examples=100, deadline=None)
@given(reducible_kernels())
def test_reducible_occupancy_matches_high_precision_absorption(case):
    q, initial = case
    pi = stationary(q, initial)
    ref = oracles.absorption_mp(q, initial)
    tiny = np.finfo(np.float64).tiny
    normal = ref >= tiny
    np.testing.assert_allclose(pi[normal], ref[normal], rtol=1e-14, atol=0.0)
    assert np.abs(pi[~normal] - ref[~normal]).max(initial=0.0) <= tiny


@settings(max_examples=100, deadline=None)
@given(reducible_kernels())
def test_dense_and_sparse_root_rules_agree_on_the_reached_block(case):
    """The dense elimination of the block the start reaches, in breadth-first
    order, finds the roots and weights of the high-precision absorption
    law, and so does the tree read-off wherever the tree test holds."""
    q, initial = case
    sparse = SparseRows.from_dense(q)
    members = chain._reach(sparse, initial)
    assert members[0] == initial
    ref = oracles.absorption_mp(q, initial)[members]
    solved = [chain._gth_stack(sparse.block(members, members)[None])[0]]
    feeds = chain._tree_feeds(sparse, members)
    if feeds is not None:
        solved.append(chain._back_substitute(*feeds))
    tiny = np.finfo(np.float64).tiny
    normal = ref >= tiny
    for pi in solved:
        np.testing.assert_allclose(pi[normal], ref[normal], rtol=1e-14, atol=0.0)
        assert np.abs(pi[~normal] - ref[~normal]).max(initial=0.0) <= tiny


@pytest.mark.parametrize(
    "q, expected",
    [
        ([[0.5, 0.5], [1e-320, 1.0]], [2e-320, 1.0]),
        ([[0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [1e-320, 0.0, 1.0]], [1e-320, 2e-320, 1.0]),
    ],
    ids=["no zero entry", "sparse"],
)
def test_a_subnormal_outflow_row_spreads_without_overflow_or_warning(q, expected):
    """The last state leaves only with probability 1e-320.  Each elimination
    divides that state's outflow row by its sum, not its inflow, and the
    occupancy past the float range is rebuilt from mantissas and exponents;
    a RuntimeWarning would fail the test."""
    pi = stationary(np.array(q))
    assert pi[-1] == 1.0
    np.testing.assert_allclose(pi, expected, rtol=0.0, atol=2 * 5e-324)


def test_a_fan_into_16000_absorbing_states_splits_evenly_in_one_elimination(monkeypatch):
    """The start jumps uniformly into 16,000 absorbing states.  One tree
    read-off sets them all aside as roots, and the start's flows, divided
    by their ``math.fsum``, give each exactly 1/k."""
    k = 16_000
    tips = np.arange(1, k + 1)
    q = SparseRows.from_sorted(
        np.concatenate([np.zeros(k, dtype=np.int64), tips]),
        np.concatenate([tips, tips]),
        np.concatenate([np.full(k, 1.0 / k), np.ones(k)]),
        k + 1,
        k + 1,
    )
    calls = []
    read_off = chain._tree_feeds

    def counted(*args):
        calls.append(args)
        return read_off(*args)

    def refuse(a):
        raise AssertionError("the fan fell back to the dense block")

    monkeypatch.setattr(chain, "_tree_feeds", counted)
    monkeypatch.setattr(chain, "_gth_stack", refuse)
    pi = stationary(q, 0)
    assert len(calls) == 1
    assert pi[0] == 0.0 and (pi[1:] == 1.0 / k).all()


WALK = 20_001


def _gamblers_ruin_mp(up, n, initial):
    """Chances that a walk on ``0..n-1`` stepping up with probability ``up``
    ends at 0 and at ``n - 1`` from ``initial``, in mpmath."""
    with mpmath.workdps(40):
        if up == 0.5:
            return np.array([n - 1 - initial, initial]) / (n - 1)
        r = (1 - mpmath.mpf(up)) / up
        last = r ** (n - 1)
        ends = [(r**initial - last) / (1 - last), (1 - r**initial) / (1 - last)]
        return np.array([float(x) for x in ends])


@pytest.mark.parametrize(
    "up, initial",
    [(0.5, 1), (0.5, WALK // 3), (0.5, WALK - 2)]
    + [(up, initial) for up in (0.4, 0.6) for initial in (1, WALK // 3, WALK - 2)],
    ids=["1", str(WALK // 3), str(WALK - 2)]
    + [f"up={up}-{initial}" for up in (0.4, 0.6) for initial in (1, WALK // 3, WALK - 2)],
)
def test_absorbing_walk_stays_sparse_and_matches_gamblers_ruin(up, initial, monkeypatch):
    """A walk whose two ends absorb, stepping up with probability ``up``,
    ends at each end with the gambler's-ruin chance.  Its weights come from
    the tree read-off alone, never the dense block; a dense ``I - Q_TT``
    would take 3.2 GB.  A drifting walk started away from the end it drifts
    to reaches the other end with a chance far below the float range."""
    inner = np.arange(1, WALK - 1)
    q = SparseRows.from_sorted(
        np.concatenate([[0], np.repeat(inner, 2), [WALK - 1]]),
        np.concatenate([[0], np.stack([inner - 1, inner + 1], axis=1).ravel(), [WALK - 1]]),
        np.concatenate([[1.0], np.tile([1.0 - up, up], inner.size), [1.0]]),
        WALK,
        WALK,
    )

    def refuse(a):
        raise AssertionError("the absorbing walk fell back to the dense block")

    monkeypatch.setattr(chain, "_gth_stack", refuse)
    pi = stationary(q, initial)
    ref = _gamblers_ruin_mp(up, WALK, initial)
    tiny = np.finfo(np.float64).tiny
    normal = ref >= tiny
    np.testing.assert_allclose(pi[[0, -1]][normal], ref[normal], rtol=1e-12, atol=0.0)
    assert np.abs(pi[[0, -1]][~normal] - ref[~normal]).max(initial=0.0) <= tiny
    assert not pi[1:-1].any()


def test_transient_start_solves_only_what_it_reaches(monkeypatch):
    """A fair walk on states 0..200 whose ends absorb, started at 67, beside
    a closed 2-cycle {201, 202} and transient states 203 and 204 that feed
    the walk and the cycle; the walk reaches none of those four.  One kernel
    check, one reach and one tree read-off solve it, and the member list
    handed to the read-off holds no unreached state."""
    n, initial = 201, 67
    inner = np.arange(1, n - 1)
    q = SparseRows.from_entries(
        np.concatenate([[0], np.repeat(inner, 2), [n - 1, 201, 202, 203, 203, 204, 204]]),
        np.concatenate(
            [[0], np.stack([inner - 1, inner + 1], axis=1).ravel(), [n - 1, 202, 201, 201, 100, 203, 0]]
        ),
        np.concatenate([[1.0], np.full(2 * inner.size, 0.5), [1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5]]),
        n + 4,
        n + 4,
    )
    calls, solved = {}, []

    def count(name):
        wrapped = getattr(chain, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if name == "_tree_feeds":
                solved.append(list(args[1]))
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(chain, name, counted)

    for name in ("_reach", "_check_kernel", "_tree_feeds", "_gth_stack"):
        count(name)
    pi = chain.stationary(q, initial)
    assert calls == {"_reach": 1, "_check_kernel": 1, "_tree_feeds": 1}
    assert solved[0][0] == initial and sorted(solved[0]) == list(range(n))
    ends = np.array([n - 1 - initial, initial]) / (n - 1)
    np.testing.assert_allclose(pi[[0, n - 1]], ends, rtol=1e-12)
    assert not pi[1 : n - 1].any() and not pi[n:].any()


def test_stationary_rejects_malformed_kernel():
    with pytest.raises(ValueError):
        stationary(np.array([[0.5, 0.4], [0.5, 0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stationary_rejects_a_non_finite_kernel(bad):
    with pytest.raises(ValueError, match="stochastic"):
        stationary(np.array([[bad, 0.5], [0.5, 0.5]]))


def test_positive_dense_kernel_is_solved_in_place_of_a_sparse_copy(monkeypatch):
    """No ``SparseRows`` is built, the caller's array is left as it was, and
    the occupancy is the dense elimination's, as for the same kernel sparse."""
    q = np.random.default_rng(5).dirichlet(np.ones(60), size=60)
    given = q.copy()
    expected = stationary(SparseRows.from_dense(q))

    def refuse(a):
        raise AssertionError("a positive dense kernel was converted")

    monkeypatch.setattr(SparseRows, "from_dense", refuse)
    pi = stationary(q)
    assert pi.tolist() == expected.tolist()
    assert pi.tolist() == chain._gth_stack(given.copy()[None])[0].tolist()
    np.testing.assert_array_equal(q, given)


def test_stationary_handles_wide_occupancy_ranges():
    """Branch chains whose occupancies span many orders of magnitude."""
    model = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
    star = build_star(model, lam=20, delta=5.0)
    q = expected_transition_matrix(star, model, 0)
    pi = stationary(q)
    assert (pi >= 0).all()
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(pi @ q, pi, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10_000))
def test_stationary_fixed_point_on_random_kernels(size, seed):
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(size), size=size)
    pi = stationary(q)
    np.testing.assert_allclose(pi @ q, pi, atol=1e-10)
    assert pi.sum() == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_stationary_matches_power_averaging(size, seed):
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(size), size=size)
    np.testing.assert_allclose(
        stationary(q), oracles.cesaro_occupancy(q, 0), atol=1e-9
    )


@pytest.mark.parametrize("seed", range(20))
def test_sparse_elimination_matches_dense_loop_bitwise(seed):
    """These classes are no trees, so the tree test fails and leaves no
    trace: the occupancy is bit for bit the dense elimination's of the
    block in breadth-first order.  That one sums in panels, not in the
    textbook's per-pivot order, so it agrees with the textbook loop and
    with the same loop at 40 digits to rounding."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    q = _random_support_kernel(rng, n, rng.uniform(0.0, 0.3))
    q[np.arange(n), (np.arange(n) + 1) % n] += 0.5  # a ring: irreducible
    q /= q.sum(axis=1, keepdims=True)
    members = chain._reach(SparseRows.from_dense(q), 0)
    assert chain._tree_feeds(SparseRows.from_dense(q), members) is None
    pi = stationary(q)
    expected = np.zeros(n)
    expected[members] = chain._gth_stack(q[np.ix_(members, members)][None])[0]
    assert pi.tolist() == expected.tolist()
    for ref in (oracles.dense_gth(q), oracles.gth_mp(q)):
        np.testing.assert_allclose(pi, ref, rtol=1e-13, atol=0.0)


PANEL = chain._PANEL


@pytest.mark.parametrize("n", [1, PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 1, 3 * PANEL + 2])
def test_dense_elimination_across_panel_edges(n):
    """Classes that end just before, on and just after a panel edge.  The
    band keeps the 40-digit loop cheap and makes the panel products skip
    leading rows and columns."""
    rng = np.random.default_rng(n)
    near = np.abs(np.arange(n)[:, None] - np.arange(n)) <= PANEL // 2
    q = near * rng.uniform(0.1, 1.0, size=(n, n))
    q /= q.sum(axis=1, keepdims=True)
    pi = chain._gth_stack(q.copy()[None])[0]
    chain._check_residual(pi, q)
    for ref in (oracles.dense_gth(q), oracles.gth_mp(q)):
        np.testing.assert_allclose(pi, ref, rtol=1e-13, atol=0.0)


def test_dense_elimination_takes_a_member_without_outflow_as_a_root():
    """State 2 absorbs, and states 0 and 1 leak into it: the dense
    elimination takes it as a root and puts all the mass there."""
    a = np.array([[0.5, 0.25, 0.25], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
    pi = chain._gth_stack(a.copy()[None])[0]
    np.testing.assert_allclose(pi, oracles.absorption_mp(a, 0), rtol=1e-15, atol=0.0)


def test_dense_elimination_carries_roots_across_panels():
    """Four absorbing states and a 2-cycle among 106 states whose other rows
    are about half full, started at a transient state.  The tree test
    fails, and the dense pass finds the roots in different panels and
    keeps their columns in each panel's update.  The reference solves the
    hitting system by a float LU."""
    n = 2 * PANEL + 10
    rng = np.random.default_rng(7)
    q = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    closed = rng.choice(n, size=6, replace=False)
    q[closed] = 0.0
    q[closed, np.r_[closed[:4], closed[5], closed[4]]] = 1.0
    q /= q.sum(axis=1, keepdims=True)
    transient = np.setdiff1d(np.arange(n), closed)
    initial = transient[n // 2]
    hitting = np.eye(transient.size) - q[np.ix_(transient, transient)]
    expected = np.zeros(n)
    expected[closed] = np.linalg.solve(hitting, q[np.ix_(transient, closed)])[n // 2]
    expected[closed[4:]] = expected[closed[4:]].sum() / 2
    sparse = SparseRows.from_dense(q)
    assert chain._tree_feeds(sparse, chain._reach(sparse, initial)) is None
    np.testing.assert_allclose(stationary(q, initial), expected, rtol=1e-12, atol=0.0)


def _stack_kernel(rng, k, kind):
    """A ``k``-state kernel of one kind, with up to three entries per row
    over three orders of magnitude: a bare permutation (periodic classes),
    a random sparse graph (reducible, often with a transient start and
    states it never reaches), the same plus a ring (irreducible), or one
    whose first half, the start's, never leaves itself."""
    if kind == "periodic":
        return np.eye(k)[rng.permutation(k)]
    q = np.zeros((k, k))
    for i in range(k):
        width = int(rng.integers(1, min(3, k) + 1))
        q[i, rng.choice(k, size=width, replace=False)] = 10.0 ** rng.uniform(-3.0, 0.0, size=width)
    if kind == "irreducible":
        q[np.arange(k), (np.arange(k) + 1) % k] += 0.5
    elif kind == "unreached":
        half = (k + 1) // 2
        q[:half, half:] = 0.0
        q[np.arange(half), (np.arange(half) + 1) % half] += 0.5
    return q / q.sum(axis=1, keepdims=True)


@st.composite
def kernel_stacks(draw):
    """A stack of 2 to 8 kernels of 1 to 60 states, across a panel edge,
    drawn from one to three distinct kernels; returns the stack, the
    distinct kernels and which one each entry is."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    k = draw(st.integers(min_value=1, max_value=60))
    kinds = ["periodic", "reducible", "irreducible", "unreached"]
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3))
    distinct = [_stack_kernel(rng, k, kind) for kind in kinds]
    order = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=8))
    return np.stack([distinct[i] for i in order]), distinct, order


@settings(max_examples=100, deadline=None)
@given(kernel_stacks())
def test_stacking_does_not_change_an_entry(case):
    """Each entry's row is bit for bit its kernel's solved as a stack of
    one, whatever else the stack holds, and matches the 40-digit Cesaro
    limit from state 0."""
    stack, distinct, order = case
    rows = chain._gth_stack(stack.copy())
    alone = [chain._gth_stack(q.copy()[None])[0] for q in distinct]
    for row, i in zip(rows, order):
        assert row.tobytes() == alone[i].tobytes()
    tiny = np.finfo(np.float64).tiny
    for q, row in zip(distinct, alone):
        ref = oracles.absorption_mp(q, 0)
        normal = ref >= tiny
        np.testing.assert_allclose(row[normal], ref[normal], rtol=1e-12, atol=0.0)
        assert np.abs(row[~normal] - ref[~normal]).max(initial=0.0) <= tiny


def test_a_start_that_absorbs_leaves_the_states_it_misses_at_zero():
    """State 0 absorbs; states 1 and 2 feed each other and leak into it
    with probability 1e-320.  That subnormal outflow sum sends the block to
    the exponent-keeping back-substitution, where state 1, fed by no class,
    and state 2, fed only by it, get 0."""
    q = np.array([[1.0, 0.0, 0.0], [1e-320, 0.5, 0.5], [0.0, 1.0, 0.0]])
    pi = chain._gth_stack(q.copy()[None])[0]
    assert pi.tolist() == [1.0, 0.0, 0.0]
    assert pi.tolist() == oracles.absorption_mp(q, 0).tolist()


def test_a_subnormal_feed_keeps_its_bits():
    """World 0 of the mass ``[[0.6, 0.4 - 1e-320, 1e-320], [0.3, 0.3, 0.4]]``
    under the table ``[[0, 0, 1], [2, 2, 0], [2, 1, 0]]``.  State 1 is fed
    from the start with 1e-320, a subnormal with few bits, so it is split
    into mantissa and exponent before it is divided by state 1's outflow."""
    q = np.array([[1.0, 1e-320, 0.0], [1e-320, 0.0, 1.0], [1e-320, 0.4, 0.6]])
    pi = stationary(q)
    np.testing.assert_allclose(pi, oracles.gth_mp(q), rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(pi, [0.5, 1 / 7, 5 / 14], rtol=1e-15, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_birth_death_chain_with_subnormal_rates_matches_high_precision_gth(seed):
    """Up and down rates log-uniform over 1e-323 to 0.5, on 3 to 11 states
    started at an end: a tree whose feeds may be subnormal."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    step = np.arange(n - 1)
    q = np.zeros((n, n))
    q[step, step + 1] = 10.0 ** rng.uniform(-323.0, 0.0, size=n - 1) / 2
    q[step + 1, step] = 10.0 ** rng.uniform(-323.0, 0.0, size=n - 1) / 2
    q[np.arange(n), np.arange(n)] = 1.0 - q.sum(axis=1)
    pi = stationary(q)
    ref = oracles.gth_mp(q)
    tiny = np.finfo(np.float64).tiny
    normal = ref >= tiny
    np.testing.assert_allclose(pi[normal], ref[normal], rtol=1e-14, atol=0.0)
    assert np.abs(pi[~normal] - ref[~normal]).max(initial=0.0) <= tiny


WEAK =SignalModel.from_rows([[0.51, 0.49], [0.49, 0.51]])
# Weak signals keep the plain GTH loop of oracles.dense_gth in the float range.
BUILDER_KERNELS = {
    "star": (build_star(WEAK, lam=400, delta=2.0), 1),
    "noisy star": (build_noisy_star(WEAK, lam=300, delta=2.0, gamma=0.3), 0),
    "line": (build_line(WEAK, 800), 1),
}


@pytest.mark.parametrize("family", BUILDER_KERNELS)
def test_builder_kernels_solve_sparse_and_match_dense_loop(family):
    """Stars, noisy stars and lines are trees, so their feeds are read off
    the entries, and the occupancy agrees with the textbook dense loop."""
    mech, w = BUILDER_KERNELS[family]
    q = transition_kernel(mech, WEAK, w)
    assert chain._tree_feeds(q, chain._reach(q, 0)) is not None
    np.testing.assert_allclose(
        stationary(q), oracles.dense_gth(q.dense()), rtol=1e-13, atol=0.0
    )


@st.composite
def tree_kernels(draw):
    """A chain on a random tree of 3 to 40 states, as a :class:`SparseRows`
    kernel, and its start.  Each state after the root joins a random earlier
    parent by entries both ways, with weights over 30 orders of magnitude,
    so some occupancies leave the float range; some states keep a
    self-loop, and some edges lead only away from the root.  The root takes
    a random label; the others keep their order or are shuffled.  Returns
    the kernel, the start, and whether the tree test should hold: it fails
    where an edge that leads only away from the root ends at a state with
    children of its own, for a state with none then absorbs."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=3, max_value=40))
    parent = np.array([rng.integers(0, j) for j in range(1, n)], dtype=np.int64)
    child = np.arange(1, n)
    both = rng.random(n - 1) >= draw(st.sampled_from([0.0, 0.0, 0.1]))
    loop = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0])))
    rows = np.concatenate([parent, child[both], loop])
    cols = np.concatenate([child, parent[both], loop])
    weight = 10.0 ** rng.uniform(-30.0, 0.0, size=rows.size)
    # A state left with no entry, a leaf cut off from its parent, stays put.
    stuck = np.setdiff1d(np.arange(n), rows)
    rows, cols = np.concatenate([rows, stuck]), np.concatenate([cols, stuck])
    weight = np.concatenate([weight, np.ones(stuck.size)])
    weight /= np.bincount(rows, weight, minlength=n)[rows]
    root = int(rng.integers(0, n))
    rest = np.setdiff1d(np.arange(n), [root])
    ordered = draw(st.booleans())
    label = np.concatenate([[root], rest if ordered else rng.permutation(rest)])
    q = SparseRows.from_entries(label[rows], label[cols], weight, n, n)
    tree = (both | ~np.isin(child, parent)).all()
    return q, root, bool(tree)


@settings(max_examples=200, deadline=None)
@given(tree_kernels())
def test_a_tree_is_read_off_and_matches_high_precision_absorption(case):
    """Where the tree test holds the feeds come from the entries, and
    where it fails the dense block runs; either way the occupancy is bit
    for bit that path's, and it matches the high-precision absorption law."""
    q, initial, tree = case
    members = chain._reach(q, initial)
    feeds = chain._tree_feeds(q, members)
    assert (feeds is not None) == tree
    expected = np.zeros(len(q))
    if feeds is None:
        expected[members] = chain._gth_stack(q.block(members, members)[None])[0]
    else:
        expected[members] = chain._back_substitute(*feeds)
    pi = stationary(q, initial)
    assert pi.tobytes() == expected.tobytes()
    ref = oracles.absorption_mp(q.dense(), initial)
    tiny = np.finfo(np.float64).tiny
    normal = ref >= tiny
    np.testing.assert_allclose(pi[normal], ref[normal], rtol=1e-12, atol=0.0)
    assert np.abs(pi[~normal] - ref[~normal]).max(initial=0.0) <= tiny


@st.composite
def absorbing_trees(draw):
    """A random tree of 2 to 39 states beside 1 to 38 absorbing states, 40
    states at most, as a dense kernel, and a start drawn among the tree's
    states.  Each tree state after the first joins a random earlier one by
    entries both ways; each absorbing state is entered from one or two tree
    states; tree states may keep a self-loop.  Entries span 12 orders of
    magnitude, and the labels are shuffled."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    t = draw(st.integers(min_value=2, max_value=39))
    n = t + draw(st.integers(min_value=1, max_value=40 - t))
    parent = np.array([rng.integers(0, j) for j in range(1, t)], dtype=np.int64)
    child = np.arange(1, t)
    q = np.zeros((n, n))
    q[parent, child] = 10.0 ** rng.uniform(-12.0, 0.0, size=t - 1)
    q[child, parent] = 10.0 ** rng.uniform(-12.0, 0.0, size=t - 1)
    for r in range(t, n):
        feeders = rng.choice(t, size=min(t, int(rng.integers(1, 3))), replace=False)
        q[feeders, r] = 10.0 ** rng.uniform(-12.0, 0.0, size=feeders.size)
    if draw(st.booleans()):
        loop = np.flatnonzero(rng.random(t) < 0.5)
        q[loop, loop] = 10.0 ** rng.uniform(-12.0, 0.0, size=loop.size)
    q[np.arange(t, n), np.arange(t, n)] = 1.0
    q /= q.sum(axis=1, keepdims=True)
    label = rng.permutation(n)
    shuffled = np.zeros((n, n))
    shuffled[np.ix_(label, label)] = q
    return shuffled, int(label[rng.integers(0, t)])


@settings(max_examples=60, deadline=None)
@given(absorbing_trees())
def test_a_tree_with_absorbing_members_is_read_off_and_matches_high_precision_absorption(case):
    """Set aside, the absorbing states leave a tree in breadth-first order
    from any start, so the feeds and the start's flows come from the
    entries, and every occupancy matches the high-precision absorption law."""
    q, initial = case
    sparse = SparseRows.from_dense(q)
    assert chain._tree_feeds(sparse, chain._reach(sparse, initial)) is not None
    pi = stationary(sparse, initial)
    ref = oracles.absorption_mp(q, initial)
    tiny = np.finfo(np.float64).tiny
    normal = ref >= tiny
    np.testing.assert_allclose(pi[normal], ref[normal], rtol=1e-14, atol=0.0)
    assert np.abs(pi[~normal] - ref[~normal]).max(initial=0.0) <= tiny


def test_a_tree_whose_visit_counts_leave_the_float_range_splits_its_absorption():
    """The line 0 - 1 - 2 - 3 with state 4 absorbing from 0 and state 5 from
    3.  State 1 leaves only at the smallest subnormal, so it is visited
    about 1e323 times per visit to the start, past the largest double.  The
    read-off carries shares of the start's flows, which stay within [0, 1],
    and splits the start's absorption 2 : 1 as the 700-digit law does."""
    q = np.zeros((6, 6))
    q[0, [1, 4]] = 0.5
    q[1, [0, 2]] = 5e-324
    q[2, [1, 3]] = [1e-200, 0.5]
    q[3, [2, 5]] = [1e-300, 1e-320]
    q[[1, 2, 3], [1, 2, 3]] = 1.0 - q[[1, 2, 3]].sum(axis=1)
    q[[4, 5], [4, 5]] = 1.0
    sparse = SparseRows.from_dense(q)
    assert chain._tree_feeds(sparse, chain._reach(sparse, 0)) is not None
    pi = stationary(sparse, 0)
    np.testing.assert_allclose(pi, oracles.absorption_mp(q, 0), rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(pi, [0, 0, 0, 0, 2 / 3, 1 / 3], rtol=1e-15, atol=0.0)


def test_a_star_with_one_more_edge_takes_the_dense_block(monkeypatch):
    """One entry from one tip of a 0.6/0.4 star to the other closes a
    cycle through the centre: the tree test fails, and one dense block of
    the 41 states in breadth-first order gives the occupancy."""
    model = SignalModel.from_rows([[0.6, 0.4], [0.4, 0.6]])
    q = SparseRows.from_dense(
        transition_kernel(build_star(model, lam=20, delta=5.0), model, 0).dense()
    )
    assert chain._tree_feeds(q, chain._reach(q, 0)) is not None
    q = q.dense()
    q[20, 40] = q[20, 20] / 2
    q[20, 20] /= 2
    q = SparseRows.from_dense(q)
    members = chain._reach(q, 0)
    assert chain._tree_feeds(q, members) is None
    calls = []
    solve = chain._gth_stack

    def counted(a):
        calls.append(a.shape)
        return solve(a)

    monkeypatch.setattr(chain, "_gth_stack", counted)
    pi = stationary(q)
    assert calls == [(1, 41, 41)]
    assert pi[members].tobytes() == solve(q.block(members, members)[None])[0].tobytes()
    np.testing.assert_allclose(pi, oracles.dense_gth(q.dense()), rtol=1e-13, atol=0.0)


def test_filled_in_class_restarts_on_the_dense_loop():
    """A 40-state class with random support is no tree: the tree test
    fails, and the dense elimination agrees with the textbook loop."""
    rng = np.random.default_rng(3)
    q = _random_support_kernel(rng, 40, 0.3)
    q[np.arange(40), (np.arange(40) + 1) % 40] += 0.5
    q /= q.sum(axis=1, keepdims=True)
    sparse = SparseRows.from_dense(q)
    assert chain._tree_feeds(sparse, chain._reach(sparse, 0)) is None
    for ref in (oracles.dense_gth(q), oracles.gth_mp(q)):
        np.testing.assert_allclose(stationary(q), ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "n, band",
    [(60, 5), (60, 59), (3 * PANEL + 7, 5), (3 * PANEL + 7, 3 * PANEL + 6)],
    ids=["banded", "full", "banded-panels", "full-panels"],
)
def test_filled_in_class_past_the_float_range_matches_its_law(n, band):
    """A Metropolis chain for pi_i ~ 1e4**i, with proposals up to ``band``
    states away: it is no tree, so the dense elimination and its rescaling
    run, over several panels for the larger class.  There the law spans
    far more than the float range, and what lies below the smallest normal
    double is only held to that absolute size."""
    log_pi = np.arange(n) * np.log(1e4)
    near = np.abs(np.arange(n)[:, None] - np.arange(n)) <= band
    q = near * np.exp(np.minimum(0.0, log_pi - log_pi[:, None])) / n
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, 1.0 - q.sum(axis=1))
    sparse = SparseRows.from_dense(q)
    assert chain._tree_feeds(sparse, chain._reach(sparse, 0)) is None
    ref = np.exp(log_pi - log_pi.max())
    ref /= ref.sum()
    pi = stationary(q)
    normal = ref >= np.finfo(np.float64).tiny
    np.testing.assert_allclose(pi[normal], ref[normal], rtol=1e-12, atol=0.0)
    assert np.abs(pi[~normal] - ref[~normal]).max(initial=0.0) <= np.finfo(np.float64).tiny


def test_star_of_6001_states_matches_high_precision_reference():
    mass = [[0.6, 0.4], [0.4, 0.6]]
    model = SignalModel.from_rows(mass)
    star = build_star(model, lam=3000, delta=5.0)
    tiny = np.finfo(np.float64).tiny
    for w in range(2):
        pi = stationary(transition_kernel(star, model, w))
        ref = oracles.star_occupancy_mp(mass, 5.0, 3000, w)
        normal = ref >= tiny
        np.testing.assert_allclose(pi[normal], ref[normal], rtol=1e-12, atol=0.0)
        assert np.abs(pi[~normal] - ref[~normal]).max(initial=0.0) <= tiny


@pytest.mark.parametrize("lam", [430, 500, 1000])
def test_deep_star_matches_high_precision_reference(lam):
    """Occupancies spanning far more than the float range stay exact, and
    so does the tiny loss they imply."""
    mass = [[0.6, 0.4], [0.4, 0.6]]
    model = SignalModel.from_rows(mass)
    star = build_star(model, lam=lam, delta=5.0)
    problem = uniform_problem(model)
    tiny = np.finfo(np.float64).tiny
    wrong = 0.0
    for w in range(2):
        pi = stationary(expected_transition_matrix(star, model, w))
        closed = star_occupancy_closed_form(model, None, lam, 5.0, w)
        ref = oracles.star_occupancy_mp(mass, 5.0, lam, w)
        normal = ref >= tiny
        for occ in (pi, closed):
            assert np.isfinite(occ).all()
            np.testing.assert_allclose(occ[normal], ref[normal], rtol=1e-9, atol=0.0)
            assert np.abs(occ[~normal] - ref[~normal]).max(initial=0.0) <= tiny
        wrong += problem.stakes[w] * ref[star.decision != w].sum()
    assert 0.0 < wrong < 1e-25
    assert utility_loss(problem, star) == pytest.approx(wrong, rel=1e-9, abs=0.0)


def test_residual_gate_accepts_the_stationary_vector():
    q = np.array([[0.9, 0.1], [0.2, 0.8]])
    chain._check_residual(np.array([2 / 3, 1 / 3]), q)


@pytest.mark.parametrize(
    "pi",
    [np.full(2, np.nan), np.zeros(2), np.array([np.inf, 0.0])],
    ids=["nan", "zero", "inf"],
)
def test_residual_gate_rejects_vectors_that_are_not_distributions(pi):
    q = np.array([[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(SolverError):
        chain._check_residual(pi, q)


def test_power_averaging_oracle_stays_stochastic():
    """Regression: repeated squaring must not inflate the row sums."""
    idempotent = np.array([[0.8, 0.2], [0.8, 0.2]])
    np.testing.assert_allclose(
        oracles.cesaro_occupancy(idempotent, 0), [0.8, 0.2], atol=1e-12
    )


# --- occupancy and utilities ------------------------------------------------


def test_ladder_occupancy_exact(ladder_problem, ladder4):
    prof = occupancy_profile(ladder_problem, ladder4)
    expected = [float(x) for x in LADDER_OCC]
    np.testing.assert_allclose(prof.occupancy[0], expected, atol=1e-12)
    np.testing.assert_allclose(prof.occupancy[1], expected[::-1], atol=1e-12)
    exact = oracles.exact_ladder_occupancy(Fraction(7, 10), 4)
    assert exact == LADDER_OCC


def test_ladder_loss_exact(ladder_problem, ladder4):
    assert utility_loss(ladder_problem, ladder4) == pytest.approx(9 / 58, abs=1e-12)


def test_optimal_decisions_recover_ladder_split(ladder_problem, ladder4):
    prof = occupancy_profile(ladder_problem, ladder4)
    assert optimal_decisions(ladder_problem, prof).tolist() == [1, 1, 0, 0]


def test_optimal_decisions_tie_breaks_low():
    model = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
    prob = uniform_problem(model)
    mech = det_mech([[0, 0], [0, 0]], [0, 0])  # everything collapses to state 0
    prof = occupancy_profile(prob, mech)
    # state 1 never visited: stakes tie at zero there, lowest action wins
    assert optimal_decisions(prob, prof).tolist() == [0, 0]


def test_utility_loss_complements_utility(ladder_problem, ladder4):
    u = asymptotic_utility(ladder_problem, ladder4)
    loss = utility_loss(ladder_problem, ladder4)
    assert u + loss == pytest.approx(ladder_problem.total_level, abs=1e-14)


def test_single_state_mechanism_utility():
    model = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
    prob = Problem(model=model, utilities=np.array([3.0, 1.0]), prior=np.array([0.25, 0.75]))
    mech = UpdatingMechanism(
        m_size=1, transition=np.ones((1, 2, 1)), decision=np.array([0])
    )
    assert asymptotic_utility(prob, mech) == pytest.approx(0.75)
    assert utility_loss(prob, mech) == pytest.approx(0.75)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reoptimizing_decisions_never_hurts(seed):
    rng = np.random.default_rng(seed)
    model = SignalModel.from_rows(rng.dirichlet(np.ones(3), size=2))
    prob = uniform_problem(model)
    tr = rng.dirichlet(np.ones(3), size=(3, 3))
    mech = UpdatingMechanism(
        m_size=3, transition=tr, decision=rng.integers(0, 2, size=3)
    )
    prof = occupancy_profile(prob, mech)
    best = optimal_decisions(prob, prof)
    assert profile_utility(prob, prof, best) >= profile_utility(
        prob, prof, mech.decision
    ) - 1e-12


# --- simulation -------------------------------------------------------------


def test_monte_carlo_single_state(binary_model):
    prob = uniform_problem(binary_model)
    mech = UpdatingMechanism(
        m_size=1, transition=np.ones((1, 2, 1)), decision=np.array([0])
    )
    occ, freq = monte_carlo_occupancy(prob, mech, 0, steps=50, burn_in=5)
    np.testing.assert_array_equal(occ, [1.0])
    np.testing.assert_array_equal(freq, [1.0, 0.0])


def test_monte_carlo_absorbing_start(binary_model):
    prob = uniform_problem(binary_model)
    mech = det_mech([[0, 0], [1, 1]], [0, 1])
    mech = UpdatingMechanism(
        m_size=2, transition=mech.transition, decision=mech.decision, initial_state=1
    )
    occ, _ = monte_carlo_occupancy(prob, mech, 0, steps=100, burn_in=0)
    np.testing.assert_array_equal(occ, [0.0, 1.0])


def test_monte_carlo_is_seed_deterministic(ladder_problem, ladder4):
    a = monte_carlo_occupancy(ladder_problem, ladder4, 0, steps=2000, burn_in=100, seed=5)
    b = monte_carlo_occupancy(ladder_problem, ladder4, 0, steps=2000, burn_in=100, seed=5)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_monte_carlo_converges_with_more_steps(ladder_problem, ladder4):
    exact = occupancy_profile(ladder_problem, ladder4).occupancy[0]

    def tv(steps):
        occ, _ = monte_carlo_occupancy(
            ladder_problem, ladder4, 0, steps=steps, burn_in=1000, seed=9
        )
        return 0.5 * np.abs(occ - exact).sum()

    assert tv(10**6) < tv(10**4)


def test_monte_carlo_validates_steps(ladder_problem, ladder4):
    with pytest.raises(ValueError):
        monte_carlo_occupancy(ladder_problem, ladder4, 0, steps=10, burn_in=10)
    with pytest.raises(ValueError):
        monte_carlo_occupancy(ladder_problem, ladder4, 5, steps=10)


def test_monte_carlo_refuses_an_action_the_problem_does_not_have(binary_model):
    mech = det_mech([[0, 1], [0, 1]], [0, 5])
    with pytest.raises(ValueError, match="action 5"):
        monte_carlo_occupancy(uniform_problem(binary_model), mech, 0, steps=10)


def assert_same_walk(problem, mech, w, steps, burn_in, seed):
    got = monte_carlo_occupancy(problem, mech, w, steps, burn_in, seed)
    want = oracles.sequential_monte_carlo(problem, mech, w, steps, burn_in, seed)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@st.composite
def walk_cases(draw):
    """A random mechanism mixing dense, sparse, deterministic, near-certain and tied rows."""
    m = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    tr = np.zeros((m, k, m))
    for row in tr.reshape(m * k, m):
        kind = draw(st.sampled_from(["dense", "sparse", "deterministic", "near_certain", "tied"]))
        if kind == "deterministic" or (kind == "near_certain" and m == 1):
            row[rng.integers(m)] = 1.0
        elif kind == "near_certain":
            # within 1e-12 of 1, on the rule's edge, or just outside it
            eps = draw(st.sampled_from([1e-13, 1e-12, 2e-12]))
            big, small = rng.choice(m, size=2, replace=False)
            row[big], row[small] = 1.0 - eps, eps
        else:
            support = rng.random(m) < 0.5 if kind == "sparse" else np.ones(m, dtype=bool)
            support[rng.integers(m)] = True
            weights = np.ones(m) if kind == "tied" else rng.random(m) + 1e-3
            row[support] = weights[support] / weights[support].sum()
    mech = UpdatingMechanism(
        m_size=m,
        transition=tr,
        decision=rng.integers(n, size=m),
        initial_state=draw(st.integers(min_value=0, max_value=m - 1)),
    )
    mass = rng.random((n, k)) + 0.05
    problem = uniform_problem(SignalModel.from_rows(mass / mass.sum(axis=1, keepdims=True)))
    w = draw(st.integers(min_value=0, max_value=n - 1))
    burn_in = draw(st.sampled_from([0, 1, 250]))
    return problem, mech, w, burn_in, draw(st.integers(min_value=0, max_value=2**31))


@settings(max_examples=80, deadline=None)
@given(walk_cases())
def test_monte_carlo_matches_the_per_row_walk_bitwise(case):
    problem, mech, w, burn_in, seed = case
    assert_same_walk(problem, mech, w, 2000, burn_in, seed)


class AlternatingDraws:
    """Stands in for ``default_rng``: signals 0, 1, 0, ... and uniforms at the ends of [0, 1)."""

    def __init__(self, seed):
        pass

    def choice(self, k, size, p):
        return np.resize([0, 1], size)

    def random(self, size):
        return np.resize([np.nextafter(1.0, 0.0), 0.0], size)


def test_monte_carlo_clamps_to_the_last_successor_and_obeys_near_certain_rows(
    binary_model, monkeypatch
):
    # Signal 0: ten entries of 0.1, whose running sum ends just below 1, so
    # the largest uniform falls past it and must take the last successor.
    # Signal 1: the largest entry comes second, so a zero uniform would
    # take the first one unless the near-certain rule applies.
    tr = np.zeros((10, 2, 10))
    tr[:, 0, :] = 0.1
    tr[:, 1, :2] = [1e-13, 1.0 - 1e-13]
    mech = UpdatingMechanism(m_size=10, transition=tr, decision=np.zeros(10, dtype=int))
    problem = uniform_problem(binary_model)
    monkeypatch.setattr(np.random, "default_rng", AlternatingDraws)
    occ, _ = monte_carlo_occupancy(problem, mech, 0, steps=6)
    np.testing.assert_array_equal(occ * 6, [1, 2, 0, 0, 0, 0, 0, 0, 0, 3])
    assert_same_walk(problem, mech, 0, 6, 0, 0)


@pytest.mark.parametrize("burn_in", [0, 1000])
@pytest.mark.parametrize("family", ["line", "noisy_star", "symmetric_full", "star lam=2000"])
def test_monte_carlo_matches_the_per_row_walk_bitwise_on_builders(family, burn_in):
    model = SignalModel.from_rows([[0.6, 0.4], [0.4, 0.6]])
    if family == "line":
        mech = build_line(model, 6)
    elif family == "noisy_star":
        mech = build_noisy_star(model, lam=2, delta=5.0, gamma=0.5)
    elif family == "symmetric_full":
        mech, model = build_symmetric_full(4, 2.0, 0.5)
    else:
        mech = build_star(model, 2000, 5.0)
    problem = uniform_problem(model)
    for w, seed in [(0, 3), (model.n_states - 1, 11)]:
        assert_same_walk(problem, mech, w, 40_000, burn_in, seed)


# --- two agents on the same signals -----------------------------------------


def test_joint_occupancy_marginalizes_over_trivial_partner(ladder_problem, ladder4):
    trivial = UpdatingMechanism(
        m_size=1, transition=np.ones((1, 2, 1)), decision=np.array([0])
    )
    joint = joint_occupancy(ladder_problem, ladder4, trivial, 0)
    single = occupancy_profile(ladder_problem, ladder4).occupancy[0]
    np.testing.assert_allclose(joint[:, 0], single, atol=1e-12)


def test_identical_deterministic_agents_stay_coupled(ladder_problem, ladder4):
    joint = joint_occupancy(ladder_problem, ladder4, ladder4, 1)
    off_diagonal = joint - np.diag(np.diag(joint))
    np.testing.assert_allclose(off_diagonal, 0.0, atol=1e-12)


def test_joint_occupancy_rejects_alphabet_mismatch(ladder_problem, ladder4):
    other = UpdatingMechanism(
        m_size=1, transition=np.ones((1, 3, 1)), decision=np.array([0])
    )
    with pytest.raises(ValueError):
        joint_occupancy(ladder_problem, ladder4, other, 0)


def test_identical_agents_never_disagree(ladder_problem, ladder4):
    np.testing.assert_allclose(
        disagreement_probability(ladder_problem, ladder4, ladder4), 0.0, atol=1e-12
    )


def test_disjoint_decisions_always_disagree(binary_model):
    prob = uniform_problem(binary_model)
    always0 = UpdatingMechanism(
        m_size=1, transition=np.ones((1, 2, 1)), decision=np.array([0])
    )
    always1 = UpdatingMechanism(
        m_size=1, transition=np.ones((1, 2, 1)), decision=np.array([1])
    )
    np.testing.assert_allclose(
        disagreement_probability(prob, always0, always1), 1.0, atol=1e-12
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_disagreement_is_a_probability(seed):
    rng = np.random.default_rng(seed)
    model = SignalModel.from_rows(rng.dirichlet(np.ones(2), size=2))
    prob = uniform_problem(model)
    mechs = []
    for _ in range(2):
        tr = rng.dirichlet(np.ones(2), size=(2, 2))
        mechs.append(
            UpdatingMechanism(
                m_size=2, transition=tr, decision=rng.integers(0, 2, size=2)
            )
        )
    per_state = disagreement_probability(prob, *mechs)
    assert ((per_state >= -1e-12) & (per_state <= 1 + 1e-12)).all()


@st.composite
def rule_pairs(draw):
    """Two rules on 2-3 signals and a problem, drawn three ways.

    ``dirichlet`` rules move every state to every state, so the pair's
    moves grid is full; ``deterministic`` tables leave it sparse;
    ``signal-named`` rules have as many states as signals and go to the
    state named by the signal (agent B under a drawn relabelling), so every
    move exists but a pair of moves on different signals has zero mass.
    """
    kind = draw(st.sampled_from(["dirichlet", "deterministic", "signal-named"]))
    k = draw(st.integers(min_value=2, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rules = []
    for agent in range(2):
        m = k if kind == "signal-named" else draw(st.integers(min_value=1, max_value=6))
        if kind == "dirichlet":
            tr = rng.dirichlet(np.ones(m), size=(m, k))
        else:
            if kind == "signal-named":
                target = np.broadcast_to(rng.permutation(k) if agent else np.arange(k), (m, k))
            else:
                target = rng.integers(0, m, size=(m, k))
            tr = np.zeros((m, k, m))
            tr[np.arange(m)[:, None], np.arange(k), target] = 1.0
        decision = rng.integers(0, 2, size=m)
        rules.append(UpdatingMechanism(m, tr, decision, int(rng.integers(m))))
    model = SignalModel.from_rows(rng.dirichlet(np.ones(k), size=2))
    return uniform_problem(model), *rules, draw(st.integers(min_value=0, max_value=1))


@settings(max_examples=100, deadline=None)
@given(rule_pairs())
def test_pair_kernel_is_the_sum_of_kronecker_products(case):
    """The kernel ``stationary`` receives is ``oracles.pair_kernel`` entry for
    entry, dense or sparse, and the joint occupancy is the high-precision
    absorption solve of that kernel from the start pair."""
    problem, mech_a, mech_b, w = case
    ref = oracles.pair_kernel(problem.model.mass[w], mech_a.transition, mech_b.transition)
    seen, solve = [], chain.stationary

    def spy(q, initial=0):
        seen.append(q)
        return solve(q, initial)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain, "stationary", spy)
        joint = joint_occupancy(problem, mech_a, mech_b, w)
    (kernel,) = seen
    np.testing.assert_array_equal(kernel.dense() if isinstance(kernel, SparseRows) else kernel, ref)
    start = mech_a.initial_state * mech_b.m_size + mech_b.initial_state
    np.testing.assert_allclose(joint.ravel(), oracles.absorption_mp(ref, start), rtol=1e-12, atol=0.0)


def test_a_pair_of_full_rules_builds_no_sparse_kernel(monkeypatch):
    """Two rules that move every state to every state make a pair kernel
    with no zero entry, built and solved as a dense block."""
    rng = np.random.default_rng(7)
    model = SignalModel.from_rows(rng.dirichlet(np.ones(2), size=2))
    mechs = [
        UpdatingMechanism(m, rng.dirichlet(np.ones(m), size=(m, 2)), rng.integers(0, 2, size=m))
        for m in (5, 7)
    ]
    for mech in mechs:
        mech.moves  # the rules' own tables are built beforehand

    def refuse(*args):
        raise AssertionError("a pair of full rules built a SparseRows kernel")

    monkeypatch.setattr(SparseRows, "from_sorted", classmethod(refuse))
    joint = joint_occupancy(uniform_problem(model), *mechs, 1)
    assert joint.shape == (5, 7) and (joint > 0).all()
    assert abs(joint.sum() - 1.0) <= 1e-12


def test_stationary_temporaries_do_not_grow_with_what_the_start_misses():
    """A 60-state class that is no tree, beside 2,000
    states it never reaches, holding 2 or 50 entries each.  The dense block
    is read from the class's own rows, so the call's temporaries, its peak
    over what it leaves behind, stay the same while the kernel gains
    96,000 entries."""
    rng = np.random.default_rng(3)
    k, far = 60, 2000

    def kernel(per_row):
        near = np.stack([(np.arange(k) + 1) % k, *rng.integers(0, k, size=(2, k))], axis=1)
        start = np.arange(far)[:, None]
        away = k + (start + np.arange(1, per_row + 1)) % far
        rows = np.concatenate([np.repeat(np.arange(k), 3), np.repeat(k + np.arange(far), per_row)])
        cols = np.concatenate([near.ravel(), away.ravel()])
        values = np.concatenate([np.full(3 * k, 1 / 3), np.full(far * per_row, 1 / per_row)])
        return SparseRows.from_entries(rows, cols, values, k + far, k + far)

    temporaries = []
    for per_row in (2, 50):
        q = kernel(per_row)
        tracemalloc.start()
        try:
            pi = stationary(q, 0)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pi[:k].sum() == pytest.approx(1.0) and not pi[k:].any()
        temporaries.append(peak - left)
    assert abs(temporaries[1] - temporaries[0]) < 64 * 1024, temporaries


def test_tree_test_temporaries_do_not_grow_with_what_the_start_misses(monkeypatch):
    """A 61-state star, two branches of 30 about a centre, beside 2,000
    states it never reaches, holding 2 or 50 entries each.  The tree test
    reads only the reached rows, so the call's temporaries stay the same
    while the kernel gains 96,000 entries, and the dense block never
    runs."""
    k, far, lam = 61, 2000, 30
    branch = np.arange(1, k)
    inward = np.where((branch - 1) % lam == 0, 0, branch - 1)
    tip = branch % lam == 0
    star_rows = np.concatenate([[0, 0], branch, branch[~tip], branch])
    star_cols = np.concatenate([[1, lam + 1], inward, branch[~tip] + 1, branch])
    star_values = np.concatenate(
        [[0.5, 0.5], np.full(k - 1, 0.5), np.full(k - 3, 0.25), np.where(tip, 0.5, 0.25)]
    )

    def kernel(per_row):
        start = np.arange(far)[:, None]
        away = k + (start + np.arange(1, per_row + 1)) % far
        rows = np.concatenate([star_rows, np.repeat(k + np.arange(far), per_row)])
        cols = np.concatenate([star_cols, away.ravel()])
        values = np.concatenate([star_values, np.full(far * per_row, 1 / per_row)])
        return SparseRows.from_entries(rows, cols, values, k + far, k + far)

    def refuse(a):
        raise AssertionError("the star took the dense block")

    monkeypatch.setattr(chain, "_gth_stack", refuse)
    temporaries = []
    for per_row in (2, 50):
        q = kernel(per_row)
        tracemalloc.start()
        try:
            pi = stationary(q, 0)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (pi[:k] > 0).all() and pi[:k].sum() == pytest.approx(1.0) and not pi[k:].any()
        temporaries.append(peak - left)
    assert abs(temporaries[1] - temporaries[0]) < 64 * 1024, temporaries
