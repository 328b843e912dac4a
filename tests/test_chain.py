"""Stationary analysis: solver, occupancy, utilities, simulation, coupling."""

from fractions import Fraction

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


def test_stationary_rejects_malformed_kernel():
    with pytest.raises(ValueError):
        stationary(np.array([[0.5, 0.4], [0.5, 0.5]]))


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
    """Skipping zero rows and columns must not change a single bit."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    q = _random_support_kernel(rng, n, rng.uniform(0.0, 0.3))
    q[np.arange(n), (np.arange(n) + 1) % n] += 0.5  # a ring: irreducible
    q /= q.sum(axis=1, keepdims=True)
    assert stationary(q).tolist() == oracles.dense_gth(q).tolist()


WEAK = SignalModel.from_rows([[0.51, 0.49], [0.49, 0.51]])
# Weak signals keep the plain GTH loop of oracles.dense_gth in the float range.
BUILDER_KERNELS = {
    "star": (build_star(WEAK, lam=400, delta=2.0), 1),
    "noisy star": (build_noisy_star(WEAK, lam=300, delta=2.0, gamma=0.3), 0),
    "line": (build_line(WEAK, 800), 1),
}


@pytest.mark.parametrize("family", BUILDER_KERNELS)
def test_builder_kernels_solve_sparse_and_match_dense_loop(family):
    """Stars, noisy stars and lines never fill in, so they stay on the
    sparse elimination, and it agrees with the textbook dense loop."""
    mech, w = BUILDER_KERNELS[family]
    q = transition_kernel(mech, WEAK, w)
    members = list(range(len(q)))
    assert chain._eliminate_sparse(q, members) is not None
    np.testing.assert_allclose(
        stationary(q), oracles.dense_gth(q.dense()), rtol=1e-13, atol=0.0
    )


def test_filled_in_class_restarts_on_the_dense_loop():
    rng = np.random.default_rng(3)
    q = _random_support_kernel(rng, 40, 0.3)
    q[np.arange(40), (np.arange(40) + 1) % 40] += 0.5
    q /= q.sum(axis=1, keepdims=True)
    assert chain._eliminate_sparse(SparseRows.from_dense(q), list(range(40))) is None


@pytest.mark.parametrize("band", [5, 59], ids=["banded", "full"])
def test_filled_in_class_past_the_float_range_matches_its_law(band):
    """A Metropolis chain for pi_i ~ 1e4**i, with proposals up to ``band``
    states away: it fills in, so the dense loop and its rescaling run."""
    n = 60
    log_pi = np.arange(n) * np.log(1e4)
    near = np.abs(np.arange(n)[:, None] - np.arange(n)) <= band
    q = near * np.exp(np.minimum(0.0, log_pi - log_pi[:, None])) / n
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, 1.0 - q.sum(axis=1))
    assert chain._eliminate_sparse(SparseRows.from_dense(q), list(range(n))) is None
    ref = np.exp(log_pi - log_pi.max())
    np.testing.assert_allclose(stationary(q), ref / ref.sum(), rtol=1e-12, atol=0.0)


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
