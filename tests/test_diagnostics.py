"""Analytical quantities: ratios, spreads, bounds, ignorance, closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from famlearn import (
    DomainError,
    Problem,
    SignalModel,
    StationaryProfile,
    UpdatingMechanism,
    asymptotic_utility,
    build_line,
    build_star,
    build_symmetric_full,
    build_symmetric_ignorant,
    classify_world,
    detect_ignorance,
    diagnostics_report,
    expected_transition_matrix,
    ignorance_predicate,
    likelihood_ratio_matrix,
    minimal_star_delta,
    occupancy_profile,
    pair_commitment_losses,
    pair_commitment_problem,
    rademacher_family,
    spread,
    spread_upper_bound,
    star_occupancy_closed_form,
    stationary,
    symmetric_utilities,
    tradeoff_floor,
    uniform_problem,
    utility_loss,
)

LADDER_MODEL = SignalModel.from_rows([[0.7, 0.3], [0.3, 0.7]])


# --- likelihood ratios and spreads ------------------------------------------


def test_likelihood_ratio_matrix_basic():
    prof = StationaryProfile(occupancy=np.array([[0.8, 0.2], [0.4, 0.6]]))
    ratios = likelihood_ratio_matrix(prof)
    np.testing.assert_allclose(ratios[0, 1], [2.0, 1 / 3])
    np.testing.assert_allclose(ratios[1, 0], [0.5, 3.0])
    np.testing.assert_allclose(ratios[0, 0], 1.0)


def test_likelihood_ratio_zero_denominator_is_infinite():
    prof = StationaryProfile(occupancy=np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert likelihood_ratio_matrix(prof)[0, 1][1] == np.inf


def test_ladder_spread_attains_its_bound():
    """The 4-rung ladder pushes the occupancy ratio to the cap exactly."""
    prob = uniform_problem(LADDER_MODEL)
    line = build_line(LADDER_MODEL, 4)
    prof = occupancy_profile(prob, line)
    got = spread(prof, line.decision, 0, 1)
    assert got == pytest.approx((7 / 3) ** 6, rel=1e-12)
    assert got == pytest.approx(spread_upper_bound(LADDER_MODEL, 4, 0, 1), rel=1e-12)


def test_spread_needs_nonempty_regions():
    prof = StationaryProfile(occupancy=np.array([[0.8, 0.2], [0.4, 0.6]]))
    with pytest.raises(ValueError):
        spread(prof, np.array([0, 0]), 0, 1)


def test_spread_bound_grows_with_memory():
    b2 = spread_upper_bound(LADDER_MODEL, 2, 0, 1)
    b4 = spread_upper_bound(LADDER_MODEL, 4, 0, 1)
    assert b2 == pytest.approx((7 / 3) ** 2, rel=1e-12)
    assert b4 > b2


def test_spread_bound_past_float_range_is_infinite():
    model = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
    assert spread_upper_bound(model, 256, 0, 1) == pytest.approx(16.0**255, rel=1e-12)
    assert spread_upper_bound(model, 257, 0, 1) == math.inf


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_spread_never_beats_bound(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    mass = rng.uniform(0.05, 1.0, size=(2, k))
    mass /= mass.sum(axis=1, keepdims=True)
    model = SignalModel.from_rows(mass)
    prob = uniform_problem(model)
    tr = rng.dirichlet(np.ones(2), size=(2, k))
    mech = UpdatingMechanism(m_size=2, transition=tr, decision=np.array([0, 1]))
    prof = occupancy_profile(prob, mech)
    for w, w2 in ((0, 1), (1, 0)):
        assert spread(prof, mech.decision, w, w2) <= spread_upper_bound(
            model, 2, w, w2
        ) * (1 + 1e-9)


# --- the accuracy / spread floor --------------------------------------------


def test_tradeoff_floor_values():
    assert tradeoff_floor(100, 0.99) == pytest.approx(99 / 199, abs=1e-12)
    assert tradeoff_floor(100, 0.90) == pytest.approx(9 / 109, abs=1e-12)


def test_tradeoff_floor_degenerate_cap():
    assert tradeoff_floor(1, 0.75) == pytest.approx(0.75)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=1e4),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_tradeoff_floor_monotone(cap, acc_a, acc_b):
    lo, hi = sorted((acc_a, acc_b))
    assert tradeoff_floor(cap, lo) <= tradeoff_floor(cap, hi) + 1e-15
    assert tradeoff_floor(cap + 1, acc_a) <= tradeoff_floor(cap, acc_a) + 1e-15


def test_two_state_loss_respects_floor():
    """No 2-memory mechanism can beat the spread-capped error floor."""
    model = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
    prob = uniform_problem(model)
    cap = spread_upper_bound(model, 2, 0, 1)
    rng = np.random.default_rng(7)
    floor = min(
        0.5 * (eps + tradeoff_floor(cap, 1 - eps))
        for eps in np.linspace(1e-6, 0.5, 2001)
    )
    for _ in range(50):
        tr = rng.dirichlet(np.ones(2), size=(2, 2))
        mech = UpdatingMechanism(
            m_size=2, transition=tr, decision=np.array([0, 1])
        )
        assert utility_loss(prob, mech) >= floor - 1e-9


# --- ignorance --------------------------------------------------------------


def test_detect_ignorance_empty_region():
    prof = StationaryProfile(occupancy=np.array([[0.9, 0.1], [0.5, 0.5]]))
    assert detect_ignorance(prof, np.array([0, 0])) == {1}


def test_detect_ignorance_vanishing_occupancy():
    prof = StationaryProfile(occupancy=np.array([[1.0, 0.0], [1.0, 1e-12]]))
    assert detect_ignorance(prof, np.array([0, 1])) == {1}


def test_detect_ignorance_none(ladder_problem=None):
    prob = uniform_problem(LADDER_MODEL)
    line = build_line(LADDER_MODEL, 4)
    prof = occupancy_profile(prob, line)
    assert detect_ignorance(prof, line.decision) == set()


def test_ignorance_predicate_examples():
    model = SignalModel.from_rows([[0.6, 0.4], [0.4, 0.6]])
    prob = Problem(
        model=model,
        utilities=np.ones(2),
        prior=np.array([1 / 101, 100 / 101]),
    )
    # stake ratio 100 against a discount of 0.5**(2(M-1))
    assert ignorance_predicate(prob, 0.5, 3, 0) is True
    assert ignorance_predicate(prob, 0.5, 5, 0) is False
    assert ignorance_predicate(prob, 0.5, 3, 1) is False


def test_ignorance_predicate_validates_varsigma():
    prob = uniform_problem(LADDER_MODEL)
    with pytest.raises(ValueError):
        ignorance_predicate(prob, 0.0, 2, 0)


def test_classify_world():
    assert classify_world(2, 1000, threshold=0.05).label == "Small"
    assert classify_world(2, 1000, threshold=0.05).ratio == pytest.approx(0.002)
    assert classify_world(10, 3).label == "Big"
    assert classify_world(1, 100).label == "Small"


def test_classify_world_boundary_is_big():
    assert classify_world(1, 10, threshold=0.1).label == "Big"


# --- report bundle ----------------------------------------------------------


def test_report_fields_cohere():
    prob = uniform_problem(LADDER_MODEL)
    line = build_line(LADDER_MODEL, 4)
    report = diagnostics_report(prob, line, occupancy_profile(prob, line))
    assert report.likelihood_ratios.shape == (2, 2, 4)
    finite = np.isfinite(report.spreads) & np.isfinite(report.spread_bounds)
    assert (
        report.spreads[finite] <= report.spread_bounds[finite] * (1 + 1e-9)
    ).all()
    assert report.ignored_states == frozenset()
    assert report.world_class.label == "Big"  # two states against four slots
    payload = report.to_json()
    assert payload["world_class"]["label"] == "Big"


def test_report_serializes_non_finite_as_null():
    model = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
    prob = uniform_problem(model)
    mech = UpdatingMechanism(
        m_size=2,
        transition=np.array([[[1.0, 0.0]] * 2, [[0.0, 1.0]] * 2]),
        decision=np.array([0, 0]),
    )
    report = diagnostics_report(prob, mech, occupancy_profile(prob, mech))
    import json

    json.dumps(report.to_json())  # must not choke on inf/nan


def same_bits(a, b):
    """Equal bit for bit, any two NaNs counting as equal."""
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 5),
    m_size=st.integers(1, 6),
    alphabet=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_report_matches_the_per_pair_spreads_and_bounds_bit_for_bit(n, m_size, alphabet, seed):
    """Zero occupancies, zero masses and actions no memory state decides included."""
    rng = np.random.default_rng(seed)
    occupancy = rng.random((n, m_size)) * (rng.random((n, m_size)) < 0.8)
    mass = rng.random((n, alphabet)) * (rng.random((n, alphabet)) < 0.7)
    mass[:, 0] += 1e-3
    model = SignalModel(n, alphabet, mass / mass.sum(axis=1, keepdims=True))
    decision = rng.integers(n, size=m_size)
    identity = np.repeat(np.eye(m_size)[:, None, :], alphabet, axis=1)
    mech = UpdatingMechanism(m_size=m_size, transition=identity, decision=decision)
    profile = StationaryProfile(occupancy)
    report = diagnostics_report(uniform_problem(model), mech, profile)
    for w in range(n):
        for w2 in range(n):
            try:
                want = spread(profile, decision, w, w2)
            except ValueError:
                want = math.nan
            assert same_bits(report.spreads[w, w2], want), (w, w2)
            bound = 1.0 if w == w2 else spread_upper_bound(model, m_size, w, w2)
            assert same_bits(report.spread_bounds[w, w2], bound), (w, w2)


# --- hub-and-spoke closed form ----------------------------------------------


def test_star_closed_form_matches_solver_binary():
    model = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
    star = build_star(model, lam=3, delta=5.0)
    for w in range(2):
        q = expected_transition_matrix(star, model, w)
        np.testing.assert_allclose(
            star_occupancy_closed_form(model, None, 3, 5.0, w),
            stationary(q),
            atol=1e-12,
        )


@pytest.mark.parametrize("p", [0.7467, 0.5519])
def test_star_builds_when_lottery_weights_round_past_one(p):
    """Weights summing to 1 plus an ulp leave the hub no negative stay-put."""
    model = SignalModel.from_rows([[p, 1 - p], [1 - p, p]])
    star = build_star(model, lam=4, delta=5.0)
    assert (star.transition >= 0.0).all()
    profile = occupancy_profile(uniform_problem(model), star)
    for w in range(2):
        np.testing.assert_allclose(
            profile.occupancy[w],
            star_occupancy_closed_form(model, None, 4, 5.0, w),
            atol=1e-12,
        )


def test_star_closed_form_geometric_ratios():
    """Ratios along a branch are delta * own-confirmation over the rest."""
    model = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
    occ = star_occupancy_closed_form(model, None, 2, 5.0, 0)
    # confirmation matrix rows: (0.68, 0.32); own ratio 5*.68/.32, cross 5*.32/.68
    assert occ[2] / occ[1] == pytest.approx(85 / 8, rel=1e-12)
    assert occ[4] / occ[3] == pytest.approx(40 / 17, rel=1e-12)


def test_star_loss_decays_geometrically():
    model = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
    prob = uniform_problem(model)
    losses = [
        utility_loss(prob, build_star(model, lam=lam, delta=5.0))
        for lam in (1, 2, 5, 10, 20)
    ]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-3


# --- pairwise commitment losses ---------------------------------------------


def test_pair_losses_balanced_prior():
    result = pair_commitment_losses(nu=0.0, tau=3.0, ups=8.0)
    assert result.losses[(0, 0)] == pytest.approx(2 / 3, abs=1e-12)
    assert result.losses[(1, 1)] == pytest.approx(2 / 3, abs=1e-12)
    assert result.losses[(2, 2)] == pytest.approx(2 / 3, abs=1e-12)
    assert result.losses[(0, 1)] == pytest.approx(5 / 9, abs=1e-12)
    assert result.losses[(1, 2)] == pytest.approx(0.5, abs=1e-12)
    assert result.argmin == (1, 2)


def test_pair_losses_tilted_prior():
    # frozen from an independent gradient-free minimization over 2-state
    # mechanisms with pinned decisions (agreement to 1e-10 per pattern)
    result = pair_commitment_losses(nu=0.01, tau=3.0, ups=8.0)
    assert result.losses[(0, 0)] == pytest.approx(0.6466666666666666, abs=1e-12)
    assert result.losses[(1, 1)] == pytest.approx(0.6766666666666666, abs=1e-12)
    assert result.losses[(0, 1)] == pytest.approx(0.5484453210598531, abs=1e-10)
    assert result.losses[(1, 2)] == pytest.approx(0.515, abs=1e-12)
    assert result.argmin == (1, 2)


def test_pair_losses_argmin_shifts_with_heavy_prior():
    """Once the first state dominates the prior, committing to the two
    minor states stops being worth it and the winner involves state 0."""
    assert pair_commitment_losses(nu=0.1, tau=3.0, ups=8.0).argmin == (0, 1)


def test_pair_problem_alphabet():
    prob = pair_commitment_problem(nu=0.01, tau=3.0, ups=8.0)
    np.testing.assert_allclose(
        prob.model.mass,
        [[0.4, 0.3, 0.3], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]],
        atol=1e-12,
    )
    np.testing.assert_allclose(prob.prior, [1 / 3 + 0.02, 1 / 3 - 0.01, 1 / 3 - 0.01])


def test_pair_problem_ratio_precondition():
    with pytest.raises(ValueError):
        pair_commitment_problem(nu=0.0, tau=1.0, ups=8.0)


def test_pair_problem_sup_ratios_match_parameters():
    """The alphabet is built so the design ratios are exactly attained."""
    prob = pair_commitment_problem(nu=0.0, tau=3.0, ups=8.0)
    mass = prob.model.mass
    assert (mass[0] / mass[1]).max() == pytest.approx(2.0)  # sqrt(1+tau)
    assert (mass[1] / mass[2]).max() == pytest.approx(3.0)  # sqrt(1+ups)


# --- symmetric designs ------------------------------------------------------


def test_symmetric_utilities_reference_point():
    full, ignorant, crossed = symmetric_utilities(10, 2.0)
    assert full == pytest.approx(2 / 11, abs=1e-12)
    assert ignorant == pytest.approx(5 / 18, abs=1e-12)
    assert crossed is True


def test_symmetric_utilities_no_crossover_when_small():
    full, ignorant, crossed = symmetric_utilities(4, 4.0)
    assert full == pytest.approx(4 / 7, abs=1e-12)
    assert ignorant == pytest.approx(128 / 260, abs=1e-12)
    assert crossed is False


def test_star_closed_form_rejects_a_single_world():
    """A one-world star has no branch ratio: 0/0, then NaN everywhere."""
    with pytest.raises(ValueError, match="at least 2 states"):
        star_occupancy_closed_form(SignalModel.from_rows([[1 / 3, 2 / 3]]), None, 3, 2.0, 0)


def test_infinite_closed_form_parameters_are_refused_by_name():
    """At delta = inf the branch ratios are inf, and at info = inf the
    utilities are inf / inf: both used to come out as NaN."""
    model = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
    with pytest.raises(ValueError, match="delta must be finite"):
        star_occupancy_closed_form(model, None, 3, math.inf, 0)
    with pytest.raises(ValueError, match="info must be finite"):
        symmetric_utilities(4, math.inf)
    with pytest.raises(ValueError, match="info must be finite"):
        build_symmetric_full(4, math.inf, 0.5)
    # the star itself is a reducible chain that still solves
    profile = occupancy_profile(uniform_problem(model), build_star(model, 3, math.inf))
    assert np.isfinite(profile.occupancy).all()


def test_symmetric_utilities_at_a_huge_informativeness():
    """Below about 1.3e154 the utilities stay finite; past it the squares
    overflow, which is a domain error, not a raw OverflowError."""
    full, ignorant, crossed = symmetric_utilities(4, 1e153)
    assert (full, ignorant, crossed) == (1.0, 0.5, False)
    with pytest.raises(DomainError, match="overflow"):
        symmetric_utilities(4, 1e200)


def test_symmetric_solver_approaches_closed_form():
    mech, model = build_symmetric_full(10, 2.0, 1e-4)
    prob = uniform_problem(model)
    assert asymptotic_utility(prob, mech) == pytest.approx(2 / 11, abs=1e-3)
    mech_i, model_i = build_symmetric_ignorant(10, 2.0, 1e-4)
    prob_i = uniform_problem(model_i)
    assert asymptotic_utility(prob_i, mech_i) == pytest.approx(5 / 18, abs=1e-3)


def test_symmetric_full_utility_is_delta_free():
    for delta in (0.9, 0.5, 0.05):
        mech, model = build_symmetric_full(6, 3.0, delta)
        prob = uniform_problem(model)
        assert asymptotic_utility(prob, mech) == pytest.approx(3 / 8, abs=1e-12)


@pytest.mark.parametrize("n", range(4, 22, 2))
def test_symmetric_crossover_point_for_info_four(n):
    assert symmetric_utilities(n, 4.0)[2] is (n >= 6)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=20),
    st.floats(min_value=1.5, max_value=8.0),
)
def test_symmetric_flag_agrees_with_direct_comparison(half_n, info):
    n = 2 * half_n
    full, ignorant, crossed = symmetric_utilities(n, info)
    assert crossed == (ignorant > full)
