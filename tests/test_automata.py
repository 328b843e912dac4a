"""Mechanism data type and the named constructions (ladder, hub, symmetric)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from famlearn import (
    MechanismBlueprint,
    SignalModel,
    SparseRows,
    StarConditionError,
    UpdatingMechanism,
    build_from_blueprint,
    build_line,
    build_noisy_star,
    build_star,
    build_symmetric_full,
    build_symmetric_ignorant,
    check_star_condition,
    confirmatory_lotteries,
    expected_transition_matrix,
    minimal_star_delta,
    symmetric_model,
)

BINARY = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
LADDER_MODEL = SignalModel.from_rows([[0.7, 0.3], [0.3, 0.7]])


def det_transition(table, m_size, alphabet):
    out = np.zeros((m_size, alphabet, m_size))
    for (m, s), target in np.ndenumerate(np.asarray(table)):
        out[m, s, target] = 1.0
    return out


# --- the data type itself ---------------------------------------------------


def test_mechanism_validates_row_sums():
    bad = np.full((2, 2, 2), 0.3)
    with pytest.raises(ValueError):
        UpdatingMechanism(m_size=2, transition=bad, decision=np.array([0, 1]))


def test_mechanism_validates_decision_length():
    tr = det_transition([[0, 1], [0, 1]], 2, 2)
    with pytest.raises(ValueError):
        UpdatingMechanism(m_size=2, transition=tr, decision=np.array([0]))


def test_mechanism_validates_initial_state():
    tr = det_transition([[0, 1], [0, 1]], 2, 2)
    with pytest.raises(ValueError):
        UpdatingMechanism(
            m_size=2, transition=tr, decision=np.array([0, 1]), initial_state=5
        )


def test_mechanism_json_round_trip_is_exact():
    rng = np.random.default_rng(3)
    tr = rng.dirichlet(np.ones(3), size=(3, 2))
    mech = UpdatingMechanism(m_size=3, transition=tr, decision=np.array([0, 1, 1]))
    clone = UpdatingMechanism.from_json(mech.to_json())
    assert np.array_equal(clone.transition, mech.transition)
    assert np.array_equal(clone.decision, mech.decision)
    assert clone.initial_state == mech.initial_state


def test_sparse_rows_add_repeated_cells_in_order_and_drop_zeros():
    rows = SparseRows.from_entries(
        [1, 0, 1, 1], [2, 0, 2, 0], [0.25, 0.0, 0.5, 1.0], height=3, width=3
    )
    assert (rows.indptr.tolist(), rows.index.tolist()) == ([0, 0, 2, 2], [0, 2])
    assert rows.value.tolist() == [1.0, 0.75]
    dense = rows.dense()
    np.testing.assert_array_equal(dense, [[0, 0, 0], [1.0, 0, 0.75], [0, 0, 0]])
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(x @ rows, x @ dense)
    np.testing.assert_array_equal(rows.block([1], [2, 0]), [[0.75, 1.0]])
    assert len(rows) == 3 and rows.nnz == 2


def test_mechanism_from_sparse_rows_matches_its_dense_tensor():
    rng = np.random.default_rng(4)
    tr = rng.dirichlet(np.ones(4), size=(4, 3)) * (rng.random((4, 3, 4)) < 0.6)
    tr[..., 0] += 1.0 - tr.sum(axis=2)
    mech = UpdatingMechanism(m_size=4, transition=tr, decision=np.zeros(4))
    twin = UpdatingMechanism(m_size=4, transition=mech.rows, decision=np.zeros(4))
    assert twin.alphabet_size == 3
    assert np.array_equal(twin.transition, tr)
    assert twin.rows.nnz == np.count_nonzero(tr)


def test_mechanism_validates_sparse_rows():
    rows = SparseRows.from_entries([0, 1, 2, 3], [0, 1, 0, 1], [1.0, 1.0, 1.0, 0.5], 4, 2)
    with pytest.raises(ValueError, match=r"row \(m=1, s=1\)"):
        UpdatingMechanism(m_size=2, transition=rows, decision=np.zeros(2))
    with pytest.raises(ValueError):
        UpdatingMechanism(m_size=4, transition=rows, decision=np.zeros(4))


def test_expected_transition_matrix_mixes_signals():
    line = build_line(LADDER_MODEL, 4)
    row = expected_transition_matrix(line, LADDER_MODEL, 0)[1]
    np.testing.assert_allclose(row, [0.3, 0.0, 0.7, 0.0], atol=1e-12)


# --- ladder -----------------------------------------------------------------


def test_ladder_decisions_split_in_half():
    line = build_line(LADDER_MODEL, 4)
    assert line.decision.tolist() == [1, 1, 0, 0]
    assert line.initial_state == 0


def test_ladder_saturates_at_ends():
    line = build_line(LADDER_MODEL, 4)
    assert line.transition[3, 0, 3] == 1.0  # up-signal at the top stays
    assert line.transition[0, 1, 0] == 1.0  # down-signal at the bottom stays


def test_ladder_is_deterministic():
    line = build_line(LADDER_MODEL, 6)
    assert set(np.unique(line.transition)) == {0.0, 1.0}


def test_ladder_ties_move_down():
    model = SignalModel.from_rows([[0.5, 0.5], [0.5, 0.5]])
    line = build_line(model, 4)
    # neither signal favors the first state, so both move down
    assert line.transition[2, 0, 1] == 1.0
    assert line.transition[2, 1, 1] == 1.0


def test_ladder_needs_two_world_states():
    with pytest.raises(ValueError):
        build_line(rademacher3(), 4)


def rademacher3():
    from famlearn import rademacher_family

    return rademacher_family(3)


# --- hub-and-spoke ----------------------------------------------------------


def test_star_size_and_center():
    star = build_star(BINARY, lam=3, delta=5.0)
    assert star.m_size == 1 + 2 * 3
    assert star.initial_state == 0
    assert star.decision[0] == 0


def test_star_rows_are_stochastic():
    star = build_star(BINARY, lam=4, delta=5.0)
    np.testing.assert_allclose(star.transition.sum(axis=2), 1.0, atol=1e-12)


def test_star_branch_decisions():
    star = build_star(BINARY, lam=2, delta=5.0)
    # states 1..2 belong to the first branch, 3..4 to the second
    assert star.decision.tolist() == [0, 0, 0, 1, 1]


def test_star_padding_states_self_loop():
    star = build_star(BINARY, lam=2, delta=5.0, m_size=7)
    assert star.m_size == 7
    for extra in (5, 6):
        for s in range(2):
            assert star.transition[extra, s, extra] == 1.0


def test_star_condition_failure_carries_context():
    # drift needs delta > 0.68/0.32 here, so 1.5 is legal but too weak
    with pytest.raises(StarConditionError) as exc:
        build_star(BINARY, lam=2, delta=1.5)
    err = exc.value
    assert err.delta == 1.5
    assert err.ratio <= 1.0
    assert {err.w, err.w2} == {0, 1}


def test_minimal_delta_clears_the_condition():
    delta = minimal_star_delta(BINARY)
    check_star_condition(BINARY, delta, confirmatory_lotteries(BINARY))
    build_star(BINARY, lam=2, delta=delta)


def test_minimal_delta_safety_scales():
    assert minimal_star_delta(BINARY, safety=4.0) == pytest.approx(
        2.0 * minimal_star_delta(BINARY, safety=2.0)
    )


def test_noisy_star_interpolates_to_star():
    star = build_star(BINARY, lam=3, delta=5.0)
    noisy = build_noisy_star(BINARY, lam=3, delta=5.0, gamma=0.0)
    assert np.array_equal(noisy.transition, star.transition)
    assert np.array_equal(noisy.decision, star.decision)


def test_noisy_star_rows_stochastic_at_positive_noise():
    noisy = build_noisy_star(BINARY, lam=3, delta=5.0, gamma=0.3)
    np.testing.assert_allclose(noisy.transition.sum(axis=2), 1.0, atol=1e-12)


def test_noisy_star_rejects_bad_gamma():
    with pytest.raises(ValueError):
        build_noisy_star(BINARY, lam=3, delta=5.0, gamma=1.0)
    with pytest.raises(ValueError):
        build_noisy_star(BINARY, lam=3, delta=5.0, gamma=-0.1)


# --- symmetric designs ------------------------------------------------------


def test_symmetric_model_rows():
    model = symmetric_model(3, 2.0)
    np.testing.assert_allclose(
        model.mass,
        [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
        atol=1e-12,
    )


def test_symmetric_model_needs_informative_signal():
    with pytest.raises(ValueError):
        symmetric_model(4, 1.0)


def test_symmetric_full_structure():
    mech, model = build_symmetric_full(4, 2.0, 0.25)
    assert mech.m_size == 4
    assert mech.decision.tolist() == [0, 1, 2, 3]
    # signaled state draws delta, everything else stays put
    assert mech.transition[0, 2, 2] == pytest.approx(0.25)
    assert mech.transition[0, 2, 0] == pytest.approx(0.75)
    assert model.n_states == 4


def test_symmetric_ignorant_ignores_upper_signals():
    mech, model = build_symmetric_ignorant(10, 2.0, 0.3)
    assert mech.m_size == 10
    eye = np.eye(10)
    for s in range(5, 10):
        np.testing.assert_array_equal(mech.transition[:, s, :], eye)


def test_symmetric_ignorant_decisions_pair_up():
    mech, _ = build_symmetric_ignorant(8, 2.0, 0.3)
    assert mech.decision.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]


def test_symmetric_ignorant_needs_even_states():
    with pytest.raises(ValueError):
        build_symmetric_ignorant(5, 2.0, 0.3)


# --- blueprints -------------------------------------------------------------


def test_blueprint_round_trip():
    bp = MechanismBlueprint(family="star", params={"lam": 3, "delta": 5.0})
    clone = MechanismBlueprint.from_json(bp.to_json())
    assert clone.family == bp.family
    assert clone.params == bp.params


def test_blueprint_unknown_family():
    with pytest.raises(ValueError):
        MechanismBlueprint(family="ring", params={})


def test_blueprint_builds_star():
    bp = MechanismBlueprint(family="star", params={"lam": 2, "delta": 5.0})
    mech, model = build_from_blueprint(bp, BINARY)
    direct = build_star(BINARY, lam=2, delta=5.0)
    assert np.array_equal(mech.transition, direct.transition)
    assert model is BINARY


def test_blueprint_symmetric_generates_model():
    bp = MechanismBlueprint(family="symmetric_full", params={"n": 6, "info": 2.0, "delta": 0.1})
    mech, model = build_from_blueprint(bp)
    assert model.n_states == 6
    assert mech.m_size == 6


def test_blueprint_symmetric_rejects_supplied_model():
    bp = MechanismBlueprint(family="symmetric_full", params={"n": 6, "info": 2.0, "delta": 0.1})
    with pytest.raises(ValueError):
        build_from_blueprint(bp, BINARY)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_random_mechanisms_validate_and_mix(m_size, alphabet, seed):
    rng = np.random.default_rng(seed)
    tr = rng.dirichlet(np.ones(m_size), size=(m_size, alphabet))
    mech = UpdatingMechanism(
        m_size=m_size,
        transition=tr,
        decision=rng.integers(0, 2, size=m_size),
    )
    mass = rng.dirichlet(np.ones(alphabet), size=2)
    model = SignalModel.from_rows(mass)
    for w in range(2):
        q = expected_transition_matrix(mech, model, w)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)
        assert (q >= 0).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.floats(min_value=1.5, max_value=20.0))
def test_star_layout_scales_with_depth(lam, delta):
    try:
        star = build_star(BINARY, lam=lam, delta=delta)
    except StarConditionError:
        return
    assert star.m_size == 1 + 2 * lam
    assert (star.decision[1 : 1 + lam] == 0).all()
    assert (star.decision[1 + lam :] == 1).all()
