"""Signal models, validation, and the confirmation-lottery construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from famlearn import (
    Lottery,
    SignalModel,
    confirmatory_lotteries,
    cs_distance,
    expected_lottery_mass,
    min_density_ratio,
    rademacher_family,
    validate,
)
from famlearn.signals import RADEMACHER_CAP


def random_model(rng, n, k):
    mass = rng.uniform(0.05, 1.0, size=(n, k))
    mass /= mass.sum(axis=1, keepdims=True)
    return SignalModel.from_rows(mass)


def test_from_rows_shape():
    model = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
    assert model.n_states == 2
    assert model.alphabet_size == 2
    assert model.mass.shape == (2, 2)


def test_json_round_trip(binary_model):
    clone = SignalModel.from_json(binary_model.to_json())
    assert clone.n_states == binary_model.n_states
    assert np.array_equal(clone.mass, binary_model.mass)


def test_validate_passes_on_confirmation_pair(binary_model):
    report = validate(binary_model, 0.2)
    assert report.ok
    assert report.min_ratio == pytest.approx(0.25)
    assert report.identical_pairs == ()


def test_validate_rejects_revealing_signal():
    """A zero mass entry means some signal perfectly rules out a state."""
    model = SignalModel.from_rows([[1.0, 0.0], [0.3, 0.7]])
    report = validate(model, 0.01)
    assert not report.ok
    assert report.min_ratio == 0.0


def test_validate_rejects_identical_rows():
    model = SignalModel.from_rows([[0.5, 0.5], [0.5, 0.5]])
    report = validate(model, 0.1)
    assert not report.ok
    assert report.identical_pairs == ((0, 1),)


def test_validate_threshold_is_strict():
    model = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])
    assert validate(model, 0.25).ok is False
    assert validate(model, 0.24).ok is True


def test_validate_reports_malformed_rows():
    model = SignalModel.from_rows([[0.6, 0.6], [0.2, 0.8]])
    report = validate(model, 0.1)
    assert not report.ok
    assert report.failures


def test_min_density_ratio(binary_model):
    assert min_density_ratio(binary_model) == pytest.approx(0.25)


def test_cs_distance_symmetric(binary_model):
    d01 = cs_distance(binary_model, 0, 1)
    d10 = cs_distance(binary_model, 1, 0)
    assert d01 == pytest.approx(d10)
    # inner product 0.32 against equal norms sqrt(0.68) each
    assert d01 == pytest.approx(math.log(17 / 8), abs=1e-12)


def test_cs_distance_zero_on_self(binary_model):
    assert cs_distance(binary_model, 0, 0) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stepped_family_pairwise_divergence(n):
    model = rademacher_family(n)
    for w in range(n):
        for w2 in range(n):
            if w == w2:
                continue
            assert cs_distance(model, w, w2) == pytest.approx(
                math.log(10 / 9), abs=1e-9
            )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stepped_family_min_ratio_exact(n):
    assert min_density_ratio(rademacher_family(n)) == 0.5


def test_stepped_family_rows_are_distributions():
    model = rademacher_family(5)
    assert model.alphabet_size == 2**5
    np.testing.assert_allclose(model.mass.sum(axis=1), 1.0, atol=1e-12)


def test_stepped_family_cap():
    with pytest.raises(ValueError):
        rademacher_family(RADEMACHER_CAP + 1)


def test_lottery_from_weights_null_mass():
    lot = Lottery.from_weights([0.3, 0.4])
    assert lot.null_mass == pytest.approx(0.3)


def test_confirmation_lotteries_on_pair(binary_model):
    lots = confirmatory_lotteries(binary_model)
    np.testing.assert_allclose(lots[0].weights, [0.8, 0.2], atol=1e-12)
    np.testing.assert_allclose(lots[1].weights, [0.2, 0.8], atol=1e-12)


def test_confirmation_column_feasible(binary_model):
    """Per-signal confirmation probabilities never exceed one in total."""
    lots = confirmatory_lotteries(binary_model)
    stacked = np.vstack([lot.weights for lot in lots])
    assert (stacked.sum(axis=0) <= 1.0 + 1e-12).all()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=10_000),
)
def test_true_state_most_likely_confirmed(n, k, seed):
    """Each state's own lottery is strictly the likeliest to fire under it.

    This is the point of scaling the weights by the row norms: the
    expected confirmation mass is an inner product maximized (strictly,
    for distinct rows) at the matching state.
    """
    model = random_model(np.random.default_rng(seed), n, k)
    if min_density_ratio(model) == 0.0:
        return
    lots = confirmatory_lotteries(model)
    for w in range(n):
        own = expected_lottery_mass(model, w, lots[w])
        for w2 in range(n):
            if w2 == w:
                continue
            if np.allclose(model.mass[w], model.mass[w2], atol=1e-9):
                continue
            assert own > expected_lottery_mass(model, w, lots[w2])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.01, max_value=0.9),
)
def test_validate_pass_matches_its_own_definition(n, k, seed, varsigma):
    model = random_model(np.random.default_rng(seed), n, k)
    report = validate(model, varsigma)
    expected = report.min_ratio > varsigma and not report.identical_pairs
    assert report.ok == expected


def test_identical_rows_error_carries_pair():
    from famlearn import IdenticalRowsError

    model = SignalModel.from_rows([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(IdenticalRowsError) as exc:
        confirmatory_lotteries(model)
    assert (exc.value.w, exc.value.w2) == (0, 1)


def test_every_identical_pair_is_reported_and_the_first_is_raised():
    """Rows within 1e-12 of each other count as identical; 1e-9 apart do not."""
    from famlearn import IdenticalRowsError

    a, b = [0.25, 0.75], [0.6, 0.4]
    near_a, far_b = [0.25 + 1e-13, 0.75 - 1e-13], [0.6 + 1e-9, 0.4 - 1e-9]
    model = SignalModel.from_rows([a, b, near_a, b, a, far_b])
    assert validate(model, 0.1).identical_pairs == ((0, 2), (0, 4), (1, 3), (2, 4))
    with pytest.raises(IdenticalRowsError) as exc:
        confirmatory_lotteries(model)
    assert (exc.value.w, exc.value.w2) == (0, 2)
