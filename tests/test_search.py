"""Exhaustive and annealed mechanism search."""

import dataclasses
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from famlearn import search
from famlearn import (
    BudgetExceededError,
    Problem,
    SearchConfig,
    SignalModel,
    UpdatingMechanism,
    enumerate_deterministic,
    enumeration_count,
    epsilon_gap,
    local_search,
    symmetric_model,
    uniform_problem,
    utility_loss,
)
from famlearn.search import _canonical_codes, _cesaro_rows

BINARY = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]])

# best deterministic loss on the skewed three-state instance, frozen from
# the pure-python exhaustive oracle (531441 tables, ~19 s offline)
SKEWED_REFERENCE = 201 / 700


def skewed_problem():
    return Problem(
        model=symmetric_model(3, 2.0),
        utilities=np.ones(3),
        prior=np.array([0.499, 0.499, 0.002]),
    )


def test_enumeration_count_formula():
    """Tables scored, m**(m*k); decision rules are optimised, not enumerated."""
    assert enumeration_count(uniform_problem(BINARY), 2) == 2**4
    assert enumeration_count(skewed_problem(), 3) == 3**9


def test_enumeration_budget_guard():
    prob = skewed_problem()
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_deterministic(prob, 4, budget=1000)
    assert exc.value.budget == 1000
    assert exc.value.count == enumeration_count(prob, 4)


def test_enumerate_binary_confirmation():
    prob = uniform_problem(BINARY)
    result = enumerate_deterministic(prob, 2)
    assert result.loss == pytest.approx(0.2, abs=1e-12)
    assert result.mechanism.decision.tolist() == [0, 1]
    assert result.epsilon_gap == 0.0
    assert result.trace == ((0, result.loss),)


def test_enumerate_matches_exhaustive_oracle():
    prob = uniform_problem(BINARY)
    result = enumerate_deterministic(prob, 2)
    oracle_loss, _ = oracles.best_deterministic_loss(
        prob.model.mass, prob.utilities, prob.prior, 2
    )
    assert result.loss == pytest.approx(oracle_loss, abs=1e-10)


def test_enumerate_skewed_reference():
    result = enumerate_deterministic(skewed_problem(), 3)
    assert result.loss == pytest.approx(SKEWED_REFERENCE, abs=1e-12)
    assert 2 not in set(result.mechanism.decision.tolist())


def test_enumerate_reported_loss_is_exact():
    """The loss field must match a from-scratch evaluation of the winner."""
    prob = uniform_problem(BINARY)
    result = enumerate_deterministic(prob, 2)
    recomputed = oracles.mechanism_loss(
        result.mechanism.transition,
        result.mechanism.decision,
        prob.model.mass,
        prob.utilities,
        prob.prior,
    )
    assert result.loss == pytest.approx(recomputed, abs=1e-10)


def test_enumerate_single_state():
    prob = uniform_problem(BINARY)
    result = enumerate_deterministic(prob, 1)
    assert result.loss == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_enumerate_beats_any_sampled_table(seed):
    rng = np.random.default_rng(seed)
    mass = rng.uniform(0.1, 1.0, size=(2, 2))
    mass /= mass.sum(axis=1, keepdims=True)
    prob = uniform_problem(SignalModel.from_rows(mass))
    best = enumerate_deterministic(prob, 2)
    table = rng.integers(0, 2, size=(2, 2))
    tr = np.zeros((2, 2, 2))
    for (m, s), t in np.ndenumerate(table):
        tr[m, s, t] = 1.0
    probe = UpdatingMechanism(
        m_size=2, transition=tr, decision=rng.integers(0, 2, size=2)
    )
    assert best.loss <= utility_loss(prob, probe) + 1e-9


# winning table (successor per memory state and signal), decision and loss,
# frozen from the enumeration that scored every raw table on its own
FROZEN_WINNERS = {
    "binary m=3": ([[0, 1], [0, 2], [1, 2]], [0, 0, 1], 1 / 7),
    "skewed m=3": ([[0, 1, 0], [0, 2, 1], [1, 2, 2]], [0, 0, 1], SKEWED_REFERENCE),
    "binary m=4": ([[0, 1], [0, 2], [1, 3], [2, 3]], [0, 0, 1, 1], 1 / 17),
}


@pytest.mark.parametrize(
    ("m_size", "alphabet", "classes"), [(3, 2, 229), (3, 3, 8022), (4, 2, 5477)]
)
def test_canonical_codes_match_breadth_first_oracle(m_size, alphabet, classes):
    raw = list(product(range(m_size), repeat=m_size * alphabet))
    tables = np.array(raw).reshape(-1, m_size, alphabet)
    codes = _canonical_codes(tables)
    digits = [
        sum(d * m_size**p for p, d in enumerate(reversed(np.ravel(canon))))
        for canon in (oracles.canonical_table(t.tolist()) for t in tables)
    ]
    assert codes.tolist() == digits
    assert np.unique(codes).size == classes
    # a canonical table is its own class representative
    assert (codes[np.unique(codes)] == np.unique(codes)).all()


# periodic, reducible and absorbing kernels, which an eigenvector solve
# mishandles but the Cesaro average must not
AWKWARD_KERNELS = {
    "periodic3": np.roll(np.eye(3), 1, axis=1),
    "periodic4": np.array(
        [[0, 0.5, 0, 0.5], [0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5], [0.5, 0, 0.5, 0]]
    ),
    "reducible3": np.array([[0.2, 0.5, 0.3], [0, 0, 1], [0, 1, 0]]),
    "reducible4": np.array(
        [[0.1, 0.3, 0.2, 0.4], [0, 0.6, 0.4, 0], [0, 0.7, 0.3, 0], [0, 0, 0, 1]]
    ),
    "absorbing3": np.array([[0.5, 0.25, 0.25], [0, 1, 0], [0, 0, 1]]),
    "absorbing4": np.array([[0, 1, 0, 0], [0.3, 0, 0.7, 0], [0, 0, 0, 1], [0, 0, 0, 1]]),
}


@pytest.mark.parametrize("name", sorted(AWKWARD_KERNELS))
@pytest.mark.parametrize("initial", [0, 1])
def test_cesaro_rows_match_power_averaging_oracle(name, initial):
    """Each kernel is stacked with its normalised transpose."""
    kernel = AWKWARD_KERNELS[name]
    stack = np.stack([kernel, kernel.T / kernel.T.sum(axis=1, keepdims=True)])
    rows = _cesaro_rows(stack, initial)
    for got, q in zip(rows, stack):
        np.testing.assert_allclose(got, oracles.cesaro_occupancy(q, initial), atol=1e-12)


@pytest.mark.parametrize("name", sorted(FROZEN_WINNERS))
def test_enumerate_returns_the_frozen_winner(name):
    problem = skewed_problem() if name.startswith("skewed") else uniform_problem(BINARY)
    table, decision, loss = FROZEN_WINNERS[name]
    result = enumerate_deterministic(problem, len(table))
    assert result.mechanism.transition.argmax(axis=2).tolist() == table
    assert result.mechanism.decision.tolist() == decision
    assert result.loss == pytest.approx(loss, abs=1e-12)


def test_enumerate_resolves_each_tied_class_once(monkeypatch):
    """Binary m = 4 ties 24 raw tables in 4 canonical classes."""
    calls = []
    exact = search._exact_result

    def counted(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)

    monkeypatch.setattr(search, "_exact_result", counted)
    result = enumerate_deterministic(uniform_problem(BINARY), 4)
    assert len(calls) == 4
    assert result.loss == pytest.approx(1 / 17, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=2),
)
def test_enumerate_matches_oracle_on_seeded_problems(seed, n, alphabet, m_size):
    rng = np.random.default_rng(seed)
    mass = rng.uniform(0.1, 1.0, size=(n, alphabet))
    mass /= mass.sum(axis=1, keepdims=True)
    prob = Problem(
        model=SignalModel.from_rows(mass),
        utilities=rng.uniform(0.5, 2.0, size=n),
        prior=rng.dirichlet(np.ones(n)),
    )
    result = enumerate_deterministic(prob, m_size)
    oracle_loss, _ = oracles.best_deterministic_loss(
        prob.model.mass, prob.utilities, prob.prior, m_size
    )
    assert result.loss == pytest.approx(oracle_loss, abs=1e-10)


def test_local_search_finds_binary_optimum():
    prob = uniform_problem(BINARY)
    config = SearchConfig(m_size=2, restarts=4, iterations=1500, seed=7)
    result = local_search(prob, config)
    assert result.loss == pytest.approx(0.2, abs=1e-3)


def test_local_search_never_beats_feasible_floor():
    """Stochastic tables may beat deterministic ones, but not the floor."""
    prob = uniform_problem(BINARY)
    config = SearchConfig(m_size=2, restarts=4, iterations=1500, seed=7)
    result = local_search(prob, config)
    assert result.loss >= 0.2 - 1e-9


def test_local_search_is_seed_deterministic():
    prob = uniform_problem(BINARY)
    config = SearchConfig(m_size=2, restarts=2, iterations=400, seed=3)
    a = local_search(prob, config)
    b = local_search(prob, config)
    assert a.loss == b.loss
    assert np.array_equal(a.mechanism.transition, b.mechanism.transition)
    assert a.trace == b.trace


def test_local_search_trace_is_non_increasing():
    prob = uniform_problem(BINARY)
    config = SearchConfig(m_size=3, restarts=3, iterations=600, seed=1)
    result = local_search(prob, config)
    losses = [loss for _, loss in result.trace]
    assert all(a >= b for a, b in zip(losses, losses[1:]))
    iterations = [it for it, _ in result.trace]
    assert iterations == sorted(iterations)


def test_local_search_trace_ends_at_reported_loss():
    prob = uniform_problem(BINARY)
    config = SearchConfig(m_size=2, restarts=2, iterations=500, seed=11)
    result = local_search(prob, config)
    assert result.trace[-1][1] == pytest.approx(result.loss, abs=1e-12)


def test_local_search_prices_a_chain_with_transient_states():
    """The best tensor of this run has one closed class, {1, 2}, and a nearly
    closed transient pair {0, 3}; solving for absorption into that single
    class used to fail its sum check."""
    prob = uniform_problem(BINARY)
    config = SearchConfig(m_size=4, restarts=4, iterations=1000, seed=2147313315)
    result = local_search(prob, config)
    assert result.loss == pytest.approx(0.2, abs=1e-9)


def test_local_search_validates_config():
    with pytest.raises(ValueError):
        SearchConfig(m_size=0)
    with pytest.raises(ValueError):
        SearchConfig(m_size=2, step_scale=0.0)
    with pytest.raises(ValueError):
        SearchConfig(m_size=2, cooling=1.5)


def test_epsilon_gap_clamps_at_zero():
    prob = uniform_problem(BINARY)
    result = enumerate_deterministic(prob, 2)
    assert epsilon_gap(result, 0.2) == pytest.approx(0.0, abs=1e-12)
    assert epsilon_gap(result, 0.19) == pytest.approx(result.loss - 0.19)
    assert epsilon_gap(dataclasses.replace(result, loss=0.3), 0.2) == pytest.approx(0.1)


def test_annealer_abandons_the_rare_state():
    from famlearn import detect_ignorance, occupancy_profile

    prob = skewed_problem()
    config = SearchConfig(m_size=3, restarts=8, iterations=5000, seed=0)
    result = local_search(prob, config)
    profile = occupancy_profile(prob, result.mechanism)
    assert 2 in detect_ignorance(profile, result.mechanism.decision)
    assert result.loss < prob.total_level
