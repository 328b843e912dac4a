"""Exhaustive and annealed mechanism search."""

import dataclasses
import math
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from famlearn import chain, search
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
from famlearn.chain import _gth_stack
from famlearn.search import _canonical_tables, _count_tables

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


@pytest.mark.parametrize(
    ("alphabet", "counts"),
    [(2, [1, 12, 216, 5248, 160675]), (3, [1, 56, 7965])],
)
def test_canonical_automata_counts_match_recursive_oracle(alphabet, counts):
    """Initially connected automata with exactly n states, n = 1, 2, ..."""
    for n, count in enumerate(counts, start=1):
        codes = oracles.canonical_strings(n, alphabet)
        assert sum(max(code) == n - 1 for code in codes) == count


def test_enumeration_count_formula():
    """Canonical tables scored: running sums of the exact-n counts above."""
    binary = [1, 13, 229, 5477, 166152, 6097692]
    ternary = [1, 57, 8022, 2136086]
    for problem, counts in [(uniform_problem(BINARY), binary), (skewed_problem(), ternary)]:
        for m_size, count in enumerate(counts, start=1):
            assert enumeration_count(problem, m_size) == count


def test_enumeration_budget_guard():
    prob = skewed_problem()
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_deterministic(prob, 4, budget=1000)
    assert exc.value.budget == 1000
    assert 1000 < exc.value.count <= enumeration_count(prob, 4)
    assert f"at least {exc.value.count} tables" in str(exc.value)


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
def test_canonical_tables_match_breadth_first_oracle(m_size, alphabet, classes):
    """The generated tables are the distinct relabelled raw tables, sorted."""
    raw = product(range(m_size), repeat=m_size * alphabet)
    forms = {oracles.canonical_table(np.reshape(t, (m_size, alphabet)).tolist()) for t in raw}
    tables = _canonical_tables(m_size, alphabet)
    assert [tuple(map(tuple, t)) for t in tables.tolist()] == sorted(forms)
    assert len(tables) == classes == _count_tables(m_size, alphabet)


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
    """Each kernel is stacked with its normalised transpose.

    Rows start at state 0, so a start at ``initial`` swaps states 0 and
    ``initial`` first.
    """
    kernel = AWKWARD_KERNELS[name]
    stack = np.stack([kernel, kernel.T / kernel.T.sum(axis=1, keepdims=True)])
    order = np.arange(len(kernel))
    order[[0, initial]] = order[[initial, 0]]
    rows = _gth_stack(stack[:, order][:, :, order])
    for got, q in zip(rows, stack):
        want = oracles.cesaro_occupancy(q, initial)[order]
        np.testing.assert_allclose(got, want, atol=1e-12)


# slow-mixing kernels and their limits from state 0, in closed form; the
# Cesaro mean to horizon 2**50 of oracles.cesaro_occupancy misses all but
# the first by 3e-12 to 2e-7
SLOW_KERNELS = {
    "rare escape": (
        [[1 - 1e-9, 1e-9], [0.5, 0.5]],
        [0.5 / (0.5 + 1e-9), 1e-9 / (0.5 + 1e-9)],
    ),
    "sticky pair": ([[1 - 1e-9, 1e-9], [1e-9, 1 - 1e-9]], [0.5, 0.5]),
    "slow absorption": (
        [[1 - 3e-6, 1e-6, 2e-6], [0, 1, 0], [0, 0, 1]],
        [0, 1 / 3, 2 / 3],
    ),
    "slow entry to a sticky pair": (
        [[1 - 1e-6, 1e-6, 0], [0, 1 - 1e-6, 1e-6], [0, 1e-6, 1 - 1e-6]],
        [0, 0.5, 0.5],
    ),
    "sticky cycle": (
        np.roll(np.eye(4), 1, axis=1) * 1e-4 + np.eye(4) * (1 - 1e-4),
        [0.25] * 4,
    ),
}


@pytest.mark.parametrize("name", sorted(SLOW_KERNELS))
def test_cesaro_rows_reach_closed_form_limits_of_slow_kernels(name):
    kernel, limit = SLOW_KERNELS[name]
    stack = np.array(kernel, dtype=float)[None]
    np.testing.assert_allclose(_gth_stack(stack)[0], limit, rtol=0, atol=1e-14)


def test_gth_stack_takes_a_tiny_entry_beside_a_periodic_kernel_without_warning():
    """An entry of 1e-300 next to a periodic kernel in one stack."""
    stack = np.array(
        [[[1.0, 1e-300, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], np.eye(3)[[1, 2, 0]]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _gth_stack(stack)
    np.testing.assert_allclose(rows, [[1.0, 0.0, 0.0], [1 / 3] * 3], rtol=0, atol=1e-14)
    assert (rows >= 0.0).all()


def test_gth_stack_of_single_state_kernels_are_ones():
    stack = np.ones((3, 1, 1))
    np.testing.assert_array_equal(_gth_stack(stack), np.ones((3, 1)))


@st.composite
def sparse_kernels(draw):
    """Stochastic kernels of 1 to 6 states with random zeros.

    Entries are 0 or 1e-12 to 1 before the rows are normalised.  Each row
    keeps the entry a drawn permutation gives it, so a kernel may be a bare
    cycle; the zeros make reducible kernels, some with closed classes that
    state 0 never reaches.
    """
    m = draw(st.integers(min_value=1, max_value=6))
    entry = st.just(0.0) | st.floats(min_value=1e-12, max_value=1.0)
    q = np.array(draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m)))
    cycle = draw(st.permutations(range(m)))
    q[np.arange(m), cycle] = draw(st.floats(min_value=1e-12, max_value=1.0))
    return q / q.sum(axis=1, keepdims=True)


@settings(max_examples=300, deadline=None)
@given(sparse_kernels())
@example(np.roll(np.eye(4), 1, axis=1))  # periodic
@example(np.array([[0.5, 0.2, 0.3], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))  # two classes reached
@example(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))  # one class unreached
@example(np.array([[1 - 1e-12, 1e-12, 0, 0], [0, 0, 1, 0], [0.5, 0, 0, 0.5], [0, 0, 0, 1]]))
def test_gth_stack_matches_the_chain_solver(q):
    got = _gth_stack(q.copy()[None])[0]
    want = chain.stationary(q, 0)
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


# A subnormal pivot outflow: world 1's kernel under this table eliminates
# state 1 on an outflow of 1e-320, which the plain back-substitution would
# overflow on, so that kernel goes to the exponent-keeping one.
TINY = uniform_problem(SignalModel.from_rows([[1.0, 1e-160], [1e-160, 1.0]]))
SUBNORMAL_TABLE = [[0, 1], [2, 1], [0, 1]]


def test_a_table_with_a_subnormal_pivot_outflow_scores_its_exact_loss():
    tables, losses = search._scored_tables(TINY, 3)
    (idx,) = np.flatnonzero((tables == SUBNORMAL_TABLE).all(axis=(1, 2)))
    exact = search._exact_result(TINY, np.eye(3)[tables[idx]], trace=()).loss
    assert losses[idx] == pytest.approx(exact, rel=1e-12, abs=0.0)
    result = enumerate_deterministic(TINY, 3)
    assert np.isfinite(result.loss)
    assert result.loss == utility_loss(TINY, result.mechanism)


@pytest.mark.parametrize("m_size", [3, 4])
def test_scores_match_exact_losses_on_a_slow_binary_model(m_size):
    """The shortlist and a seeded sample of 0.999/0.001 scores, against re-solves."""
    problem = uniform_problem(SignalModel.from_rows([[0.999, 0.001], [0.001, 0.999]]))
    tables, losses = search._scored_tables(problem, m_size)
    shortlist = np.flatnonzero(losses <= losses.min() + 1e-9)
    sample = np.random.default_rng(m_size).choice(len(losses), size=200, replace=False)
    for idx in np.union1d(shortlist, sample):
        exact = search._exact_result(problem, np.eye(m_size)[tables[idx]], trace=()).loss
        assert abs(losses[idx] - exact) <= 1e-13, idx


@pytest.mark.parametrize("tiny_mass", [1e-310, 1e-320])
def test_every_table_scores_its_exact_loss_at_a_subnormal_mass(tiny_mass):
    """Signal 2 arrives in world 0 with a subnormal mass, so many of the
    8,022 kernels eliminate on subnormal outflows and feeds.  None scores
    inf, and each score is the chain solver's loss for its table."""
    mass = [[0.6, 0.4 - tiny_mass, tiny_mass], [0.3, 0.3, 0.4]]
    problem = uniform_problem(SignalModel.from_rows(mass))
    tables, losses = search._scored_tables(problem, 3)
    assert len(tables) == 8022 and np.isfinite(losses).all()
    for table, loss in zip(tables, losses.tolist()):
        exact = search._exact_result(problem, np.eye(3)[table], trace=()).loss
        assert loss == pytest.approx(exact, rel=1e-12, abs=0.0), table.tolist()


@pytest.mark.parametrize(
    "mass, m_size",
    [
        ([[0.8, 0.2], [0.2, 0.8]], 3),
        ([[0.8, 0.2], [0.2, 0.8]], 4),
        ([[0.8, 0.2], [0.2, 0.8]], 5),
        ([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]], 3),
        ([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]], 4),
        ([[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]], 3),
        ([[0.6, 0.4 - 1e-320, 1e-320], [0.3, 0.3, 0.4]], 3),
    ],
    ids=["binary-3", "binary-4", "binary-5", "ternary-3", "ternary-4", "four-3", "subnormal-3"],
)
def test_table_kernels_add_the_masses_as_the_one_hot_product_does(mass, m_size):
    """Each signal's mass added at the successors, in signal order, gives
    the kernels of ``einsum`` over the one-hot tables bit for bit, on up to
    3,000 canonical tables and 1,000 random ones."""
    mass = SignalModel.from_rows(mass).mass
    alphabet = mass.shape[1]
    tables = np.random.default_rng(m_size).integers(m_size, size=(1000, m_size, alphabet))
    if m_size * alphabet <= 10:  # ternary m = 4 has 2 million canonical tables
        tables = np.concatenate([_canonical_tables(m_size, alphabet)[:3000], tables])
    onehot = tables[..., None] == np.arange(m_size)
    expected = np.einsum("ws,tmsj->twmj", mass, onehot)
    assert search._table_kernels(mass, tables).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(FROZEN_WINNERS))
def test_enumerate_returns_the_frozen_winner(name):
    problem = skewed_problem() if name.startswith("skewed") else uniform_problem(BINARY)
    table, decision, loss = FROZEN_WINNERS[name]
    result = enumerate_deterministic(problem, len(table))
    assert result.mechanism.transition.argmax(axis=2).tolist() == table
    assert result.mechanism.decision.tolist() == decision
    assert result.loss == pytest.approx(loss, abs=1e-12)


def count_exact_prices(monkeypatch):
    calls = []
    exact = search._exact_result

    def counted(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)

    monkeypatch.setattr(search, "_exact_result", counted)
    return calls


def test_enumerate_prices_only_its_winner(monkeypatch):
    """Binary m = 4 ties 24 raw tables in 4 canonical classes."""
    calls = count_exact_prices(monkeypatch)
    result = enumerate_deterministic(uniform_problem(BINARY), 4)
    assert len(calls) == 1
    assert result.loss == pytest.approx(1 / 17, abs=1e-12)


def test_a_dominated_stake_ties_every_table_and_prices_the_first(monkeypatch):
    """World 0's stake dominates, so all 8,022 ternary m = 3 tables score
    0.016 to within a few ulps, and the lowest-coded table, all zeros, wins."""
    problem = Problem(
        model=SignalModel.from_rows([[0.135, 0.239, 0.626], [0.481, 0.142, 0.377]]),
        utilities=np.array([1.942, 0.032]),
        prior=np.array([0.5, 0.5]),
    )
    calls = count_exact_prices(monkeypatch)
    result = enumerate_deterministic(problem, 3)
    assert len(calls) == 1
    assert result.mechanism.transition.argmax(axis=2).tolist() == [[0, 0, 0]] * 3
    assert result.mechanism.decision.tolist() == [0, 0, 0]
    assert result.loss == pytest.approx(0.016, abs=1e-12)


def test_a_table_scored_near_1e_300_beats_a_later_false_root():
    """Each world's rows carry a 1e-300 mass.  Tables 11 and 80 underflow an
    outflow row to zero and score a false 0.0 (their mpmath loss is 0.117),
    while lower-coded tables score near 1e-300, inside the tie window, so
    the winner is one of those and its loss is its mpmath loss."""
    mass = [[1.0, 1.2009921083688063e-300], [2.037946763188666e-300, 1.0]]
    problem = Problem(
        model=SignalModel.from_rows(mass),
        utilities=np.ones(2),
        prior=np.array([0.11702536363769916, 0.8829746363623009]),
    )
    result = enumerate_deterministic(problem, 3)
    mech = result.mechanism
    assert mech.transition.argmax(axis=2).tolist() == [[0, 1], [0, 1], [0, 0]]
    kernels = [oracles.state_kernel(mech.transition, row) for row in problem.model.mass]
    occupancy = np.array([oracles.absorption_mp(q, 0) for q in kernels], dtype=float)
    exact = chain._price(problem.stakes, occupancy, mech.decision)[1]
    assert result.loss == pytest.approx(exact, rel=1e-12, abs=0.0)


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


# The best tensor, before corner rounding, of a 4 x 1,000 anneal of the
# 0.8/0.2 problem at m = 4 (seed 2147313315) under the former draws: a
# closed class {1, 2} and a nearly closed transient pair {0, 3}.  Entries
# by (memory, signal, successor); the rest are zero.
TRANSIENT_TENSOR = {
    (0, 0, 0): "0x1.0000000000000p+0",
    (0, 1, 3): "0x1.0000000000000p+0",
    (1, 0, 2): "0x1.fffffffffffffp-1",
    (1, 1, 1): "0x1.0000000000000p+0",
    (2, 0, 2): "0x1.fffffffffffffp-1",
    (2, 1, 1): "0x1.0000000000000p+0",
    (3, 0, 3): "0x1.fffffffffffffp-1",
    (3, 1, 1): "0x1.82c11ab6b8090p-15",
    (3, 1, 3): "0x1.fff9f4fb95251p-1",
}


def test_local_search_prices_a_chain_with_transient_states():
    """Solving for absorption into the single closed class used to fail its
    sum check."""
    tensor = np.zeros((4, 2, 4))
    for cell, value in TRANSIENT_TENSOR.items():
        tensor[cell] = float.fromhex(value)
    result = search._exact_result(uniform_problem(BINARY), tensor, trace=())
    assert result.loss == pytest.approx(0.2, abs=1e-9)


def assert_same_search(result, reference):
    """Bit for bit: loss, trace, transition tensor and decision rule."""
    assert result.loss == reference.loss
    assert result.trace == reference.trace
    assert np.array_equal(result.mechanism.transition, reference.mechanism.transition)
    assert np.array_equal(result.mechanism.decision, reference.mechanism.decision)


@pytest.mark.parametrize("m_size", range(1, 7))
def test_annealer_matches_the_sequential_oracle_on_the_study(m_size):
    """The memory-budget study's settings: 0.8/0.2, 4 x 1,000, seed 11."""
    prob = uniform_problem(BINARY)
    config = SearchConfig(m_size=m_size, restarts=4, iterations=1000, seed=11)
    assert_same_search(local_search(prob, config), oracles.sequential_anneal(prob, config))


def example_search(seed, m_size, restarts, iterations, step_scale, cooling=0.995):
    return example(
        seed=seed,
        n=2,
        alphabet=2,
        m_size=m_size,
        restarts=restarts,
        iterations=iterations,
        step_scale=step_scale,
        cooling=cooling,
        dead_signal=False,
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=3),
    alphabet=st.integers(min_value=2, max_value=3),
    m_size=st.integers(min_value=1, max_value=5),
    restarts=st.integers(min_value=1, max_value=6),
    iterations=st.integers(min_value=1, max_value=300),
    step_scale=st.sampled_from([0.01, 0.25, 1.0, 50.0]),
    cooling=st.sampled_from([0.5, 0.995]),
    dead_signal=st.booleans(),
)
@example_search(seed=5, m_size=1, restarts=3, iterations=300, step_scale=0.25)
@example_search(seed=6, m_size=1, restarts=1, iterations=1, step_scale=50.0, cooling=0.5)
@example_search(seed=7, m_size=3, restarts=4, iterations=300, step_scale=50.0)
@example_search(seed=8, m_size=5, restarts=2, iterations=300, step_scale=50.0, cooling=0.5)
@example_search(seed=9, m_size=3, restarts=4, iterations=search._WINDOW - 1, step_scale=0.25)
@example_search(seed=10, m_size=3, restarts=4, iterations=search._WINDOW, step_scale=0.25)
@example_search(seed=11, m_size=4, restarts=3, iterations=search._WINDOW + 1, step_scale=0.25)
@example_search(seed=12, m_size=3, restarts=4, iterations=search._CHUNK + 1, step_scale=0.25)
@example_search(seed=13, m_size=4, restarts=4, iterations=300, step_scale=1e6)
def test_annealer_matches_the_sequential_oracle(
    seed, n, alphabet, m_size, restarts, iterations, step_scale, cooling, dead_signal
):
    """Bolder steps and faster cooling reach corners, where solves go singular;
    a signal no world emits gives every kernel a dead column of inputs.  At a
    step of 50 every concentration is below 0.1, where gamma draws can all
    underflow; at m = 1 a row can move only by rounding.  The examples at a
    window's and a chunk's edges accept rows that a later step of the same
    window reads, so their draws are replayed; at a step of 1e6 nearly every
    row's gamma draws underflow, inside the replayed steps too."""
    rng = np.random.default_rng(seed)
    mass = rng.uniform(0.1, 1.0, size=(n, alphabet))
    if dead_signal:
        mass[:, 0] = 0.0
    mass /= mass.sum(axis=1, keepdims=True)
    prob = Problem(
        model=SignalModel.from_rows(mass),
        utilities=rng.uniform(0.5, 2.0, size=n),
        prior=rng.dirichlet(np.ones(n)),
    )
    config = SearchConfig(
        m_size=m_size,
        restarts=restarts,
        iterations=iterations,
        step_scale=step_scale,
        cooling=cooling,
        seed=seed,
    )
    assert_same_search(local_search(prob, config), oracles.sequential_anneal(prob, config))


def test_a_row_whose_gamma_draws_all_underflow_is_drawn_from_the_dirichlet():
    """At concentrations near 2e-6 nearly every gamma draw underflows to zero,
    so nearly every proposal takes the fallback draw; none may be NaN."""
    prob = uniform_problem(BINARY)
    config = SearchConfig(m_size=3, restarts=3, iterations=300, step_scale=1e6, seed=4)
    alpha = np.full(3, 1 / 3 / config.step_scale + search._ALPHA_FLOOR)
    assert not np.random.default_rng(0).standard_gamma(alpha).any()
    result = local_search(prob, config)
    assert np.isfinite(result.loss)
    assert_same_search(result, oracles.sequential_anneal(prob, config))


def test_trace_iterations_strictly_increase_across_restarts():
    """Restart r's step it is r * (iterations + 1) + it, so a restart's last
    step, the next one's start and the rounding pass never share a number."""
    prob = uniform_problem(BINARY)
    config = SearchConfig(m_size=3, restarts=6, iterations=2, seed=0)
    iterations = [it for it, _ in local_search(prob, config).trace]
    assert len(iterations) >= 3
    assert all(a < b for a, b in zip(iterations, iterations[1:]))
    assert iterations[-1] <= config.restarts * (config.iterations + 1)


def count_gamma_calls(monkeypatch) -> list:
    """A list that gains an entry at each ``standard_gamma`` call of a
    generator made by ``np.random.default_rng`` from now on."""
    calls = []

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_gamma(self, *args, **kwargs):
            calls.append(None)
            return self.rng.standard_gamma(*args, **kwargs)

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: Counted(default_rng(seed)))
    return calls


def test_a_step_that_moves_nothing_makes_no_generator_call(monkeypatch):
    """At m = 1 no row ever moves, so each restart makes one standard_gamma
    call per window of steps, not one per step."""
    calls = count_gamma_calls(monkeypatch)
    config = SearchConfig(m_size=1, restarts=4, iterations=1_000, seed=11)
    assert local_search(uniform_problem(BINARY), config).loss == pytest.approx(0.5)
    assert 0 < len(calls) <= config.restarts * math.ceil(config.iterations / search._WINDOW)


def test_back_to_back_windows_that_end_early_match_the_sequential_oracle(monkeypatch):
    """At a temperature of 1e300 every proposal is accepted, and at a step of
    0.01 every proposed row moves, so with 4 cells most windows end within
    a few steps, where an accepted row is read again: each such window
    makes a second standard_gamma call to replay the draws before its end."""
    prob = uniform_problem(BINARY)
    config = SearchConfig(
        m_size=2, restarts=1, iterations=300, step_scale=0.01, initial_temperature=1e300, seed=0
    )
    reference = oracles.sequential_anneal(prob, config)
    calls = count_gamma_calls(monkeypatch)
    assert_same_search(local_search(prob, config), reference)
    # Windows that never ended early would take ceil(300 / 32) = 10 calls.
    assert len(calls) > config.iterations // 2


def test_restarts_walk_the_same_whatever_runs_beside_them():
    """The first R restarts' trace entries are the same with R + 2 restarts."""
    prob = uniform_problem(BINARY)
    for m_size, restarts in [(2, 1), (3, 2), (4, 3)]:
        few = SearchConfig(m_size=m_size, restarts=restarts, iterations=600, seed=9)
        more = dataclasses.replace(few, restarts=restarts + 2)
        # the last entry may be the rounding pass's
        head = local_search(prob, few).trace[:-1]
        assert len(head) >= 2
        assert local_search(prob, more).trace[: len(head)] == head


def test_pre_drawn_randomness_does_not_grow_with_iterations():
    prob = uniform_problem(BINARY)
    local_search(prob, SearchConfig(m_size=2, restarts=1, iterations=10, seed=0))  # warm up
    peaks = []
    for iterations in (1_000, 10_000):
        tracemalloc.start()
        local_search(prob, SearchConfig(m_size=2, restarts=1, iterations=iterations, seed=3))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_a_temperature_that_underflows_to_zero_rejects_every_worse_proposal():
    """0.1 * 0.5**it reaches 0.0 at it = 1,072, where the loop used to divide by zero."""
    prob = uniform_problem(BINARY)
    config = SearchConfig(m_size=3, restarts=2, iterations=1500, cooling=0.5, seed=1)
    result = local_search(prob, config)
    assert np.isfinite(result.loss)
    assert_same_search(result, oracles.sequential_anneal(prob, config))


def test_fast_loss_scores_a_singular_tensor_inf_and_prices_like_the_oracle():
    prob = uniform_problem(BINARY)
    m = 3
    eye = np.broadcast_to(np.eye(m), (2, m, m)).copy()
    unit = np.zeros((2, m, 1))
    unit[:, -1] = 1.0
    stay = np.broadcast_to(np.eye(m)[:, None, :], (m, 2, m)).copy()  # singular
    assert search._fast_loss(prob, stay, prob.stakes, eye, unit) == math.inf
    for tensor in np.random.default_rng(0).dirichlet(np.ones(m), size=(2, m, 2)):
        alone = oracles.scalar_fast_loss(prob, tensor, prob.stakes, eye, unit[..., 0])
        assert search._fast_loss(prob, tensor, prob.stakes, eye, unit) == alone < np.inf


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
