"""The benchmark's checks pass real outputs and reject corrupted ones.

Run from the root of a checkout:

    python3 -m pytest bench/test_checks.py -q

Each case runs one operation of a workload for real, confirms that its
check passes, then corrupts the artifact (a perturbed occupancy, a ``NaN``
token, a loss shifted by 1e-6) and confirms that the check objects.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks as ck  # noqa: E402
import workloads  # noqa: E402
from famlearn import cli  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    """Every batch_small operation plus the cheap search ones, run once."""
    found = {}
    for workload in ("batch_small", "search"):
        workdir = tmp_path_factory.mktemp(workload)
        for op in workloads.build(workload, SEED, workdir):
            if "anneal m=" in op.name and not op.name.endswith("m=2"):
                continue
            if "skewed" in op.name:
                continue
            with contextlib.redirect_stdout(io.StringIO()):
                if op.argv is not None:
                    try:
                        rc, value = cli.main(op.argv), None
                    except OverflowError:
                        continue
                    assert rc == op.expect_rc, op.name
                else:
                    value = op.call()
            found[op.name] = (op, value)
    return found


def _problems(op, value):
    try:
        return op.check(value)
    except ck.OutputInvalid as exc:
        return [f"invalid: {exc}"]


@contextlib.contextmanager
def corrupted(path: Path, edit):
    """Replace ``path``'s text with ``edit``, or apply ``edit`` to its JSON."""
    original = path.read_text()
    if isinstance(edit, str):
        path.write_text(edit)
    else:
        doc = json.loads(original)
        edit(doc)
        path.write_text(json.dumps(doc))
    try:
        yield
    finally:
        path.write_text(original)


def test_every_real_output_passes(ops):
    assert len(ops) >= 18
    for name, (op, value) in ops.items():
        assert _problems(op, value) == [], name


EVALS = [
    "eval line m=8",
    "eval star lam=6",
    "eval noisy_star lam=4",
    "eval symmetric_ignorant n=6",
    "eval symmetric_full n=4",
]


@pytest.mark.parametrize("name", EVALS)
def test_eval_rejects_perturbed_occupancy(ops, name):
    op, value = ops[name]

    def perturb(doc):
        row = doc["occupancy"][1]
        k = int(np.argmax(row))
        row[k] *= 1.0 + 1e-6

    with corrupted(op.artifacts[0], perturb):
        assert _problems(op, value)


@pytest.mark.parametrize("name", EVALS)
def test_eval_rejects_shifted_loss(ops, name):
    op, value = ops[name]

    def shift(doc):
        doc["loss"] += 1e-6

    with corrupted(op.artifacts[0], shift):
        assert _problems(op, value)


@pytest.mark.parametrize("name", EVALS + ["disagree line x star", "closed-forms star"])
def test_json_artifacts_reject_nan(ops, name):
    op, value = ops[name]
    path = op.artifacts[0]
    text = path.read_text()
    number = next(tok for tok in text.replace(",", " ").split() if tok[:1].isdigit())
    with corrupted(path, text.replace(number, "NaN", 1)):
        problems = _problems(op, value)
    assert problems and problems[0].startswith("invalid: ")


def test_csv_artifacts_reject_nan(ops):
    op, value = ops["sweep lam"]
    path = op.artifacts[0]
    lines = path.read_text().splitlines()
    first = lines[1].split(",")
    first[1] = "nan"
    lines[1] = ",".join(first)
    with corrupted(path, "\n".join(lines) + "\n"):
        assert _problems(op, value)[0].startswith("invalid: ")


def test_sweep_rejects_shifted_loss(ops):
    for name in ("sweep lam", "sweep m=1..3"):
        op, value = ops[name]
        path = op.artifacts[0]
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        lines[2] = ",".join(cells)
        with corrupted(path, "\n".join(lines) + "\n"):
            assert _problems(op, value), name


def test_gamma_sweep_rejects_shifted_loss(ops):
    op, value = ops["sweep gamma"]

    def shift(doc):
        doc["rows"][-1]["loss"] += 1e-6

    with corrupted(op.artifacts[0], shift):
        assert _problems(op, value)


def test_disagree_rejects_shifted_probability(ops):
    op, value = ops["disagree line x star"]

    def shift(doc):
        doc["per_state"][0] += 1e-6

    with corrupted(op.artifacts[0], shift):
        assert _problems(op, value)


def test_closed_form_star_rejects_perturbed_occupancy(ops):
    op, value = ops["closed-forms star"]

    def perturb(doc):
        doc["result"]["occupancy"][0] *= 1.0 + 1e-6

    with corrupted(op.artifacts[0], perturb):
        assert _problems(op, value)


@pytest.mark.parametrize("name", ["search enumerate m=3", "search anneal m=2"])
def test_search_rejects_shifted_loss(ops, name):
    op, value = ops[name]

    def shift(doc):
        doc["loss"] += 1e-6

    with corrupted(op.artifacts[0], shift):
        assert _problems(op, value)


def test_search_rejects_increasing_trace(ops):
    op, value = ops["search anneal m=2"]

    def bump(doc):
        doc["trace"].append([doc["trace"][-1][0] + 1, doc["trace"][-1][1] + 1e-6])

    with corrupted(op.artifacts[0], bump):
        assert _problems(op, value)


def test_search_rejects_loss_below_floor(ops):
    op, value = ops["search enumerate m=3"]

    def lower(doc):
        doc["loss"] = 1.0 / 17.0 - 1e-6

    with corrupted(op.artifacts[0], lower):
        assert any("Hellman-Cover" in p for p in _problems(op, value))


def test_validate_rejects_wrong_verdict(ops):
    op, value = ops["validate ternary above its support"]

    def flip(doc):
        doc["ok"] = True

    with corrupted(op.artifacts[0], flip):
        assert _problems(op, value)


def test_monte_carlo_rejects_perturbed_occupancy(ops):
    for name, (op, value) in ops.items():
        if not name.startswith("monte_carlo"):
            continue
        occupancy, frequencies = (np.array(x, dtype=float) for x in value)
        occupancy[0] += 0.05
        occupancy[1] -= 0.05
        assert op.check((occupancy, frequencies)), name
        occupancy[0] = np.nan
        with pytest.raises(ck.OutputInvalid):
            op.check((occupancy, frequencies))


def test_star_reference_matches_small_case_in_rationals():
    """The log-space geometric form against a direct rational computation."""
    from fractions import Fraction

    mass = [[0.75, 0.25], [0.25, 0.75]]
    lam, delta = 3, 4.0
    unit = np.asarray(mass) / np.linalg.norm(mass, axis=1, keepdims=True)
    for w in range(2):
        confirm = unit @ np.asarray(mass[w])
        odds = [Fraction(delta * confirm[b] / confirm[1 - b]) for b in range(2)]
        weights = [Fraction(1)] + [odds[b] ** k for b in range(2) for k in range(1, lam + 1)]
        exact = np.array([float(x / sum(weights)) for x in weights])
        got = np.exp(ck.star_log_occupancy(mass, delta, lam, w))
        assert np.allclose(got, exact, rtol=1e-13, atol=0.0)


def test_reference_occupancy_handles_reducible_chains():
    # state 0 is transient and splits 1:3 between two absorbing states
    q = np.array([[0.0, 0.25, 0.75], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(ck.reference_occupancy(q, 0), [0.0, 0.25, 0.75])
    # a periodic two-cycle spends half its time in each state
    q = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(ck.reference_occupancy(q, 0), [0.5, 0.5])


def test_tracing_wraps_every_binding_and_restores_them(ops):
    import tracing

    import famlearn.chain
    import famlearn.diagnostics

    op, _ = ops["eval line m=8"]
    originals = (cli.main, cli.occupancy_profile, cli.HANDLERS["eval"])
    tracer = tracing.Tracer()
    tracer.new_pass()
    with tracing.installed(tracer):
        assert famlearn.diagnostics.occupancy_profile is famlearn.chain.occupancy_profile
        assert cli.occupancy_profile is not originals[1]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op.argv) == 0
    assert (cli.main, cli.occupancy_profile, cli.HANDLERS["eval"]) == originals
    spans = tracer.passes[0]
    metrics = tracing.pass_metrics(spans)
    # eval solves each world's chain once for itself and once for diagnostics
    assert metrics["chain.occupancy_calls"] == 2
    assert metrics["chain.stationary_calls"] == 4
    assert metrics["chain.states_solved"] == 4 * 8
    total = spans[0].end - spans[0].start
    own = sum(tracing._self_times(spans))
    assert abs(own - total) < 1e-9
