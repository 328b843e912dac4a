"""End-to-end runs of the batch commands: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import famlearn
import oracles
from famlearn import (
    SearchConfig,
    SignalModel,
    UpdatingMechanism,
    cli,
    pair_commitment_problem,
    rademacher_family,
    star_occupancy_closed_form,
)
from famlearn.cli import main
from famlearn.search import DEFAULT_ENUMERATION_BUDGET

BINARY_JSON = SignalModel.from_rows([[0.8, 0.2], [0.2, 0.8]]).to_json()
LADDER_JSON = SignalModel.from_rows([[0.7, 0.3], [0.3, 0.7]]).to_json()

_OUTPUT_SCHEMA = json.loads(
    (resources.files("famlearn") / "schemas" / "output.schema.json").read_text()
)


def check_schema(payload, definition):
    jsonschema.validate(
        payload,
        {"$ref": f"#/definitions/{definition}", "definitions": _OUTPUT_SCHEMA["definitions"]},
    )


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(command, spec_path, out_dir, *extra):
    return main([command, "--spec", spec_path, "--out", str(out_dir), *extra])


# --- validate ---------------------------------------------------------------


def test_validate_pass(tmp_path):
    spec = write_spec(
        tmp_path, {"problem": {"model": BINARY_JSON}, "varsigma": 0.2}
    )
    assert run("validate", spec, tmp_path) == 0
    payload = json.loads((tmp_path / "validate.json").read_text())
    assert payload["ok"] is True
    assert payload["min_ratio"] == pytest.approx(0.25)
    check_schema(payload, "validate")


def test_validate_failure_is_domain_exit(tmp_path):
    revealing = SignalModel.from_rows([[1.0, 0.0], [0.3, 0.7]]).to_json()
    spec = write_spec(tmp_path, {"problem": {"model": revealing}, "varsigma": 0.1})
    assert run("validate", spec, tmp_path) == 1
    payload = json.loads((tmp_path / "validate.json").read_text())
    assert payload["ok"] is False


def test_missing_spec_file_is_usage_exit(tmp_path):
    assert run("validate", str(tmp_path / "nope.json"), tmp_path) == 2


def test_malformed_spec_is_usage_exit(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run("validate", str(path), tmp_path) == 2


def test_model_missing_key_is_usage_exit(tmp_path):
    renamed = {"n_states": 2, "alphabet_size": 2, "mass": BINARY_JSON["mass"]}
    spec = write_spec(tmp_path, {"problem": {"model": renamed}})
    proc = subprocess.run(
        [sys.executable, "-m", "famlearn.cli", "validate", "--spec", spec, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "'states'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_mechanism_missing_key_is_usage_exit(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "mechanism": {"inline": {"m": 1, "transition": [[[1.0], [1.0]]]}},
        },
    )
    assert run("eval", spec, tmp_path) == 2
    assert "'decision'" in capsys.readouterr().err


def test_command_tag_mismatch(tmp_path):
    spec = write_spec(
        tmp_path, {"command": "eval", "problem": {"model": BINARY_JSON}}
    )
    assert run("validate", spec, tmp_path) == 2


# --- eval -------------------------------------------------------------------


def test_eval_ladder(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": LADDER_JSON},
            "mechanism": {"blueprint": {"family": "line", "params": {"m_size": 4}}},
        },
    )
    assert run("eval", spec, tmp_path) == 0
    payload = json.loads((tmp_path / "eval.json").read_text())
    assert payload["loss"] == pytest.approx(9 / 58, abs=1e-10)
    assert payload["utility"] == pytest.approx(49 / 58, abs=1e-10)
    assert len(payload["occupancy"]) == 2
    check_schema(payload, "eval")


def test_eval_solves_each_world_once(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("diagnostics must reuse the profile eval solved")

    monkeypatch.setattr(famlearn.diagnostics, "occupancy_profile", refuse, raising=False)
    solves = []
    stationary = famlearn.chain.stationary

    def counted(*args):
        solves.append(args)
        return stationary(*args)

    monkeypatch.setattr(famlearn.chain, "stationary", counted)
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": LADDER_JSON},
            "mechanism": {"blueprint": {"family": "line", "params": {"m_size": 4}}},
        },
    )
    assert run("eval", spec, tmp_path) == 0
    assert len(solves) == 2


def test_eval_reruns_byte_identical(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "mechanism": {
                "blueprint": {"family": "star", "params": {"lam": 6, "delta": 5.0}}
            },
        },
    )
    assert run("eval", spec, tmp_path / "a") == 0
    assert run("eval", spec, tmp_path / "b") == 0
    first = (tmp_path / "a" / "eval.json").read_bytes()
    assert first == (tmp_path / "b" / "eval.json").read_bytes()


def test_eval_and_sweep_keep_a_loss_below_the_total_rounding_error(tmp_path):
    """The depth-400 star loses about 1.6e-28, far below 1 ulp of the total."""
    mass = [[0.6, 0.4], [0.4, 0.6]]
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": SignalModel.from_rows(mass).to_json()},
            "mechanism": {
                "blueprint": {"family": "star", "params": {"lam": 400, "delta": 5.0}}
            },
            "sweep": {"lam": [400]},
        },
    )
    star = famlearn.build_star(SignalModel.from_rows(mass), lam=400, delta=5.0)
    wrong = sum(
        0.5 * oracles.star_occupancy_mp(mass, 5.0, 400, w)[star.decision != w].sum()
        for w in range(2)
    )
    assert run("eval", spec, tmp_path) == 0
    loss = json.loads((tmp_path / "eval.json").read_text())["loss"]
    assert loss == pytest.approx(wrong, rel=1e-9, abs=0.0)
    assert run("sweep", spec, tmp_path, "--format", "json") == 0
    row = json.loads((tmp_path / "sweep.json").read_text())["rows"][0]
    assert row["loss"] == pytest.approx(wrong, rel=1e-9, abs=0.0)


def test_eval_of_a_40001_state_star_stays_small(tmp_path):
    """lam = 20,000: the dense tensor alone would take 25.6 GB."""
    mass = [[0.51, 0.49], [0.49, 0.51]]
    lam, delta = 20_000, 2.0
    model = SignalModel.from_rows(mass)
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": model.to_json()},
            "mechanism": {
                "blueprint": {"family": "star", "params": {"lam": lam, "delta": delta}}
            },
        },
    )
    with open(tmp_path / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "famlearn.cli", "eval", "--spec", spec, "--out", str(tmp_path)],
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, (tmp_path / "stderr.txt").read_text()
    decision = np.repeat([0, 0, 1], [1, lam, lam])
    expected = sum(
        0.5 * star_occupancy_closed_form(model, None, lam, delta, w)[decision != w].sum()
        for w in range(2)
    )
    payload = json.loads((tmp_path / "eval.json").read_text())
    assert 0.0 < expected < 1e-12
    assert payload["loss"] == pytest.approx(expected, rel=1e-9, abs=0.0)
    assert usage.ru_maxrss < 250 * 1024  # kilobytes


def test_eval_sweep_and_disagree_never_build_the_dense_tensor(tmp_path, monkeypatch):
    def refuse(mech):
        raise AssertionError("the dense (m, k, m) tensor was built")

    monkeypatch.setattr(UpdatingMechanism, "transition", property(refuse))
    blueprints = [
        {"family": "star", "params": {"lam": 12, "delta": 5.0}},
        {"family": "noisy_star", "params": {"lam": 12, "delta": 5.0, "gamma": 0.2}},
        {"family": "line", "params": {"m_size": 12}},
    ]
    problem = {"model": BINARY_JSON}
    for i, blueprint in enumerate(blueprints):
        spec = {"problem": problem, "mechanism": {"blueprint": blueprint}}
        assert run("eval", write_spec(tmp_path, spec, f"eval{i}.json"), tmp_path) == 0
    for i, axis in enumerate(({"lam": [2, 30]}, {"gamma": [0.0, 0.5]})):
        spec = {"problem": problem, "mechanism": {"blueprint": blueprints[1]}, "sweep": axis}
        assert run("sweep", write_spec(tmp_path, spec, f"sweep{i}.json"), tmp_path) == 0
    agents = [{"blueprint": blueprints[2]}, {"blueprint": blueprints[0]}]
    spec = write_spec(tmp_path, {"problem": problem, "agents": agents}, "pair.json")
    assert run("disagree", spec, tmp_path) == 0


def test_eval_of_a_long_ladder_reports_an_overflowing_spread_as_null(tmp_path):
    """With RuntimeWarnings as errors, an overflow in ``spread`` would raise."""
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": {"states": 2, "alphabet": 2, "mass": [[0.6, 0.4], [0.4, 0.6]]}},
            "mechanism": {"blueprint": {"family": "line", "params": {"m_size": 1000}}},
        },
    )
    assert run("eval", spec, tmp_path) == 0
    payload = json.loads((tmp_path / "eval.json").read_text())
    assert payload["diagnostics"]["spreads"] == [[1.0, None], [None, 1.0]]


@st.composite
def extreme_specs(draw):
    """An eval or sweep spec with depth, drift, noise or world size at an extreme."""
    n = draw(st.sampled_from([2, 1, 3, 8]))
    if n == 2 and draw(st.booleans()):
        p = draw(st.floats(0.5 + 1e-12, 1.0 - 1e-12))
        model = SignalModel.from_rows([[p, 1.0 - p], [1.0 - p, p]])
    else:
        model = rademacher_family(n)
    # rademacher_family(8) has 256 signals; keep its chains small.
    cap = 1000 if model.alphabet_size <= 8 else 6
    depth = st.one_of(st.just(cap), st.integers(1, cap))
    delta = st.one_of(st.just(1.0 + 1e-12), st.floats(1.0 + 1e-12, 50.0))
    gamma = st.one_of(st.just(1.0 - 1e-12), st.floats(0.0, 1.0 - 1e-12))
    family = draw(st.sampled_from(["star", "noisy_star", "line"]))
    if family == "line":
        params = {"m_size": draw(depth.map(lambda m: m + 1))}
    else:
        params = {"lam": draw(depth), "delta": draw(delta)}
        if family == "noisy_star":
            params["gamma"] = draw(gamma)
    spec = {
        "problem": {"model": model.to_json()},
        "mechanism": {"blueprint": {"family": family, "params": params}},
    }
    if family != "line" and draw(st.booleans()):
        axis = "gamma" if family == "noisy_star" and draw(st.booleans()) else "lam"
        values = draw(st.lists(gamma if axis == "gamma" else depth, min_size=1, max_size=2))
        spec["sweep"] = {axis: values}
        return "sweep", spec
    return "eval", spec


@settings(max_examples=60, deadline=None)
@given(extreme_specs())
def test_eval_and_sweep_exit_cleanly_at_the_extremes(case):
    command, spec = case
    with tempfile.TemporaryDirectory() as tmp:
        path = write_spec(Path(tmp), spec)
        assert run(command, path, Path(tmp) / "out") in (0, 1, 2)


def test_eval_inline_mechanism_requires_model(tmp_path):
    mech_json = {
        "m": 1,
        "transition": [[[1.0], [1.0]]],
        "decision": [0],
        "initial": 0,
    }
    spec = write_spec(tmp_path, {"mechanism": {"inline": mech_json}})
    assert run("eval", spec, tmp_path) == 2


def test_eval_star_condition_failure_is_domain_exit(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "mechanism": {
                "blueprint": {"family": "star", "params": {"lam": 2, "delta": 1.5}}
            },
        },
    )
    assert run("eval", spec, tmp_path) == 1


def test_eval_star_with_spread_bound_past_float_range(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "mechanism": {
                "blueprint": {"family": "star", "params": {"lam": 128, "delta": 5.0}}
            },
        },
    )
    assert run("eval", spec, tmp_path) == 0
    payload = json.loads((tmp_path / "eval.json").read_text())
    check_schema(payload, "eval")
    assert payload["diagnostics"]["spread_bounds"] == [[1.0, None], [None, 1.0]]


def test_non_finite_artifact_is_domain_exit_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(
        cli, "_price", lambda stakes, occ, decision: (float("nan"), 0.0, decision)
    )
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": LADDER_JSON},
            "mechanism": {"blueprint": {"family": "line", "params": {"m_size": 4}}},
        },
    )
    out = tmp_path / "out"
    assert run("eval", spec, out) == 1
    assert not out.exists() or not any(out.iterdir())


def test_importing_the_cli_does_not_load_scipy():
    src = str(Path(famlearn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, famlearn.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_eval_mechanism_file_reference(tmp_path):
    mech_json = {
        "m": 1,
        "transition": [[[1.0], [1.0]]],
        "decision": [0],
        "initial": 0,
    }
    (tmp_path / "mech.json").write_text(json.dumps(mech_json))
    spec = write_spec(
        tmp_path,
        {"problem": {"model": BINARY_JSON}, "mechanism": {"file": "mech.json"}},
    )
    assert run("eval", spec, tmp_path) == 0
    payload = json.loads((tmp_path / "eval.json").read_text())
    assert payload["utility"] == pytest.approx(0.5)


# --- sweep ------------------------------------------------------------------


def test_sweep_depth_axis_decreases(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "mechanism": {
                "blueprint": {"family": "star", "params": {"lam": 1, "delta": 5.0}}
            },
            "sweep": {"lam": [1, 2, 5, 10, 20]},
        },
    )
    assert run("sweep", spec, tmp_path) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "lam,loss,utility"
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-3


def test_sweep_noise_axis_matches_clean_star_at_zero(tmp_path):
    base = {
        "problem": {"model": BINARY_JSON},
        "mechanism": {
            "blueprint": {
                "family": "noisy_star",
                "params": {"lam": 3, "delta": 5.0, "gamma": 0.5},
            }
        },
    }
    noisy = write_spec(tmp_path, {**base, "sweep": {"gamma": [0.0, 0.5]}}, "noisy.json")
    assert run("sweep", noisy, tmp_path, "--format", "json") == 0
    payload = json.loads((tmp_path / "sweep.json").read_text())
    check_schema(payload, "sweep")
    by_gamma = {row["gamma"]: row["loss"] for row in payload["rows"]}

    clean = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "mechanism": {
                "blueprint": {"family": "star", "params": {"lam": 3, "delta": 5.0}}
            },
        },
        "clean.json",
    )
    assert run("eval", clean, tmp_path) == 0
    star_loss = json.loads((tmp_path / "eval.json").read_text())["loss"]
    assert by_gamma[0.0] == pytest.approx(star_loss, abs=1e-14)
    assert by_gamma[0.5] > by_gamma[0.0]


def test_sweep_memory_axis_non_increasing(tmp_path):
    spec = write_spec(
        tmp_path,
        {"problem": {"model": BINARY_JSON}, "sweep": {"m": [1, 2, 3]}},
    )
    assert run("sweep", spec, tmp_path) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    assert losses == sorted(losses, reverse=True)
    assert losses[1] == pytest.approx(0.2, abs=1e-12)


def test_sweep_rejects_two_axes(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "sweep": {"lam": [1], "gamma": [0.1]},
        },
    )
    assert run("sweep", spec, tmp_path) == 2


# --- disagree ---------------------------------------------------------------


def pair_spec_sections():
    prob = pair_commitment_problem(nu=0.01, tau=3.0, ups=8.0)
    always_major = {
        "m": 1,
        "transition": [[[1.0], [1.0], [1.0]]],
        "decision": [0],
        "initial": 0,
    }
    # deterministic two-state switch between the minor states: its
    # occupancy ratio hits the design parameter exactly, so it is the
    # best mechanism committed to deciding only 1 or 2
    switch = {
        "m": 2,
        "transition": [
            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
        ],
        "decision": [1, 2],
        "initial": 0,
    }
    return {
        "problem": {
            "model": prob.model.to_json(),
            "prior": [float(x) for x in prob.prior],
        },
        "agents": [{"inline": always_major}, {"inline": switch}],
    }


def test_disagree_committed_pair(tmp_path):
    spec = write_spec(tmp_path, pair_spec_sections())
    assert run("disagree", spec, tmp_path) == 0
    payload = json.loads((tmp_path / "disagree.json").read_text())
    check_schema(payload, "disagree")
    np.testing.assert_allclose(payload["per_state"], 1.0, atol=1e-9)
    assert payload["overall"] == pytest.approx(1.0, abs=1e-9)


def test_disagree_identical_agents(tmp_path):
    mech_json = {
        "m": 2,
        "transition": [
            [[1.0, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, 1.0]],
        ],
        "decision": [0, 1],
        "initial": 0,
    }
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "agents": [{"inline": mech_json}, {"inline": mech_json}],
        },
    )
    assert run("disagree", spec, tmp_path) == 0
    payload = json.loads((tmp_path / "disagree.json").read_text())
    np.testing.assert_allclose(payload["per_state"], 0.0, atol=1e-12)


def test_disagree_needs_two_agents(tmp_path):
    spec = write_spec(
        tmp_path, {"problem": {"model": BINARY_JSON}, "agents": []}
    )
    assert run("disagree", spec, tmp_path) == 2


# --- closed-forms -----------------------------------------------------------


def test_closed_forms_pair_commitment(tmp_path):
    spec = write_spec(
        tmp_path,
        {"closed_form": {"name": "pair_commitment", "nu": 0.01, "tau": 3.0, "ups": 8.0}},
    )
    assert run("closed-forms", spec, tmp_path) == 0
    payload = json.loads((tmp_path / "closed_forms.json").read_text())
    check_schema(payload, "closed_forms")
    assert payload["result"]["argmin"] == "1-2"
    assert payload["result"]["losses"]["1-2"] == pytest.approx(0.515, abs=1e-12)


def test_closed_forms_symmetric(tmp_path):
    spec = write_spec(
        tmp_path, {"closed_form": {"name": "symmetric", "n": 10, "info": 2.0}}
    )
    assert run("closed-forms", spec, tmp_path) == 0
    payload = json.loads((tmp_path / "closed_forms.json").read_text())
    assert payload["result"]["u_full"] == pytest.approx(2 / 11)
    assert payload["result"]["u_ignorant"] == pytest.approx(5 / 18)
    assert payload["result"]["ignorant_better"] is True


def test_closed_forms_star_occupancy(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "closed_form": {"name": "star", "lam": 3, "delta": 5.0, "w": 0},
        },
    )
    assert run("closed-forms", spec, tmp_path) == 0
    payload = json.loads((tmp_path / "closed_forms.json").read_text())
    occ = payload["result"]["occupancy"]
    assert len(occ) == 7
    assert sum(occ) == pytest.approx(1.0, abs=1e-12)


def test_closed_forms_unknown_name(tmp_path):
    spec = write_spec(tmp_path, {"closed_form": {"name": "mystery"}})
    assert run("closed-forms", spec, tmp_path) == 2


@pytest.mark.parametrize(
    ("section", "missing"),
    [
        ({"name": "pair_commitment", "nu": 0.3}, "tau"),
        ({"name": "symmetric", "n": 6}, "info"),
        ({"name": "star", "lam": 3, "delta": 5.0}, "w"),
    ],
    ids=["pair_commitment", "symmetric", "star"],
)
def test_closed_form_missing_key_is_usage_exit(tmp_path, section, missing):
    spec = write_spec(tmp_path, {"problem": {"model": BINARY_JSON}, "closed_form": section})
    proc = subprocess.run(
        [sys.executable, "-m", "famlearn.cli", "closed-forms", "--spec", spec, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr and f"'{missing}'" in proc.stderr
    assert "Traceback" not in proc.stderr


# --- search -----------------------------------------------------------------


def test_search_enumerate(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "search": {"method": "enumerate", "m_size": 2, "reference_loss": 0.2},
        },
    )
    assert run("search", spec, tmp_path) == 0
    payload = json.loads((tmp_path / "search.json").read_text())
    check_schema(payload, "search")
    assert payload["loss"] == pytest.approx(0.2, abs=1e-12)
    assert payload["epsilon_gap"] == pytest.approx(0.0, abs=1e-12)
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,best_loss"
    assert len(trace) == 2


def test_search_budget_exceeded_is_domain_exit(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "search": {"method": "enumerate", "m_size": 2, "budget": 10},
        },
    )
    assert run("search", spec, tmp_path) == 1


def test_search_unknown_method(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "search": {"method": "gradient", "m_size": 2},
        },
    )
    assert run("search", spec, tmp_path) == 2


def test_search_anneal_reruns_byte_identical(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "seed": 7,
            "search": {"method": "anneal", "m_size": 2, "restarts": 2, "iterations": 300},
        },
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run("search", spec, out_a) == 0
    assert run("search", spec, out_b) == 0
    assert (out_a / "search.json").read_bytes() == (out_b / "search.json").read_bytes()
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


def test_search_seed_flag_overrides_spec(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "seed": 7,
            "search": {"method": "anneal", "m_size": 2, "restarts": 1, "iterations": 150},
        },
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run("search", spec, out_a) == 0
    assert run("search", spec, out_b, "--seed", "8") == 0
    a = json.loads((out_a / "search.json").read_text())
    b = json.loads((out_b / "search.json").read_text())
    assert a["mechanism"]["transition"] != b["mechanism"]["transition"]


def test_search_leaves_unset_knobs_to_the_library(tmp_path, monkeypatch):
    class Seen(Exception):
        pass

    def record(*args, **kwargs):
        raise Seen(args[1:] + tuple(kwargs.values()))

    monkeypatch.setattr(cli, "local_search", record)
    monkeypatch.setattr(cli, "enumerate_deterministic", record)
    specs = [
        ("search", {"seed": 7, "search": {"method": "anneal", "m_size": 2}}),
        ("search", {"seed": 7, "search": {"m_size": 2.0, "restarts": 3.0, "step_scale": 1}}),
        ("search", {"search": {"method": "enumerate", "m_size": 2}}),
        ("sweep", {"sweep": {"m": [1]}}),
    ]
    seen = []
    for i, (command, extra) in enumerate(specs):
        spec = write_spec(tmp_path, {"problem": {"model": BINARY_JSON}, **extra}, f"{i}.json")
        with pytest.raises(Seen) as exc:
            run(command, spec, tmp_path)
        seen.append(exc.value.args[0])
    assert seen[0] == (SearchConfig(m_size=2, seed=7),)
    assert seen[1] == (SearchConfig(m_size=2, restarts=3, step_scale=1.0, seed=7),)
    config = seen[1][0]
    assert type(config.restarts) is int and type(config.step_scale) is float
    assert seen[2:] == [(2, DEFAULT_ENUMERATION_BUDGET), (1, DEFAULT_ENUMERATION_BUDGET)]


def test_parser_is_built_once_and_gives_a_fresh_parsers_results(tmp_path):
    validate = write_spec(tmp_path, {"problem": {"model": BINARY_JSON}}, "v.json")
    search = write_spec(
        tmp_path,
        {"problem": {"model": BINARY_JSON}, "search": {"method": "enumerate", "m_size": 2}},
        "s.json",
    )
    cached = [run("validate", validate, tmp_path / "a"), run("search", search, tmp_path / "a")]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for command, spec in (("validate", validate), ("search", search)):
        cli.build_parser.cache_clear()
        fresh.append(run(command, spec, tmp_path / "b"))
    assert cached == fresh == [0, 0]
    for name in ("validate.json", "search.json", "trace.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["search"])
    assert exc.value.code == 2


# --- console script ---------------------------------------------------------


def test_console_entry_point(tmp_path):
    spec = write_spec(
        tmp_path, {"problem": {"model": BINARY_JSON}, "varsigma": 0.2}
    )
    proc = subprocess.run(
        [sys.executable, "-m", "famlearn.cli", "validate", "--spec", spec, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "validate: ok" in proc.stdout
