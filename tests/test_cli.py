"""End-to-end runs of the batch commands: exit codes, artifacts, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
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
    build_line,
    build_star,
    cli,
    pair_commitment_problem,
    rademacher_family,
    star_occupancy_closed_form,
    uniform_problem,
    utility_loss,
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


@pytest.mark.parametrize("depth", [sys.getrecursionlimit() + 10, 100_000])
def test_a_spec_nested_past_the_recursion_limit_is_usage_exit(tmp_path, capsys, depth):
    path = tmp_path / "deep.json"
    path.write_text('{"problem": {"prior": ' + "[" * depth + "]" * depth + "}}")
    assert run("validate", str(path), tmp_path) == 2
    assert "nested too deeply" in capsys.readouterr().err
    assert not (tmp_path / "validate.json").exists()


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


def star_spec(**params):
    blueprint = {"family": "star", "params": {"lam": 2, "delta": 5.0, **params}}
    return {"problem": {"model": BINARY_JSON}, "mechanism": {"blueprint": blueprint}}


@pytest.mark.parametrize("lam", [True, "3", 2.5, None])
def test_eval_refuses_a_blueprint_param_of_the_wrong_json_type(tmp_path, capsys, lam):
    assert run("eval", write_spec(tmp_path, star_spec(lam=lam)), tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mechanism.blueprint.params.lam must be a")
    assert not (tmp_path / "eval.json").exists()


@pytest.mark.parametrize("blueprint", [5, {"family": "star", "params": [2]}])
def test_eval_refuses_a_blueprint_or_params_that_is_not_an_object(tmp_path, capsys, blueprint):
    spec = {"problem": {"model": BINARY_JSON}, "mechanism": {"blueprint": blueprint}}
    assert run("eval", write_spec(tmp_path, spec), tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: mechanism.blueprint must be an object")


@pytest.mark.parametrize(
    ("key", "value"),
    [("lam", True), ("lam", "3"), ("lam", 2.5), ("lam", None), ("m_size", 9.5), ("delta", "5")],
)
def test_lam_sweep_refuses_a_blueprint_param_of_the_wrong_json_type(
    tmp_path, capsys, key, value
):
    spec = {**star_spec(**{key: value}), "sweep": {"lam": [1, 2]}}
    assert run("sweep", write_spec(tmp_path, spec), tmp_path) == 2
    assert f"error: mechanism.blueprint.params.{key} must be a" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_disagree_names_the_agent_whose_blueprint_param_is_wrong(tmp_path, capsys):
    star = star_spec()["mechanism"]
    bad = {"blueprint": {"family": "line", "params": {"m_size": "4"}}}
    spec = {"problem": {"model": BINARY_JSON}, "agents": [star, bad]}
    assert run("disagree", write_spec(tmp_path, spec), tmp_path) == 2
    assert "agents[1].blueprint.params.m_size" in capsys.readouterr().err


@pytest.mark.parametrize("family", [7, None, "mystery", ["star"]])
def test_eval_refuses_an_unknown_blueprint_family(tmp_path, capsys, family):
    spec = star_spec()
    spec["mechanism"]["blueprint"]["family"] = family
    assert run("eval", write_spec(tmp_path, spec), tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: mechanism.blueprint.family must be one of")
    assert not (tmp_path / "eval.json").exists()


def test_lam_sweep_refuses_an_unknown_blueprint_family(tmp_path, capsys):
    spec = {**star_spec(), "sweep": {"lam": [1, 2]}}
    spec["mechanism"]["blueprint"]["family"] = 7
    assert run("sweep", write_spec(tmp_path, spec), tmp_path) == 2
    assert "error: mechanism.blueprint.family must be one of" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_disagree_names_the_agent_whose_blueprint_family_is_unknown(tmp_path, capsys):
    star = star_spec()["mechanism"]
    bad = {"blueprint": {"family": 7, "params": {"m_size": 4}}}
    spec = {"problem": {"model": BINARY_JSON}, "agents": [star, bad]}
    assert run("disagree", write_spec(tmp_path, spec), tmp_path) == 2
    assert "agents[1].blueprint.family must be one of" in capsys.readouterr().err
    assert not (tmp_path / "disagree.json").exists()


def test_blueprint_reads_an_integral_float_as_an_integer(tmp_path):
    assert run("eval", write_spec(tmp_path, star_spec(lam=2)), tmp_path / "int") == 0
    assert run("eval", write_spec(tmp_path, star_spec(lam=2.0)), tmp_path / "float") == 0
    int_bytes = (tmp_path / "int" / "eval.json").read_bytes()
    assert (tmp_path / "float" / "eval.json").read_bytes() == int_bytes


def test_command_tag_mismatch(tmp_path):
    spec = write_spec(
        tmp_path, {"command": "eval", "problem": {"model": BINARY_JSON}}
    )
    assert run("validate", spec, tmp_path) == 2


STAR = star_spec()["mechanism"]
STAR_WITHOUT_LAM = {"blueprint": {"family": "star", "params": {"delta": 5.0}}}


@pytest.mark.parametrize(
    "command, sections, message",
    [
        ("sweep", {"sweep": {"m": [1, 2]}, "search": [1]}, "search must be an object, got [1]"),
        ("eval", {"problem": "model", "mechanism": STAR}, 'problem must be an object, got "model"'),
        ("disagree", {"agents": [STAR, 7]}, "agents[1] must be an object, got 7"),
        ("eval", {"mechanism": STAR_WITHOUT_LAM}, "mechanism.blueprint.params has no key 'lam'"),
        (
            "eval",
            {"problem": {"model": BINARY_JSON, "typo_prior": [0.5, 0.5]}, "mechanism": STAR},
            "problem has an unknown key 'typo_prior'",
        ),
        ("search", {"search": {"m_size": 2, "iteratons": 10}}, "search has an unknown key 'iteratons'"),
        (
            "eval",
            {"mechanism": {**STAR, "inline": {"m": 1, "transition": [[[1.0], [1.0]]], "decision": [0]}}},
            "mechanism needs exactly one of blueprint, file, inline",
        ),
        ("validate", {"closed_form": {"name": "star", "lam": 3}}, "closed_form has no key 'delta'"),
    ],
    ids=[
        "search-not-an-object",
        "problem-not-an-object",
        "agent-not-an-object",
        "star-without-lam",
        "misspelt-problem-key",
        "misspelt-search-knob",
        "blueprint-and-inline",
        "section-the-command-does-not-use",
    ],
)
def test_a_malformed_spec_is_a_usage_exit_naming_the_path(
    tmp_path, capsys, command, sections, message
):
    spec = write_spec(tmp_path, {"problem": {"model": BINARY_JSON}, **sections})
    out = tmp_path / "out"
    assert run(command, spec, out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err
    assert "Traceback" not in err
    assert not out.exists()


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


def draw_extreme_model(draw):
    """A symmetric binary model, or a Rademacher family up to 8 worlds."""
    n = draw(st.sampled_from([2, 1, 3, 8]))
    if n == 2 and draw(st.booleans()):
        p = draw(st.floats(0.5 + 1e-12, 1.0 - 1e-12))
        return SignalModel.from_rows([[p, 1.0 - p], [1.0 - p, p]])
    return rademacher_family(n)


@st.composite
def extreme_specs(draw):
    """An eval or sweep spec with depth, drift, noise or world size at an extreme."""
    model = draw_extreme_model(draw)
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


@st.composite
def extreme_command_specs(draw):
    """A search, disagree or closed-forms spec at an extreme size or value,
    with the artifact format to write."""
    model = draw_extreme_model(draw)
    problem = {"model": model.to_json()}
    kind = draw(st.sampled_from(["enumerate", "anneal", "disagree", "closed-forms"]))
    if kind == "enumerate":
        section = {
            "method": "enumerate",
            "m_size": draw(st.sampled_from([1, 2, 3, 1000])),
            "budget": draw(st.one_of(st.just(1), st.integers(1, 10_000))),
        }
        return "search", {"problem": problem, "search": section}, "json"
    if kind == "anneal":
        section = {
            "method": "anneal",
            "m_size": draw(st.one_of(st.just(50), st.integers(1, 50))),
            "restarts": 1,
            "iterations": draw(st.integers(1, 5)),
        }
        return "search", {"problem": problem, "search": section}, "json"
    delta = st.one_of(st.just(1.0 + 1e-12), st.floats(1.0 + 1e-12, 50.0))
    if kind == "disagree":
        # pair chains multiply the two agents' states; keep both small
        cap = 6 if model.alphabet_size <= 8 else 2
        agents = []
        for _ in range(2):
            family = draw(st.sampled_from(["star", "noisy_star", "line"]))
            depth = draw(st.integers(1, cap))
            if family == "line":
                params = {"m_size": depth + 1}
            else:
                params = {"lam": depth, "delta": draw(delta)}
            if family == "noisy_star":
                params["gamma"] = draw(st.floats(0.0, 1.0 - 1e-12))
            agents.append({"blueprint": {"family": family, "params": params}})
        return "disagree", {"problem": problem, "agents": agents}, "json"
    name = draw(st.sampled_from(["pair_commitment", "symmetric", "star"]))
    if name == "pair_commitment":
        keys = ("nu", "tau", "ups")
        values = [draw(st.floats(0.0, 0.34)), draw(st.floats(0.0, 50.0)), draw(st.floats(0.0, 100.0))]
    elif name == "symmetric":
        keys = ("n", "info")
        values = [draw(st.integers(3, 10**6)), draw(st.floats(1.0, 1e300))]
    else:
        keys = ("lam", "delta", "w")
        lam = draw(st.one_of(st.just(1000), st.integers(1, 1000)))
        values = [lam, draw(delta), draw(st.integers(0, model.n_states))]
    section = {"name": name, **dict(zip(keys, values))}
    spec = {"problem": problem, "closed_form": section}
    return "closed-forms", spec, draw(st.sampled_from(["json", "csv"]))


@settings(max_examples=60, deadline=None)
@given(extreme_command_specs())
def test_search_disagree_and_closed_forms_exit_cleanly_at_the_extremes(case):
    command, spec, fmt = case
    with tempfile.TemporaryDirectory() as tmp:
        path = write_spec(Path(tmp), spec)
        assert run(command, path, Path(tmp) / "out", "--format", fmt) in (0, 1, 2)


@st.composite
def extreme_validate_specs(draw):
    """A validate spec with varsigma of any JSON type or size, on a model
    that may have zero entries."""
    if draw(st.booleans()):
        model = draw_extreme_model(draw)
    else:
        n, alphabet = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        rows = []
        for _ in range(n):
            row = draw(st.lists(st.sampled_from([0.0, 0.1, 1.0]), min_size=alphabet, max_size=alphabet))
            row[draw(st.integers(0, alphabet - 1))] = 1.0  # no all-zero row
            rows.append([x / sum(row) for x in row])
        model = SignalModel.from_rows(rows)
    varsigma = draw(
        st.sampled_from([None, "abc", float("inf"), float("-inf"), float("nan"), -1, 0, 1e308])
    )
    return {"problem": {"model": model.to_json()}, "varsigma": varsigma}


@settings(max_examples=40, deadline=None)
@given(extreme_validate_specs())
def test_validate_exits_cleanly_at_the_extremes(spec):
    varsigma = spec["varsigma"]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_spec(Path(tmp), spec)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run("validate", path, Path(tmp) / "out")
    if isinstance(varsigma, str) or varsigma is None or not 0 <= varsigma < np.inf:
        assert code == 2 and "varsigma" in err.getvalue()
    else:
        assert code in (0, 1)


def test_validate_refuses_a_negative_varsigma(tmp_path, capsys):
    """Below 0 the full-support test passes vacuously, even on zero mass."""
    model = SignalModel.from_rows([[1.0, 0.0], [0.5, 0.5]]).to_json()
    spec = write_spec(tmp_path, {"problem": {"model": model}, "varsigma": -1})
    assert run("validate", spec, tmp_path) == 2
    assert "varsigma" in capsys.readouterr().err
    assert not (tmp_path / "validate.json").exists()


def test_eval_inline_mechanism_requires_model(tmp_path):
    mech_json = {
        "m": 1,
        "transition": [[[1.0], [1.0]]],
        "decision": [0],
        "initial": 0,
    }
    spec = write_spec(tmp_path, {"mechanism": {"inline": mech_json}})
    assert run("eval", spec, tmp_path) == 2


ACTION_FIVE = {
    "m": 2,
    "transition": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
    "decision": [0, 5],
    "initial": 0,
}


@pytest.mark.parametrize(
    "command, section",
    [
        ("eval", {"mechanism": {"inline": ACTION_FIVE}}),
        ("disagree", {"agents": [{"inline": ACTION_FIVE}, {"inline": ACTION_FIVE}]}),
    ],
    ids=["eval", "disagree"],
)
def test_a_decision_naming_an_action_the_problem_lacks_is_domain_exit(
    tmp_path, capsys, command, section
):
    spec = write_spec(tmp_path, {"problem": {"model": BINARY_JSON}, **section})
    out = tmp_path / "out"
    assert run(command, spec, out) == 1
    assert "action 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "problem, name",
    [
        ({"utilities": [True, 1]}, "problem.utilities[0]"),
        ({"prior": ["0.5", "0.5"]}, "problem.prior[0]"),
        ({"prior": [0.5, None]}, "problem.prior[1]"),
        ({"utilities": "ab"}, "problem.utilities"),
        ({"model": {**BINARY_JSON, "mass": [["0.8", "0.2"], [0.2, 0.8]]}}, "problem.model.mass[0][0]"),
        ({"model": {**BINARY_JSON, "mass": [[0.8, 0.2], [0.2, True]]}}, "problem.model.mass[1][1]"),
    ],
)
def test_eval_refuses_a_problem_number_of_the_wrong_json_type(tmp_path, capsys, problem, name):
    star = {"blueprint": {"family": "star", "params": {"lam": 3, "delta": 5.0}}}
    spec = write_spec(
        tmp_path, {"problem": {"model": BINARY_JSON, **problem}, "mechanism": star}
    )
    out = tmp_path / "out"
    assert run("eval", spec, out) == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be a number")
    assert not out.exists()


TWO_STATES = {
    "m": 2,
    "transition": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
    "decision": [0, 1],
    "initial": 0,
}


@pytest.mark.parametrize(
    "model, mech, source, name, kind",
    [
        ({"states": 2.7}, {}, "inline", "problem.model.states", "an integer"),
        ({"states": True}, {}, "inline", "problem.model.states", "a number"),
        ({"alphabet": "2"}, {}, "inline", "problem.model.alphabet", "a number"),
        ({}, {"initial": 1.7}, "inline", "mechanism.inline.initial", "an integer"),
        ({}, {"decision": [0.9, 1.2]}, "inline", "mechanism.inline.decision[0]", "an integer"),
        ({}, {"m": "2"}, "inline", "mechanism.inline.m", "a number"),
        ({}, {"decision": [0, None]}, "file", "mechanism file mech.json.decision[1]", "a number"),
        ({}, {"transition": [[["1.0"], [True]]]}, "inline", "mechanism.inline.transition[0][0][0]", "a number"),
    ],
)
def test_eval_refuses_a_model_or_mechanism_integer_of_the_wrong_json_type(
    tmp_path, capsys, model, mech, source, name, kind
):
    if source == "file":
        (tmp_path / "mech.json").write_text(json.dumps({**TWO_STATES, **mech}))
        section = {"file": "mech.json"}
    else:
        section = {"inline": {**TWO_STATES, **mech}}
    spec = write_spec(
        tmp_path, {"problem": {"model": {**BINARY_JSON, **model}}, "mechanism": section}
    )
    out = tmp_path / "out"
    assert run("eval", spec, out) == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be {kind}")
    assert not out.exists()


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_write_csv_refuses_non_finite_numbers_and_writes_nothing(tmp_path, value):
    path = tmp_path / "out" / "rows.csv"
    with pytest.raises(ValueError, match="non-finite"):
        cli.write_csv(path, ("iteration", "best_loss"), [(0, 0.5), (1, value)])
    assert not path.parent.exists() or not any(path.parent.iterdir())


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_write_json_refuses_non_finite_numbers_and_writes_nothing(tmp_path, value):
    path = tmp_path / "out" / "rows.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.write_json(path, {"iteration": [0, 1], "best_loss": [0.5, value]})
    assert not path.parent.exists() or not any(path.parent.iterdir())


def test_write_json_is_compact_and_round_trips_extreme_floats_bit_for_bit(tmp_path):
    values = [5e-324, -0.0, 1.7976931348623157e308]
    path = tmp_path / "values.json"
    cli.write_json(path, {"values": values, "name": "x"})
    assert path.read_text() == '{"name":"x","values":[5e-324,-0.0,1.7976931348623157e+308]}\n'
    assert [x.hex() for x in json.loads(path.read_text())["values"]] == [
        x.hex() for x in values
    ]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_get_the_mode_a_plain_open_gives(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        cli.write_json(tmp_path / "a.json", {"x": 1})
        cli.write_csv(tmp_path / "a.csv", ("x",), [(1,)])
        cli.write_json(tmp_path / "a.json", {"x": 2})
    finally:
        os.umask(previous)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.csv", "a.json"]
    for name in ("a.csv", "a.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode


INF_UTILITY = {"model": BINARY_JSON, "utilities": [1.0, float("inf")]}
NAN_MASS = {"model": {**BINARY_JSON, "mass": [[float("nan"), 0.2], [0.2, 0.8]]}}
INF_MASS = {"model": {**BINARY_JSON, "mass": [[0.8, 0.2], [float("inf"), 0.8]]}}


@pytest.mark.parametrize(
    "command, problem, field",
    [
        ("eval", INF_UTILITY, "utilities"),
        ("eval", NAN_MASS, "mass"),
        ("eval", INF_MASS, "mass"),
        ("validate", NAN_MASS, "mass"),
    ],
    ids=["eval-inf-utility", "eval-nan-mass", "eval-inf-mass", "validate-nan-mass"],
)
def test_non_finite_inputs_are_refused_by_name_and_write_nothing(
    tmp_path, capsys, command, problem, field
):
    star = {"blueprint": {"family": "star", "params": {"lam": 3, "delta": 5.0}}}
    spec = write_spec(tmp_path, {"problem": problem, "mechanism": star})
    out = tmp_path / "out"
    assert run(command, spec, out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be finite"), err
    assert not out.exists() or not any(out.iterdir())


def test_eval_refuses_an_inline_mechanism_holding_nan_by_its_row(tmp_path, capsys):
    """``json`` and the schema reader both take the ``NaN`` token, and a NaN
    row sum passes the row-sum test, so the entry itself is refused."""
    mech = {
        "m": 2,
        "transition": [[[1.0, 0.0], [0.0, 1.0]], [[float("nan"), 1.0], [0.0, 1.0]]],
        "decision": [0, 1],
        "initial": 0,
    }
    problem = {"model": BINARY_JSON}
    spec = write_spec(tmp_path, {"problem": problem, "mechanism": {"inline": mech}})
    out = tmp_path / "out"
    assert run("eval", spec, out) == 1
    assert "transition row (m=1, s=0) holds nan" in capsys.readouterr().err
    assert not (out / "eval.json").exists()


def test_eval_writes_every_occupancy_exactly(tmp_path):
    """lam = 430: the hub's mass is about 1e-316, a subnormal."""
    model = SignalModel.from_rows([[0.6, 0.4], [0.4, 0.6]])
    star = {"blueprint": {"family": "star", "params": {"lam": 430, "delta": 5.0}}}
    spec = write_spec(tmp_path, {"problem": {"model": model.to_json()}, "mechanism": star})
    assert run("eval", spec, tmp_path) == 0
    profile = famlearn.occupancy_profile(uniform_problem(model), build_star(model, 430, 5.0))
    assert 0.0 < profile.occupancy[0, 0] < 1e-300
    assert json.loads((tmp_path / "eval.json").read_text())["occupancy"] == (
        profile.occupancy.tolist()
    )


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


@pytest.mark.parametrize(
    "axis, value",
    [("m", None), ("m", "2"), ("m", 2.5), ("lam", True), ("lam", None), ("gamma", "0.1")],
)
def test_sweep_refuses_axis_values_of_the_wrong_type(tmp_path, capsys, axis, value):
    spec = {"problem": {"model": BINARY_JSON}, "sweep": {axis: [value]}}
    if axis != "m":
        params = {"lam": 1, "delta": 4.0, "gamma": 0.0}
        spec["mechanism"] = {"blueprint": {"family": "noisy_star", "params": params}}
    assert run("sweep", write_spec(tmp_path, spec), tmp_path) == 2
    assert f"sweep.{axis}[0]" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_refuses_an_axis_that_is_not_a_list(tmp_path, capsys):
    spec = write_spec(tmp_path, {"problem": {"model": BINARY_JSON}, "sweep": {"m": "12"}})
    assert run("sweep", spec, tmp_path) == 2
    assert "sweep.m must be a list" in capsys.readouterr().err


def test_sweep_reads_an_integral_float_as_an_integer(tmp_path):
    spec = write_spec(tmp_path, {"problem": {"model": BINARY_JSON}, "sweep": {"m": [2.0]}})
    assert run("sweep", spec, tmp_path) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == "2"


@pytest.mark.parametrize(
    ("blueprint", "axis"),
    [
        ({"family": "star", "params": {"lam": 2, "delta": 5.0}}, {"gamma": [0.0, 0.3]}),
        ({"family": "line", "params": {"m_size": 4}}, {"lam": [1, 2]}),
    ],
    ids=["star-gamma", "line-lam"],
)
def test_sweep_refuses_an_axis_its_family_does_not_take(tmp_path, capsys, blueprint, axis):
    """A star has no gamma and a line no lam: a sweep along one used to
    write the same row at every point."""
    spec = {"problem": {"model": BINARY_JSON}, "mechanism": {"blueprint": blueprint}}
    assert run("sweep", write_spec(tmp_path, {**spec, "sweep": axis}), tmp_path) == 2
    name = next(iter(axis))
    err = capsys.readouterr().err
    assert err.startswith(f"error: mechanism.blueprint.params has an unknown key '{name}'"), err
    assert not (tmp_path / "sweep.csv").exists()


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


def test_disagree_refuses_two_generated_models_of_different_sizes(tmp_path, capsys):
    agents = [
        {"blueprint": {"family": "symmetric_full", "params": {"n": n, "info": 3.0, "delta": 0.5}}}
        for n in (4, 6)
    ]
    assert run("disagree", write_spec(tmp_path, {"agents": agents}), tmp_path) == 2
    assert "the two agents' blueprints generate different models" in capsys.readouterr().err
    assert not (tmp_path / "disagree.json").exists()


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


CLOSED_FORM_SECTIONS = {
    "symmetric": {"name": "symmetric", "n": 10, "info": 2.0},
    "star": {"name": "star", "lam": 3, "delta": 5.0, "w": 0},
}


@pytest.mark.parametrize("value", [True, None, "3", 2.5])
@pytest.mark.parametrize(
    ("name", "key"), [("star", "lam"), ("star", "w"), ("symmetric", "n")]
)
def test_closed_forms_refuse_an_integral_key_of_the_wrong_json_type(
    tmp_path, capsys, name, key, value
):
    section = {**CLOSED_FORM_SECTIONS[name], key: value}
    spec = write_spec(tmp_path, {"problem": {"model": BINARY_JSON}, "closed_form": section})
    assert run("closed-forms", spec, tmp_path) == 2
    assert capsys.readouterr().err.startswith(f"error: closed_form.{key} must be a")
    assert not (tmp_path / "closed_forms.json").exists()


@pytest.mark.parametrize(("key", "value"), [("delta", True), ("info", "2"), ("nu", None)])
def test_closed_forms_refuse_a_real_key_of_the_wrong_json_type(tmp_path, capsys, key, value):
    section = {
        "delta": {**CLOSED_FORM_SECTIONS["star"], "delta": value},
        "info": {**CLOSED_FORM_SECTIONS["symmetric"], "info": value},
        "nu": {"name": "pair_commitment", "nu": value, "tau": 3.0, "ups": 8.0},
    }[key]
    spec = write_spec(tmp_path, {"problem": {"model": BINARY_JSON}, "closed_form": section})
    assert run("closed-forms", spec, tmp_path) == 2
    assert capsys.readouterr().err.startswith(f"error: closed_form.{key} must be a number")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(("name", "key"), [("star", "delta"), ("symmetric", "info")])
def test_closed_forms_refuse_an_infinite_parameter_by_name(tmp_path, capsys, name, key, fmt):
    """These used to compute NaN and fail only when writing it."""
    section = {**CLOSED_FORM_SECTIONS[name], key: math.inf}
    spec = write_spec(tmp_path, {"problem": {"model": BINARY_JSON}, "closed_form": section})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("closed-forms", spec, out, "--format", fmt) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} must be finite" in err, err
    assert not out.exists() or not any(out.iterdir())


def test_eval_names_an_infinite_symmetric_info_and_solves_an_infinite_star_delta(
    tmp_path, capsys
):
    symmetric = {"family": "symmetric_full", "params": {"n": 4, "info": math.inf, "delta": 0.5}}
    spec = write_spec(tmp_path, {"mechanism": {"blueprint": symmetric}})
    assert run("eval", spec, tmp_path / "symmetric") == 1
    assert "info must be finite" in capsys.readouterr().err
    star = {"family": "star", "params": {"lam": 3, "delta": math.inf}}
    payload = {"problem": {"model": BINARY_JSON}, "mechanism": {"blueprint": star}}
    assert run("eval", write_spec(tmp_path, payload), tmp_path / "star") == 0


@pytest.mark.parametrize(("name", "key"), [("star", "lam"), ("star", "w"), ("symmetric", "n")])
def test_closed_forms_read_an_integral_float_as_an_integer(tmp_path, name, key):
    section = CLOSED_FORM_SECTIONS[name]
    for label, value in [("int", section[key]), ("float", float(section[key]))]:
        payload = {"problem": {"model": BINARY_JSON}, "closed_form": {**section, key: value}}
        assert run("closed-forms", write_spec(tmp_path, payload), tmp_path / label) == 0
    int_bytes = (tmp_path / "int" / "closed_forms.json").read_bytes()
    assert (tmp_path / "float" / "closed_forms.json").read_bytes() == int_bytes


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


@pytest.mark.parametrize("reference", [math.nan, math.inf, -math.inf])
def test_search_refuses_a_reference_loss_that_is_not_finite(tmp_path, capsys, monkeypatch, reference):
    """``json`` reads NaN and Infinity, which would certify a gap of 0.  The
    reference is checked before the search runs."""
    monkeypatch.setattr(cli, "enumerate_deterministic", None)
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "search": {"method": "enumerate", "m_size": 2, "reference_loss": reference},
        },
    )
    assert run("search", spec, tmp_path) == 1
    assert "reference_loss" in capsys.readouterr().err
    assert not (tmp_path / "search.json").exists()


def test_search_budget_exceeded_is_domain_exit(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "search": {"method": "enumerate", "m_size": 2, "budget": 10},
        },
    )
    assert run("search", spec, tmp_path) == 1


@pytest.mark.parametrize("model", [SignalModel.from_json(BINARY_JSON), rademacher_family(8)])
def test_search_far_past_the_budget_is_a_prompt_domain_exit(tmp_path, capsys, model):
    """Counting stops at the budget, so a huge memory is refused at once."""
    spec = write_spec(
        tmp_path,
        {"problem": {"model": model.to_json()}, "search": {"method": "enumerate", "m_size": 1000}},
    )
    start = time.perf_counter()
    assert run("search", spec, tmp_path) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"budget of {DEFAULT_ENUMERATION_BUDGET}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("m_size", [0, -1])
@pytest.mark.parametrize("command", ["search", "sweep"])
def test_empty_memory_is_domain_exit(tmp_path, capsys, command, m_size):
    spec = write_spec(
        tmp_path,
        {
            "problem": {"model": BINARY_JSON},
            "search": {"method": "enumerate", "m_size": m_size},
            "sweep": {"m": [m_size]},
        },
    )
    assert run(command, spec, tmp_path) == 1
    assert f"error: m_size must be >= 1, got {m_size}" in capsys.readouterr().err


def test_search_enumerates_binary_memory_five(tmp_path):
    """166,152 canonical tables fit the default budget; the ladder wins."""
    spec = write_spec(
        tmp_path,
        {"problem": {"model": BINARY_JSON}, "search": {"method": "enumerate", "m_size": 5}},
    )
    assert run("search", spec, tmp_path) == 0
    loss = json.loads((tmp_path / "search.json").read_text())["loss"]
    model = SignalModel.from_json(BINARY_JSON)
    assert loss == pytest.approx(13 / 341, abs=1e-12)
    assert loss == pytest.approx(utility_loss(uniform_problem(model), build_line(model, 5)), abs=1e-12)


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
    payload = {
        "problem": {"model": BINARY_JSON},
        "seed": 7,
        "search": {"method": "anneal", "m_size": 2, "restarts": 1, "iterations": 150},
    }
    spec = write_spec(tmp_path, payload)
    reseeded = write_spec(tmp_path, {**payload, "seed": 8}, name="reseeded.json")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert run("search", spec, out_a) == 0
    assert run("search", spec, out_b, "--seed", "8") == 0
    assert run("search", reseeded, out_c) == 0
    a = json.loads((out_a / "search.json").read_text())
    b = json.loads((out_b / "search.json").read_text())
    # Both walks may round to the same optimal table; they differ on the way.
    assert a["trace"] != b["trace"]
    assert (out_b / "search.json").read_bytes() == (out_c / "search.json").read_bytes()


@pytest.mark.parametrize(
    ("key", "value"),
    [
        ("restarts", None),
        ("step_scale", None),
        ("cooling", None),
        ("seed", None),
        ("iterations", "5"),
        ("m_size", 2.5),
        ("restarts", True),
    ],
)
def test_search_knob_of_the_wrong_json_type_is_usage_exit(tmp_path, key, value):
    section = {"method": "anneal", "m_size": 2, "restarts": 1, "iterations": 5, key: value}
    spec = write_spec(tmp_path, {"problem": {"model": BINARY_JSON}, "search": section})
    proc = subprocess.run(
        [sys.executable, "-m", "famlearn.cli", "search", "--spec", spec, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and f"search.{key}" in proc.stderr
    assert "Traceback" not in proc.stderr


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
