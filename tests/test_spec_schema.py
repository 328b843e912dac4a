"""The shipped schemas, and the CLI's spec reader against jsonschema's draft-07 validator."""

import copy
import json
from dataclasses import fields
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from famlearn import SearchConfig, cli
from famlearn.automata import BLUEPRINT_FAMILIES

SCHEMAS = {
    name: json.loads((resources.files("famlearn") / "schemas" / f"{name}.schema.json").read_text())
    for name in ("experiment_spec", "output")
}
SPEC_SCHEMA = SCHEMAS["experiment_spec"]
#: Keywords the reader leaves to the library's constructors.
BOUNDS = {"minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum", "multipleOf"}

MODEL = {"states": 2, "alphabet": 2, "mass": [[0.8, 0.2], [0.2, 0.8]]}
INLINE = {
    "m": 2,
    "transition": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
    "decision": [0, 1],
    "initial": 0,
}
PARAMS = {
    "line": {"m_size": 4},
    "star": {"lam": 2, "delta": 5.0, "m_size": 7},
    "noisy_star": {"lam": 2, "delta": 5, "gamma": 0.25},
    "symmetric_full": {"n": 4, "info": 2.0, "delta": 0.5},
    "symmetric_ignorant": {"n": 4.0, "info": 2.0, "delta": 0.5},
}
CLOSED_FORMS = {
    "pair_commitment": {"name": "pair_commitment", "nu": 0.01, "tau": 3.0, "ups": 8.0},
    "symmetric": {"name": "symmetric", "n": 10, "info": 2.0},
    "star": {"name": "star", "lam": 3, "delta": 5.0, "w": 0},
}
#: Values of every JSON type, put in place of a node of a valid document.
ODD_VALUES = [None, True, 0, 2.0, 2.5, "x", "star", [], [1], [[0.5]], {}, {"x": 1}]


def blueprint(family):
    return {"family": family, "params": dict(PARAMS[family])}


def full_spec(family, name):
    """A spec that sets every key the schema knows."""
    return {
        "command": "eval",
        "seed": 3,
        "varsigma": 0.1,
        "problem": {
            "model": MODEL,
            "model_file": "model.json",
            "utilities": [1, 2.0],
            "prior": [0.5, 0.5],
        },
        "mechanism": {"blueprint": blueprint(family)},
        "agents": [{"inline": INLINE}, {"file": "mech.json"}],
        "sweep": {"lam": [1, 2], "gamma": [0, 0.5], "m": [2.0]},
        "closed_form": dict(CLOSED_FORMS[name]),
        "search": {
            "method": "anneal",
            "m_size": 2,
            "budget": 10,
            "restarts": 2,
            "iterations": 5,
            "step_scale": 50,
            "initial_temperature": 0.1,
            "cooling": 0.9,
            "seed": 1,
            "reference_loss": 0.2,
        },
    }


def oracle_schema():
    """The spec schema with its bounds stripped and each pick written as
    draft-07 ``if``/``then``, which the reader does not read."""

    def strip(node):
        if isinstance(node, dict):
            return {key: strip(value) for key, value in node.items() if key not in BOUNDS}
        if isinstance(node, list):
            return [strip(value) for value in node]
        return node

    schema = strip(SPEC_SCHEMA)
    for name, tag in cli._PICKS.items():
        definition = schema["definitions"][name]
        definition["allOf"] = [
            {
                "if": {"properties": {tag: {"const": value}}},
                "then": {"$ref": f"#/definitions/{name}_{value}"},
            }
            for value in definition["properties"][tag]["enum"]
        ]
    return schema


ORACLE = oracle_schema()


def oracle_accepts(doc, definition=None):
    schema = ORACLE
    if definition is not None:
        schema = {"$ref": f"#/definitions/{definition}", "definitions": ORACLE["definitions"]}
    return jsonschema.Draft7Validator(schema).is_valid(doc)


def reader_accepts(doc, definition=None):
    try:
        cli._check(doc, "", definition)
    except cli.SpecFormatError:
        return False
    return True


@st.composite
def mutations(draw, doc):
    """``doc`` with up to three nodes retyped, keys dropped or added, lists
    grown, or strings set to a value no enum holds.  Each node is reached by a
    walk down from the top that may stop at any level, so shallow nodes are
    picked about as often as deep ones."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        parent = doc
        while isinstance(parent, (dict, list)) and parent:
            key = draw(st.sampled_from(list(parent) if isinstance(parent, dict) else range(len(parent))))
            if not isinstance(parent[key], (dict, list)) or not parent[key] or draw(st.booleans()):
                break
            parent = parent[key]
        else:
            break
        node = parent[key]
        how = draw(st.sampled_from(["retype", "drop", "add", "grow", "misname"]))
        if how == "retype":
            parent[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif how == "drop":
            del parent[key]
        elif how == "add":
            target = node if isinstance(node, dict) else parent
            if isinstance(target, dict):
                target["typo"] = 1
        elif how == "grow" and isinstance(node, list):
            node.append(copy.deepcopy(node[-1]) if node else 1)
        elif how == "misname" and isinstance(node, str):
            parent[key] = "mystery"
    return doc


def test_shipped_schemas_are_valid_draft7():
    for schema in SCHEMAS.values():
        jsonschema.Draft7Validator.check_schema(schema)


def test_spec_schema_names_what_the_library_takes():
    definitions = SPEC_SCHEMA["definitions"]
    assert definitions["blueprint"]["properties"]["family"]["enum"] == list(BLUEPRINT_FAMILIES)
    for family in BLUEPRINT_FAMILIES:
        assert f"blueprint_{family}" in definitions
    for name in definitions["closed_form"]["properties"]["name"]["enum"]:
        assert f"closed_form_{name}" in definitions
    # The CLI hands each search knob over as the type it is declared with.
    search = SPEC_SCHEMA["properties"]["search"]["properties"]
    for f in fields(SearchConfig):
        declared = f.type if isinstance(f.type, str) else f.type.__name__
        assert search[f.name]["type"] == {"int": "integer", "float": "number"}[declared]


@pytest.mark.parametrize("family", BLUEPRINT_FAMILIES)
@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_a_full_spec_fits_both_readers(family, name):
    spec = full_spec(family, name)
    assert reader_accepts(spec) and oracle_accepts(spec)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_reader_accepts_exactly_what_draft7_accepts_on_mutated_specs(data):
    family = data.draw(st.sampled_from(BLUEPRINT_FAMILIES))
    spec = full_spec(family, data.draw(st.sampled_from(sorted(CLOSED_FORMS))))
    doc = data.draw(mutations(spec))
    assert reader_accepts(doc) == oracle_accepts(doc), json.dumps(doc)


DEFINITION_DOCS = [
    ("signal_model", MODEL),
    ("mechanism_json", INLINE),
    ("mechanism_ref", {"inline": INLINE}),
    ("mechanism_ref", {"file": "mech.json"}),
    ("mechanism_ref", {"blueprint": blueprint("star")}),
    *[("blueprint", blueprint(family)) for family in BLUEPRINT_FAMILIES],
    *[("closed_form", section) for section in CLOSED_FORMS.values()],
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_reader_accepts_exactly_what_draft7_accepts_on_each_definition(data):
    definition, valid = data.draw(st.sampled_from(DEFINITION_DOCS))
    assert reader_accepts(valid, definition) and oracle_accepts(valid, definition)
    doc = data.draw(mutations(valid))
    assert reader_accepts(doc, definition) == oracle_accepts(doc, definition), json.dumps(doc)


@pytest.mark.parametrize("doc", [[1], "spec", 3, None])
def test_a_spec_that_is_not_an_object_is_refused_by_both(doc):
    assert not reader_accepts(doc) and not oracle_accepts(doc)
    with pytest.raises(cli.SpecFormatError, match="^experiment spec must be an object"):
        cli._check(doc, "")


#: The keywords of a bound the library enforces, and which way is inside.
RANGE_BOUNDS = {"minimum": 1, "exclusiveMinimum": 1, "maximum": -1, "exclusiveMaximum": -1}


def schema_bounds(node=SPEC_SCHEMA, where=""):
    """Every range bound in the spec schema as ``(where, keyword, bound, type)``;
    ``where`` names the node as an error would, with ``[]`` for any item."""
    for keyword in RANGE_BOUNDS:
        if keyword in node:
            yield where, keyword, node[keyword], node["type"]
    for name, child in node.get("properties", {}).items():
        yield from schema_bounds(child, f"{where}.{name}" if where else name)
    if "items" in node:
        yield from schema_bounds(node["items"], f"{where}[]")
    for name, child in node.get("definitions", {}).items():
        yield from schema_bounds(child, name)


def edge_and_outside(keyword, bound, kind):
    """The value nearest ``bound`` that passes it, and the nearest that does not."""
    inward = RANGE_BOUNDS[keyword]
    if kind == "integer":
        step = (inward, 0) if keyword.startswith("exclusive") else (0, -inward)
        return bound + step[0], bound + step[1]
    edge = float(np.nextafter(bound, inward * np.inf))
    outside = float(np.nextafter(bound, -inward * np.inf))
    return (edge, bound) if keyword.startswith("exclusive") else (bound, outside)


#: An uninformative-looking model whose rows differ by 2e-9: a star on it
#: meets the drift condition at any delta above 1.
FLAT = {"states": 2, "alphabet": 2, "mass": [[0.5 + 1e-9, 0.5 - 1e-9], [0.5 - 1e-9, 0.5 + 1e-9]]}
ONE_STATE = {"inline": {"m": 1, "transition": [[[1.0], [1.0]]], "decision": [0]}}


def star(family, **params):
    return {"blueprint": {"family": family, "params": params}}


def eval_spec(mechanism, model=MODEL, **problem):
    return {"command": "eval", "problem": {"model": model, **problem}, "mechanism": mechanism}


def sweep_spec(axis, value, family=None, **params):
    spec = {"command": "sweep", "problem": {"model": MODEL}, "sweep": {axis: [value]}}
    return dict(spec, mechanism=star(family, **params)) if family else spec


def search_spec(**knobs):
    search = {"m_size": 1, "restarts": 1, "iterations": 1, **knobs}
    return {"command": "search", "problem": {"model": MODEL}, "search": search}


def closed_spec(name, model=MODEL, **params):
    closed_form = {"name": name, **params}
    return {"command": "closed-forms", "problem": {"model": model}, "closed_form": closed_form}


def symmetric_spec(family, name, value):
    params = dict({"n": 4, "info": 2.0, "delta": 0.5}, **{name: value})
    return {"command": "eval", "mechanism": star(family, **params)}


def transition(v):
    return dict(INLINE, transition=[[[1.0 - v, v], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])


LINE = star("line", m_size=2)
#: For each bounded node, a minimal spec putting a value there, tagged
#: with a command that reads it.
BOUNDED = {
    "seed": lambda v: dict(search_spec(), seed=v),
    "varsigma": lambda v: {"command": "validate", "problem": {"model": MODEL}, "varsigma": v},
    "problem.utilities[]": lambda v: eval_spec(LINE, utilities=[v, 1.0]),
    "problem.prior[]": lambda v: eval_spec(LINE, prior=[v, 1.0]),
    "sweep.lam[]": lambda v: sweep_spec("lam", v, "star", lam=1, delta=5.0),
    "sweep.gamma[]": lambda v: sweep_spec("gamma", v, "noisy_star", lam=1, delta=5.0, gamma=0.0),
    "sweep.m[]": lambda v: sweep_spec("m", v),
    "search.m_size": lambda v: search_spec(m_size=v),
    "search.budget": lambda v: search_spec(method="enumerate", budget=v),
    "search.restarts": lambda v: search_spec(restarts=v),
    "search.iterations": lambda v: search_spec(iterations=v),
    "search.step_scale": lambda v: search_spec(step_scale=v),
    "search.initial_temperature": lambda v: search_spec(initial_temperature=v),
    "search.cooling": lambda v: search_spec(cooling=v),
    "search.seed": lambda v: search_spec(seed=v),
    "signal_model.states": lambda v: eval_spec(
        ONE_STATE, {"states": v, "alphabet": 2, "mass": [[0.5, 0.5]] * v}
    ),
    "signal_model.alphabet": lambda v: eval_spec(
        ONE_STATE, {"states": 1, "alphabet": v, "mass": [[1.0] + [0.0] * (v - 1)]}
    ),
    "signal_model.mass[][]": lambda v: eval_spec(
        LINE, {"states": 2, "alphabet": 3, "mass": [[0.8, 0.2, v], [0.2, 0.7, 0.1]]}
    ),
    "mechanism_json.m": lambda v: eval_spec(
        {"inline": {"m": v, "transition": [[[1.0], [1.0]]] * v, "decision": [0] * v}}
    ),
    "mechanism_json.transition[][][]": lambda v: eval_spec({"inline": transition(v)}),
    "mechanism_json.decision[]": lambda v: eval_spec({"inline": dict(INLINE, decision=[v, 1])}),
    "mechanism_json.initial": lambda v: eval_spec({"inline": dict(INLINE, initial=v)}),
    "blueprint_line.params.m_size": lambda v: eval_spec(star("line", m_size=v)),
    "blueprint_star.params.lam": lambda v: eval_spec(star("star", lam=v, delta=5.0)),
    "blueprint_star.params.delta": lambda v: eval_spec(star("star", lam=1, delta=v), FLAT),
    "blueprint_star.params.m_size": lambda v: eval_spec(star("star", lam=1, delta=5.0, m_size=v)),
    "blueprint_noisy_star.params.lam": lambda v: eval_spec(
        star("noisy_star", lam=v, delta=5.0, gamma=0.1)
    ),
    "blueprint_noisy_star.params.delta": lambda v: eval_spec(
        star("noisy_star", lam=1, delta=v, gamma=0.1), FLAT
    ),
    "blueprint_noisy_star.params.gamma": lambda v: eval_spec(
        star("noisy_star", lam=1, delta=5.0, gamma=v)
    ),
    "blueprint_noisy_star.params.m_size": lambda v: eval_spec(
        star("noisy_star", lam=1, delta=5.0, gamma=0.1, m_size=v)
    ),
    **{
        f"blueprint_{family}.params.{name}": (
            lambda v, family=family, name=name: symmetric_spec(family, name, v)
        )
        for family in ("symmetric_full", "symmetric_ignorant")
        for name in ("n", "info", "delta")
    },
    # Near nu = 1/3 the prior is so skewed that tau must pass 1.8e16.
    "closed_form_pair_commitment.nu": lambda v: closed_spec(
        "pair_commitment", nu=v, tau=2e16, ups=4e16
    ),
    "closed_form_pair_commitment.tau": lambda v: closed_spec(
        "pair_commitment", nu=0.0, tau=v, ups=8.0
    ),
    "closed_form_symmetric.n": lambda v: closed_spec("symmetric", n=v, info=2.0),
    "closed_form_symmetric.info": lambda v: closed_spec("symmetric", n=4, info=v),
    "closed_form_star.lam": lambda v: closed_spec("star", lam=v, delta=5.0, w=0),
    "closed_form_star.delta": lambda v: closed_spec("star", FLAT, lam=1, delta=v, w=0),
    "closed_form_star.w": lambda v: closed_spec("star", lam=1, delta=5.0, w=v),
}
#: Bounds whose outside value is a usage error, not a domain error.
USAGE_BOUNDS = {"seed", "search.seed", "varsigma"}


def test_every_schema_bound_has_a_spec_that_reads_it():
    assert {where for where, *_ in schema_bounds()} == set(BOUNDED)


@pytest.mark.parametrize(
    "where, keyword, bound, kind",
    [pytest.param(*b, id=f"{b[0]}-{b[1]}") for b in schema_bounds()],
)
def test_a_schema_bound_is_the_library_bound(tmp_path, capsys, where, keyword, bound, kind):
    """The value at a bound's edge runs, exit 0; its nearest neighbour
    outside is refused, exit 1, or 2 for a seed or varsigma."""
    codes = (0, 2 if where in USAGE_BOUNDS else 1)
    for value, code in zip(edge_and_outside(keyword, bound, kind), codes):
        spec = BOUNDED[where](value)
        path = tmp_path / f"{value!r}.json"
        path.write_text(json.dumps(spec))
        argv = [spec["command"], "--spec", str(path), "--out", str(tmp_path)]
        assert cli.main(argv) == code, (value, capsys.readouterr().err)
