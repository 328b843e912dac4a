"""Batch command-line front door: experiment specs in, tables out.

Each run reads one JSON experiment spec, executes one subcommand, writes
its artifacts under ``--out``, and prints a one-line summary to stdout.
There is no interactive mode and no ambient randomness: every stochastic
step is driven by an explicit seed from the spec (or ``--seed``), and
outputs are written atomically and deterministically (JSON compactly, on
one line, keys sorted), so rerunning a spec reproduces them byte for byte.

Exit codes: 0 on success, 1 when the mathematics rejects the request
(invalid models, out-of-range values, unsatisfiable drift conditions,
blown enumeration budgets), 2 for usage and I/O problems (bad flags,
missing or malformed files).

The spec, and each model or mechanism file it references, is checked
against ``schemas/experiment_spec.schema.json`` in the installed package
(output schemas sit alongside it): a wrong JSON type or a missing or
unknown key or name exits 2, naming its path, as in ``problem.prior[1]``.
Numeric bounds are the library's and exit 1, save ``varsigma``'s (finite,
at least 0) and the seeds' (at least 0), the range checks that exit 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .automata import MODEL_FAMILIES, MechanismBlueprint, UpdatingMechanism, build_from_blueprint
from .chain import Problem, _price, disagreement_probability, occupancy_profile
from .diagnostics import (
    diagnostics_report,
    pair_commitment_losses,
    star_occupancy_closed_form,
    symmetric_utilities,
)
from .errors import DomainError
from .search import (
    DEFAULT_ENUMERATION_BUDGET,
    SearchConfig,
    enumerate_deterministic,
    epsilon_gap,
    local_search,
)
from .signals import SignalModel, validate

#: Spec definitions whose nodes are checked once more, against the definition
#: ``<name>_<tag>`` that a tag picks: a blueprint's family, a closed form's name.
_PICKS = {"blueprint": "family", "closed_form": "name"}
#: JSON type -> the Python types that hold it, and its name in an error
_TYPES = {
    "object": (dict, "an object"),
    "array": (list, "a list"),
    "string": (str, "a string"),
    "number": ((int, float), "a number"),
    "integer": ((int, float), "an integer"),
}


class SpecFormatError(Exception):
    """The experiment spec (or a file it references) is unusable."""


@functools.cache
def _schema() -> dict:
    path = Path(__file__).parent / "schemas" / "experiment_spec.schema.json"
    return json.loads(path.read_text())


def _fits(value, kind: str) -> bool:
    """Is ``value`` of JSON type ``kind``?  As in JSON Schema, ``true`` is not a
    number and ``2.0`` is an integer."""
    if isinstance(value, bool) or not isinstance(value, _TYPES[kind][0]):
        return False
    return kind != "integer" or isinstance(value, int) or value.is_integer()


def _violation(value, schema: dict):
    """The first way ``value`` breaks ``schema``, or ``None`` if it fits.

    Reads the subset of JSON Schema draft-07 the spec schema uses, leaving
    numeric bounds to the library; a wrong type is named by the node's
    ``title``, if it has one.  A violation is ``(keys, message)``, with the
    path's keys and indices innermost first, so a path is built only for a
    value that fails.
    """
    if "$ref" in schema:
        name = schema["$ref"].rpartition("/")[2]
        found = _violation(value, _schema()["definitions"][name])
        if found or name not in _PICKS:
            return found
        # Params that are not an object leave the family's definition nothing
        # to check: the fault is the blueprint's.
        if name == "blueprint" and not isinstance(value["params"], dict):
            return [], "must be an object, with an object of params"
        return _violation(value, _schema()["definitions"][f"{name}_{value[_PICKS[name]]}"])
    kind = schema.get("type")
    if kind is not None and not _fits(value, kind):
        if kind == "integer" and not _fits(value, "number"):
            kind = "number"
        return [], f"must be {schema.get('title', _TYPES[kind][1])}, got {json.dumps(value)}"
    if "enum" in schema and value not in schema["enum"]:
        return [], f"must be one of {', '.join(schema['enum'])}, got {json.dumps(value)}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return [], f"has no key {key!r}"
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                found = _violation(item, properties[key])
                if found:
                    found[0].append(key)
                    return found
            elif schema.get("additionalProperties") is False:
                return [], f"has an unknown key {key!r}"
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return [], f"must have at least {schema['minItems']} entries, got {len(value)}"
        if len(value) > schema.get("maxItems", len(value)):
            return [], f"must have at most {schema['maxItems']} entries, got {len(value)}"
        items = schema.get("items", {})
        for i, item in enumerate(value):
            found = _violation(item, items)
            if found:
                found[0].append(i)
                return found
    return None


def _check(value, where: str, definition: str | None = None) -> None:
    """Refuse ``value`` unless it fits the spec schema or one of its definitions.

    The error names the offending node from ``where`` on, as in
    ``problem.prior[1]`` (the whole spec has no name of its own).
    """
    schema = _schema() if definition is None else {"$ref": f"#/definitions/{definition}"}
    found = _violation(value, schema)
    if found:
        keys, message = found
        for key in reversed(keys):
            where += f"[{key}]" if isinstance(key, int) else f".{key}" if where else key
        raise SpecFormatError(f"{where or 'experiment spec'} {message}")


def _read_json(path, what: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecFormatError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{what} {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpecFormatError(f"{what} {path} is nested too deeply to read") from exc


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------


def _same_model(a: SignalModel, b: SignalModel) -> bool:
    """Do two models have the same shape and, to 1e-12, the same masses?"""
    return a is b or (
        a.mass.shape == b.mass.shape and np.allclose(a.mass, b.mass, atol=1e-12)
    )


class ExperimentSpec:
    """Parsed experiment file plus the directory its references resolve in.

    The whole spec is checked against the schema here, so the readers below
    see JSON of the right types, with every required key.
    """

    def __init__(self, raw: dict, base_dir: Path):
        _check(raw, "")
        self.raw = raw
        self.base_dir = base_dir

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        return cls(_read_json(path, "spec file"), Path(path).parent)

    def _load_ref(self, name: str, definition: str, where: str):
        obj = _read_json(self.base_dir / name, "referenced file")
        _check(obj, where, definition)
        return obj

    def check_command(self, invoked: str) -> None:
        tag = self.raw.get("command")
        if tag is not None and tag != invoked:
            raise SpecFormatError(
                f"spec is tagged for command {tag!r} but {invoked!r} was invoked"
            )

    def seed(self, override: int | None) -> int:
        """``--seed``, else the spec's seed, else its search section's, else 0.

        Like ``varsigma``, a seed below 0 is a usage error, wherever it is given.
        """
        given = {
            "--seed": override,
            "seed": self.raw.get("seed"),
            "search.seed": self.raw.get("search", {}).get("seed"),
        }
        for where, value in given.items():
            if value is not None and value < 0:
                raise SpecFormatError(f"{where} must be at least 0, got {value}")
        return next((int(value) for value in given.values() if value is not None), 0)

    def search_budget(self) -> int:
        return int(self.raw.get("search", {}).get("budget", DEFAULT_ENUMERATION_BUDGET))

    def model_optional(self) -> SignalModel | None:
        section = self.raw.get("problem", {})
        if "model_file" in section:
            name = section["model_file"]
            return SignalModel.from_json(
                self._load_ref(name, "signal_model", f"model file {name}")
            )
        if "model" in section:
            return SignalModel.from_json(section["model"])
        return None

    def model(self) -> SignalModel:
        model = self.model_optional()
        if model is None:
            raise SpecFormatError("spec needs problem.model or problem.model_file")
        return model

    def problem_for(self, model: SignalModel) -> Problem:
        section = self.raw.get("problem", {})
        n = model.n_states
        return Problem(
            model=model,
            utilities=section.get("utilities", np.ones(n)),
            prior=section.get("prior", np.full(n, 1.0 / n)),
        )

    def problem(self) -> Problem:
        return self.problem_for(self.model())

    def mechanism_section(
        self, section: dict, model: SignalModel | None, where: str = "mechanism"
    ):
        given = [key for key in ("blueprint", "file", "inline") if key in section]
        if len(given) != 1:
            raise SpecFormatError(
                f"{where} needs exactly one of blueprint, file, inline, got {given}"
            )
        if "blueprint" in section:
            blueprint = MechanismBlueprint.from_json(section["blueprint"])
            needs_model = blueprint.family in MODEL_FAMILIES
            if needs_model and model is None:
                raise SpecFormatError(
                    f"family {blueprint.family!r} needs problem.model in the spec"
                )
            mech, built_model = build_from_blueprint(
                blueprint, model if needs_model else None
            )
            if model is not None and not _same_model(built_model, model):
                raise SpecFormatError("spec model conflicts with the blueprint-generated model")
            return mech, built_model
        if "file" in section:
            name = section["file"]
            obj = self._load_ref(name, "mechanism_json", f"{where} file {name}")
        else:
            obj = section["inline"]
        if model is None:
            raise SpecFormatError(
                "an explicit mechanism needs problem.model in the spec"
            )
        return UpdatingMechanism.from_json(obj), model

    def mechanism(self, model: SignalModel | None):
        section = self.raw.get("mechanism")
        if section is None:
            raise SpecFormatError("spec needs a mechanism section")
        return self.mechanism_section(section, model)


# ---------------------------------------------------------------------------
# deterministic artifact writing
# ---------------------------------------------------------------------------


def _atomic_write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # Mode 0666 less the umask, as open() gives; os.replace keeps the mode.
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(path: Path, obj) -> None:
    # Compact, so json.dumps takes its C encoder; floats keep their repr.
    # NaN and Infinity are not JSON: refuse them (exit 1) rather than write them.
    text = json.dumps(obj, sort_keys=True, allow_nan=False, separators=(",", ":"))
    _atomic_write(path, text + "\n")


def write_csv(path: Path, header, rows) -> None:
    rows = list(rows)
    # As in write_json: refuse NaN and inf (exit 1) rather than write them.
    bad = [x for row in rows for x in row if isinstance(x, float) and not np.isfinite(x)]
    if bad:
        raise ValueError(f"cannot write the non-finite value {bad[0]!r} to {path.name}")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buffer.getvalue())


def _fmt(x: float) -> str:
    return format(float(x), ".6f")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(spec: ExperimentSpec, out: Path, seed: int, fmt: str) -> int:
    model = spec.model()
    varsigma = float(spec.raw.get("varsigma", 0.0))
    if not 0.0 <= varsigma < np.inf:
        raise SpecFormatError(f"varsigma must be finite and at least 0, got {varsigma!r}")
    report = validate(model, varsigma)
    write_json(out / "validate.json", report.to_json())
    status = "ok" if report.ok else "FAIL"
    print(
        f"validate: {status} min_ratio={_fmt(report.min_ratio)} "
        f"varsigma={_fmt(varsigma)} -> {out / 'validate.json'}"
    )
    return 0 if report.ok else 1


def cmd_eval(spec: ExperimentSpec, out: Path, seed: int, fmt: str) -> int:
    mech, model = spec.mechanism(spec.model_optional())
    problem = spec.problem_for(model)
    profile = occupancy_profile(problem, mech)
    utility, loss, _ = _price(problem.stakes, profile.occupancy, mech.decision)
    report = diagnostics_report(problem, mech, profile)
    write_json(
        out / "eval.json",
        {
            "utility": float(utility),
            "loss": float(loss),
            "occupancy": profile.to_json()["occupancy"],
            "diagnostics": report.to_json(),
        },
    )
    print(f"eval: U={_fmt(utility)} L={_fmt(loss)} -> {out / 'eval.json'}")
    return 0


def _sweep_axis(spec: ExperimentSpec):
    section = spec.raw.get("sweep")
    if section is None:
        raise SpecFormatError("sweep command needs a sweep section")
    axes = [k for k in ("lam", "gamma", "m") if section.get(k)]
    if len(axes) != 1:
        raise SpecFormatError(
            f"sweep needs exactly one non-empty axis of lam/gamma/m, got {axes}"
        )
    axis = axes[0]
    values = section[axis]
    # A gamma is written back as the spec gave it: 0 stays "0"; 2.0 is m = 2.
    return axis, values if axis == "gamma" else [int(v) for v in values]


def cmd_sweep(spec: ExperimentSpec, out: Path, seed: int, fmt: str) -> int:
    axis, values = _sweep_axis(spec)
    points = []
    if axis == "m":
        problem = spec.problem()
        budget = spec.search_budget()
        for m in values:
            points.append((m, enumerate_deterministic(problem, m, budget=budget).mechanism))
    else:
        section = spec.raw.get("mechanism", {})
        if "blueprint" not in section:
            raise SpecFormatError(f"a {axis} sweep needs a mechanism blueprint")
        base = section["blueprint"]
        model = spec.model()
        problem = spec.problem()
        for value in values:
            # The family must take the swept axis, as the spec schema says.
            blueprint = {**base, "params": {**base["params"], axis: value}}
            _check(blueprint, "mechanism.blueprint", "blueprint")
            mech, _ = spec.mechanism_section({"blueprint": blueprint}, model)
            points.append((value, mech))
    rows = []
    for value, mech in points:
        profile = occupancy_profile(problem, mech)
        utility, loss, _ = _price(problem.stakes, profile.occupancy, mech.decision)
        rows.append((value, float(loss), float(utility)))
    if fmt == "json":
        path = out / "sweep.json"
        table = [{axis: v, "loss": loss, "utility": u} for v, loss, u in rows]
        write_json(path, {"axis": axis, "rows": table})
    else:
        path = out / "sweep.csv"
        write_csv(path, (axis, "loss", "utility"), rows)
    print(f"sweep: axis={axis} points={len(rows)} -> {path}")
    return 0


def cmd_disagree(spec: ExperimentSpec, out: Path, seed: int, fmt: str) -> int:
    agents = spec.raw.get("agents")
    if agents is None:
        raise SpecFormatError("disagree needs an agents list with exactly 2 entries")
    model = spec.model_optional()
    mech_a, model_a = spec.mechanism_section(agents[0], model, "agents[0]")
    mech_b, model_b = spec.mechanism_section(agents[1], model, "agents[1]")
    if model is None:
        if not _same_model(model_a, model_b):
            raise SpecFormatError("the two agents' blueprints generate different models")
        model = model_a
    problem = spec.problem_for(model)
    per_state = disagreement_probability(problem, mech_a, mech_b)
    overall = float(problem.prior @ per_state)
    write_json(out / "disagree.json", {"per_state": per_state.tolist(), "overall": overall})
    print(f"disagree: overall={_fmt(overall)} -> {out / 'disagree.json'}")
    return 0


def cmd_closed_forms(spec: ExperimentSpec, out: Path, seed: int, fmt: str) -> int:
    section = spec.raw.get("closed_form")
    if section is None:
        raise SpecFormatError("closed-forms needs a closed_form section with a name")
    name = section["name"]
    if name == "pair_commitment":
        result = pair_commitment_losses(
            float(section["nu"]), float(section["tau"]), float(section["ups"])
        )
        payload = result.to_json()
        csv_rows = sorted(payload["losses"].items())
        header = ("pattern", "loss")
        summary = f"argmin={payload['argmin']}"
    elif name == "symmetric":
        n, info = int(section["n"]), float(section["info"])
        u_full, u_ignorant, better = symmetric_utilities(n, info)
        payload = {
            "n": n,
            "info": info,
            "u_full": u_full,
            "u_ignorant": u_ignorant,
            "ignorant_better": better,
        }
        csv_rows = [
            ("u_full", u_full),
            ("u_ignorant", u_ignorant),
            ("ignorant_better", int(better)),
        ]
        header = ("quantity", "value")
        summary = f"ignorant_better={better}"
    else:
        w = int(section["w"])
        occ = star_occupancy_closed_form(
            spec.model(), None, int(section["lam"]), float(section["delta"]), w
        )
        payload = {"w": w, "occupancy": occ.tolist()}
        csv_rows = list(enumerate(payload["occupancy"]))
        header = ("memory_state", "mass")
        summary = f"states={occ.size}"
    if fmt == "csv":
        path = out / "closed_forms.csv"
        write_csv(path, header, csv_rows)
    else:
        path = out / "closed_forms.json"
        write_json(path, {"name": name, "result": payload})
    print(f"closed-forms: {name} {summary} -> {path}")
    return 0


def cmd_search(spec: ExperimentSpec, out: Path, seed: int, fmt: str) -> int:
    section = spec.raw.get("search")
    if section is None:
        raise SpecFormatError("search needs a search section with m_size")
    m_size = int(section["m_size"])
    reference = float(section.get("reference_loss", 0.0))
    if not np.isfinite(reference):
        raise ValueError(f"reference_loss must be finite, got {reference!r}")
    problem = spec.problem()
    method = section.get("method", "anneal")
    if method == "enumerate":
        result = enumerate_deterministic(problem, m_size, budget=spec.search_budget())
    else:
        # Knobs the spec sets take the type of their default; the rest keep it.
        knobs = {
            f.name: type(f.default)(section[f.name])
            for f in fields(SearchConfig)
            if f.name in section and f.name not in ("m_size", "seed")
        }
        result = local_search(problem, SearchConfig(m_size=m_size, seed=seed, **knobs))
    if "reference_loss" in section:
        gap = epsilon_gap(result, reference)
        result = replace(result, epsilon_gap=gap)
    write_json(out / "search.json", result.to_json())
    write_csv(
        out / "trace.csv",
        ("iteration", "best_loss"),
        [(int(i), float(x)) for i, x in result.trace],
    )
    print(f"search: method={method} loss={_fmt(result.loss)} -> {out / 'search.json'}")
    return 0


HANDLERS = {
    "validate": cmd_validate,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "disagree": cmd_disagree,
    "closed-forms": cmd_closed_forms,
    "search": cmd_search,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="famlearn",
        description="Evaluate, sweep, and search bounded-memory updating mechanisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        cmd = sub.add_parser(name, help=f"run the {name} command")
        cmd.add_argument("--spec", required=True, help="experiment spec JSON file")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument(
            "--seed", type=int, default=None, help="override the spec's seed"
        )
        cmd.add_argument(
            "--format",
            choices=("json", "csv"),
            default=None,
            help="tabular output format (default depends on the command)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fmt = args.format or ("csv" if args.command == "sweep" else "json")
    try:
        spec = ExperimentSpec.load(args.spec)
        spec.check_command(args.command)
        seed = spec.seed(args.seed)
        return HANDLERS[args.command](spec, Path(args.out), seed, fmt)
    except (SpecFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
