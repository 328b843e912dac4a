"""Batch command-line front door: experiment specs in, tables out.

Each run reads one JSON experiment spec, executes one subcommand, writes
its artifacts under ``--out``, and prints a one-line summary to stdout.
There is no interactive mode and no ambient randomness: every stochastic
step is driven by an explicit seed from the spec (or ``--seed``), and
outputs are written atomically and deterministically (JSON compactly, on
one line, keys sorted), so rerunning a spec reproduces them byte for byte.

Exit codes: 0 on success, 1 when the mathematics rejects the request
(domain errors such as invalid models, unsatisfiable drift conditions,
or blown enumeration budgets), 2 for usage and I/O problems (bad flags,
missing or malformed files, unknown names).

The spec format is documented in ``schemas/experiment_spec.schema.json``
inside the installed package; output schemas sit alongside it.
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

from .automata import (
    BLUEPRINT_FAMILIES,
    MechanismBlueprint,
    UpdatingMechanism,
    build_from_blueprint,
)
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

COMMANDS = ("validate", "eval", "sweep", "disagree", "closed-forms", "search")
#: The parameters each closed form reads from the spec's closed_form section.
CLOSED_FORM_KEYS = {
    "pair_commitment": ("nu", "tau", "ups"),
    "symmetric": ("n", "info"),
    "star": ("lam", "delta", "w"),
}
#: Blueprint parameters that take only integral values.
INTEGRAL_PARAMS = ("lam", "m_size", "n")


class SpecFormatError(Exception):
    """The experiment spec (or a file it references) is unusable."""


def _parse(kind, obj: dict, where: str):
    """``kind.from_json(obj)``, with a missing key reported as a spec error."""
    try:
        return kind.from_json(obj)
    except KeyError as exc:
        raise SpecFormatError(f"{where} has no key {exc.args[0]!r}") from None


def _number(value, name: str, integral: bool = False):
    """A number from the spec, refusing any other JSON type instead of coercing it.

    ``true`` is not a number, and an integral knob takes only integral
    values (``2.0`` is read as 2).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecFormatError(f"{name} must be a number, got {json.dumps(value)}")
    if not integral:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise SpecFormatError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _numbers(value, name: str, integral: bool = False):
    """A list, or a list of lists, of numbers from the spec, each read by :func:`_number`."""
    if isinstance(value, list):
        return [_numbers(v, f"{name}[{i}]", integral) for i, v in enumerate(value)]
    return _number(value, name, integral)


def _fields(obj, where: str, integral, real=()):
    """``obj`` with its keys in ``integral`` and ``real`` read by :func:`_numbers`."""
    if not isinstance(obj, dict):
        return obj
    keys = [key for key in (*integral, *real) if key in obj]
    return {**obj, **{key: _numbers(obj[key], f"{where}.{key}", key in integral) for key in keys}}


def _blueprint(obj: dict, where: str) -> MechanismBlueprint:
    """A blueprint from the spec: a known family, each parameter checked by :func:`_number`."""
    if not isinstance(obj, dict) or not isinstance(obj.get("params", {}), dict):
        raise SpecFormatError(f"{where} must be an object, with an object of params")
    family = obj.get("family")
    if not isinstance(family, str) or family not in BLUEPRINT_FAMILIES:
        raise SpecFormatError(
            f"{where}.family must be one of {', '.join(BLUEPRINT_FAMILIES)}, "
            f"got {json.dumps(family)}"
        )
    blueprint = _parse(MechanismBlueprint, obj, "blueprint")
    params = {
        key: _number(value, f"{where}.params.{key}", integral=key in INTEGRAL_PARAMS)
        for key, value in blueprint.params.items()
    }
    return MechanismBlueprint(family=blueprint.family, params=params)


def _read_json(path, what: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecFormatError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{what} {path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------


class ExperimentSpec:
    """Parsed experiment file plus the directory its references resolve in."""

    def __init__(self, raw: dict, base_dir: Path):
        if not isinstance(raw, dict):
            raise SpecFormatError("experiment spec must be a JSON object")
        self.raw = raw
        self.base_dir = base_dir

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        return cls(_read_json(path, "spec file"), Path(path).parent)

    def _load_ref(self, name: str) -> dict:
        return _read_json(self.base_dir / name, "referenced file")

    def check_command(self, invoked: str) -> None:
        tag = self.raw.get("command")
        if tag is not None and tag != invoked:
            raise SpecFormatError(
                f"spec is tagged for command {tag!r} but {invoked!r} was invoked"
            )

    def seed(self, override: int | None) -> int:
        if override is not None:
            return override
        if "seed" in self.raw:
            return _number(self.raw["seed"], "seed", integral=True)
        section = self.raw.get("search", {})
        return _number(section.get("seed", 0), "search.seed", integral=True)

    def search_budget(self) -> int:
        budget = self.raw.get("search", {}).get("budget", DEFAULT_ENUMERATION_BUDGET)
        return _number(budget, "search.budget", integral=True)

    def model_optional(self) -> SignalModel | None:
        section = self.raw.get("problem", self.raw)
        if "model_file" in section:
            name = section["model_file"]
            obj, where = self._load_ref(name), f"model file {name}"
        elif "model" in section:
            obj, where = section["model"], "problem.model"
        else:
            return None
        obj = _fields(obj, where, ("states", "alphabet"), ("mass",))
        return _parse(SignalModel, obj, where)

    def model(self) -> SignalModel:
        model = self.model_optional()
        if model is None:
            raise SpecFormatError("spec needs problem.model or problem.model_file")
        return model

    def problem_for(self, model: SignalModel) -> Problem:
        section = self.raw.get("problem", {})
        utilities = section.get("utilities")
        prior = section.get("prior")
        return Problem(
            model=model,
            utilities=np.ones(model.n_states)
            if utilities is None
            else _numbers(utilities, "problem.utilities"),
            prior=np.full(model.n_states, 1.0 / model.n_states)
            if prior is None
            else _numbers(prior, "problem.prior"),
        )

    def problem(self) -> Problem:
        return self.problem_for(self.model())

    def mechanism_section(
        self, section: dict, model: SignalModel | None, where: str = "mechanism"
    ):
        if "blueprint" in section:
            blueprint = _blueprint(section["blueprint"], f"{where}.blueprint")
            needs_model = blueprint.family in ("line", "star", "noisy_star")
            if needs_model and model is None:
                raise SpecFormatError(
                    f"family {blueprint.family!r} needs problem.model in the spec"
                )
            mech, built_model = build_from_blueprint(
                blueprint, model if needs_model else None
            )
            if model is not None and built_model is not model:
                if built_model.mass.shape != model.mass.shape or not np.allclose(
                    built_model.mass, model.mass, atol=1e-12
                ):
                    raise SpecFormatError(
                        "spec model conflicts with the blueprint-generated model"
                    )
            return mech, built_model
        if "file" in section:
            name = section["file"]
            obj, where = self._load_ref(name), f"{where} file {name}"
        elif "inline" in section:
            obj, where = section["inline"], f"{where}.inline"
        else:
            raise SpecFormatError(
                "mechanism section needs one of: blueprint, file, inline"
            )
        obj = _fields(obj, where, ("m", "initial", "decision"), ("transition",))
        mech = _parse(UpdatingMechanism, obj, where)
        if model is None:
            raise SpecFormatError(
                "an explicit mechanism needs problem.model in the spec"
            )
        return mech, model

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
    varsigma = _number(spec.raw.get("varsigma", 0.0), "varsigma")
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
    if not isinstance(section, dict):
        raise SpecFormatError("sweep command needs a sweep section")
    axes = [k for k in ("lam", "gamma", "m") if section.get(k)]
    if len(axes) != 1:
        raise SpecFormatError(
            f"sweep needs exactly one non-empty axis of lam/gamma/m, got {axes}"
        )
    axis = axes[0]
    values = section[axis]
    if not isinstance(values, list):
        raise SpecFormatError(f"sweep.{axis} must be a list, got {json.dumps(values)}")
    numbers = [
        _number(v, f"sweep.{axis}[{i}]", integral=axis != "gamma")
        for i, v in enumerate(values)
    ]
    # A valid gamma is written back as the spec gave it: 0 stays "0".
    return axis, values if axis == "gamma" else numbers


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
        base = _blueprint(section["blueprint"], "mechanism.blueprint")
        model = spec.model()
        problem = spec.problem()
        for value in values:
            params = dict(base.params)
            params[axis] = value
            blueprint = MechanismBlueprint(family=base.family, params=params)
            mech, _ = spec.mechanism_section({"blueprint": blueprint.to_json()}, model)
            points.append((value, mech))
    rows = []
    for value, mech in points:
        profile = occupancy_profile(problem, mech)
        utility, loss, _ = _price(problem.stakes, profile.occupancy, mech.decision)
        rows.append((value, float(loss), float(utility)))
    if fmt == "json":
        path = out / "sweep.json"
        write_json(
            path,
            {
                "axis": axis,
                "rows": [
                    {axis: v, "loss": loss, "utility": u} for v, loss, u in rows
                ],
            },
        )
    else:
        path = out / "sweep.csv"
        write_csv(path, (axis, "loss", "utility"), rows)
    print(f"sweep: axis={axis} points={len(rows)} -> {path}")
    return 0


def cmd_disagree(spec: ExperimentSpec, out: Path, seed: int, fmt: str) -> int:
    agents = spec.raw.get("agents")
    if not isinstance(agents, list) or len(agents) != 2:
        raise SpecFormatError("disagree needs an agents list with exactly 2 entries")
    model = spec.model_optional()
    mech_a, model_a = spec.mechanism_section(agents[0], model, "agents[0]")
    mech_b, model_b = spec.mechanism_section(agents[1], model, "agents[1]")
    if model is None:
        if not np.allclose(model_a.mass, model_b.mass, atol=1e-12):
            raise SpecFormatError("the two agents' blueprints generate different models")
        model = model_a
    problem = spec.problem_for(model)
    per_state = disagreement_probability(problem, mech_a, mech_b)
    overall = float(problem.prior @ per_state)
    write_json(
        out / "disagree.json",
        {"per_state": per_state.tolist(), "overall": overall},
    )
    print(f"disagree: overall={_fmt(overall)} -> {out / 'disagree.json'}")
    return 0


def cmd_closed_forms(spec: ExperimentSpec, out: Path, seed: int, fmt: str) -> int:
    section = spec.raw.get("closed_form")
    if not isinstance(section, dict) or "name" not in section:
        raise SpecFormatError("closed-forms needs a closed_form section with a name")
    name = section["name"]
    if name not in CLOSED_FORM_KEYS:
        raise SpecFormatError(f"unknown closed form {name!r}")
    for key in CLOSED_FORM_KEYS[name]:
        if key not in section:
            raise SpecFormatError(f"closed form {name!r} has no key {key!r}")
    num = {
        key: _number(section[key], f"closed_form.{key}", integral=key in ("lam", "n", "w"))
        for key in CLOSED_FORM_KEYS[name]
    }
    if name == "pair_commitment":
        result = pair_commitment_losses(num["nu"], num["tau"], num["ups"])
        payload = result.to_json()
        csv_rows = sorted(payload["losses"].items())
        header = ("pattern", "loss")
        summary = f"argmin={payload['argmin']}"
    elif name == "symmetric":
        u_full, u_ignorant, better = symmetric_utilities(num["n"], num["info"])
        payload = {
            "n": num["n"],
            "info": num["info"],
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
        model = spec.model()
        occ = star_occupancy_closed_form(model, None, num["lam"], num["delta"], num["w"])
        payload = {"w": num["w"], "occupancy": occ.tolist()}
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
    if not isinstance(section, dict) or "m_size" not in section:
        raise SpecFormatError("search needs a search section with m_size")
    m_size = _number(section["m_size"], "search.m_size", integral=True)
    problem = spec.problem()
    method = section.get("method", "anneal")
    if method == "enumerate":
        budget = spec.search_budget()
        result = enumerate_deterministic(problem, m_size, budget=budget)
    elif method == "anneal":
        # Knobs the spec sets take the type of their default; the rest keep it.
        knobs = {
            f.name: _number(
                section[f.name], f"search.{f.name}", integral=isinstance(f.default, int)
            )
            for f in fields(SearchConfig)
            if f.name in section and f.name not in ("m_size", "seed")
        }
        config = SearchConfig(m_size=m_size, seed=seed, **knobs)
        result = local_search(problem, config)
    else:
        raise SpecFormatError(f"unknown search method {method!r}")
    if "reference_loss" in section:
        result = replace(
            result,
            epsilon_gap=epsilon_gap(
                result, _number(section["reference_loss"], "search.reference_loss")
            ),
        )
    write_json(out / "search.json", result.to_json())
    write_csv(
        out / "trace.csv",
        ("iteration", "best_loss"),
        [(int(i), float(x)) for i, x in result.trace],
    )
    print(
        f"search: method={method} loss={_fmt(result.loss)} "
        f"-> {out / 'search.json'}"
    )
    return 0


HANDLERS = {
    "validate": cmd_validate,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "disagree": cmd_disagree,
    "closed-forms": cmd_closed_forms,
    "search": cmd_search,
}

DEFAULT_FORMATS = {
    "validate": "json",
    "eval": "json",
    "sweep": "csv",
    "disagree": "json",
    "closed-forms": "json",
    "search": "json",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="famlearn",
        description="Evaluate, sweep, and search bounded-memory updating mechanisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
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
    fmt = args.format or DEFAULT_FORMATS[args.command]
    try:
        spec = ExperimentSpec.load(args.spec)
        spec.check_command(args.command)
        seed = spec.seed(args.seed)
        return HANDLERS[args.command](spec, Path(args.out), seed, fmt)
    except SpecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
