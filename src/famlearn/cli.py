"""Batch command-line front door: experiment specs in, tables out.

Each run reads one JSON experiment spec, executes one subcommand, writes
its artifacts under ``--out``, and prints a one-line summary to stdout.
There is no interactive mode and no ambient randomness: every stochastic
step is driven by an explicit seed from the spec (or ``--seed``), and
outputs are written atomically and deterministically, so rerunning a
spec reproduces the artifacts byte for byte.

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
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .automata import (
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


class SpecFormatError(Exception):
    """The experiment spec (or a file it references) is unusable."""


def _parse(kind, obj: dict, where: str):
    """``kind.from_json(obj)``, with a missing key reported as a spec error."""
    try:
        return kind.from_json(obj)
    except KeyError as exc:
        raise SpecFormatError(f"{where} has no key {exc.args[0]!r}") from None


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
        spec_path = Path(path)
        try:
            text = spec_path.read_text()
        except OSError as exc:
            raise SpecFormatError(f"cannot read spec file {path}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"spec file {path} is not valid JSON: {exc}") from exc
        return cls(raw, spec_path.parent)

    def _load_ref(self, name: str) -> dict:
        path = self.base_dir / name
        try:
            text = path.read_text()
        except OSError as exc:
            raise SpecFormatError(f"cannot read referenced file {path}: {exc}") from exc
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"referenced file {path} is not valid JSON: {exc}") from exc

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
            return int(self.raw["seed"])
        return int(self.raw.get("search", {}).get("seed", 0))

    def model_optional(self) -> SignalModel | None:
        section = self.raw.get("problem", self.raw)
        if "model_file" in section:
            name = section["model_file"]
            return _parse(SignalModel, self._load_ref(name), f"model file {name}")
        if "model" in section:
            return _parse(SignalModel, section["model"], "problem.model")
        return None

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
            else np.asarray(utilities, dtype=np.float64),
            prior=np.full(model.n_states, 1.0 / model.n_states)
            if prior is None
            else np.asarray(prior, dtype=np.float64),
        )

    def problem(self) -> Problem:
        return self.problem_for(self.model())

    def mechanism_section(self, section: dict, model: SignalModel | None):
        if "blueprint" in section:
            blueprint = _parse(MechanismBlueprint, section["blueprint"], "blueprint")
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
            mech = _parse(UpdatingMechanism, self._load_ref(name), f"file {name}")
        elif "inline" in section:
            mech = _parse(UpdatingMechanism, section["inline"], "inline mechanism")
        else:
            raise SpecFormatError(
                "mechanism section needs one of: blueprint, file, inline"
            )
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
    handle = tempfile.NamedTemporaryFile(
        mode="w", dir=path.parent, prefix=f".{path.name}.", delete=False
    )
    try:
        with handle:
            handle.write(data)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


def write_json(path: Path, obj) -> None:
    # NaN and Infinity are not JSON: refuse them (exit 1) rather than write them.
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(path, text + "\n")


def write_csv(path: Path, header, rows) -> None:
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
    return axis, list(section[axis])


def cmd_sweep(spec: ExperimentSpec, out: Path, seed: int, fmt: str) -> int:
    axis, values = _sweep_axis(spec)
    points = []
    if axis == "m":
        problem = spec.problem()
        section = spec.raw.get("search", {})
        budget = int(section.get("budget", DEFAULT_ENUMERATION_BUDGET))
        for m in values:
            result = enumerate_deterministic(problem, int(m), budget=budget)
            points.append((int(m), result.mechanism))
    else:
        section = spec.raw.get("mechanism", {})
        if "blueprint" not in section:
            raise SpecFormatError(f"a {axis} sweep needs a mechanism blueprint")
        base = MechanismBlueprint.from_json(section["blueprint"])
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
    mech_a, model_a = spec.mechanism_section(agents[0], model)
    mech_b, model_b = spec.mechanism_section(agents[1], model)
    if model is None:
        if not np.allclose(model_a.mass, model_b.mass, atol=1e-12):
            raise SpecFormatError("the two agents' blueprints generate different models")
        model = model_a
    problem = spec.problem_for(model)
    per_state = disagreement_probability(problem, mech_a, mech_b)
    overall = float(problem.prior @ per_state)
    write_json(
        out / "disagree.json",
        {"per_state": [float(x) for x in per_state], "overall": overall},
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
    if name == "pair_commitment":
        result = pair_commitment_losses(
            float(section["nu"]), float(section["tau"]), float(section["ups"])
        )
        payload = result.to_json()
        csv_rows = sorted(payload["losses"].items())
        header = ("pattern", "loss")
        summary = f"argmin={payload['argmin']}"
    elif name == "symmetric":
        u_full, u_ignorant, better = symmetric_utilities(
            int(section["n"]), float(section["info"])
        )
        payload = {
            "n": int(section["n"]),
            "info": float(section["info"]),
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
        occ = star_occupancy_closed_form(
            model,
            None,
            int(section["lam"]),
            float(section["delta"]),
            int(section["w"]),
        )
        payload = {"w": int(section["w"]), "occupancy": [float(x) for x in occ]}
        csv_rows = list(enumerate(float(x) for x in occ))
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
    problem = spec.problem()
    method = section.get("method", "anneal")
    if method == "enumerate":
        budget = int(section.get("budget", DEFAULT_ENUMERATION_BUDGET))
        result = enumerate_deterministic(problem, int(section["m_size"]), budget=budget)
    elif method == "anneal":
        # Knobs the spec sets take the type of their default; the rest keep it.
        knobs = {
            f.name: type(f.default)(section[f.name])
            for f in fields(SearchConfig)
            if f.name in section and f.name not in ("m_size", "seed")
        }
        config = SearchConfig(m_size=int(section["m_size"]), seed=seed, **knobs)
        result = local_search(problem, config)
    else:
        raise SpecFormatError(f"unknown search method {method!r}")
    if "reference_loss" in section:
        result = replace(
            result, epsilon_gap=epsilon_gap(result, float(section["reference_loss"]))
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
