"""The benchmark's workloads, generated from a seed.

A workload is a fixed list of operations.  Most are ``famlearn`` command
lines run through :func:`famlearn.cli.main` on a spec this module writes;
the Monte Carlo cross-checks are library calls.  Every operation carries a
check against a reference from :mod:`checks`.  The seed moves priors,
payoffs, signal strengths and random streams, never the size of a chain,
so every seed does the same amount of work.  The two operations that fail
today use fixed inputs, so every pass fails them the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from famlearn import automata, chain
from famlearn.signals import SignalModel

import checks as ck

#: Binary model of the large-star study; its star overflows past depth 410.
MODEL_64 = [[0.6, 0.4], [0.4, 0.6]]
#: Binary model of the memory-budget study; largest likelihood ratio 4.
MODEL_82 = [[0.8, 0.2], [0.2, 0.8]]
#: ``symmetric_model(3, 2.0)``: own signal twice as likely as either other.
MODEL_SYM3 = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]

STAR_DELTA = 5.0
#: Signal strengths of the binary models the star family is built on.
STAR_MODELS = (0.6, 0.65, 0.7, 0.75, 0.8)
#: Depths of the clean 0.6/0.4 star: 201 to 801 memory states.  With the
#: failing depth and ``disagree`` that makes six operations, so ``op_p50_ms``
#: is the mean of depths 200 and 300, steadier than one short operation.
STAR_LADDER = (100, 200, 300, 400)
#: Fails today: the back-substitution overflows and eval.json holds NaN.
STAR_OVERFLOW_LAM = 430
#: Memory sizes of the two noisy ladders whose pair chain ``disagree`` solves.
PAIR_SIZES = (18, 22)

SKEWED_PRIOR = [0.499, 0.499, 0.002]
#: Exhaustive-oracle optimum of the skewed three-state instance at m = 3.
SKEWED_LOSS = 201 / 700
ANNEAL_SIZES = tuple(range(1, 7))
ANNEAL_RESTARTS = 4
ANNEAL_ITERATIONS = 1000
#: The study script's annealing seed.  Not drawn from ``--seed``: some
#: streams end on a tensor whose exact re-solve fails (see CHANGES.md).
ANNEAL_SEED = 11
#: Deterministic tables the benchmark scores itself against each enumeration.
TABLE_SAMPLE = 150

#: Fails today: spread_upper_bound computes 16**256 and raises OverflowError.
SPREAD_OVERFLOW_LAM = 128
MC_STEPS = 40_000
MC_BURN_IN = 1_000


@dataclass
class Op:
    """One operation of a workload pass.

    Exactly one of ``argv`` (a ``famlearn`` command line) and ``call`` (a
    library call) is set.  ``check`` receives the call's return value
    (``None`` for a command line), reads the artifacts, raises
    :class:`checks.OutputInvalid` for an unusable result and returns the
    problems it finds in a usable one.  ``states`` is the size of the
    chain the operation solves.
    """

    name: str
    states: int
    check: Callable[[object], list[str]]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    artifacts: tuple[Path, ...] = ()
    expect_rc: int = 0


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's specs under ``workdir`` and return its operations."""
    rng = np.random.default_rng([list(_BUILDERS).index(workload), seed])
    plan = _Plan(workdir)
    _BUILDERS[workload](plan, rng)
    return plan.ops


class _Plan:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.ops: list[Op] = []
        (workdir / "specs").mkdir(parents=True, exist_ok=True)

    def command(self, name, states, command, spec, artifacts, check, flags=(), rc=0):
        """Add one CLI operation; ``check`` receives the artifact paths."""
        index = len(self.ops)
        spec_path = self.workdir / "specs" / f"{index:02d}.json"
        spec_path.write_text(json.dumps(dict(spec, command=command)))
        out = self.workdir / "out" / f"{index:02d}"
        paths = tuple(out / a for a in artifacts)
        self.ops.append(
            Op(
                name=name,
                states=states,
                check=lambda _value: check(*paths),
                argv=[command, "--spec", str(spec_path), "--out", str(out), *flags],
                artifacts=paths,
                expect_rc=rc,
            )
        )

    def library(self, name, states, call, check):
        self.ops.append(Op(name=name, states=states, check=check, call=call))


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _binary(p: float) -> list[list[float]]:
    return [[p, 1.0 - p], [1.0 - p, p]]


def _star_mass(rng) -> list[list[float]]:
    """A binary model for the star family, from a fixed list.

    Drawn from a list rather than a range because ``build_star`` rejects
    its own tensor for about one binary model in eight: the hub's
    stay-put probability ``1 - sum of lottery weights`` rounds below zero.
    """
    return _binary(STAR_MODELS[int(rng.integers(len(STAR_MODELS)))])


def _draw(rng, low: float, high: float, digits: int = 4) -> float:
    return round(float(rng.uniform(low, high)), digits)


def _problem(rng, n: int) -> tuple[list[float], list[float]]:
    """Seeded prior and payoffs over ``n`` worlds."""
    prior = rng.dirichlet(np.full(n, 4.0))
    prior[-1] = 1.0 - prior[:-1].sum()
    utilities = [_draw(rng, 0.5, 2.0, 3) for _ in range(n)]
    return [float(x) for x in prior], utilities


def _model(mass) -> dict:
    return {"states": len(mass), "alphabet": len(mass[0]), "mass": mass}


def _spec_problem(mass, prior, utilities) -> dict:
    section = {"prior": prior, "utilities": utilities}
    if mass is not None:
        section["model"] = _model(mass)
    return section


def _blueprint(family: str, **params) -> dict:
    return {"blueprint": {"family": family, "params": params}}


def _noisy_ladder(rng, m: int, noise: float):
    """Ladder stepping up on signal 0, down on signal 1, with seeded noise."""
    step = np.zeros((m, 2, m))
    rungs = np.arange(m)
    step[rungs, 0, np.minimum(rungs + 1, m - 1)] = 1.0
    step[rungs, 1, np.maximum(rungs - 1, 0)] = 1.0
    transition = (1.0 - noise) * step + noise * rng.dirichlet(np.ones(m), size=(m, 2))
    decision = np.array([1] * (m // 2) + [0] * (m - m // 2))
    return transition, decision


def _inline(transition, decision) -> dict:
    return {
        "inline": {
            "m": transition.shape[0],
            "transition": transition.tolist(),
            "decision": decision.tolist(),
        }
    }


# ---------------------------------------------------------------------------
# checks shared by several operations
# ---------------------------------------------------------------------------


def _check_star_eval(path, mass, delta, lam, prior, utilities):
    doc = ck.load_artifact(path, "eval")
    occupancy = np.asarray(doc["occupancy"], dtype=float)
    stake = ck.stakes(prior, utilities)
    problems = ck.check_distribution(occupancy)
    for w in range(len(mass)):
        problems += ck.check_star_occupancy(occupancy[w], mass, delta, lam, w)
    loss = ck.star_loss(mass, delta, lam, stake)
    problems += ck.near("loss", doc["loss"], loss, ck.LOSS_TOL)
    problems += ck.near("utility", doc["utility"], stake.sum() - loss, ck.LOSS_TOL)
    return problems


def _check_solved_eval(path, mass, mech, prior, utilities):
    """Eval of a mechanism whose tensor the benchmark solves itself."""
    doc = ck.load_artifact(path, "eval")
    occupancy = np.asarray(doc["occupancy"], dtype=float)
    stake = ck.stakes(prior, utilities)
    kernels = [ck.kernel(mech.transition, row) for row in mass]
    ref = np.vstack([ck.reference_occupancy(q, mech.initial_state) for q in kernels])
    if occupancy.shape != ref.shape:
        return [f"occupancy shape {occupancy.shape}, expected {ref.shape}"]
    problems = ck.check_distribution(occupancy) + ck.check_fixed_point(occupancy, kernels)
    worst = float(np.abs(occupancy - ref).max())
    if not worst <= ck.SOLVE_TOL:
        problems.append(f"occupancy off the least-squares solve by {worst:.3e}")
    loss = ck.loss_from_occupancy(ref, mech.decision, stake)
    problems += ck.near("loss", doc["loss"], loss, ck.SOLVE_TOL)
    problems += ck.near("utility", doc["utility"], stake.sum() - loss, ck.SOLVE_TOL)
    return problems


def _check_disagree(path, mass, agents, prior):
    """Per-world disagreement against the benchmark's own pair-chain solve."""
    doc = ck.load_artifact(path, "disagree")
    (trans_a, dec_a, init_a), (trans_b, dec_b, init_b) = agents
    differ = (np.asarray(dec_a)[:, None] != np.asarray(dec_b)[None, :]).ravel()
    start = init_a * trans_b.shape[0] + init_b
    per_state = [
        float(ck.reference_occupancy(ck.pair_kernel(row, trans_a, trans_b), start)[differ].sum())
        for row in mass
    ]
    if len(doc["per_state"]) != len(per_state):
        return [f"per_state has {len(doc['per_state'])} entries, expected {len(per_state)}"]
    problems = []
    for w, (got, want) in enumerate(zip(doc["per_state"], per_state)):
        problems += ck.near(f"per_state[{w}]", got, want, ck.SOLVE_TOL)
    problems += ck.near("overall", doc["overall"], float(np.dot(prior, per_state)), ck.SOLVE_TOL)
    return problems


def _table_losses(mass, stake, m_size, tables) -> np.ndarray:
    """Loss of each deterministic table with its best decision per state."""
    losses = []
    onehot = np.eye(m_size)
    for table in tables:
        transition = onehot[table]
        occupancy = np.vstack(
            [ck.reference_occupancy(ck.kernel(transition, row), 0) for row in mass]
        )
        decision = np.argmax(stake[:, None] * occupancy, axis=0)
        losses.append(ck.loss_from_occupancy(occupancy, decision, stake))
    return np.asarray(losses)


def _check_search(json_path, trace_path, mass, stake, m_size, floor=None, expect=None, sample=None):
    doc = ck.load_artifact(json_path, "search")
    trace = ck.load_csv(trace_path, ("iteration", "best_loss"))
    mech = doc["mechanism"]
    transition = np.asarray(mech["transition"], dtype=float)
    if transition.shape != (m_size, len(mass[0]), m_size):
        return [f"mechanism tensor shape {transition.shape}"]
    occupancy = np.vstack(
        [ck.reference_occupancy(ck.kernel(transition, row), mech["initial"]) for row in mass]
    )
    loss = doc["loss"]
    problems = ck.near(
        "loss (re-priced)", loss, ck.loss_from_occupancy(occupancy, mech["decision"], stake), ck.SOLVE_TOL
    )
    problems += ck.check_trace(doc["trace"])
    if [[float(i), float(x)] for i, x in doc["trace"]] != trace:
        problems.append("trace.csv disagrees with the trace in search.json")
    if floor is not None and not loss >= floor - ck.LOSS_TOL:
        problems.append(f"loss {loss!r} is below the Hellman-Cover floor {floor!r}")
    if expect is not None:
        problems += ck.near("loss", loss, expect, ck.LOSS_TOL)
    if sample is not None:
        best = float(_table_losses(mass, stake, m_size, sample).min())
        if not loss <= best + ck.LOSS_TOL:
            problems.append(f"enumeration optimum {loss!r} loses to a sampled table ({best!r})")
    return problems


# ---------------------------------------------------------------------------
# star_scale: a few large exact solves
# ---------------------------------------------------------------------------


def _star_eval(plan, lam, mass, delta, prior, utilities):
    spec = {
        "problem": _spec_problem(mass, prior, utilities),
        "mechanism": _blueprint("star", lam=lam, delta=delta),
    }
    plan.command(
        f"eval star lam={lam}",
        1 + len(mass) * lam,
        "eval",
        spec,
        ("eval.json",),
        lambda path: _check_star_eval(path, mass, delta, lam, prior, utilities),
    )


def _star_scale(plan, rng):
    for lam in STAR_LADDER:
        _star_eval(plan, lam, MODEL_64, STAR_DELTA, *_problem(rng, 2))
    _star_eval(plan, STAR_OVERFLOW_LAM, MODEL_64, STAR_DELTA, [0.5, 0.5], [1.0, 1.0])

    prior, utilities = _problem(rng, 2)
    agents = [(*_noisy_ladder(rng, m, _draw(rng, 0.05, 0.2)), 0) for m in PAIR_SIZES]
    spec = {
        "problem": _spec_problem(MODEL_64, prior, utilities),
        "agents": [_inline(t, d) for t, d, _ in agents],
    }
    pairs = PAIR_SIZES[0] * PAIR_SIZES[1]
    plan.command(
        f"disagree pairs={pairs}",
        pairs,
        "disagree",
        spec,
        ("disagree.json",),
        lambda path: _check_disagree(path, MODEL_64, agents, prior),
    )


# ---------------------------------------------------------------------------
# search: the memory-budget study
# ---------------------------------------------------------------------------


def _random_tables(rng, m_size: int, alphabet: int) -> np.ndarray:
    return rng.integers(m_size, size=(TABLE_SAMPLE, m_size, alphabet))


def _search(plan, rng):
    uniform = ck.stakes([0.5, 0.5], [1.0, 1.0])
    floor = {m: ck.hellman_cover_floor(4.0, m) for m in range(1, 7)}
    problem82 = {"problem": _spec_problem(MODEL_82, [0.5, 0.5], [1.0, 1.0])}

    def check_sweep(path):
        rows = ck.load_csv(path, ("m", "loss", "utility"))
        if [r[0] for r in rows] != [1.0, 2.0, 3.0]:
            return [f"sweep rows for m = {[r[0] for r in rows]}"]
        problems = []
        for m, loss, utility in rows:
            problems += ck.near(f"utility at m={m:g}", utility, 1.0 - loss, ck.LOSS_TOL)
            if not loss >= floor[int(m)] - ck.LOSS_TOL:
                problems.append(f"loss {loss!r} at m={m:g} is below the Hellman-Cover floor")
        problems += ck.near("loss at m=1", rows[0][1], 1.0 - uniform.max(), ck.LOSS_TOL)
        problems += ck.near("loss at m=2", rows[1][1], 0.2, ck.LOSS_TOL)
        if not rows[0][1] >= rows[1][1] >= rows[2][1]:
            problems.append("sweep loss grows with memory")
        return problems

    plan.command(
        "sweep m=1..3",
        3,
        "sweep",
        dict(problem82, sweep={"m": [1, 2, 3]}),
        ("sweep.csv",),
        check_sweep,
    )

    sample82 = _random_tables(rng, 3, 2)
    plan.command(
        "search enumerate m=3",
        3,
        "search",
        dict(problem82, search={"method": "enumerate", "m_size": 3}),
        ("search.json", "trace.csv"),
        lambda j, t: _check_search(j, t, MODEL_82, uniform, 3, floor=floor[3], sample=sample82),
    )

    skewed_stake = ck.stakes(SKEWED_PRIOR, [1.0, 1.0, 1.0])
    sample_skewed = _random_tables(rng, 3, 3)
    plan.command(
        "search enumerate skewed m=3",
        3,
        "search",
        {
            "problem": _spec_problem(MODEL_SYM3, SKEWED_PRIOR, [1.0, 1.0, 1.0]),
            "search": {"method": "enumerate", "m_size": 3},
        },
        ("search.json", "trace.csv"),
        lambda j, t: _check_search(
            j, t, MODEL_SYM3, skewed_stake, 3, expect=SKEWED_LOSS, sample=sample_skewed
        ),
    )

    for m in ANNEAL_SIZES:
        search = {
            "method": "anneal",
            "m_size": m,
            "restarts": ANNEAL_RESTARTS,
            "iterations": ANNEAL_ITERATIONS,
            "seed": ANNEAL_SEED,
        }
        plan.command(
            f"search anneal m={m}",
            m,
            "search",
            dict(problem82, search=search),
            ("search.json", "trace.csv"),
            lambda j, t, m=m: _check_search(j, t, MODEL_82, uniform, m, floor=floor[m]),
        )


# ---------------------------------------------------------------------------
# batch_small: many millisecond-scale calls
# ---------------------------------------------------------------------------


def _min_ratio(mass) -> float:
    mass = np.asarray(mass, dtype=float)
    n = len(mass)
    return float(min((mass[w] / mass[v]).min() for w in range(n) for v in range(n) if w != v))


def _validate_ops(plan, rng):
    binary = _binary(_draw(rng, 0.6, 0.85))
    ternary = [[float(x) for x in row] for row in rng.dirichlet(np.full(3, 4.0), size=3)]
    ratio = _min_ratio(ternary)
    cases = [
        ("binary", binary, 0.0, True),
        ("ternary", ternary, 0.5 * ratio, True),
        ("ternary above its support", ternary, 0.5 * (1.0 + ratio), False),
    ]
    for label, mass, varsigma, ok in cases:

        def check(path, mass=mass, ok=ok):
            doc = ck.load_artifact(path, "validate")
            problems = ck.near("min_ratio", doc["min_ratio"], _min_ratio(mass), 1e-12)
            if doc["ok"] is not ok or doc["failures"] or doc["identical_pairs"]:
                problems.append(f"validate verdict {doc['ok']}, expected {ok}")
            return problems

        plan.command(
            f"validate {label}",
            0,
            "validate",
            {"problem": {"model": _model(mass)}, "varsigma": varsigma},
            ("validate.json",),
            check,
            rc=0 if ok else 1,
        )


def _line_eval(plan, rng):
    """Ladder eval against its birth-death loss in exact rationals."""
    mass = _binary(_draw(rng, 0.6, 0.85))
    prior, utilities = _problem(rng, 2)
    m_size = 8
    up = [mass[0][s] > mass[1][s] for s in range(2)]

    def check(path):
        doc = ck.load_artifact(path, "eval")
        occupancy = np.asarray(doc["occupancy"], dtype=float)
        kernels = []
        for row in mass:
            q = np.zeros((m_size, m_size))
            for k in range(m_size):
                for s, p in enumerate(row):
                    q[k, min(k + 1, m_size - 1) if up[s] else max(k - 1, 0)] += p
            kernels.append(q)
        problems = ck.check_distribution(occupancy) + ck.check_fixed_point(occupancy, kernels)
        exact = ck.line_loss_exact(mass, m_size, prior, utilities)
        total = sum(Fraction(p) * Fraction(u) for p, u in zip(prior, utilities))
        problems += ck.near("loss", doc["loss"], float(exact), ck.LOSS_TOL)
        problems += ck.near("utility", doc["utility"], float(total - exact), ck.LOSS_TOL)
        return problems

    plan.command(
        f"eval line m={m_size}",
        m_size,
        "eval",
        {
            "problem": _spec_problem(mass, prior, utilities),
            "mechanism": _blueprint("line", m_size=m_size),
        },
        ("eval.json",),
        check,
    )


def _solved_eval(plan, name, mech, mass, prior, utilities, problem_mass, mechanism):
    """Eval whose occupancy the benchmark re-solves from the built tensor."""
    plan.command(
        name,
        mech.m_size,
        "eval",
        {"problem": _spec_problem(problem_mass, prior, utilities), "mechanism": mechanism},
        ("eval.json",),
        lambda path: _check_solved_eval(path, mass, mech, prior, utilities),
    )


def _noisy_star_eval(plan, rng):
    mass = _star_mass(rng)
    params = {"lam": 4, "delta": _draw(rng, 3.5, 6.0), "gamma": _draw(rng, 0.1, 0.5)}
    mech = automata.build_noisy_star(SignalModel.from_rows(mass), **params)
    _solved_eval(
        plan, "eval noisy_star lam=4", mech, mass, *_problem(rng, 2), mass,
        _blueprint("noisy_star", **params),
    )


def _symmetric_ignorant_eval(plan, rng):
    params = {"n": 6, "info": _draw(rng, 1.5, 4.0), "delta": _draw(rng, 0.2, 0.8)}
    mech, model = automata.build_symmetric_ignorant(**params)
    _solved_eval(
        plan, "eval symmetric_ignorant n=6", mech, model.mass.tolist(),
        *_problem(rng, params["n"]), None, _blueprint("symmetric_ignorant", **params),
    )


def _symmetric_full_eval(plan, rng):
    """One memory state per action: its occupancy under w is w's signal row."""
    n, info, delta = 4, _draw(rng, 1.5, 4.0), _draw(rng, 0.2, 0.8)
    prior, utilities = _problem(rng, n)

    def check(path):
        doc = ck.load_artifact(path, "eval")
        occupancy = np.asarray(doc["occupancy"], dtype=float)
        rows = np.full((n, n), 1.0 / (n + info - 1.0))
        np.fill_diagonal(rows, info / (n + info - 1.0))
        if occupancy.shape != rows.shape:
            return [f"occupancy shape {occupancy.shape}, expected {rows.shape}"]
        problems = ck.check_distribution(occupancy)
        worst = float((np.abs(occupancy - rows) / rows).max())
        if not worst <= ck.OCC_REL_TOL:
            problems.append(f"occupancy relative error {worst:.3e} against the signal rows")
        stake = ck.stakes(prior, utilities)
        loss = float(stake.sum()) * (n - 1.0) / (n + info - 1.0)
        problems += ck.near("loss", doc["loss"], loss, ck.LOSS_TOL)
        return problems

    plan.command(
        f"eval symmetric_full n={n}",
        n,
        "eval",
        {
            "problem": _spec_problem(None, prior, utilities),
            "mechanism": _blueprint("symmetric_full", n=n, info=info, delta=delta),
        },
        ("eval.json",),
        check,
    )


def _eval_ops(plan, rng):
    _line_eval(plan, rng)
    _star_eval(plan, 6, _star_mass(rng), _draw(rng, 3.5, 6.0), *_problem(rng, 2))
    _noisy_star_eval(plan, rng)
    _symmetric_ignorant_eval(plan, rng)
    _symmetric_full_eval(plan, rng)
    _star_eval(plan, SPREAD_OVERFLOW_LAM, MODEL_82, STAR_DELTA, [0.5, 0.5], [1.0, 1.0])


def _lam_sweep(plan, rng):
    mass = _star_mass(rng)
    delta = _draw(rng, 3.5, 6.0)
    prior, utilities = _problem(rng, 2)
    stake = ck.stakes(prior, utilities)
    depths = [1, 2, 3, 4, 6, 8]

    def check(path):
        rows = ck.load_csv(path, ("lam", "loss", "utility"))
        if [r[0] for r in rows] != depths:
            return [f"sweep rows for lam = {[r[0] for r in rows]}"]
        problems = []
        for lam, loss, utility in rows:
            want = ck.star_loss(mass, delta, int(lam), stake)
            problems += ck.near(f"loss at lam={lam:g}", loss, want, ck.LOSS_TOL)
            problems += ck.near(f"utility at lam={lam:g}", utility, stake.sum() - want, ck.LOSS_TOL)
        return problems

    plan.command(
        "sweep lam",
        1 + 2 * max(depths),
        "sweep",
        {
            "problem": _spec_problem(mass, prior, utilities),
            "mechanism": _blueprint("star", lam=1, delta=delta),
            "sweep": {"lam": depths},
        },
        ("sweep.csv",),
        check,
    )


def _gamma_sweep(plan, rng):
    mass = _star_mass(rng)
    delta = _draw(rng, 3.5, 6.0)
    prior, utilities = _problem(rng, 2)
    stake = ck.stakes(prior, utilities)
    gammas = [0.0, 0.1, 0.3, 0.6]
    lam = 3
    model = SignalModel.from_rows(mass)

    def check(path):
        doc = ck.load_artifact(path, "sweep")
        rows = doc["rows"]
        if doc["axis"] != "gamma" or [r.get("gamma") for r in rows] != gammas:
            return [f"sweep rows for {doc['axis']} = {[r.get('gamma') for r in rows]}"]
        clean = ck.star_loss(mass, delta, lam, stake)
        problems = ck.near("loss at gamma=0", rows[0]["loss"], clean, ck.LOSS_TOL)
        for row in rows:
            mech = automata.build_noisy_star(model, lam, delta, row["gamma"])
            occupancy = np.vstack(
                [ck.reference_occupancy(ck.kernel(mech.transition, r), 0) for r in mass]
            )
            want = ck.loss_from_occupancy(occupancy, mech.decision, stake)
            problems += ck.near(f"loss at gamma={row['gamma']}", row["loss"], want, ck.SOLVE_TOL)
        return problems

    plan.command(
        "sweep gamma",
        1 + 2 * lam,
        "sweep",
        {
            "problem": _spec_problem(mass, prior, utilities),
            "mechanism": _blueprint("noisy_star", lam=lam, delta=delta, gamma=0.0),
            "sweep": {"gamma": gammas},
        },
        ("sweep.json",),
        check,
        flags=("--format", "json"),
    )


def _closed_form_ops(plan, rng):
    mass = _star_mass(rng)
    lam, delta, w = 5, _draw(rng, 3.5, 6.0), int(rng.integers(2))

    def check_star(path):
        doc = ck.load_artifact(path, "closed_forms")
        return ck.check_star_occupancy(doc["result"]["occupancy"], mass, delta, lam, w)

    plan.command(
        "closed-forms star",
        1 + 2 * lam,
        "closed-forms",
        {
            "problem": _spec_problem(mass, [0.5, 0.5], [1.0, 1.0]),
            "closed_form": {"name": "star", "lam": lam, "delta": delta, "w": w},
        },
        ("closed_forms.json",),
        check_star,
    )

    n, info = 6, _draw(rng, 1.5, 6.0)

    def check_symmetric(path):
        rows = dict(ck.load_csv(path, ("quantity", "value")))
        # one memory state per action, moving to the signalled action w.p. 1/2
        signal = np.full((n, n), 1.0 / (n + info - 1.0))
        np.fill_diagonal(signal, info / (n + info - 1.0))
        transition = np.zeros((n, n, n))
        for m in range(n):
            transition[m, np.arange(n), np.arange(n)] += 0.5
            transition[m, :, m] += 0.5
        u_full = ck.reference_occupancy(ck.kernel(transition, signal[0]), 0)[0]
        problems = ck.near("u_full", rows["u_full"], u_full, ck.SOLVE_TOL)
        if bool(rows["ignorant_better"]) != (rows["u_ignorant"] > rows["u_full"]):
            problems.append("ignorant_better disagrees with the two utilities")
        return problems

    plan.command(
        "closed-forms symmetric",
        n,
        "closed-forms",
        {"closed_form": {"name": "symmetric", "n": n, "info": info}},
        ("closed_forms.csv",),
        check_symmetric,
        flags=("--format", "csv"),
    )

    nu, tau = _draw(rng, 0.0, 0.03), _draw(rng, 0.35, 0.6)
    ups = round(tau + _draw(rng, 0.05, 0.2), 4)

    def check_pair(path):
        doc = ck.load_artifact(path, "closed_forms")["result"]
        major, minor = 1.0 / 3.0 + 2.0 * nu, 1.0 / 3.0 - nu
        losses = doc["losses"]
        problems = ck.near("loss of 0-0", losses["0-0"], 2.0 * minor, ck.LOSS_TOL)
        problems += ck.near("loss of 1-1", losses["1-1"], major + minor, ck.LOSS_TOL)
        problems += ck.near("loss of 2-2", losses["2-2"], major + minor, ck.LOSS_TOL)
        if not all(0.0 <= v <= 1.0 for v in losses.values()):
            problems.append(f"pattern losses outside [0, 1]: {losses}")
        if doc["argmin"] != min(sorted(losses), key=losses.get):
            problems.append(f"argmin {doc['argmin']} is not the cheapest pattern")
        return problems

    plan.command(
        "closed-forms pair_commitment",
        2,
        "closed-forms",
        {"closed_form": {"name": "pair_commitment", "nu": nu, "tau": tau, "ups": ups}},
        ("closed_forms.json",),
        check_pair,
    )


def _disagree_op(plan, rng):
    mass = _star_mass(rng)
    delta = _draw(rng, 3.5, 6.0)
    prior, utilities = _problem(rng, 2)
    model = SignalModel.from_rows(mass)
    line = automata.build_line(model, 4)
    star = automata.build_star(model, 2, delta)
    agents = [(m.transition, m.decision, m.initial_state) for m in (line, star)]
    plan.command(
        "disagree line x star",
        line.m_size * star.m_size,
        "disagree",
        {
            "problem": _spec_problem(mass, prior, utilities),
            "agents": [_blueprint("line", m_size=4), _blueprint("star", lam=2, delta=delta)],
        },
        ("disagree.json",),
        lambda path: _check_disagree(path, mass, agents, prior),
    )


def _monte_carlo_ops(plan, rng):
    model = SignalModel.from_rows(_binary(_draw(rng, 0.55, 0.65)))
    sym_mech, sym_model = automata.build_symmetric_full(4, _draw(rng, 1.5, 3.0), 0.5)
    cases = [
        ("line m=6", automata.build_line(model, 6), model),
        ("symmetric_full n=4", sym_mech, sym_model),
        (
            "noisy_star lam=2",
            automata.build_noisy_star(SignalModel.from_rows(MODEL_64), 2, STAR_DELTA, 0.5),
            SignalModel.from_rows(MODEL_64),
        ),
    ]
    for name, mech, mc_model in cases:
        n = mc_model.n_states
        problem = chain.Problem(mc_model, np.ones(n), np.full(n, 1.0 / n))
        w = int(rng.integers(n))
        seed = int(rng.integers(2**31))

        def call(problem=problem, mech=mech, w=w, seed=seed):
            return chain.monte_carlo_occupancy(problem, mech, w, MC_STEPS, MC_BURN_IN, seed)

        def check(value, mech=mech, mc_model=mc_model, w=w):
            occupancy, frequencies = (np.asarray(x, dtype=float) for x in value)
            if not (np.isfinite(occupancy).all() and np.isfinite(frequencies).all()):
                raise ck.OutputInvalid("non-finite Monte Carlo occupancy")
            q = ck.kernel(mech.transition, mc_model.mass[w])
            exact = ck.reference_occupancy(q, mech.initial_state)
            error = ck.mc_standard_errors(q, exact, MC_STEPS - MC_BURN_IN)
            worst = float((np.abs(occupancy - exact) / error).max())
            problems = ck.check_distribution(occupancy)
            if not worst <= ck.MC_SIGMAS:
                problems.append(f"Monte Carlo occupancy {worst:.1f} standard errors off")
            actions = np.bincount(mech.decision, weights=occupancy, minlength=frequencies.size)
            problems += ck.near("action frequencies", float(np.abs(frequencies - actions).max()), 0.0, 1e-12)
            return problems

        plan.library(f"monte_carlo {name}", mech.m_size, call, check)


def _batch_small(plan, rng):
    _validate_ops(plan, rng)
    _eval_ops(plan, rng)
    _lam_sweep(plan, rng)
    _gamma_sweep(plan, rng)
    _closed_form_ops(plan, rng)
    _disagree_op(plan, rng)
    _monte_carlo_ops(plan, rng)


_BUILDERS = {"star_scale": _star_scale, "search": _search, "batch_small": _batch_small}
