"""The experiment scripts import against the package as it stands.

They back the README's numbers and call the package's internals, so a
renamed function should fail here, not the next time a script is run.
Every script keeps its work behind a ``__main__`` guard, so loading one
runs nothing.  The absorbing-walk script, which backs the README's
reducible-chain figures, the pair-chain script, which backs its
``disagree`` figures, the anneal script, which backs its annealing
figures, the eval script, which backs its large-star figures, and the
dense-class script, which backs its dense-elimination figures, are also
run at a small size, and the enumeration script, which exits non-zero
when a frozen winner changes, is run once.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_there_are_scripts_to_load():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_loads_without_running(path):
    spec = importlib.util.spec_from_file_location(f"scripts.{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        check=False,
    )


def test_absorbing_walk_script_runs_and_meets_gamblers_ruin():
    """The script behind the README's reducible-chain figures: a walk of
    2,001 states, then the fan into 16,000 absorbing states, which each
    take exactly 1/16,000."""
    done = run_script("absorbing_walk_scaling.py", "--sizes", "2001")
    assert done.returncode == 0, done.stderr
    walk, fan = [json.loads(line) for line in done.stdout.splitlines()]
    assert sorted(walk) == sorted(fan) == ["initial", "maxrss_mb", "rel_error", "seconds", "states"]
    assert walk["states"] == 2001
    assert walk["rel_error"] <= 1e-12
    assert (fan["states"], fan["initial"], fan["rel_error"]) == (16_001, 0, 0.0)


def test_eval_script_runs_and_meets_the_star_closed_form():
    """The script behind the README's large-star figures, at 101 and 1,001
    states; it exits non-zero when an occupancy leaves its closed form."""
    done = run_script("eval_scaling.py", "--lams", "50", "500")
    assert done.returncode == 0, done.stderr
    reports = [json.loads(line) for line in done.stdout.splitlines()]
    assert [r["states"] for r in reports] == [101, 1001]
    assert all(r["rel_error"] <= 1e-9 for r in reports)


def test_dense_class_script_runs_across_panel_edges():
    """The script behind the README's dense-elimination figures, at 60 and
    200 states; it exits non-zero on a residual past the solver's gate."""
    done = run_script("dense_class_scaling.py", "--sizes", "60", "200")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert sorted(report["residual"]) == ["200", "60"]
    assert all(r <= 1e-8 for r in report["residual"].values())


def test_enumeration_script_finds_every_frozen_winner():
    done = run_script("enumeration_scaling.py", "--repeats", "1")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["binary m=4"]["loss"] == pytest.approx(1 / 17, abs=1e-12)


def test_pair_chain_script_runs_on_a_full_and_a_sparse_pair():
    done = run_script(
        "pair_chain_scaling.py", "--ladders", "4x5", "--line-star", "4x2", "--repeats", "1"
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["states"] == {"ladders 4x5": 20, "line 4 x star 2": 20}
    assert all(r <= 1e-8 for r in report["residual"].values())


def test_anneal_script_times_the_study_and_counts_skipped_steps():
    done = run_script(
        "anneal_scaling.py", "--sizes", "1", "3", "--iterations", "60", "--repeats", "1"
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert set(report["ms"]) == set(report["us_per_proposal"]) == {"1", "3"}
    assert report["skipped"]["1"] == 1.0  # a one-state row never moves
    assert report["gamma_calls_per_restart"]["1"] == 2  # two windows of 60 steps
    assert 0.0 <= report["skipped"]["3"] < 1.0
    assert report["loss"]["1"] == pytest.approx(0.5, abs=1e-12)
