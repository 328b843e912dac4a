"""The experiment scripts import against the package as it stands.

They back the README's numbers and call the package's internals, so a
renamed function should fail here, not the next time a script is run.
Every script keeps its work behind a ``__main__`` guard, so loading one
runs nothing.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_there_are_scripts_to_load():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_loads_without_running(path):
    spec = importlib.util.spec_from_file_location(f"scripts.{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
