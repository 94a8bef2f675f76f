"""Smoke tests of the scripts under scripts/, which nothing else imports."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script,argv,first_line", [
    ("rank_survey", ["--draws", "5"], "layer 64x64: loha dim 4 uses 1024 params"),
])
def test_main_runs(capsys, script, argv, first_line):
    assert load(script).main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith(first_line)

