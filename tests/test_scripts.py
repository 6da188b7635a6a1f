"""Each example script runs end to end at tiny sizes."""

import glob
import importlib.util
import os
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")

CASES = {
    "run_ids_comparison": ["--k", "1", "--k-big", "2", "--n-realizations", "2"],
    "run_bound_checks": ["--n-trials", "20"],
}


def test_every_script_has_a_case():
    names = {os.path.splitext(os.path.basename(path))[0] for path in glob.glob(os.path.join(SCRIPTS, "*.py"))}
    assert names == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_main_runs(monkeypatch, capsys, name):
    path = os.path.join(SCRIPTS, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [path, *CASES[name]])
    module.main()
    assert capsys.readouterr().out.strip()
