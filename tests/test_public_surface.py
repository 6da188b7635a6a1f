import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lifshitz_lab
from lifshitz_lab.anderson import log_mgf_truncated
from lifshitz_lab.disorder import DisorderSpec


def test_public_names_are_listed_and_resolve():
    # a stale __all__ entry breaks `from lifshitz_lab.<module> import *`
    modules = {info.name: importlib.import_module(f"lifshitz_lab.{info.name}")
               for info in pkgutil.iter_modules(lifshitz_lab.__path__)}
    for name, module in modules.items():
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert not missing, f"lifshitz_lab.{name}.__all__ lists undefined {missing}"
    for node in ast.parse(Path(lifshitz_lab.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            listed = modules[node.module].__dict__.get("__all__", ())
            unlisted = [a.name for a in node.names
                        if not a.name.startswith("_") and a.name not in listed]
            assert not unlisted, f"lifshitz_lab re-exports {unlisted} missing from {node.module}.__all__"


ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_harness_reaches_the_package():
    # the trace patches package attributes by name and the checks import package
    # names; a refactor that drops one breaks the benchmark, not any other test
    tracing = _load_bench("tracing")
    _load_bench("checks")
    patched = []
    for node in ast.walk(ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 3
                and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)):
            owner = eval(compile(ast.Expression(node.elts[0]), "tracing", "eval"), vars(tracing))
            patched.append((owner, node.elts[1].value))
    assert len(patched) >= 10  # the scan found the patch table
    missing = [f"{owner.__name__}.{attr}" for owner, attr in patched if not hasattr(owner, attr)]
    assert not missing, f"perfbench/tracing.py patches missing attributes {missing}"
    before = [getattr(owner, attr) for owner, attr in patched]
    with tracing.Tracer().patched():
        pass
    assert [getattr(owner, attr) for owner, attr in patched] == before
    for node in ast.parse((BENCH / "checks.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.module.startswith("lifshitz_lab"):
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"perfbench/checks.py imports missing {node.module}.{missing}"


# Run in a fresh interpreter: this test process holds whatever the other tests
# imported.  The probe imports the package, dry-runs every shipped config as
# `python -m lifshitz_lab.cli <kind> --config <cfg> --dry-run` would, runs the
# shipped bands config, notes the heavy SciPy modules loaded after each step,
# then evaluates the one function that loads scipy.integrate on first use and
# the one that loads scipy.special.  Its last line is a JSON report.
_LEAN_IMPORT_PROBE = """
import json, runpy, sys
HEAVY = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.sparse.linalg",
         "scipy.linalg", "scipy.special", "scipy._lib._array_api")
def loaded():
    return [m for m in HEAVY if m in sys.modules]
import lifshitz_lab
report = {"import": loaded()}
out, bands, *configs = sys.argv[1:]
for cfg in configs:
    sys.argv = ["lifshitz_lab.cli", json.load(open(cfg))["kind"], "--config", cfg, "--dry-run"]
    code = None
    try:
        runpy.run_module("lifshitz_lab.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    report[cfg] = {"exit": code, "loaded": loaded()}
result = lifshitz_lab.run(lifshitz_lab.load_config(bands), out_dir=out)
report["bands"] = {"exit": result.exit_code, "files": result.manifest.files, "loaded": loaded()}
from lifshitz_lab.anderson import log_mgf_truncated
from lifshitz_lab.disorder import DisorderSpec
report["log_mgf"] = log_mgf_truncated(DisorderSpec(law="kappa_tail", kappa=1.0), 3.0, 0.5)
report["clopper_pearson"] = lifshitz_lab.clopper_pearson(3, 10)
print(json.dumps(report))
"""


def test_import_and_dry_runs_leave_stats_integrate_and_optimize_unloaded(tmp_path):
    configs = sorted(str(p) for p in (ROOT / "scripts" / "configs").glob("*.json"))
    assert len(configs) >= 6
    bands = str(ROOT / "scripts" / "configs" / "bands_two_phase.json")
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    out = subprocess.run([sys.executable, "-c", _LEAN_IMPORT_PROBE, str(tmp_path / "bands"), bands, *configs],
                         cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                         capture_output=True, text=True, check=True).stdout
    report = json.loads(out.splitlines()[-1])
    value, interval = report.pop("log_mgf"), report.pop("clopper_pearson")
    assert report == {"import": [], **{cfg: {"exit": 0, "loaded": []} for cfg in configs},
                      "bands": {"exit": 0, "files": ["bands.csv", "bands.json"], "loaded": []}}
    # the deferred import inside log_mgf_truncated runs: the value is the one
    # tests/test_anderson.py pins, bit for bit the value in this process
    assert value == log_mgf_truncated(DisorderSpec(law="kappa_tail", kappa=1.0), 3.0, 0.5)
    assert value == pytest.approx(-1.3083719736513757, abs=1e-9)
    # so does clopper_pearson, whose first call loads scipy.special
    assert tuple(interval) == lifshitz_lab.clopper_pearson(3, 10)
