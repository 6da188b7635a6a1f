import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import lifshitz_lab


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


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
