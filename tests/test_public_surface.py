import ast
import importlib
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
