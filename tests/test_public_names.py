"""Every public name resolves: each layer's ``__all__`` and the package imports.

The benchmark tracer wraps each name in the ``__all__`` of the layers listed
in ``bench/tracing.py``, so a stale entry there breaks every traced run. The
program imports no scipy: scipy is a test dependency only.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import auricle

REPO = Path(__file__).resolve().parents[1]


def _tracer_layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", REPO / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer", _tracer_layers())
def test_layer_all_resolves(layer):
    module = importlib.import_module(f"auricle.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(auricle.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"auricle.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"auricle.{node.module}.{alias.name}"
            assert getattr(auricle, alias.asname or alias.name) is getattr(module, alias.name)


def _packages_loaded_by_cli_import() -> set:
    """The top-level packages of every module a fresh interpreter holds after ``import auricle.cli``."""
    src = str(Path(auricle.__file__).resolve().parents[1])
    child = "import sys; sys.path.insert(0, sys.argv[1]); import auricle.cli; print(*sys.modules, sep='\\n')"
    out = subprocess.run([sys.executable, "-c", child, src], capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    assert "auricle.cli" in loaded
    return {m.split(".")[0] for m in loaded}


def test_cli_import_loads_neither_scipy_signal_nor_stats():
    # scipy is a test dependency only: a fresh interpreter running the CLI loads none of it
    assert "scipy" not in _packages_loaded_by_cli_import()


def test_cli_import_loads_no_multiprocessing():
    # Only evaluate --jobs above 1 starts worker processes; importing multiprocessing would cost every command.
    assert {"multiprocessing", "_multiprocessing"}.isdisjoint(_packages_loaded_by_cli_import())


def test_no_source_file_imports_scipy():
    imported = []
    for path in sorted(Path(auricle.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module))
    assert len(imported) > 10
    assert [(name, module) for name, module in imported if module.split(".")[0] == "scipy"] == []
