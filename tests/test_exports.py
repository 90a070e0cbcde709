import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dualstock

MODULES = sorted(info.name for info in pkgutil.iter_modules(dualstock.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"dualstock.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_listed_names():
    # every name dualstock/__init__.py imports from a module is in that
    # module's __all__, so deleting a name cannot leave a stale export behind
    tree = ast.parse(Path(dualstock.__file__).read_text(encoding="utf-8"))
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert {module for module, _ in reexports} >= {"lstm", "forecast"}
    unlisted = [
        (module, name)
        for module, name in reexports
        if name not in importlib.import_module(f"dualstock.{module}").__all__
    ]
    assert unlisted == []



def test_significance_is_the_only_producer_of_coherence_fields():
    # a field without its Monte-Carlo result has no constructor left to build it
    wavelet = importlib.import_module("dualstock.wavelet")
    for module in (dualstock, wavelet):
        assert "coherence" not in getattr(module, "__all__", ())
        assert not hasattr(module, "coherence")


def test_cli_import_loads_the_functions_the_benchmark_times():
    # benchmarks/tracer.py wraps significance.significance through sys.modules
    # right after importing dualstock.cli: were that import made lazy, the
    # benchmark would record no significance time and project a false gain
    src = Path(dualstock.__file__).resolve().parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import dualstock.cli as cli\n"
        "assert 'dualstock.significance' in sys.modules, 'dualstock.cli does not import dualstock.significance'\n"
        "significance = sys.modules['dualstock.significance']\n"
        "for fn in (cli.main, cli.load_config, significance.significance):\n"
        "    assert callable(fn), fn\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
