import ast
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dualstock
import dualstock.forecast as forecast_module

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


def test_forecast_is_the_module_and_forecast_group_its_entry_point():
    # the package exports no function named after a submodule, which would
    # hide it from ``import dualstock.forecast as m``
    assert inspect.ismodule(forecast_module)
    assert dualstock.forecast_group is forecast_module.forecast_group
    assert not hasattr(forecast_module, "forecast")


def test_readme_quickstart_imports_classes_and_functions():
    # a quickstart importing a submodule name (``from dualstock import
    # forecast``) would run without an import error
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\s*```python\n(.*?)```", readme, re.DOTALL).group(1)
    names = [
        alias.name
        for node in ast.parse(block).body
        if isinstance(node, ast.ImportFrom) and node.module == "dualstock"
        for alias in node.names
    ]
    assert "forecast_group" in names
    assert [
        name for name in names
        if not (inspect.isclass(getattr(dualstock, name, None)) or inspect.isfunction(getattr(dualstock, name, None)))
    ] == []


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
