"""The package re-exports each module's __all__, lazily: the modules' lists
are the only lists of public names."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import fracwave


def _modules():
    return [importlib.import_module(f"fracwave.{name}") for name in fracwave._MODULES]


def test_no_name_is_exported_twice():
    owners: dict[str, str] = {}
    for module in _modules():
        for name in module.__all__:
            assert name not in owners, f"{name} in {owners.get(name)} and {module.__name__}"
            owners[name] = module.__name__


def test_package_all_is_version_plus_module_names():
    names = sorted(n for module in _modules() for n in module.__all__)
    assert fracwave.__all__ == ["__version__", *names]
    assert set(fracwave.__all__) <= set(dir(fracwave))


def test_package_names_are_the_module_objects():
    for module in _modules():
        for name in module.__all__:
            assert getattr(fracwave, name) is getattr(module, name), name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from fracwave import *", namespace)
    assert set(fracwave.__all__) <= set(namespace)


def test_importing_the_cli_loads_no_numpy():
    # the CLI pins BLAS threads before the first numerical import
    code = (
        "import sys\n"
        "from fracwave import cli\n"
        "import fracwave, fracwave.cli\n"
        "assert not hasattr(fracwave, '__wrapped__')\n"
        "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_imports_no_private_name():
    # the command line drives the package through its public names only
    tree = ast.parse(Path(importlib.import_module("fracwave.cli").__file__).read_text())
    private = [
        f"from .{node.module} import {alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not private, private


def test_no_assert_statement_in_the_package():
    # validation must survive `python -O`, which strips assert statements
    package = Path(fracwave.__file__).parent
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts, asserts
