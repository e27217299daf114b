"""The public API: each name has one import path, the module that defines it.
The test suite's shared references each have a user."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import maskrd

MODULES = ("gf2", "masks", "spectra", "response", "montecarlo", "metrics")
ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_names_of_its_module(name):
    module = importlib.import_module(f"maskrd.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    # every public function and class defined here is listed
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert sorted(set(defined) - set(module.__all__)) == []


def test_package_root_holds_only_its_version_and_submodules():
    for module in MODULES:
        importlib.import_module(f"maskrd.{module}")
    held = [n for n, obj in vars(maskrd).items()
            if not n.startswith("__") and not inspect.ismodule(obj)]
    assert held == []
    assert isinstance(maskrd.__version__, str)


def test_the_readme_python_examples_run():
    # each python block of README.md, run as written against this checkout's source
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for code in blocks:
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr


def _taken_from(module):
    """Names that the other test modules import from module or read off its alias."""
    taken = set()
    for path in TESTS.glob("*.py"):
        if path.stem == module:
            continue
        tree = ast.parse(path.read_text())
        aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names if a.name == module}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == module:
                taken.update(a.name for a in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                taken.add(node.attr)
    return taken


@pytest.mark.parametrize("module", ["conftest", "gf2_oracle", "csv_oracle"])
def test_every_shared_reference_is_used_by_another_test_module(module):
    # a private helper (leading underscore) serves its own module only
    tree = ast.parse((TESTS / f"{module}.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert sorted(defined - _taken_from(module)) == []


def test_no_assert_statement_in_the_package():
    # python -O strips asserts: a check the package relies on is an explicit raise
    asserts = [f"{path.name}:{node.lineno}" for path in sorted((ROOT / "src/maskrd").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert asserts == []
