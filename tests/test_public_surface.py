"""No public name in ``src/qlof`` exists only for its tests.

Every module-level public ``def`` and ``class`` must be used outside
``tests/``: referenced as a name, an attribute or an import in ``src/``,
``demos/`` or ``bench/``, or named as a console script in ``pyproject.toml``.
A string that is exactly the name counts too, as ``getattr`` takes it:
``bench/workloads.py`` picks each workload's generator so.  A definition
does not use itself, and the re-exports of ``qlof/__init__.py`` are not
uses.  The names are read from the syntax tree, so a mention inside a
docstring or comment is not a use.  Reference circuits the tests check laws
against belong in ``tests/reference.py``.
"""

import ast
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = pytest.importorskip("tomli")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qlof"

# Named by the acceptance criteria and tested directly.
TESTED_DIRECTLY = {"lof_all", "q_add"}


def _names(node: ast.AST) -> set[str]:
    """Every name, attribute, imported name and identifier string under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                out.update(alias.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(sub.value)
    return out


def _public_definitions() -> set[str]:
    defs = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs.add(node.name)
    return defs


def _uses() -> set[str]:
    used = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                continue  # a re-export
            # A top-level definition's own subtree does not use its name.
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            used |= _names(node) - {own}
    for folder in ("demos", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            used |= _names(ast.parse(path.read_text()))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    used |= {target.rpartition(":")[2] for target in scripts.values()}
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = _public_definitions() - _uses() - TESTED_DIRECTLY
    assert not unused, f"public names used only by tests: {sorted(unused)}"


def test_the_exceptions_are_still_public_definitions():
    assert TESTED_DIRECTLY <= _public_definitions()
