"""Rules every module of the package keeps."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import pfzero

SOURCES = sorted(Path(pfzero.__file__).parent.glob("*.py"))


def test_no_assert_in_the_package():
    # checks must survive python -O, which strips assert statements, and fail
    # as a named PfzeroError that maps to an exit code
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (isinstance(exc, ast.Name) and exc.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found


def _imported_names(tree: ast.Module):
    """(name, line) bound by each import of the module, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)


def test_no_unused_import_in_the_package():
    # a name a module imports and never reads is a leftover of deleted code;
    # __init__.py imports only to re-export
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree) if name not in used]
    assert SOURCES and not found


def _unread_parameters(tree: ast.Module):
    """(function, parameter, line) for each named parameter that its
    function's body never reads; self, cls, names starting with an
    underscore and *args / **kwargs are exempt."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = (n for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name))
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        a = node.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs:
            name = arg.arg
            if name not in ("self", "cls") and not name.startswith("_") and name not in read:
                yield node.name, name, arg.lineno


def test_every_parameter_is_read():
    # a parameter no body reads is an option that does nothing
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {fn}({name})" for fn, name, line in _unread_parameters(tree)]
    assert SOURCES and not found


def _referenced_names() -> set[str]:
    """Every name that code in src/, scripts/ or perfbench/ reads, calls,
    imports or looks up as an attribute; a definition or an assignment to a
    bare name is no reference."""
    root = Path(pfzero.__file__).parents[2]
    names = set()
    for path in sorted(p for d in ("src", "scripts", "perfbench") for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _overrides(module, tree: ast.Module):
    """Methods of the module's classes that replace an inherited one, which
    the base class calls, such as argparse.ArgumentParser.error."""
    for node in tree.body:
        cls = getattr(module, node.name, None) if isinstance(node, ast.ClassDef) else None
        if isinstance(cls, type):
            yield from (m for m in vars(cls) if any(m in vars(base) for base in cls.__mro__[1:]))


def _module_level_names(tree: ast.Module):
    """(name, line) for each bare name that a top-level assignment of the
    module binds."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from ((n.id, n.lineno) for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_definition_is_referenced():
    # a function, method, class or module-level name that no code names is
    # dead code kept for tests alone. The check goes by name only: a
    # reference to anything of the same name, or a call of a function from
    # its own body, counts
    referenced = _referenced_names()
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = set(_overrides(importlib.import_module(f"pfzero.{path.stem}"), tree))
        defined = [
            (node.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        for name, line in defined + list(_module_level_names(tree)):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in referenced and name not in exempt:
                found.append(f"{path.name}:{line} {name}")
    assert SOURCES and not found


# SciPy's DOP853 is the tests' tolerance reference for the Taylor continuation
# and mpmath the 250-bit reference for the decimal calculators; the package
# uses neither
REFERENCES = ["scipy", "mpmath"]


@pytest.mark.parametrize("module", REFERENCES)
def test_no_reference_import_in_the_package(module):
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == module]
    assert SOURCES and not found


@pytest.mark.parametrize("module", REFERENCES)
def test_cli_import_leaves_reference_unloaded(module):
    # a fresh interpreter, so no other test has imported the module already
    code = f"import sys, pfzero.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=Path(pfzero.__file__).parents[1],
        timeout=60,
    )
    assert out.stdout.strip() == "False"
