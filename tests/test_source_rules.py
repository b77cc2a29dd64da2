"""Rules every module of the package keeps."""

import ast
from pathlib import Path

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
