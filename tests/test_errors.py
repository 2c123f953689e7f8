"""The exception types: each is told apart by some `except` in the
package, and `Rejected` holds only its known causes."""

import ast
from pathlib import Path

import pytest

import brepforge
from brepforge.errors import Rejected

PACKAGE = Path(brepforge.__file__).parent


def caught_names() -> set[str]:
    """Every name an `except` clause in the package catches, bare or as a
    module attribute."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for part in ast.walk(node.type):
                    if isinstance(part, ast.Name):
                        names.add(part.id)
                    elif isinstance(part, ast.Attribute):
                        names.add(part.attr)
    return names


def test_every_error_class_is_caught_somewhere():
    # A class no `except` names tells no caller anything its message and
    # base class do not; `BrepForgeError` itself is caught in `cli.main`.
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes - caught_names() == set()


def test_rejection_causes_are_checked():
    exc = Rejected("sliver", "production leaves a sliver gap between facing walls")
    assert (exc.cause, str(exc)) == ("sliver", "production leaves a sliver gap between facing walls")
    with pytest.raises(ValueError, match="unknown rejection cause 'room-filter'"):
        Rejected("room-filter", "storey 1 room 0: area 7.20 outside [8.0, 80.0]")
