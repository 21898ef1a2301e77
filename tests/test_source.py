"""Checks on the package source itself."""

import ast
from pathlib import Path

import binheight

SOURCES = sorted(Path(binheight.__file__).parent.glob("*.py"))


def self_calls(tree: ast.AST) -> list[str]:
    """Functions that call themselves by name, or methods calling self.<own name>."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == fn.name) or (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id == "self"
            ):
                found.append(f"{fn.name} (line {node.lineno})")
    return found


def test_guard_sees_recursion():
    source = (
        "def walk(k):\n    return walk(k - 1)\n"
        "class C:\n    def go(self):\n        return self.go()\n"
    )
    assert self_calls(ast.parse(source)) == ["walk (line 2)", "go (line 5)"]


def test_no_recursion_in_package():
    # a search that recursed once per column or poset element died with
    # RecursionError on inputs of about a thousand; searches keep explicit
    # stacks instead
    assert SOURCES
    found = {
        path.name: calls
        for path in SOURCES
        if (calls := self_calls(ast.parse(path.read_text())))
    }
    assert found == {}
