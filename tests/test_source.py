"""Checks on the package source itself."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mstratio"


def test_no_assert_statements():
    # `python -O` strips asserts, and a bare AssertionError escapes the CLI's
    # exit-code map: internal checks raise InvariantViolation instead.
    modules = sorted(PACKAGE.glob("**/*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
