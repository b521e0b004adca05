"""No handler in src/ catches everything.

A bare, `Exception` or `BaseException` handler can only hide a programming
error: every failure a user can cause surfaces as a typed
`Tweet2TrafficError`, and both sentiment scorers and the bot rule are total.
A new broad handler fails here.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BROAD = {"Exception", "BaseException"}
ALLOWED: set[str] = set()


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in BROAD for t in types)


class _BroadHandlers(ast.NodeVisitor):
    """Names the innermost function around each broad handler of one module."""

    def __init__(self, module: str):
        self.module = module
        self.scope = ["<module>"]
        self.found: set[str] = set()

    def _function(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _function

    def visit_ExceptHandler(self, node):
        if _is_broad(node):
            self.found.add(f"{self.module}:{self.scope[-1]}")
        self.generic_visit(node)


def test_broad_excepts_only_guard_pluggable_scorers():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        visitor = _BroadHandlers(path.relative_to(SRC).as_posix())
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        found |= visitor.found
    assert found == ALLOWED


def test_guard_sees_bare_and_tuple_handlers():
    code = ("def f():\n    try:\n        pass\n    except:\n        pass\n"
            "def g():\n    try:\n        pass\n    except (ValueError, BaseException):\n"
            "        pass\n"
            "def h():\n    try:\n        pass\n    except ValueError:\n        pass\n")
    visitor = _BroadHandlers("m.py")
    visitor.visit(ast.parse(code))
    assert visitor.found == {"m.py:f", "m.py:g"}
