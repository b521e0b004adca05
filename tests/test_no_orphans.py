"""Every top-level function and class in src/ is named somewhere else in src/.

A definition that only tests call is dead weight in the program: it keeps a
second implementation of a concept alive, or outlives the code path it
served. Two checks are exempt: `bundle_hash` (the byte-determinism check of
acceptance criterion 7) and `lasso_kkt_violation` (the optimality check of
criterion 1).
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = {"bundle_hash", "lasso_kkt_violation"}


def _definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _references(tree: ast.AST) -> set[str]:
    """Every name a module loads, reads as an attribute or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def orphans(modules: dict[str, str]) -> set[str]:
    """Top-level names of `modules` (path -> source) that no other module and
    no other top-level statement of their own module names."""
    found = set()
    trees = {path: ast.parse(text) for path, text in modules.items()}
    for path, tree in trees.items():
        elsewhere = set().union(*(_references(t) for p, t in trees.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = set().union(*(_references(other) for other in tree.body
                                if other is not node))
            if node.name not in elsewhere | own:
                found.add(node.name)
    return found


def test_no_src_definition_is_unreferenced():
    modules = {str(p.relative_to(SRC)): p.read_text(encoding="utf-8")
               for p in sorted(SRC.rglob("*.py"))}
    assert orphans(modules) == ALLOWED


def test_guard_sees_an_unreferenced_definition():
    modules = {"a.py": "def used():\n    pass\n\ndef dead():\n    used()\n",
               "b.py": "from a import used\n\nclass Kept:\n    pass\n\nKept()\n"}
    assert orphans(modules) == {"dead"}
