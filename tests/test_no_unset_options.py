"""Every defaulted parameter of a src/ function is set by some src/ call.

A default that no caller overrides is an option nothing uses: it keeps a
second code path alive (or a branch that cannot run) for a caller that does
not exist. A parameter counts as set when a call in src/ of a function of
the same name passes it by name, passes enough positional arguments to reach
it, or splats `*args` or `**kwargs`. The exempt parameters below are set
only from outside src/, each for the reason given.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = {
    "tweet2traffic/cli.py:main:argv":
        "the console script reads sys.argv; the tests and perfbench pass argv",
    "tweet2traffic/learn/optimizers.py:fit_lasso:fit_bias":
        "criterion 1 checks the Lasso closed form without an intercept",
    "tweet2traffic/learn/forest.py:rf_fit:bootstrap":
        "test seam: a forest without resampling has a hand-checkable split",
    "tweet2traffic/learn/forest.py:rf_fit:max_depth":
        "test seam: depth-capped trees are checked against the cap",
    "tweet2traffic/harness/ablation.py:run_ablation:plan":
        "test seam: the tests score an ablation on a short split plan",
}


def _parameters(fn: ast.FunctionDef, is_method: bool):
    """Positional parameter names in call order, and (name, call position, or
    None when keyword-only) of each defaulted parameter."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if is_method and positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    first_default = len(positional) - len(args.defaults)
    defaulted = [(name, i) for i, name in enumerate(positional) if i >= first_default]
    defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    return positional, defaulted


def _definitions(module: str, tree: ast.Module):
    """(key, called name, positional names, defaulted) of every function and method."""
    found = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = owner.name if child.name == "__init__" and owner else child.name
                found.append((f"{module}:{child.name}", called,
                              *_parameters(child, owner is not None)))
                walk(child, None)
            else:
                walk(child, owner)

    walk(tree, None)
    return found


def _calls(trees):
    """Every call of `trees`: (called name, positional count, keywords, *args
    used, **kwargs used, [(position or keyword, name) of each bare-name argument])."""
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            slots = list(enumerate(node.args)) + [(k.arg, k.value) for k in node.keywords]
            yield (name, len(node.args), {k.arg for k in node.keywords},
                   any(isinstance(a, ast.Starred) for a in node.args),
                   any(k.arg is None for k in node.keywords),
                   [(slot, v.id) for slot, v in slots if isinstance(v, ast.Name)])


def unset_options(modules: dict[str, str]) -> set[str]:
    """`module:function:parameter` of each default that no call of `modules` sets.

    A function passed by name as an argument is also called under the name
    of the parameter it binds: `_fit_l1_cv(fit_lasso, ...)` calls it as `fit`.
    """
    trees = [ast.parse(text) for text in modules.values()]
    definitions = [d for path, tree in zip(modules, trees) for d in _definitions(path, tree)]
    positional = {called: names for _key, called, names, _d in definitions}
    calls: dict[str, list] = {}
    aliases: dict[str, set[str]] = {}
    for name, n, keywords, star, splat, named in _calls(trees):
        calls.setdefault(name, []).append((n, keywords, star, splat))
        for slot, value in named:
            if isinstance(slot, int):
                names = positional.get(name, [])
                slot = names[slot] if slot < len(names) else None
            if slot is not None:
                aliases.setdefault(value, set()).add(slot)
    unset = set()
    for key, called, _names, defaulted in definitions:
        found = [c for name in {called} | aliases.get(called, set())
                 for c in calls.get(name, [])]
        for param, position in defaulted:
            if not any(param in keywords or splat
                       or (position is not None and (star or n > position))
                       for n, keywords, star, splat in found):
                unset.add(f"{key}:{param}")
    return unset


def test_every_default_is_set_by_a_src_call():
    modules = {p.relative_to(SRC).as_posix(): p.read_text(encoding="utf-8")
               for p in sorted(SRC.rglob("*.py"))}
    assert unset_options(modules) == set(ALLOWED)


def test_guard_sees_unset_defaults():
    modules = {"a.py": ("def f(x, y=1, z=2, *, w=3):\n    pass\n\n"
                        "class C:\n    def __init__(self, a=0, b=1):\n        pass\n"
                        "    def m(self, c=0):\n        pass\n"
                        "def g(x, k=0):\n    pass\n\n"
                        "def h(x, k=0):\n    pass\n\n"
                        "def run(fn, x):\n    fn(x, k=1)\n"),
               "b.py": ("from a import C, f, g, h, run\n\nf(0, 5)\nf(0, w=4)\n"
                        "C(1).m()\nrun(g, 0)\nrun(x=0, fn=h)\nh(0)\n")}
    assert unset_options(modules) == {"a.py:f:z", "a.py:__init__:b", "a.py:m:c"}
