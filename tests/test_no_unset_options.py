"""Every defaulted parameter of a src/ function is set by some src/ call.

A default that no caller overrides is an option nothing uses: it keeps a
second code path alive (or a branch that cannot run) for a caller that does
not exist. A parameter counts as set when a call in src/ of a function of
the same name passes it by name, passes enough positional arguments to reach
it, or splats `*args` or `**kwargs`. The exempt parameters below are set
only from outside src/, each for the reason given.

The mirror case is a default that every src/ call overrides with one and
the same literal: a constant dressed as an option, whose default branch
only tests can reach. Neither kind is allowed.
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
    """Every call of `trees`: (called name, positional argument nodes,
    {keyword: value node}, *args used, **kwargs used)."""
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            yield (name, node.args, {k.arg: k.value for k in node.keywords if k.arg},
                   any(isinstance(a, ast.Starred) for a in node.args),
                   any(k.arg is None for k in node.keywords))


def _reaching_calls(modules: dict[str, str]):
    """(key, defaulted, calls) of every definition of `modules`, where `calls`
    holds each call that reaches it as (positional nodes, keyword nodes, *args
    used, **kwargs used).

    A function passed by name as an argument is also called under the name
    of the parameter it binds: `_fit_l1_cv(fit_lasso, ...)` calls it as `fit`.
    """
    trees = [ast.parse(text) for text in modules.values()]
    definitions = [d for path, tree in zip(modules, trees) for d in _definitions(path, tree)]
    positional = {called: names for _key, called, names, _d in definitions}
    calls: dict[str, list] = {}
    aliases: dict[str, set[str]] = {}
    for name, args, keywords, star, splat in _calls(trees):
        calls.setdefault(name, []).append((args, keywords, star, splat))
        names = positional.get(name, [])
        slots = [(names[i] if i < len(names) else None, v) for i, v in enumerate(args)]
        for slot, value in slots + list(keywords.items()):
            if slot is not None and isinstance(value, ast.Name):
                aliases.setdefault(value.id, set()).add(slot)
    return [(key, defaulted, [c for name in {called} | aliases.get(called, set())
                              for c in calls.get(name, [])])
            for key, called, _names, defaulted in definitions]


def _argument(call, param: str, position):
    """The node `call` passes as `param`: None when it leaves the default,
    `...` when a `*args` or `**kwargs` splat may pass it."""
    args, keywords, star, splat = call
    if param in keywords:
        return keywords[param]
    if position is not None and position < len(args) and not any(
            isinstance(a, ast.Starred) for a in args[:position + 1]):
        return args[position]
    return ... if splat or (star and position is not None) else None


def unset_options(modules: dict[str, str]) -> set[str]:
    """`module:function:parameter` of each default that no call of `modules` sets."""
    return {f"{key}:{param}" for key, defaulted, calls in _reaching_calls(modules)
            for param, position in defaulted
            if all(_argument(c, param, position) is None for c in calls)}


def _literal(node) -> str | None:
    """A literal argument's `ast.dump`; None for anything else."""
    if not isinstance(node, ast.AST):
        return None
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.dump(node)


def literal_options(modules: dict[str, str]) -> set[str]:
    """`module:function:parameter` of each default that every call of `modules`
    overrides with one and the same literal: a constant dressed as an option."""
    found = set()
    for key, defaulted, calls in _reaching_calls(modules):
        for param, position in defaulted:
            values = {_literal(_argument(c, param, position)) for c in calls}
            if len(values) == 1 and None not in values:
                found.add(f"{key}:{param}")
    return found


def _src_modules() -> dict[str, str]:
    return {p.relative_to(SRC).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted(SRC.rglob("*.py"))}


def test_every_default_is_set_by_a_src_call():
    assert unset_options(_src_modules()) == set(ALLOWED)


def test_no_default_is_overridden_by_one_literal():
    assert literal_options(_src_modules()) == set()


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


def test_guard_sees_one_literal_overrides():
    modules = {"a.py": ("def f(x, k=0, m=1, s=2):\n    pass\n\n"
                        "def g(x, k=0):\n    pass\n\n"
                        "def h(x, k=0):\n    pass\n\n"
                        "def run(fn, x):\n    fn(x, k=False, m=1)\n"),
               "b.py": ("from a import f, g, h, run\n\nrun(f, 0)\n"
                        "f(0, False, m=3, s=2)\nf(0, k=False, m=3, s=-2)\n"
                        "g(0, k=1)\ng(0)\nh(0, 5)\nh(0, *args)\n")}
    assert literal_options(modules) == {"a.py:f:k"}
