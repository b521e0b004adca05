"""The program names the benchmark's workloads import still resolve, and the
calls the workloads make on them still bind.

`perfbench/workloads.py` calls pipeline functions directly to check what
`t2t train` and `t2t predict` wrote. A renamed function or a changed
signature would fail those checks inside a benchmark run, not in any test.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
TREE = ast.parse(WORKLOADS.read_text(encoding="utf-8"))

# local name -> (module, imported name), for every import from the program
IMPORTS = {alias.asname or alias.name: (node.module, alias.name)
           for node in ast.walk(TREE)
           if isinstance(node, ast.ImportFrom) and node.module
           and node.module.split(".")[0] == "tweet2traffic"
           for alias in node.names}

CALLS = [node for node in ast.walk(TREE)
         if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
         and node.func.id in IMPORTS]


def resolve(module, name):
    holder = importlib.import_module(module)
    if hasattr(holder, name):
        return getattr(holder, name)
    return importlib.import_module(f"{module}.{name}")


def test_the_workloads_call_program_functions():
    assert CALLS


@pytest.mark.parametrize("local", sorted(IMPORTS))
def test_imported_name_resolves(local):
    assert resolve(*IMPORTS[local]) is not None


@pytest.mark.parametrize("call", CALLS, ids=[f"{c.func.id}@{c.lineno}" for c in CALLS])
def test_call_form_binds(call):
    fn = resolve(*IMPORTS[call.func.id])
    assert not any(isinstance(a, ast.Starred) for a in call.args)
    assert all(k.arg is not None for k in call.keywords)
    inspect.signature(fn).bind(*[None] * len(call.args),
                               **{k.arg: None for k in call.keywords})
