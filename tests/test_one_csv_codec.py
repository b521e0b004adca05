"""Every CSV file the program reads or writes goes through one codec.

`ingest/loaders.py` holds it: `write_rows` is the only caller of
`csv.writer` in src/, and `_open_rows`, under `read_rows`, the chunked
speed loader and the one-pass tweet and weather loops, the only caller of
`csv.reader`. A new call of either elsewhere writes or checks the file
format a second time, so it fails here.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CODEC = {"writer", "reader", "DictWriter", "DictReader"}
ALLOWED = {
    "tweet2traffic/ingest/loaders.py:write_rows:writer",
    "tweet2traffic/ingest/loaders.py:_open_rows:reader",
}


class _CsvCalls(ast.NodeVisitor):
    """Names the innermost function around each `csv` codec call of one module."""

    def __init__(self, module: str):
        self.module = module
        self.scope = ["<module>"]
        self.found: list[str] = []

    def _function(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _function

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in CODEC
                and isinstance(f.value, ast.Name) and f.value.id == "csv"):
            self.found.append(f"{self.module}:{self.scope[-1]}:{f.attr}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        # `from csv import writer` would hide a call from the check above
        if node.module == "csv":
            self.found.append(f"{self.module}:{self.scope[-1]}:from csv import")
        self.generic_visit(node)


def _scan(path: Path, code: str) -> list[str]:
    visitor = _CsvCalls(path.as_posix())
    visitor.visit(ast.parse(code, filename=str(path)))
    return visitor.found


def test_csv_is_read_and_written_only_by_the_codec():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += _scan(path.relative_to(SRC), path.read_text(encoding="utf-8"))
    assert sorted(found) == sorted(ALLOWED)


def test_guard_sees_every_form_of_csv_call():
    code = ("import csv\nfrom csv import writer\n"
            "def f(fh):\n    csv.writer(fh).writerow([1])\n"
            "def g(fh):\n    return list(csv.DictReader(fh))\n"
            "class C:\n    def h(self, fh):\n        return csv.reader(fh)\n"
            "def ok(fh):\n    return json.load(fh), csv.QUOTE_ALL\n")
    assert sorted(_scan(Path("m.py"), code)) == [
        "m.py:<module>:from csv import", "m.py:f:writer", "m.py:g:DictReader", "m.py:h:reader"]
