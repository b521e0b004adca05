"""Every function the benchmark's tracer wraps still exists where it looks.

A refactor that renames a traced function, or stops importing it into the
module the tracer patches, silently zeroes that layer of the benchmark.
"""
import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import SITES  # noqa: E402

LOOKUPS = [(site.name, lookup) for site in SITES for lookup in site.lookups]


@pytest.mark.parametrize("name,lookup", LOOKUPS, ids=[f"{n}@{lk[0]}" for n, lk in LOOKUPS])
def test_trace_site_resolves(name, lookup):
    module, attr, *key = lookup
    holder = importlib.import_module(module)
    if key:
        assert callable(getattr(holder, attr)[key[0]]), name
    else:
        assert callable(getattr(holder, attr)), name
