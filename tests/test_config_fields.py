"""Every config field is read by the program, and removed fields stay removed.

A field that nothing reads is an option that cannot turn: a config file can
set it, and the run ignores the value. A field counts as read when a module
of src/ other than config.py reads it as an attribute, or reads a property
of its own class that reads it (`CongestionParams.min_slots` reads `t_min`).
"""
import ast
import dataclasses
import json
from pathlib import Path

import pytest

from tweet2traffic.clock import SLOT_MINUTES
from tweet2traffic.config import CongestionParams, PipelineConfig, load_config
from tweet2traffic.errors import InvalidConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "tweet2traffic"

# fields that could be set but never turned anything: the speed feed's slot
# and the 05:00 cutoff are fixed by `clock`, the sleep-kind filter admitted
# every kind the tweet loader accepts, and the calendar has 52 weeks and 12
# months whatever a config says
REMOVED = [
    {"congestion": {"slot": 10}},
    {"harness": {"cutoff_hour": 3}},
    {"tweets": {"timeline_kinds_for_sleep": ["GEOCODED"]}},
    {"features": {"weeks_per_year": 53}},
    {"features": {"months_per_year": 13}},
]


def leaf_fields():
    """(section, field) of every settable config leaf; section None is top level."""
    out = []
    for f in dataclasses.fields(PipelineConfig):
        default = getattr(PipelineConfig(), f.name)
        if dataclasses.is_dataclass(default):
            out += [(f.name, g.name) for g in dataclasses.fields(default)]
        else:
            out.append((None, f.name))
    return out


def _attribute_reads(tree) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _property_reads(tree) -> dict[str, set[str]]:
    """property name -> the `self.` attributes it reads, over config.py's classes."""
    out: dict[str, set[str]] = {}
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for fn in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
            if any(isinstance(d, ast.Name) and d.id == "property" for d in fn.decorator_list):
                out[fn.name] = {node.attr for node in ast.walk(fn)
                                if isinstance(node, ast.Attribute)
                                and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return out


def unread_fields() -> set[str]:
    config = SRC / "config.py"
    outside = set().union(*(_attribute_reads(ast.parse(p.read_text(encoding="utf-8")))
                            for p in sorted(SRC.rglob("*.py")) if p != config))
    properties = _property_reads(ast.parse(config.read_text(encoding="utf-8")))
    read = outside | {attr for prop, attrs in properties.items() if prop in outside
                      for attr in attrs}
    return {f"{section}.{name}" if section else name
            for section, name in leaf_fields() if name not in read}


def test_every_config_field_is_read_outside_config():
    assert unread_fields() == set()


def test_the_config_has_48_settable_leaves():
    assert len(leaf_fields()) == 48


@pytest.mark.parametrize("overrides", REMOVED, ids=lambda o: ".".join(
    [next(iter(o)), next(iter(next(iter(o.values()))))]))
def test_removed_field_is_an_invalid_config(tmp_path, overrides):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(overrides))
    with pytest.raises(InvalidConfig, match="unknown config key"):
        load_config(path)


def test_slot_is_the_clock_slot_and_bounds_the_run_lengths():
    assert CongestionParams().slot == SLOT_MINUTES
    assert CongestionParams(t_min=20, merge_gap=10).min_slots == 20 // SLOT_MINUTES
    for bad in ({"t_min": SLOT_MINUTES + 1}, {"merge_gap": 0}):
        with pytest.raises(InvalidConfig, match="multiple of slot"):
            CongestionParams(**bad)
