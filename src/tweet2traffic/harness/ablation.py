"""Ablation variants: feature removals, no-cluster, earlier forecast horizons."""
from __future__ import annotations

from ..errors import UnknownVariant
from .metrics import METRIC_NAMES
from .pipeline import ABLATION_VARIANTS
from .tscv import EvaluationReport, run_nested_tscv


def run_ablation(prepared, variant: str, seed: int = 0):
    """Variant evaluation plus percentage deltas against the base model.

    One tsCV pass scores the base model and the variant on the same splits.
    Returns (variant_report, deltas) where deltas maps metric name to
    (variant - base) / base on the all-segment aggregate.
    """
    if variant not in ABLATION_VARIANTS:
        raise UnknownVariant(variant)
    report = run_nested_tscv(prepared, models=("t2t", variant), seed=seed)
    deltas = {}
    for metric in METRIC_NAMES:
        base = report.aggregate_metric("t2t", metric)
        var = report.aggregate_metric(variant, metric)
        if base is None or var is None or base == 0:
            deltas[metric] = None
        else:
            deltas[metric] = (var - base) / base
    var_report = EvaluationReport({key: ms for key, ms in report.per_split.items()
                                   if key[0] == variant})
    return var_report.finalize(), deltas
