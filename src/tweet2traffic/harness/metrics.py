"""Classification and regression metrics with undefined-as-absent semantics."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..clock import SLOT_MINUTES
from ..congestion import slots_to_hours

METRIC_NAMES = ("accuracy", "precision", "recall", "rmse_cst_h", "rmse_cd_h", "rmse_pti")


@dataclass(frozen=True)
class MetricSet:
    accuracy: float | None
    precision: float | None
    recall: float | None
    rmse_cst_h: float | None
    rmse_cd_h: float | None
    rmse_pti: float | None
    n_days: int
    n_congested: int


def compute_metrics(truth_quads, pred_cs, pred_cst, pred_cd, pred_pti,
                    slot_minutes: int = SLOT_MINUTES) -> MetricSet:
    """Score one segment-split; regression errors cover truth-congested days only."""
    truth_cs = np.array([1 if q.cs else 0 for q in truth_quads])
    pred_cs = np.asarray(pred_cs, dtype=int)
    n = len(truth_cs)
    accuracy = float((truth_cs == pred_cs).mean()) if n else None
    tp = int(((truth_cs == 1) & (pred_cs == 1)).sum())
    precision = tp / int((pred_cs == 1).sum()) if (pred_cs == 1).any() else None
    recall = tp / int((truth_cs == 1).sum()) if (truth_cs == 1).any() else None

    congested = np.flatnonzero(truth_cs == 1)
    if congested.size:
        cst_err = [slots_to_hours(truth_quads[i].cst - pred_cst[i], slot_minutes)
                   for i in congested]
        cd_err = [slots_to_hours(truth_quads[i].cd - pred_cd[i], slot_minutes)
                  for i in congested]
        pti_err = [truth_quads[i].pti - pred_pti[i] for i in congested]
        rmse_cst = float(np.sqrt(np.mean(np.square(cst_err))))
        rmse_cd = float(np.sqrt(np.mean(np.square(cd_err))))
        rmse_pti = float(np.sqrt(np.mean(np.square(pti_err))))
    else:
        rmse_cst = rmse_cd = rmse_pti = None
    return MetricSet(accuracy, precision, recall, rmse_cst, rmse_cd, rmse_pti,
                     n_days=n, n_congested=int(congested.size))


def weighted_aggregate(entries) -> dict[str, float | None]:
    """Sample-count weighted mean of each metric over an iterable of MetricSets.

    Classification metrics weight by each set's test-day count, regression
    metrics by its congested-day count; metrics undefined everywhere stay
    absent. The day-weighted mean of accuracies is the pooled accuracy.
    Precision, recall and the RMSEs are not pooled: they are weighted means
    of the per-split values, not recomputed from summed TP/FP counts or
    squared errors.
    """
    out: dict[str, float | None] = {}
    for name in METRIC_NAMES:
        total_w, total = 0.0, 0.0
        for ms in entries:
            value = getattr(ms, name)
            if value is None:
                continue
            w = ms.n_congested if name.startswith("rmse") else ms.n_days
            if w <= 0:
                continue
            total_w += w
            total += w * value
        out[name] = total / total_w if total_w > 0 else None
    return out
