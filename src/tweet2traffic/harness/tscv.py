"""Nested time-series cross-validation over chronological folds.

The day axis splits into n_outer+1 contiguous folds (remainder days join the
final fold); split k trains on folds 1..k and tests on fold k+1. Everything
leakage-sensitive is refit per split inside build_split/fit_stack (the stack
models of a split share the fits they have in common); baseline
hyperparameters (HM window, SAR orders) come from inner validation on the
training span.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..clock import N_SLOTS
from ..errors import InsufficientHistory, TooFewDays, UnknownVariant
from .baselines import fit_sar, hm_predict, index_history, sar_quadruple, sar_rollout
from .metrics import compute_metrics, weighted_aggregate
from .pipeline import (
    STACK_MODELS,
    PreparedData,
    build_split,
    fit_stack,
    stack_predictions,
)

log = logging.getLogger(__name__)


def outer_folds(n_days: int, n_outer: int) -> list[list[int]]:
    """The n_outer+1 contiguous day-index folds of the outer splits."""
    k = n_outer + 1
    if n_days < k:
        raise TooFewDays(f"{n_days} days cannot form {k} folds")
    size = n_days // k
    folds = []
    for i in range(k):
        start = i * size
        end = (i + 1) * size if i < k - 1 else n_days
        folds.append(list(range(start, end)))
    return folds


@dataclass
class EvaluationReport:
    per_split: dict = field(default_factory=dict)  # (model, segment, split) -> MetricSet
    aggregate: dict = field(default_factory=dict)  # (model, segment) and (model, "ALL")

    def finalize(self):
        models = sorted({m for m, _s, _k in self.per_split})
        segments = sorted({s for _m, s, _k in self.per_split})
        for m in models:
            entries_all = []
            for s in segments:
                entries = [ms for (mm, ss, _k), ms in self.per_split.items()
                           if mm == m and ss == s]
                if entries:
                    self.aggregate[(m, s)] = weighted_aggregate(entries)
                    entries_all.extend(entries)
            self.aggregate[(m, "ALL")] = weighted_aggregate(entries_all)
        return self

    def aggregate_metric(self, model: str, metric: str):
        """`metric` of `model` aggregated over every segment."""
        return self.aggregate.get((model, "ALL"), {}).get(metric)


def _score(prepared, art, report, model_name, split_id, predict):
    """Score a model on each segment's test days that have truth.

    `predict(sid, days)` returns one (cs, cst, cd, pti) row per day, or None
    when the segment's model cannot be fit; a segment without a truth day is
    not scored.
    """
    for sid in sorted(art.quads):
        days = [d for d in art.test_days if art.quads[sid][d] is not None]
        rows = predict(sid, days) if days else None
        if rows:
            cs, cst, cd, pti = (list(col) for col in zip(*rows))
            report.per_split[(model_name, sid, split_id)] = compute_metrics(
                [art.quads[sid][d] for d in days], cs, cst, cd, pti,
                prepared.config.congestion.slot)


def _hm_history(art, sid, days):
    return index_history([(d, art.quads[sid][d]) for d in days
                          if art.quads[sid][d] is not None])


def _tune_hm_window(prepared, art) -> int | None:
    """Window chosen by CS accuracy on the last quarter of the training span."""
    grid = prepared.config.harness.hm_window_grid
    train = art.train_days
    if len(train) < 8:
        return grid[0] or None
    cut = max(len(train) * 3 // 4, 1)
    fit_days, val_days = train[:cut], train[cut:]
    histories = {sid: _hm_history(art, sid, fit_days) for sid in sorted(art.quads)}
    best, best_acc = None, -1.0
    for w in grid:
        window = w or None
        correct = total = 0
        for sid in sorted(art.quads):
            for d in val_days:
                truth = art.quads[sid][d]
                if truth is None:
                    continue
                pred = hm_predict(histories[sid], d, window)
                correct += int(pred.cs == int(truth.cs))
                total += 1
        acc = correct / total if total else 0.0
        if acc > best_acc + 1e-12:
            best_acc, best = acc, window
    return best


def _hm_predictor(prepared, art):
    window = _tune_hm_window(prepared, art)

    def predict(sid, days):
        history = _hm_history(art, sid, art.train_days)
        preds = [hm_predict(history, d, window) for d in days]
        return [(p.cs, p.cst, p.cd, p.pti) for p in preds]
    return predict


def _tune_sar(prepared, art, sid) -> tuple[int, int]:
    """Orders chosen by rollout speed RMSE on the last quarter of the train span."""
    grid = prepared.config.harness.sar_grid
    train_idx = [prepared.day_index[d] for d in art.train_days]
    if len(train_idx) < 16 or len(grid) == 1:
        return grid[0]
    cut = max(len(train_idx) * 3 // 4, 1)
    fit_idx, val_idx = train_idx[:cut], train_idx[cut:]
    speeds = prepared.speeds[sid]
    off = prepared.morning_offset
    best, best_err = grid[0], np.inf
    for p_lags, h_seasonal in grid:
        try:
            model = fit_sar(sid, speeds, fit_idx, p_lags, h_seasonal, off)
        except InsufficientHistory:
            continue
        days = [di for di in val_idx if di - 7 * model.h_seasonal >= 0]
        preds = sar_rollout(model, speeds, days, off)
        err, count = 0.0, 0
        for pred, actual in zip(preds, speeds[days, off:off + N_SLOTS]):
            ok = np.isfinite(actual)
            if ok.any():
                err += float(((pred[ok] - actual[ok]) ** 2).sum())
                count += int(ok.sum())
        if count and err / count < best_err:
            best_err, best = err / count, (p_lags, h_seasonal)
    return best


def _sar_predictor(prepared, art, split_id):
    params = prepared.config.congestion
    train_idx = [prepared.day_index[d] for d in art.train_days]

    def predict(sid, days):
        p_lags, h_seasonal = _tune_sar(prepared, art, sid)
        try:
            model = fit_sar(sid, prepared.speeds[sid], train_idx, p_lags,
                            h_seasonal, prepared.morning_offset)
        except InsufficientHistory:
            log.warning("SAR: insufficient history for %s split %d", sid, split_id)
            return None
        preds = sar_rollout(model, prepared.speeds[sid],
                            [prepared.day_index[d] for d in days], prepared.morning_offset)
        return [sar_quadruple(pred, art.v_ref[sid], params, prepared.config.pti_quantile)
                for pred in preds]
    return predict


def run_nested_tscv(prepared: PreparedData, models=("t2t", "hm", "sar"),
                    seed: int = 0) -> EvaluationReport:
    """Evaluate the requested models over every outer split.

    `models` may name hm, sar and any key of `STACK_MODELS`; the config's
    `harness.n_outer` sets the number of splits.
    """
    report = EvaluationReport()
    known = {"hm", "sar", *STACK_MODELS}
    unknown = [name for name in models if name not in known]
    if unknown:
        raise UnknownVariant(f"unknown model(s) {', '.join(map(repr, unknown))}; "
                             f"known: {', '.join(sorted(known))}")
    folds = outer_folds(len(prepared.days), prepared.config.harness.n_outer)
    for split_id in range(1, len(folds)):
        _run_split(prepared, report, models, split_id,
                   [prepared.days[i] for fold in folds[:split_id] for i in fold],
                   [prepared.days[i] for i in folds[split_id]], seed + split_id)
    return report.finalize()


def _run_split(prepared, report, models, split_id, train_days, test_days, seed):
    """Build one split, then fit and score every model on it. The split's
    artifacts and fits are freed on return, before the next split is built."""
    art = build_split(prepared, train_days, test_days, seed=seed)
    fits: dict = {}     # the fits this split's stack models share
    for name in models:
        if name == "hm":
            predict = _hm_predictor(prepared, art)
        elif name == "sar":
            predict = _sar_predictor(prepared, art, split_id)
        else:
            predict = partial(stack_predictions, prepared, fit_stack(
                prepared, art, STACK_MODELS[name], seed=seed, fits=fits))
        _score(prepared, art, report, name, split_id, predict)
    log.info("split %d scored (%d train days, %d test days)",
             split_id, len(train_days), len(test_days))
