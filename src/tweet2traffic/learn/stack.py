"""The clustered model stack: road descriptor plus per-segment heads.

The road-level descriptor is a set of one-versus-rest L1 logistic
classifiers over ordered congestion-cluster labels; its sigmoid outputs are
appended to each segment's features. Per segment, an L1 logistic classifier
predicts congestion status on all days and three Lasso regressors predict
start time, duration and planning index on congested days only. KNN and
random-forest heads, fitted on top of a linear set into a new one and used in
its place, ride on the descriptor outputs / the selected feature columns.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from ..clock import N_SLOTS
from ..config import ModelConfig
from .forest import RandomForestModel, rf_fit
from .knn import KnnModel, knn_fit
from .optimizers import LinearModel
from .selection import constant_logistic, fit_l1_logistic_cv, fit_lasso_cv

log = logging.getLogger(__name__)

REGRESSION_TARGETS = ("cst", "cd", "pti")
FALLBACK_DEFAULTS = {"cst": 36.0, "cd": 12.0, "pti": 1.5}


@dataclass
class OrderedDescriptor:
    n_clusters: int
    classifiers: list[LinearModel]          # level l predicts [label > l]
    feature_names: list[str]

    def predict_scales(self, X) -> np.ndarray:
        return np.column_stack([m.predict_proba(X) for m in self.classifiers])


def descriptor_targets(labels: np.ndarray, level: int) -> np.ndarray:
    return (np.asarray(labels) > level).astype(float)


def _fit_classifier(X, y, feature_names, cfg: ModelConfig) -> LinearModel:
    """L1 logistic with a CV-tuned penalty; the base-rate constant if `y` is constant."""
    if y.min() == y.max():
        return constant_logistic(float(y.mean()), feature_names, X.shape[1])
    return fit_l1_logistic_cv(
        X, y, cfg.grid_multipliers, n_folds=cfg.inner_folds,
        tol=cfg.logistic_tol, cv_tol=cfg.logistic_tol * cfg.inner_cv_tol_factor,
        max_iter=cfg.logistic_max_iter, feature_names=feature_names)


def fit_ordered_descriptor(X, labels, feature_names, cfg: ModelConfig) -> OrderedDescriptor:
    """C-1 independent one-versus-rest L1 logistic fits, penalty tuned per level."""
    labels = np.asarray(labels)
    n_clusters = int(labels.max()) + 1 if len(labels) else 1
    if n_clusters < 2:
        log.warning("single congestion cluster: descriptor reduces to one constant level")
    classifiers = []
    X = np.asarray(X, dtype=float)
    for level in range(max(n_clusters - 1, 1)):
        y = descriptor_targets(labels, level)
        if y.min() == y.max():
            log.warning("descriptor level %d degenerate (all %d); constant output",
                        level, int(y.max()))
        classifiers.append(_fit_classifier(X, y, feature_names, cfg))
    return OrderedDescriptor(n_clusters, classifiers, list(feature_names))


# A head is a fitted non-linear model that reads its own columns of a design
# row: predict_values(X) gives one value per row, to_dict/from_dict persist it.
Head = KnnModel | RandomForestModel


@dataclass
class SegmentModelSet:
    segment_id: str
    classifier: LinearModel
    regressors: dict[str, LinearModel]              # empty: FALLBACK_DEFAULTS are read
    feature_names: list[str]
    heads: dict[str, Head] = field(default_factory=dict)   # used in place of the linear model
    flags: list[str] = field(default_factory=list)


def _targets(quadruples):
    """The congestion labels, the congested rows and the regression targets."""
    cs = np.array([1.0 if q.cs else 0.0 for q in quadruples])
    return cs, np.flatnonzero(cs > 0), {
        "cst": np.array([float(q.cst) for q in quadruples]),
        "cd": np.array([float(q.cd) if q.cd is not None else 0.0 for q in quadruples]),
        "pti": np.array([float(q.pti) if q.pti is not None else 1.0 for q in quadruples]),
    }


def fit_segment_models(segment_id: str, X, quadruples, feature_names,
                       cfg: ModelConfig) -> SegmentModelSet:
    """Classifier on all days; regressors on congested days. No heads."""
    X = np.asarray(X, dtype=float)
    cs, congested, targets = _targets(quadruples)
    flags = ["degenerate_classifier"] if cs.min() == cs.max() else []
    classifier = _fit_classifier(X, cs, feature_names, cfg)
    regressors: dict[str, LinearModel] = {}
    if congested.size == 0:
        flags.append("no_congested_days")
        log.warning("segment %s: no congested training days; fixed fallback defaults in use",
                    segment_id)
    else:
        Xc = X[congested]
        for name in REGRESSION_TARGETS:
            regressors[name] = fit_lasso_cv(
                Xc, targets[name][congested], cfg.grid_multipliers, n_folds=cfg.inner_folds,
                tol=cfg.lasso_tol, cv_tol=max(cfg.lasso_tol * cfg.inner_cv_tol_factor, 1e-4),
                max_iter=cfg.lasso_max_iter, feature_names=feature_names)
    return SegmentModelSet(segment_id, classifier, regressors, list(feature_names),
                           flags=flags)


def fit_segment_heads(linear: SegmentModelSet, X, quadruples, head: str,
                      cfg: ModelConfig, seed: int) -> SegmentModelSet:
    """A copy of `linear` with `head` ("rf" or "knn") models to use in place of its fits."""
    fitted = _HEAD_FITTERS[head](linear, np.asarray(X, dtype=float), *_targets(quadruples),
                                 cfg, seed)
    return replace(linear, heads={n: h for n, h in fitted.items() if h is not None},
                   flags=linear.flags + [f"{head}_no_selected_features_{n}"
                                         for n, h in fitted.items() if h is None])


def _knn_heads(model: SegmentModelSet, X, cs, congested, targets, cfg: ModelConfig,
               seed: int) -> dict[str, Head]:
    cols = [i for i, n in enumerate(model.feature_names) if n.startswith("c_")]
    heads: dict[str, Head] = {"cs": knn_fit(X, cs, cfg.knn_k, "clf", cols)}
    if congested.size:
        for name in REGRESSION_TARGETS:
            heads[name] = knn_fit(X[congested], targets[name][congested], cfg.knn_k,
                                  "reg", cols)
    return heads


def _rf_heads(model: SegmentModelSet, X, cs, congested, targets, cfg: ModelConfig,
              seed: int) -> dict[str, Head | None]:
    """Forests on the columns each linear model selected; None where it selected none."""
    fits = [("cs", model.classifier, np.arange(len(cs)), cs, "clf", seed)]
    if congested.size:
        fits += [(name, model.regressors[name], congested, targets[name], "reg", seed + 1)
                 for name in REGRESSION_TARGETS]
    heads: dict[str, Head | None] = {}
    for name, linear, rows, y, task, head_seed in fits:
        sel = [i for i, w in enumerate(linear.weights) if abs(w) > 1e-12]
        if not sel and name == "cs":
            log.warning("segment %s: classifier selected no features; linear fallback",
                        model.segment_id)
        heads[name] = rf_fit(X[rows], y[rows], task, sel, n_trees=cfg.rf_n_trees,
                             feature_frac=cfg.rf_feature_frac, seed=head_seed) if sel else None
    return heads


_HEAD_FITTERS = {"knn": _knn_heads, "rf": _rf_heads}


@dataclass(frozen=True)
class DayPrediction:
    cs: int
    cst: float               # slots
    cd: float | None
    pti: float | None
    p_congested: float
    raw: dict[str, float]    # regression estimates regardless of the CS decision


def _regression_estimate(model: SegmentModelSet, name: str, row: np.ndarray) -> float:
    head = model.heads.get(name)
    if head is not None:
        return float(head.predict_values(row[None, :])[0])
    reg = model.regressors.get(name)
    if reg is None:
        return FALLBACK_DEFAULTS[name]
    return float(reg.decision(row[None, :])[0])


def predict_day(model: SegmentModelSet, row, cs_threshold: float = 0.5) -> DayPrediction:
    """One segment-day quadruple with range clamps; raw estimates kept for scoring."""
    row = np.asarray(row, dtype=float)
    p = float(model.classifier.predict_proba(row[None, :])[0])
    head = model.heads.get("cs")
    if head is not None:
        # a head's congested share: a tie goes congested
        cs = int(head.predict_values(row[None, :])[0] >= 0.5)
    else:
        cs = int(p >= cs_threshold)
    raw = {
        "cst": float(np.clip(_regression_estimate(model, "cst", row), 0.0, N_SLOTS)),
        "cd": float(np.clip(_regression_estimate(model, "cd", row), 0.0, N_SLOTS)),
        "pti": float(max(_regression_estimate(model, "pti", row), 0.0)),
    }
    if cs:
        return DayPrediction(1, raw["cst"], raw["cd"], raw["pti"], p, raw)
    return DayPrediction(0, 0.0, None, None, p, raw)
