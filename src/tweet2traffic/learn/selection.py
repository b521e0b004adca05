"""Penalty grids and inner cross-validation for the L1 models.

This module owns the column frame the solvers run in: it drops the columns
that are constant on the training rows, z-scores the rest once per design,
and maps each solution back. The grid multiplies the data-derived critical
penalty (smallest value that zeroes every coefficient of the standardized
problem) by the configured multipliers, giving a warm-startable descending
path whose floor is 1% of critical. Inner CV scores each grid point on
contiguous validation blocks.
"""
from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .optimizers import LinearModel, fit_l1_logistic, fit_lasso, sigmoid

_EPS = 1e-12


def _alive_columns(X) -> np.ndarray:
    return X.std(axis=0) > _EPS


def _standardize(X):
    """Z-scored columns, plus the (mean, scale, alive) frame that maps a
    solution back; zero-variance columns come out all zero."""
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    alive = scale > _EPS
    scale_safe = np.where(alive, scale, 1.0)
    return np.where(alive, (X - mean) / scale_safe, 0.0), mean, scale_safe, alive


def _destandardize(w_std, b_std, mean, scale, alive):
    w = np.where(alive, w_std / scale, 0.0)
    b = b_std - float(mean @ w)
    return w, b


def critical_penalty(Xs, y) -> float:
    """Smallest logistic lambda that zeroes every coefficient on the
    standardized design `Xs`. The Lasso's squared loss has twice the
    gradient, so its critical alpha is exactly twice this."""
    return float(np.abs(Xs.T @ (y - y.mean())).max())


def penalty_grid(critical: float, multipliers) -> list[float]:
    critical = max(critical, _EPS)
    return sorted((m * critical for m in multipliers), reverse=True)


def contiguous_folds(n: int, k: int) -> list[np.ndarray]:
    """Chronology-preserving blocks with edges at round(i * n / k), so block
    sizes differ by at most one: n=10, k=4 gives 2, 3, 3 and 2 (Python rounds
    halves to even)."""
    k = max(1, min(k, n))
    edges = [round(i * n / k) for i in range(k + 1)]
    return [np.arange(edges[i], edges[i + 1]) for i in range(k) if edges[i + 1] > edges[i]]


def _log_loss(y, margin) -> float:
    p = np.clip(sigmoid(margin), 1e-12, 1 - 1e-12)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).sum())


def _squared_loss(y, prediction) -> float:
    resid = y - prediction
    return float(resid @ resid)


def _warm_path(fit, Xs, y, penalties, cv_tol, live_names) -> list[tuple]:
    """(weights, bias) in `Xs`'s frame after each penalty of a descending path.

    Every fit is loose (`cv_tol`, at most 200 iterations) and starts from the
    previous solution. A capped path fit is expected, so the path's warnings
    are silenced here; the caller's final fit still warns.
    """
    warm, states = None, []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for penalty in penalties:
            model = fit(Xs, y, penalty, tol=cv_tol, max_iter=200, feature_names=live_names,
                        warm_start=warm)
            warm = (model.weights, model.bias)
            states.append(warm)
    return states


def _cv_losses(fit, loss, X, y, grid, folds, cv_tol, live_names) -> np.ndarray:
    """Summed validation loss per penalty, one warm-started path per fold.

    Each fold's training rows are standardized once for the whole path, and
    each solution is mapped back to X's frame for scoring. `live_names`
    names X's columns for every fit of the path.
    """
    n = len(y)
    scores = np.zeros(len(grid))
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        Xs, *frame = _standardize(X[mask])
        for gi, state in enumerate(_warm_path(fit, Xs, y[mask], grid, cv_tol, live_names)):
            w, b = _destandardize(*state, *frame)
            scores[gi] += loss(y[fold], X[fold] @ w + b)
    return scores


def _fit_l1_cv(fit, loss, critical_factor, scale, fold_ok, fallback, X, y, multipliers,
               n_folds, tol, cv_tol, max_iter, feature_names) -> LinearModel:
    """The inner-CV penalty choice both L1 fits share; the callers pass what differs.

    `critical_factor` times `critical_penalty` anchors the grid, `scale(y)`
    sizes the sum-form objective for the stopping rules, folds failing
    `fold_ok(y, fold)` go unscored, and a design with no live column gets
    `fallback(mean of y, names, n_features)`. The chosen penalty is refit on
    all rows, down the same warm path, in the frame of the whole design.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    names = list(feature_names) if feature_names is not None else [f"x{j}" for j in range(X.shape[1])]
    alive = _alive_columns(X)      # train-constant columns get exact zero weights
    Xa = X[:, alive]
    if Xa.shape[1] == 0:
        return fallback(float(y.mean()), names, X.shape[1])
    live_names = [n for n, keep in zip(names, alive) if keep]
    size = scale(y)                 # stopping rules scale with the sum-form objective
    tol, cv_tol = tol * size, cv_tol * size
    Xs, *frame = _standardize(Xa)
    grid = penalty_grid(critical_factor * critical_penalty(Xs, y), multipliers)
    folds = contiguous_folds(len(y), n_folds)
    scores = np.zeros(len(grid))
    if len(folds) >= 2:
        scores = _cv_losses(fit, loss, Xa, y, grid, [f for f in folds if fold_ok(y, f)],
                            cv_tol, live_names)
    best = int(np.argmin(scores))   # argmin takes the largest penalty on ties
    path = _warm_path(fit, Xs, y, grid[:best], cv_tol, live_names)
    model = fit(Xs, y, grid[best], tol=tol, max_iter=max_iter, feature_names=live_names,
                warm_start=path[-1] if path else None)
    w, b = _destandardize(model.weights, model.bias, *frame)
    weights = np.zeros(X.shape[1])
    weights[alive] = w
    return replace(model, weights=weights, bias=b, feature_names=names)


def fit_l1_logistic_cv(X, y, multipliers, n_folds: int = 4, tol: float = 1e-6,
                       cv_tol: float = 1e-4, max_iter: int = 10000,
                       feature_names=None) -> LinearModel:
    """Per-level penalty chosen by validation log-loss over contiguous folds.

    A fold whose training rows hold a single class is left out.
    """
    return _fit_l1_cv(fit_l1_logistic, _log_loss, 1.0,
                      lambda y: max(1.0, float(len(y))),
                      lambda y, fold: len(set(np.delete(y, fold))) >= 2,
                      constant_logistic, X, y, multipliers, n_folds, tol, cv_tol, max_iter,
                      feature_names)


def fit_lasso_cv(X, y, multipliers, n_folds: int = 4, tol: float = 1e-8,
                 cv_tol: float = 1e-4, max_iter: int = 10000,
                 feature_names=None) -> LinearModel:
    """Penalty chosen by validation squared error over contiguous folds."""
    return _fit_l1_cv(fit_lasso, _squared_loss, 2.0,
                      lambda y: max(1.0, float(((y - y.mean()) ** 2).sum())),
                      lambda y, fold: True,
                      lambda mean, names, n: LinearModel(np.zeros(n), mean, names, 0.0,
                                                         "LEAST_SQUARES"),
                      X, y, multipliers, n_folds, tol, cv_tol, max_iter, feature_names)


def constant_logistic(rate: float, feature_names, n_features: int) -> LinearModel:
    """Degenerate-target fallback: zero weights, bias at the clipped base-rate logit."""
    p = min(max(rate, 1e-6), 1 - 1e-6)
    bias = float(np.log(p / (1 - p)))
    return LinearModel(np.zeros(n_features), bias, list(feature_names), 0.0, "LOGISTIC")
