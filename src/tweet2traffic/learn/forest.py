"""CART trees and bootstrap-aggregated forests, built from scratch.

Classification trees split on Gini impurity, regression trees on within-node
variance. Forests are trained only on the columns the companion L1 model
selected; with nothing selected the caller falls back to the linear model.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0          # majority fraction (clf) or mean (reg)
    is_leaf: bool = True


def _best_split(X, y, feat_idx, task):
    """(feature, threshold, score) minimizing weighted impurity, or None."""
    n = len(y)
    best = None
    for j in feat_idx:
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        if xs[0] == xs[-1]:
            continue
        if task == "clf":
            left_pos = np.cumsum(ys)[:-1]
            left_n = np.arange(1, n)
            right_pos = ys.sum() - left_pos
            right_n = n - left_n
            gl = 1.0 - ((left_pos / left_n) ** 2 + ((left_n - left_pos) / left_n) ** 2)
            gr = 1.0 - ((right_pos / right_n) ** 2 + ((right_n - right_pos) / right_n) ** 2)
            score = (left_n * gl + right_n * gr) / n
        else:
            csum = np.cumsum(ys)[:-1]
            csum2 = np.cumsum(ys ** 2)[:-1]
            left_n = np.arange(1, n)
            right_n = n - left_n
            tot, tot2 = ys.sum(), float(ys @ ys)
            var_l = csum2 - csum ** 2 / left_n
            var_r = (tot2 - csum2) - (tot - csum) ** 2 / right_n
            score = (var_l + var_r) / n
        valid = xs[:-1] != xs[1:]
        if not valid.any():
            continue
        score = np.where(valid, score, np.inf)
        k = int(np.argmin(score))
        if best is None or score[k] < best[2]:
            best = (j, (xs[k] + xs[k + 1]) / 2.0, float(score[k]))
    return best


def _grow(X, y, task, rng, n_candidates, max_depth, depth=0):
    node = _Node()
    node.value = float(y.mean()) if len(y) else 0.0
    if len(y) <= 1 or (max_depth is not None and depth >= max_depth):
        return node
    if task == "clf" and (y == y[0]).all():
        return node             # pure node
    if task == "reg" and np.ptp(y) == 0:
        return node
    p = X.shape[1]
    if n_candidates >= p:
        feat_idx = np.arange(p)
    else:
        feat_idx = rng.choice(p, size=n_candidates, replace=False)
    split = _best_split(X, y, feat_idx, task)
    if split is None and n_candidates < p:
        split = _best_split(X, y, np.arange(p), task)   # widen before giving up
    if split is None:
        return node
    j, thr, _score = split
    left = X[:, j] <= thr
    if not left.any() or left.all():
        return node
    node.is_leaf = False
    node.feature, node.threshold = j, thr
    node.left = _grow(X[left], y[left], task, rng, n_candidates, max_depth, depth + 1)
    node.right = _grow(X[~left], y[~left], task, rng, n_candidates, max_depth, depth + 1)
    return node


def _predict_node(node: _Node, row) -> float:
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.value


@dataclass
class RandomForestModel:
    task: str                    # "clf" | "reg"
    trees: list = field(default_factory=list)
    feature_names: list[str] = field(default_factory=list)
    seed: int = 0

    def predict_values(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        votes = np.zeros(len(X))
        for tree in self.trees:
            votes += np.array([_predict_node(tree, row) for row in X])
        return votes / max(len(self.trees), 1)

    def predict(self, X) -> np.ndarray:
        vals = self.predict_values(X)
        if self.task == "clf":
            return (vals >= 0.5).astype(int)   # mean-probability tie goes congested
        return vals


def _n_candidates(p: int, feature_frac) -> int:
    if feature_frac == "sqrt":
        return max(1, int(np.sqrt(p)))
    if feature_frac == "all" or feature_frac is None:
        return p
    return max(1, int(round(float(feature_frac) * p)))


def rf_fit(X, y, task: str, n_trees: int = 100, max_depth=None,
           feature_frac="sqrt", seed: int = 0, bootstrap: bool = True,
           feature_names=None) -> RandomForestModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    names = list(feature_names) if feature_names is not None else [f"x{j}" for j in range(p)]
    master = np.random.default_rng(seed)
    model = RandomForestModel(task=task, feature_names=names, seed=seed)
    cand = _n_candidates(p, feature_frac)
    for _t in range(n_trees):
        rng = np.random.default_rng(int(master.integers(0, 2 ** 63 - 1)))
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        model.trees.append(_grow(X[idx], y[idx], task, rng, cand, max_depth))
    return model
