"""CART trees and bootstrap-aggregated forests, built from scratch.

Classification trees split on Gini impurity, regression trees on within-node
variance. Forests are trained only on the columns the companion L1 model
selected; with nothing selected the caller falls back to the linear model.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# A tree is a flat node table: node 0 is the root, and each node is the row
# [feature, threshold, left, right, value]; feature -1 marks a leaf, whose
# value is the majority fraction (clf) or the mean (reg).


def _predict_tree(tree: list, row) -> float:
    feature, threshold, left, right, value = tree[0]
    while feature >= 0:
        feature, threshold, left, right, value = tree[left if row[feature] <= threshold
                                                      else right]
    return value


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


def _grow(tree: list, X, y, task, rng, n_candidates, max_depth, depth=0) -> int:
    """Append the subtree fitted to (X, y) to `tree`; returns its root node."""
    node = len(tree)
    tree.append([-1, 0.0, -1, -1, float(y.mean()) if len(y) else 0.0])
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
    tree[node][:2] = int(j), float(thr)
    tree[node][2] = _grow(tree, X[left], y[left], task, rng, n_candidates, max_depth, depth + 1)
    tree[node][3] = _grow(tree, X[~left], y[~left], task, rng, n_candidates, max_depth,
                          depth + 1)
    return node


@dataclass
class RandomForestModel:
    columns: list[int]           # the design-row columns the trees read
    trees: list[list] = field(default_factory=list)

    def predict_values(self, X) -> np.ndarray:
        """Mean tree output per design row of X: a congested share or an estimate."""
        X = np.asarray(X, dtype=float)[:, self.columns]
        votes = np.zeros(len(X))
        for tree in self.trees:
            votes += np.array([_predict_tree(tree, row) for row in X])
        return votes / max(len(self.trees), 1)

    def to_dict(self) -> dict:
        return {"kind": "rf", "columns": self.columns, "trees": self.trees}

    @classmethod
    def from_dict(cls, doc: dict) -> RandomForestModel:
        return cls(list(doc["columns"]), doc["trees"])


def _n_candidates(p: int, feature_frac) -> int:
    if feature_frac == "sqrt":
        return max(1, int(np.sqrt(p)))
    if feature_frac == "all" or feature_frac is None:
        return p
    return max(1, int(round(float(feature_frac) * p)))


def rf_fit(X, y, task: str, columns, n_trees: int = 100, max_depth=None,
           feature_frac="sqrt", seed: int = 0, bootstrap: bool = True) -> RandomForestModel:
    """A forest on the `columns` of the design rows X."""
    columns = [int(c) for c in columns]
    X = np.asarray(X, dtype=float)[:, columns]
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    master = np.random.default_rng(seed)
    model = RandomForestModel(columns)
    cand = _n_candidates(p, feature_frac)
    for _t in range(n_trees):
        rng = np.random.default_rng(int(master.integers(0, 2 ** 63 - 1)))
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        tree = []
        _grow(tree, X[idx], y[idx], task, rng, cand, max_depth)
        model.trees.append(tree)
    return model
