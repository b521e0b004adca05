"""CART trees and bootstrap-aggregated forests, built from scratch.

Classification trees split on Gini impurity, regression trees on within-node
variance. Forests are trained only on the columns the companion L1 model
selected; with nothing selected the caller falls back to the linear model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A tree grows as a list of node rows [feature, threshold, left, right, value],
# node 0 its root; feature -1 marks a leaf, whose value is the majority
# fraction (clf) or the mean (reg). A forest packs its trees' rows into one
# array per column, tree after tree; child indices stay tree-local.


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
    offsets: np.ndarray          # (n_trees,) the packed index of each tree's root
    feature: np.ndarray          # (n_nodes,) -1 at a leaf
    threshold: np.ndarray        # 0 at a leaf
    left: np.ndarray             # tree-local child indices, -1 at a leaf
    right: np.ndarray
    value: np.ndarray            # a leaf's output, 0 at an inner node

    def predict_values(self, X) -> np.ndarray:
        """Mean tree output per design row of X: a congested share or an estimate."""
        X = np.asarray(X, dtype=float)[:, self.columns]
        rows = np.arange(len(X))
        root = self.offsets[:, None]
        node = np.repeat(root, len(X), axis=1)      # (n_trees, n_rows) packed indices
        while (inner := self.feature[node] >= 0).any():
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            child = np.where(go_left, self.left[node], self.right[node]) + root
            node = np.where(inner, child, node)
        votes = np.zeros(len(X))
        for leaf_values in self.value[node]:
            votes += leaf_values
        return votes / max(len(self.offsets), 1)

    def to_dict(self) -> dict:
        return {"kind": "rf", "columns": self.columns,
                **{k: getattr(self, k).tolist() for k in _PACKED}}

    @classmethod
    def from_dict(cls, doc: dict) -> RandomForestModel:
        return cls(list(doc["columns"]),
                   **{k: np.array(doc[k], dtype=kind) for k, kind in _PACKED.items()})


_PACKED = {"offsets": np.intp, "feature": np.intp, "threshold": float, "left": np.intp,
           "right": np.intp, "value": float}


def _pack(columns, trees) -> RandomForestModel:
    offsets = np.cumsum([0] + [len(tree) for tree in trees])[:-1]
    nodes = np.array([row for tree in trees for row in tree], dtype=float).reshape(-1, 5)
    feature, left, right = (nodes[:, k].astype(np.intp) for k in (0, 2, 3))
    return RandomForestModel(columns, offsets.astype(np.intp), feature, nodes[:, 1], left,
                             right, np.where(feature < 0, nodes[:, 4], 0.0))


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
    cand = _n_candidates(p, feature_frac)
    trees = []
    for _t in range(n_trees):
        rng = np.random.default_rng(int(master.integers(0, 2 ** 63 - 1)))
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        tree = []
        _grow(tree, X[idx], y[idx], task, rng, cand, max_depth)
        trees.append(tree)
    return _pack(columns, trees)
