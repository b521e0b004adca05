"""Neighbor models over the learned road-level congestion scales.

Neighbors are the K training days whose descriptor outputs lie closest in
Euclidean distance; predictions use uniform weights (majority vote with ties
resolved to congested, or a plain mean).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class KnnModel:
    scales: np.ndarray      # (n_train, len(columns)) descriptor outputs
    targets: np.ndarray
    k: int
    task: str               # "clf" | "reg"
    columns: list[int]      # the design-row columns the scales are read from

    def __post_init__(self):
        self.scales = np.asarray(self.scales, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        self.k = int(min(self.k, len(self.targets)))
        self.columns = list(self.columns)

    def predict_values(self, X) -> np.ndarray:
        """Vote or mean of the k nearest training days, per design row of X."""
        out = np.empty(len(X))
        for i, query in enumerate(np.asarray(X, dtype=float)[:, self.columns]):
            d2 = ((self.scales - query) ** 2).sum(axis=1)
            # stable order: distance, then training index
            vals = self.targets[np.lexsort((np.arange(len(d2)), d2))[: self.k]]
            if self.task == "clf":
                out[i] = 1.0 if vals.sum() * 2 >= len(vals) else 0.0
            else:
                out[i] = vals.mean()
        return out

    def to_dict(self) -> dict:
        return {"kind": "knn", "task": self.task, "k": self.k, "columns": self.columns,
                "scales": self.scales.tolist(), "targets": self.targets.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> KnnModel:
        return cls(doc["scales"], doc["targets"], doc["k"], doc["task"], doc["columns"])


def knn_fit(X, targets, k: int, task: str, columns) -> KnnModel:
    """Keep the training days' `columns` of the design rows X as the neighbor set."""
    return KnnModel(np.asarray(X, dtype=float)[:, list(columns)], targets, k, task, columns)
