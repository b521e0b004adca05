"""Span tracer that wraps the public functions of each tweet2traffic layer.

Each wrapped call records one span (name, start, end, parent) in flat
in-memory arrays; nothing is written until the caller asks for it at the
end. A function is wrapped where its caller looks it up: `from x import y`
binds `y` in the caller's module, so `tscv.build_split` and
`cli.build_split` are both patched and both report as
`pipeline.build_split`.

The program runs in one thread, so a span's children never overlap and a
span's self time is its duration minus the sum of its children's durations.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

ALL = ("tscv", "baselines", "serve")
EVALUATE = ("tscv", "baselines")


@dataclass(frozen=True)
class Site:
    """One traced function: its metric name, where callers look it up,
    the workloads whose pass must call it and the end-to-end metric it
    should move."""

    name: str
    lookups: tuple  # (module, attribute) or (module, dict attribute, key)
    fires_on: tuple
    target: str
    counts_not_converged: bool = False


_CLI = "tweet2traffic.cli"
_PIPE = "tweet2traffic.harness.pipeline"
_TSCV = "tweet2traffic.harness.tscv"
_SEL = "tweet2traffic.learn.selection"
_STACK = "tweet2traffic.learn.stack"
_CLU = "tweet2traffic.clustering"

SITES = (
    Site("ingest.load_bundle", ((_CLI, "load_bundle"),), ALL,
         "predict_p50_s and peak_rss_mb on serve; minor share of evaluate_s"),
    Site("ingest.speed_rows",
         (("tweet2traffic.ingest.loaders", "_LOADERS", "speed"),), ALL,
         "predict_p50_s and peak_rss_mb on serve; minor share of evaluate_s"),
    Site("pipeline.prepare_data", ((_CLI, "prepare_data"),), ALL,
         "evaluate_s on tscv and baselines, predict_p50_s on serve"),
    Site("pipeline.build_split", ((_CLI, "build_split"), (_TSCV, "build_split")), ALL,
         "evaluate_s on tscv and baselines, predict_p50_s on serve"),
    Site("pipeline.fit_stack", ((_CLI, "fit_stack"), (_TSCV, "fit_stack")),
         ("tscv", "serve"), "evaluate_s on tscv, train_s on serve"),
    Site("pipeline.segment_design",
         ((_CLI, "segment_design"), (_PIPE, "segment_design")), ("tscv", "serve"),
         "evaluate_s on tscv, train_s and predict_p50_s on serve"),
    Site("congestion.fill_speed_gaps", ((_PIPE, "fill_speed_gaps"),), ALL,
         "evaluate_s on baselines most, then tscv; predict_p50_s on serve"),
    Site("congestion.congestion_measurements", ((_PIPE, "congestion_measurements"),),
         ALL, "evaluate_s on baselines most, then tscv; predict_p50_s on serve"),
    Site("tweetpipe.filter_influential_users", ((_PIPE, "filter_influential_users"),),
         ALL, "evaluate_s on baselines most, then tscv; predict_p50_s on serve"),
    Site("tweetpipe.infer_home", ((_PIPE, "infer_home"),), ALL,
         "evaluate_s on baselines most, then tscv; predict_p50_s on serve"),
    Site("tweetpipe.geotag_timeline", ((_PIPE, "geotag_timeline"),), ALL,
         "evaluate_s on baselines most, then tscv; predict_p50_s on serve"),
    Site("tweetpipe.encode_sleep_wake", ((_PIPE, "encode_sleep_wake"),), ALL,
         "evaluate_s on baselines most, then tscv; predict_p50_s on serve"),
    Site("clustering.pca_fit", ((_PIPE, "pca_fit"),), ALL,
         "evaluate_s on baselines most, then tscv; predict_p50_s on serve"),
    Site("clustering.elbow_select_k", ((_PIPE, "elbow_select_k"),), ALL,
         "evaluate_s on baselines most, then tscv; predict_p50_s on serve"),
    Site("clustering.kmeans_fit", ((_PIPE, "kmeans_fit"), (_CLU, "kmeans_fit")), ALL,
         "evaluate_s on baselines most, then tscv; predict_p50_s on serve"),
    Site("features.weather_features", ((_PIPE, "weather_features"),), ALL,
         "evaluate_s on baselines most, then tscv; predict_p50_s on serve"),
    Site("features.build_feature_matrix", ((_PIPE, "build_feature_matrix"),), ALL,
         "evaluate_s on baselines most, then tscv; predict_p50_s on serve"),
    Site("learn.fit_ordered_descriptor", ((_PIPE, "fit_ordered_descriptor"),),
         ("tscv", "serve"), "evaluate_s on tscv, train_s on serve"),
    Site("learn.fit_segment_models", ((_PIPE, "fit_segment_models"),),
         ("tscv", "serve"), "evaluate_s on tscv, train_s on serve"),
    Site("learn.fit_lasso_cv", ((_STACK, "fit_lasso_cv"),), ("tscv", "serve"),
         "evaluate_s on tscv, train_s on serve"),
    Site("learn.fit_l1_logistic_cv", ((_STACK, "fit_l1_logistic_cv"),),
         ("tscv", "serve"), "evaluate_s on tscv, train_s on serve"),
    Site("learn.fit_lasso", ((_SEL, "fit_lasso"),), ("tscv", "serve"),
         "evaluate_s on tscv, train_s on serve", counts_not_converged=True),
    Site("learn.fit_l1_logistic", ((_SEL, "fit_l1_logistic"),), ("tscv", "serve"),
         "evaluate_s on tscv, train_s on serve", counts_not_converged=True),
    Site("learn.predict_day", ((_CLI, "predict_day"), (_PIPE, "predict_day")),
         ("tscv", "serve"), "train_s and predict_p50_s on serve"),
    Site("learn.bundle_to_json", ((_CLI, "bundle_to_json"),), ("serve",),
         "train_s on serve"),
    Site("learn.bundle_from_json", ((_CLI, "bundle_from_json"),), ("serve",),
         "predict_p50_s on serve"),
    Site("baselines.hm_predict", ((_TSCV, "hm_predict"),), EVALUATE,
         "evaluate_s on baselines most, on tscv less"),
    Site("baselines.fit_sar", ((_TSCV, "fit_sar"),), EVALUATE,
         "evaluate_s on baselines most, on tscv less"),
    Site("baselines.sar_rollout", ((_TSCV, "sar_rollout"),), EVALUATE,
         "evaluate_s on baselines most, on tscv less"),
    Site("report.emit_report", ((_CLI, "emit_report"),), ALL,
         "evaluate_s on tscv and baselines"),
    Site("report.token_frequency", ((_CLI, "token_frequency"),), EVALUATE,
         "evaluate_s on tscv and baselines"),
)

# The span around each whole CLI call; its self time is the CLI work that no
# wrapped site covers.
ROOT = "cli.main"


class Tracer:
    """Records spans of wrapped calls in flat arrays, in call order."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.not_converged: dict[str, int] = {}
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, site: Site, fn):
        nid = self._id(site.name)
        self.not_converged.setdefault(site.name, 0)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if site.counts_not_converged and not result.converged:
                self.not_converged[site.name] += 1
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every lookup of every site for the duration of the block.

        A lookup that no longer exists is reported on stderr and skipped, so
        its metrics read zero calls; the self-test fails on that.
        """
        undo = []
        try:
            for site in SITES:
                for module, attr, *key in site.lookups:
                    holder = importlib.import_module(module)
                    if key:
                        holder, attr = getattr(holder, attr, {}), key[0]
                        get, put = holder.get, holder.__setitem__
                    else:
                        get = lambda a, h=holder: getattr(h, a, None)
                        put = lambda a, v, h=holder: setattr(h, a, v)
                    original = get(attr)
                    if original is None:
                        print(f"perfbench: trace site {site.name} not found at "
                              f"{module}.{attr}", file=sys.stderr)
                        continue
                    put(attr, self.wrap(site, original))
                    undo.append((put, attr, original))
            yield self
        finally:
            for put, attr, original in reversed(undo):
                put(attr, original)

    def stats(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds and self seconds.

        Inclusive time counts only spans with no ancestor of the same name,
        so a function reached twice on one stack is not counted twice.
        """
        n = len(self.start)
        names = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        outermost = np.ones(n, dtype=bool)
        name_list, parent_list = names.tolist(), parent.tolist()
        for i in range(n):
            p = parent_list[i]
            while p >= 0:
                if name_list[p] == name_list[i]:
                    outermost[i] = False
                    break
                p = parent_list[p]
        out = {}
        for nid, name in enumerate(self.names):
            mine = names == nid
            out[name] = {
                "calls": int(mine.sum()),
                "s": float(dur[mine & outermost].sum()),
                "self_s": float((dur[mine] - child[mine]).sum()),
            }
        return out

    def save(self, path) -> None:
        """Write every span once, as parallel arrays plus the name table."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            name_id=np.array(self.name_id, dtype=np.int64),
                            parent=np.array(self.parent, dtype=np.int64),
                            start=np.array(self.start), end=np.array(self.end))
