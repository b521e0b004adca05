"""Deterministic CSV emission of evaluation results and model internals."""
from __future__ import annotations

import csv
from collections import Counter
from pathlib import Path

from ..errors import IoError
from .metrics import METRIC_NAMES


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def emit_report(report, out_dir, descriptors=None, segment_models=None,
                association_rows=None, token_counts=None) -> list[str]:
    """Write metrics.csv, aggregates.csv and optional model/analysis dumps.

    Returns the list of files written. Every file is byte-deterministic for
    a fixed input (sorted keys, repr floats).
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(str(exc)) from None
    written = []

    path = out / "metrics.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["model", "segment_id", "split", "metric", "value", "n_days",
                    "n_congested"])
        for (model, sid, split) in sorted(report.per_split):
            ms = report.per_split[(model, sid, split)]
            for metric in METRIC_NAMES:
                w.writerow([model, sid, split, metric, _fmt(getattr(ms, metric)),
                            ms.n_days, ms.n_congested])
    written.append(str(path))

    path = out / "aggregates.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["model", "segment_id", "metric", "value"])
        for (model, sid) in sorted(report.aggregate):
            for metric in METRIC_NAMES:
                w.writerow([model, sid, metric, _fmt(report.aggregate[(model, sid)][metric])])
    written.append(str(path))

    if segment_models is not None:
        path = out / "coefficients.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["segment_id", "target", "feature", "weight"])
            for sid in sorted(segment_models):
                model = segment_models[sid]
                heads = {"cs": model.classifier, **model.regressors}
                for target in sorted(heads):
                    head = heads[target]
                    w.writerow([sid, target, "BIAS", _fmt(head.bias)])
                    for name, weight in sorted(head.coef_map().items()):
                        if weight != 0.0:
                            w.writerow([sid, target, name, _fmt(weight)])
        written.append(str(path))

    if descriptors is not None:
        path = out / "descriptor_coefficients.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["road_id", "level", "feature", "weight"])
            for road in sorted(descriptors):
                desc = descriptors[road]
                if desc is None:
                    continue
                for level, clf in enumerate(desc.classifiers):
                    w.writerow([road, level, "BIAS", _fmt(clf.bias)])
                    for name, weight in sorted(clf.coef_map().items()):
                        if weight != 0.0:
                            w.writerow([road, level, name, _fmt(weight)])
        written.append(str(path))

    if association_rows is not None:
        path = out / "associations.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["road_id", "traffic_clusters", "tweet_clusters", "chi2",
                        "p_value", "cramers_v", "n_days"])
            for row in association_rows:
                w.writerow([row.road_id, row.n_traffic_clusters, row.n_tweet_clusters,
                            _fmt(row.chi2), _fmt(row.p_value), _fmt(row.cramers_v),
                            row.n_days])
        written.append(str(path))
        path = out / "conditional_distributions.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["road_id", "traffic_cluster", "tweet_cluster", "p_conditional"])
            for row in association_rows:
                for i in range(row.conditional.shape[0]):
                    for j in range(row.conditional.shape[1]):
                        w.writerow([row.road_id, i, j, _fmt(row.conditional[i, j])])
        written.append(str(path))

    if token_counts is not None:
        path = out / "token_frequencies.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["period", "token", "count"])
            for period in sorted(token_counts):
                for token, count in sorted(token_counts[period].items(),
                                           key=lambda kv: (-kv[1], kv[0])):
                    w.writerow([period, token, count])
        written.append(str(path))
    return written


def token_frequency(tweets, clean_texts, periods) -> dict[str, Counter]:
    """Token counts per day period of cleaned tweet text (word-cloud substitute).

    `clean_texts` maps each tweet's raw text to its `clean_text` output.
    """
    out: dict[str, Counter] = {name: Counter() for name, _s, _e in periods}
    for t in tweets:
        h = t.timestamp.hour
        for name, start, end in periods:
            if start <= h < end:
                for token in clean_texts[t.text].rstrip(".").split():
                    if len(token) > 2:
                        out[name][token] += 1
                break
    return out
