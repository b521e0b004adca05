"""Deterministic CSV emission of evaluation results and model internals."""
from __future__ import annotations

from collections import Counter
from pathlib import Path

from ..errors import IoError
from ..ingest.loaders import write_rows
from .metrics import METRIC_NAMES


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _linear_rows(key, target, model):
    """The bias row, then one row per nonzero weight in feature-name order."""
    yield [key, target, "BIAS", _fmt(model.bias)]
    for name, weight in sorted(model.coef_map().items()):
        if weight != 0.0:
            yield [key, target, name, _fmt(weight)]


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
    written = [
        write_rows(out / "metrics.csv",
                   ["model", "segment_id", "split", "metric", "value", "n_days", "n_congested"],
                   ([model, sid, split, metric, _fmt(getattr(ms, metric)), ms.n_days,
                     ms.n_congested]
                    for (model, sid, split), ms in sorted(report.per_split.items())
                    for metric in METRIC_NAMES)),
        write_rows(out / "aggregates.csv", ["model", "segment_id", "metric", "value"],
                   ([model, sid, metric, _fmt(values[metric])]
                    for (model, sid), values in sorted(report.aggregate.items())
                    for metric in METRIC_NAMES)),
    ]
    if segment_models is not None:
        written.append(write_rows(
            out / "coefficients.csv", ["segment_id", "target", "feature", "weight"],
            (row for sid, model in sorted(segment_models.items())
             for target, head in sorted({"cs": model.classifier, **model.regressors}.items())
             for row in _linear_rows(sid, target, head))))
    if descriptors is not None:
        written.append(write_rows(
            out / "descriptor_coefficients.csv", ["road_id", "level", "feature", "weight"],
            (row for road, desc in sorted(descriptors.items()) if desc is not None
             for level, clf in enumerate(desc.classifiers)
             for row in _linear_rows(road, level, clf))))
    if association_rows is not None:
        written.append(write_rows(
            out / "associations.csv",
            ["road_id", "traffic_clusters", "tweet_clusters", "chi2", "p_value", "cramers_v",
             "n_days"],
            ([row.road_id, row.n_traffic_clusters, row.n_tweet_clusters, _fmt(row.chi2),
              _fmt(row.p_value), _fmt(row.cramers_v), row.n_days]
             for row in association_rows)))
        written.append(write_rows(
            out / "conditional_distributions.csv",
            ["road_id", "traffic_cluster", "tweet_cluster", "p_conditional"],
            ([row.road_id, i, j, _fmt(row.conditional[i, j])]
             for row in association_rows
             for i in range(row.conditional.shape[0])
             for j in range(row.conditional.shape[1]))))
    if token_counts is not None:
        written.append(write_rows(
            out / "token_frequencies.csv", ["period", "token", "count"],
            ([period, token, count]
             for period, counts in sorted(token_counts.items())
             for token, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))))
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
