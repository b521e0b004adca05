"""Association analysis between morning traffic clusters and tweeting clusters."""
from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import timedelta

import numpy as np

from ..clustering import (
    build_tweeting_profiles,
    chi_squared_cramers_v,
    elbow_select_k,
    pca_fit,
    pca_transform,
)
from ..tweetpipe.geo import in_bbox
from .pipeline import PreparedData, SplitArtifacts

log = logging.getLogger(__name__)


@dataclass
class AssociationRow:
    road_id: str
    n_traffic_clusters: int
    n_tweet_clusters: int
    chi2: float
    p_value: float
    cramers_v: float
    n_days: int
    table: np.ndarray
    conditional: np.ndarray      # P(traffic cluster | tweet cluster)


def _tweet_profile_hours(prepared: PreparedData):
    """Hours past the profile day's midnight for every in-box geocoded tweet."""
    cfg = prepared.config.clustering
    bbox = prepared.config.tweets.bbox
    out: dict = {}
    for t in prepared.tweets:
        if t.coord is None or not in_bbox(t.coord, bbox):
            continue
        h = t.timestamp.hour + t.timestamp.minute / 60.0
        if h >= cfg.profile_start_hour:
            day = t.timestamp.date() + timedelta(days=1)    # night before day d
            out.setdefault(day, []).append(h)
        elif h < cfg.profile_end_hour - 24.0:
            out.setdefault(t.timestamp.date(), []).append(h + 24.0)
    return out


def run_descriptive_analysis(prepared: PreparedData, art: SplitArtifacts,
                             seed: int = 0) -> list[AssociationRow]:
    """Test association of tweeting clusters with `art`'s full-span traffic clusters."""
    cfg = prepared.config.clustering
    days = prepared.days

    hour_map = _tweet_profile_hours(prepared)
    n_bins = int(round((cfg.profile_end_hour - cfg.profile_start_hour)
                       * 60 / cfg.profile_bin_minutes))
    profiles = build_tweeting_profiles(
        {d: hour_map.get(d, []) for d in days if hour_map.get(d)},
        n_bins=n_bins, start_hour=cfg.profile_start_hour,
        bin_minutes=cfg.profile_bin_minutes, smooth_minutes=cfg.profile_smooth_minutes)
    profile_days = sorted(profiles)
    rows = np.vstack([profiles[d] for d in profile_days])
    pca = pca_fit(rows, cfg.pca_variance_target)
    reduced = pca_transform(pca, rows)
    k_range = list(range(cfg.k_min, min(cfg.k_max, len(profile_days) - 1) + 1))
    k_tweet, models = elbow_select_k(reduced, k_range, seed=seed, n_init=cfg.kmeans_n_init,
                                     max_iter=cfg.kmeans_max_iter)
    tweet_labels = {d: int(lab) for d, lab in zip(profile_days, models[k_tweet].labels)}

    out = []
    for road_id in prepared.roads:
        dates, labels = art.clusters[road_id].dates, art.clusters[road_id].ordered.labels
        common = [d for d in dates if d in tweet_labels]
        if len(common) < 10:
            log.warning("descriptive: road %s has too few joint days", road_id)
            continue
        lab_map = dict(zip(dates, labels))
        a = np.array([lab_map[d] for d in common])
        b = np.array([tweet_labels[d] for d in common])
        chi2, p, v = chi_squared_cramers_v(a, b)
        table = np.zeros((int(a.max()) + 1, int(b.max()) + 1))
        for x, y in zip(a, b):
            table[int(x), int(y)] += 1
        col_sums = table.sum(axis=0, keepdims=True)
        conditional = np.divide(table, col_sums, out=np.zeros_like(table),
                                where=col_sums > 0)
        out.append(AssociationRow(road_id, int(a.max()) + 1, int(b.max()) + 1,
                                  chi2, p, v, len(common), table, conditional))
    return out
