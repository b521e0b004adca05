"""Feature vector assembly with stable, named, group-tagged columns.

Column families and names follow the audit-CSV convention: sleep/wake pulses
"21_T03", period counts "EV", neutral shares "Neu_EV", weather "temp_5",
incidents "p_ds_7", time features "dow_mon", cluster scales "c_2".

Each column carries the clock hour (prediction-day frame) at which its input
data is complete, so forecast-horizon ablations can drop everything not yet
available at an earlier cutoff. Time features carry -inf (known a priori).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..clock import CUTOFF_HOUR, SLEEP_ANCHOR_HOUR
from ..config import TweetConfig
from .timefeat import TIME_FEATURE_NAMES
from .weather import weather_feature_names

ALWAYS = -math.inf


def pulse_keys(tract_ids, hours) -> list[tuple[int, str]]:
    """(hour, tract) keys of one sleep/wake pulse family, in column order."""
    return [(hour, tract) for hour in hours for tract in sorted(tract_ids)]


def tweet_feature_layout(tract_ids, cfg: TweetConfig):
    """(name, group, avail_hour) triples for the tweet feature family.

    Periods starting at or after 05:00 are counted on the evening before
    the prediction day (see `encode_event_indicators`), so they are complete
    by midnight; earlier periods complete at their end hour.
    """
    cols = [(f"{hour}_{tract}", "tweet_sleep",
             0.0 if hour >= SLEEP_ANCHOR_HOUR else float(hour + 1))
            for hour, tract in pulse_keys(tract_ids, cfg.sleep_hours)]
    cols += [(f"{hour}_{tract}", "tweet_wake", float(hour + 1))
             for hour, tract in pulse_keys(tract_ids, cfg.wake_hours)]
    avail = [0.0 if start >= CUTOFF_HOUR else float(end) for _name, start, end in cfg.periods]
    cols += [(name, "tweet_period", a) for (name, _s, _e), a in zip(cfg.periods, avail)]
    cols += [(f"Neu_{name}", "tweet_sentiment", a)
             for (name, _s, _e), a in zip(cfg.periods, avail)]
    return cols


def weather_feature_layout():
    return [(name, "weather", float(int(name.rsplit("_", 1)[1]) + 1))
            for name in weather_feature_names()]


def time_feature_layout():
    return [(name, "time", ALWAYS) for name in TIME_FEATURE_NAMES]


def cluster_feature_layout(n_levels: int):
    return [(f"c_{l}", "cluster", ALWAYS) for l in range(1, n_levels + 1)]


@dataclass
class FeatureMatrix:
    names: list[str]
    groups: list[str]
    avail_hours: list[float]
    days: list
    values: np.ndarray      # (n_days, n_cols)

    def drop_groups(self, groups: set[str]) -> "FeatureMatrix":
        keep = [i for i, g in enumerate(self.groups) if g not in groups]
        return self if len(keep) == len(self.groups) else self._take(keep)

    def before_cutoff(self, cutoff_hour: float) -> "FeatureMatrix":
        """Drop the columns whose data completes after the cutoff (time and
        cluster columns are available `ALWAYS`)."""
        keep = [i for i, a in enumerate(self.avail_hours) if a <= cutoff_hour]
        return self._take(keep)

    def _take(self, idx) -> "FeatureMatrix":
        return FeatureMatrix(
            names=[self.names[i] for i in idx],
            groups=[self.groups[i] for i in idx],
            avail_hours=[self.avail_hours[i] for i in idx],
            days=self.days,
            values=self.values[:, idx],
        )


def build_feature_matrix(days, blocks, layout) -> FeatureMatrix:
    """Concatenate (n_days, k) family blocks whose columns follow `layout`."""
    values = np.hstack(blocks)
    if values.shape != (len(days), len(layout)):
        raise ValueError(f"feature blocks are {values.shape}, layout needs "
                         f"{(len(days), len(layout))}")
    return FeatureMatrix(
        names=[c[0] for c in layout],
        groups=[c[1] for c in layout],
        avail_hours=[c[2] for c in layout],
        days=list(days),
        values=values,
    )
