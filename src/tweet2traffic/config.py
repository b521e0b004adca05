"""Dataclass configs holding every tunable constant of the pipeline.

All defaults match the production settings used in the experiments; a JSON
config file can override any subset of fields (nested by section name).
The clock (slot length, cutoff, morning window) is fixed, in `clock`.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .clock import SLEEP_ANCHOR_HOUR, SLOT_MINUTES
from .errors import InvalidConfig


@dataclass(frozen=True)
class CongestionParams:
    tti_thres: float = 2.0
    t_min: int = 15           # minutes a TTI excursion must last to count
    merge_gap: int = 15       # minutes; shorter gaps between periods are merged

    def __post_init__(self):
        for name in ("t_min", "merge_gap"):
            v = getattr(self, name)
            if v <= 0 or v % self.slot != 0:
                raise InvalidConfig(f"{name} must be a positive multiple of slot")

    @property
    def slot(self) -> int:
        """Minutes per speed sample, fixed by the speed feed (`clock.SLOT_MINUTES`)."""
        return SLOT_MINUTES

    @property
    def min_slots(self) -> int:
        return self.t_min // self.slot

    @property
    def gap_slots(self) -> int:
        return self.merge_gap // self.slot


@dataclass(frozen=True)
class ClusteringConfig:
    pca_variance_target: float = 0.90
    kmeans_n_init: int = 10
    kmeans_max_iter: int = 300
    k_min: int = 2
    k_max: int = 6
    # tweeting-activity profile: 18:00 through 03:30 next day in 30-min bins
    profile_start_hour: float = 18.0
    profile_end_hour: float = 27.5     # hours past midnight of the profile day
    profile_bin_minutes: int = 30
    profile_smooth_minutes: int = 120


@dataclass(frozen=True)
class TweetConfig:
    bbox: tuple[float, float, float, float] = (40.0, -80.5, 41.0, -79.5)  # minlat,minlon,maxlat,maxlon
    influential_min_geocoded: int = 5
    bot_location_range_m: float = 10.0
    dbscan_eps_km: float = 0.3
    landuse_weights: tuple[tuple[str, float], ...] = (
        ("residence", 1.0), ("mixed-use", 0.5), ("education", 0.2),
        ("downtown", 0.2), ("industry", 0.0), ("amenity", 0.0),
    )
    home_keywords: tuple[str, ...] = ("sleep", "wake", "tv", "sofa", "bath", "bed", "home", "couch", "nap")
    night_window: tuple[int, int] = (21, 5)     # geotagging window, hours (wraps midnight)
    sleep_window: tuple[int, int] = (21, 3)     # last-tweet window for sleep pulses
    wake_window: tuple[int, int] = (3, 5)       # first-tweet window for wake pulses
    sentiment_pos: float = 0.7
    sentiment_neg: float = 0.3
    # day periods as (name, start_hour, end_hour)
    periods: tuple[tuple[str, int, int], ...] = (
        ("EM", 3, 5), ("AM", 5, 9), ("DA", 9, 18), ("EV", 18, 21), ("LN", 21, 24), ("MN", 0, 3),
    )
    agency_user_ids: tuple[str, ...] = ()

    def __post_init__(self):
        # a day's pulses read one bucket, 12:00 on the eve to 12:00 on the
        # day, and place a tweet in a window by its clock hour alone
        for name in ("sleep_window", "wake_window"):
            start, end = getattr(self, name)
            if (not (0 <= start < 24 and 0 <= end <= SLEEP_ANCHOR_HOUR)
                    or SLEEP_ANCHOR_HOUR > start >= end):
                raise InvalidConfig(
                    f"{name} ({start}, {end}) must lie from {SLEEP_ANCHOR_HOUR}:00 on the "
                    f"eve to {SLEEP_ANCHOR_HOUR}:00 on the day: end <= {SLEEP_ANCHOR_HOUR}, "
                    f"and start < end or start >= {SLEEP_ANCHOR_HOUR}")

    @property
    def sleep_hours(self) -> tuple[int, ...]:
        return _window_hours(*self.sleep_window)

    @property
    def wake_hours(self) -> tuple[int, ...]:
        return _window_hours(*self.wake_window)


def _window_hours(start: int, end: int) -> tuple[int, ...]:
    """Clock hours from start up to end, wrapping midnight when start >= end."""
    return tuple((start + i) % 24 for i in range((end - start) % 24 or 24))


@dataclass(frozen=True)
class FeatureConfig:
    d_thres_km: float = 5.0


@dataclass(frozen=True)
class ModelConfig:
    grid_multipliers: tuple[float, ...] = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0)
    inner_folds: int = 4
    cs_threshold: float = 0.5
    knn_k: int = 5
    rf_n_trees: int = 100
    rf_feature_frac: str | float = "sqrt"
    logistic_tol: float = 1e-6
    logistic_max_iter: int = 10000
    lasso_tol: float = 1e-8
    lasso_max_iter: int = 10000
    inner_cv_tol_factor: float = 100.0   # looser tolerance while scanning the penalty grid


@dataclass(frozen=True)
class HarnessConfig:
    n_outer: int = 10
    hm_window_grid: tuple[int, ...] = (4, 8, 0)        # 0 means unbounded history
    sar_grid: tuple[tuple[int, int], ...] = ((12, 4), (6, 2))
    assume_all_known: bool = False                      # True = interpretation mode


@dataclass(frozen=True)
class PipelineConfig:
    congestion: CongestionParams = field(default_factory=CongestionParams)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    tweets: TweetConfig = field(default_factory=TweetConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    harness: HarnessConfig = field(default_factory=HarnessConfig)
    max_ffill_slots: int = 3
    ref_quantile: float = 0.85
    pti_quantile: float = 0.95
    slang_path: str | None = None
    resident_lexicon_path: str | None = None
    wordlist_path: str | None = None
    sentiment_scores_path: str | None = None


def _merge_section(cls, defaults, overrides: dict):
    kwargs = {}
    valid = {f.name for f in dataclasses.fields(cls)}
    for key, value in overrides.items():
        if key not in valid:
            raise InvalidConfig(f"unknown config key {key!r} for {cls.__name__}")
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[key] = value
    return dataclasses.replace(defaults, **kwargs)


def load_config(path: str | Path | None) -> PipelineConfig:
    """Build a PipelineConfig from a JSON file, falling back to defaults."""
    cfg = PipelineConfig()
    if path is None:
        return cfg
    p = Path(path)
    if not p.exists():
        raise InvalidConfig(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config file {p} is not JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidConfig(f"config file {p} must hold a JSON object")
    sections = {
        "congestion": CongestionParams,
        "clustering": ClusteringConfig,
        "tweets": TweetConfig,
        "features": FeatureConfig,
        "model": ModelConfig,
        "harness": HarnessConfig,
    }
    kwargs = {}
    for key, value in raw.items():
        if key in sections:
            kwargs[key] = _merge_section(sections[key], getattr(cfg, key), value)
        elif key in {f.name for f in dataclasses.fields(PipelineConfig)}:
            kwargs[key] = value
        else:
            raise InvalidConfig(f"unknown top-level config key {key!r}")
    return dataclasses.replace(cfg, **kwargs)
