"""Hourly weather features with train-split min-max scaling."""
from __future__ import annotations

import logging
from datetime import date as date_t
from datetime import datetime, time

from ..errors import EmptyInput

log = logging.getLogger(__name__)

CONTINUOUS = ("temp", "hum", "wspd", "pressure", "vis", "precip_hrly")
N_HOURS = 11

_FIELD_OF = {
    "temp": "temperature", "hum": "humidity", "wspd": "wind_speed",
    "pressure": "pressure", "vis": "visibility", "precip_hrly": "precip_hourly",
}


def weather_feature_names() -> list[str]:
    names = []
    for field in CONTINUOUS + ("pave_cond", "wx_phrase"):
        for h in range(N_HOURS):
            names.append(f"{field}_{h}")
    return names


def weather_index(records) -> dict:
    """Weather records by timestamp; the index every feature reads."""
    return {r.timestamp: r for r in records}


def _hourly_rows(by_ts: dict, day: date_t) -> list:
    """Rows for hours 0..10 of the day, forward-filling missing hours."""
    rows = []
    prev = None
    for h in range(N_HOURS):
        ts = datetime.combine(day, time(h, 0))
        rec = by_ts.get(ts)
        if rec is None:
            if prev is None:
                # lead gap: borrow the first record at or after this hour
                later = sorted(r for r in by_ts if r >= ts)
                if not later:
                    raise EmptyInput(f"no weather rows usable for {day}")
                rec = by_ts[later[0]]
                log.warning("weather: missing hour %s filled from %s", ts, later[0])
            else:
                rec = prev
                log.warning("weather: missing hour %s carried forward", ts)
        rows.append(rec)
        prev = rec
    return rows


class WeatherScaler:
    """Per-(field, hour) min-max bounds, fit on the training split only."""

    def __init__(self):
        self.bounds: dict[str, tuple[float, float]] = {}

    def fit(self, by_ts: dict, train_days: list[date_t]) -> "WeatherScaler":
        """Bounds over the training days of a `weather_index`."""
        per_col: dict[str, list[float]] = {}
        for day in train_days:
            rows = _hourly_rows(by_ts, day)
            for h, rec in enumerate(rows):
                for field in CONTINUOUS:
                    per_col.setdefault(f"{field}_{h}", []).append(
                        getattr(rec, _FIELD_OF[field]))
        for col, vals in per_col.items():
            self.bounds[col] = (min(vals), max(vals))
        return self

    def scale(self, col: str, value: float) -> float:
        lo, hi = self.bounds[col]
        if hi <= lo:
            return 0.0      # constant training column
        return (value - lo) / (hi - lo)     # test values may leave [0, 1]


def weather_features(by_ts: dict, day: date_t, scaler: WeatherScaler) -> dict[str, float]:
    rows = _hourly_rows(by_ts, day)
    out = {}
    for h, rec in enumerate(rows):
        for field in CONTINUOUS:
            col = f"{field}_{h}"
            out[col] = scaler.scale(col, getattr(rec, _FIELD_OF[field]))
        out[f"pave_cond_{h}"] = 1.0 if rec.pavement_wet else 0.0
        out[f"wx_phrase_{h}"] = float(rec.wx_severity)
    return out
