"""Hourly weather features with train-split min-max scaling."""
from __future__ import annotations

import logging
from datetime import datetime, time

import numpy as np

from ..clock import MORNING_END_HOUR as N_HOURS   # hours 0..10 of the prediction day
from ..errors import EmptyInput

log = logging.getLogger(__name__)

CONTINUOUS = ("temp", "hum", "wspd", "pressure", "vis", "precip_hrly")
N_SCALED = len(CONTINUOUS) * N_HOURS     # the leading, min-max scaled columns

_FIELD_OF = {
    "temp": "temperature", "hum": "humidity", "wspd": "wind_speed",
    "pressure": "pressure", "vis": "visibility", "precip_hrly": "precip_hourly",
}


def weather_feature_names() -> list[str]:
    return [f"{field}_{h}" for field in CONTINUOUS + ("pave_cond", "wx_phrase")
            for h in range(N_HOURS)]


def weather_hours(records, days) -> np.ndarray:
    """Unscaled (n_days, n_cols) weather block in `weather_feature_names` order.

    A missing hour of 0..10 is carried forward from the hour before; a
    missing lead hour borrows the first record at or after it. A day with no
    such record gets a NaN row, which `weather_features` rejects.
    """
    by_ts = {r.timestamp: r for r in records}
    out = np.full((len(days), len(weather_feature_names())), np.nan)
    for i, day in enumerate(days):
        rows = []
        for h in range(N_HOURS):
            ts = datetime.combine(day, time(h, 0))
            rec = by_ts.get(ts)
            if rec is None and rows:
                rec = rows[-1]
                log.warning("weather: missing hour %s carried forward", ts)
            elif rec is None:
                later = min((r for r in by_ts if r >= ts), default=None)
                if later is None:
                    break
                rec = by_ts[later]
                log.warning("weather: missing hour %s filled from %s", ts, later)
            rows.append(rec)
        if rows:
            fields = [[getattr(rec, _FIELD_OF[f]) for rec in rows] for f in CONTINUOUS]
            fields.append([1.0 if rec.pavement_wet else 0.0 for rec in rows])
            fields.append([float(rec.wx_severity) for rec in rows])
            out[i] = np.ravel(fields)
    return out


def weather_bounds(hours: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (min, max) of the scaled columns of training `weather_hours` rows."""
    raw = hours[:, :N_SCALED]
    return raw.min(axis=0), raw.max(axis=0)


def weather_features(hours: np.ndarray, days, bounds) -> np.ndarray:
    """Scale `weather_hours` rows by the training `weather_bounds`.

    The continuous columns are min-max scaled; a constant training column
    scales to 0 and test values may leave [0, 1].
    """
    unusable = np.isnan(hours).any(axis=1)
    if unusable.any():
        raise EmptyInput(f"no weather rows usable for {days[int(np.argmax(unusable))]}")
    lo, hi = bounds
    raw = hours[:, :N_SCALED]
    varies = hi > lo
    out = hours.copy()
    out[:, :N_SCALED] = np.where(varies, (raw - lo) / np.where(varies, hi - lo, 1.0), 0.0)
    return out
