"""Cyclic calendar encodings and the day-type one-hot features."""
from __future__ import annotations

import math
from datetime import date as date_t
from datetime import timedelta

import numpy as np

TIME_FEATURE_NAMES = (
    "mon_sin", "mon_cos", "week_sin", "week_cos",
    "dow_mon", "dow_tue_thu", "dow_fri", "dow_wkd_holiday",
    "nxt_rest", "lst_rest",
)


def cyclic_encode(index: int, period: int) -> tuple[float, float]:
    if period <= 0:
        raise ValueError("period must be positive")
    angle = 2.0 * math.pi * index / period
    return math.sin(angle), math.cos(angle)


def _is_rest(day: date_t, holidays: set) -> bool:
    return day.weekday() >= 5 or day in holidays


def _days_to_rest(day: date_t, holidays: set, step: int) -> int:
    for delta in range(0, 370):
        if _is_rest(day + timedelta(days=step * delta), holidays):
            return delta
    return 370


def time_features(days, holidays: set) -> np.ndarray:
    """(n_days, n_cols) calendar block in `TIME_FEATURE_NAMES` order."""
    rows = []
    for day in days:
        # one of mon, tue_thu, fri, wkd_holiday
        kind = 3 if _is_rest(day, holidays) else (0, 1, 1, 1, 2)[day.weekday()]
        dow = [1.0 if k == kind else 0.0 for k in range(4)]
        rows.append([*cyclic_encode(day.month - 1, 12),
                     *cyclic_encode(day.isocalendar().week - 1, 52), *dow,
                     float(_days_to_rest(day, holidays, +1)),
                     float(_days_to_rest(day, holidays, -1))])
    return np.array(rows, dtype=float)
