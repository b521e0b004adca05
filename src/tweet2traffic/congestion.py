"""Travel-time-index series and the per-segment-day congestion quadruple.

The morning window (05:00-11:00, 72 five-minute slots) is summarized as
(CS, CST, CD, PTI): binary congestion status, reverse-indexed starting slot,
duration in slots, and the 95th-percentile travel time index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clock import N_SLOTS, SLOT_MINUTES
from .config import CongestionParams
from .errors import EmptyInput, IncompleteDay


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile: rank q*(n-1) between order statistics."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptyInput("percentile of empty list")
    if not np.all(np.isfinite(arr)):
        raise EmptyInput("percentile requires finite values")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    srt = np.sort(arr)
    rank = q * (srt.size - 1)
    lo = int(np.floor(rank))
    hi = int(np.ceil(rank))
    frac = rank - lo
    return float(srt[lo] * (1.0 - frac) + srt[hi] * frac)


def reference_speed(speeds, q: float = 0.85) -> float:
    """Free-flow proxy: the q-quantile of all observed speeds of one segment."""
    return percentile(speeds, q)


def fill_speed_gaps(speeds, max_ffill: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Forward-fill NaN runs of at most `max_ffill` slots, one day per row.

    Returns the filled (days, slots) array and a per-day "incomplete" mask:
    a day with a longer run, or with a gap before its first observation,
    cannot be filled and its row is all NaN.
    """
    arr = np.asarray(speeds, dtype=float)
    finite = np.isfinite(arr)
    slots = np.arange(arr.shape[1])
    last = np.maximum.accumulate(np.where(finite, slots, -1), axis=1)
    gap = ~finite & ((last < 0) | (slots - last > max_ffill))
    incomplete = gap.any(axis=1)
    filled = np.take_along_axis(arr, np.maximum(last, 0), axis=1)
    filled[incomplete] = np.nan
    return filled, incomplete


@dataclass(frozen=True)
class TtiSeries:
    segment_id: str
    date: object
    values: np.ndarray  # 72 positive ratios v_ref / v_t

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (N_SLOTS,):
            raise IncompleteDay(f"expected {N_SLOTS} slots, got {vals.shape}")
        if not np.all(vals > 0):
            raise IncompleteDay("TTI values must be positive")
        object.__setattr__(self, "values", vals)


def detect_congested_periods(values, params: CongestionParams) -> list[tuple[int, int]]:
    """Half-open (start, end) slot intervals where TTI stays at/above threshold.

    Runs shorter than t_min are discarded; surviving runs whose separating gap
    is under merge_gap are merged.
    """
    arr = np.asarray(values, dtype=float)
    above = arr >= params.tti_thres
    runs: list[tuple[int, int]] = []
    start = None
    for i, flag in enumerate(above):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(above)))
    kept = [(s, e) for s, e in runs if e - s >= params.min_slots]
    merged: list[tuple[int, int]] = []
    for s, e in kept:
        if merged and s - merged[-1][1] < params.gap_slots:
            merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    return merged


@dataclass(frozen=True)
class CongestionMeasurements:
    """Prediction quadruple; cd and pti are absent on congestion-free days."""
    cs: bool
    cst: int                # reversed slot index: 72 = starts at 05:00, 0 = none
    cd: int | None          # duration in slots, first start to last end
    pti: float | None

    def __post_init__(self):
        if not self.cs:
            if self.cst != 0 or self.cd is not None or self.pti is not None:
                raise ValueError("congestion-free day must carry (0, None, None)")
        else:
            if not 1 <= self.cst <= N_SLOTS:
                raise ValueError("cst out of range for a congested day")


def morning_pti(values, q: float = 0.95) -> float:
    """Whole-morning planning-time diagnostic, defined congested or not."""
    return percentile(values, q)


def congestion_measurements(tti: TtiSeries, params: CongestionParams,
                            pti_quantile: float = 0.95) -> CongestionMeasurements:
    periods = detect_congested_periods(tti.values, params)
    if not periods:
        return CongestionMeasurements(cs=False, cst=0, cd=None, pti=None)
    first_start = periods[0][0]
    last_end = periods[-1][1]
    return CongestionMeasurements(
        cs=True,
        cst=N_SLOTS - first_start,
        cd=last_end - first_start,
        pti=morning_pti(tti.values, pti_quantile),
    )


def slots_to_hours(slots: float, slot_minutes: int = SLOT_MINUTES) -> float:
    return slots * slot_minutes / 60.0
