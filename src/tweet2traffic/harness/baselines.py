"""Reference predictors: day-of-week historical mean and seasonal autoregression.

HM averages the quadruples of the most recent same-weekday history. SAR fits
v_t = c + sum_p w_p v_{t-p} + sum_h W_h v_t^{d-7h} by least squares and rolls
the morning out recursively from the 05:00 cutoff, feeding predictions back
in place of unseen lags; its quadruple comes from the predicted speeds.
"""
from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..config import CongestionParams
from ..clock import N_SLOTS
from ..congestion import detect_congested_periods, morning_pti
from ..errors import InsufficientHistory

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class HmPrediction:
    cs: int
    cst: float
    cd: float
    pti: float
    flagged: str = ""


@dataclass(frozen=True)
class WeekdayHistory:
    """A chronological (date, quadruple) history indexed by weekday."""
    dates: list
    quads: list
    by_weekday: dict          # weekday -> (dates, quads)
    congested: tuple          # (dates, quads) of the congested entries


def index_history(history) -> WeekdayHistory:
    """Index a chronological list of (date, CongestionMeasurements) pairs."""
    by_weekday: dict[int, tuple[list, list]] = {}
    for d, q in history:
        dates, quads = by_weekday.setdefault(d.weekday(), ([], []))
        dates.append(d)
        quads.append(q)
    return WeekdayHistory([d for d, _q in history], [q for _d, q in history], by_weekday,
                          ([d for d, q in history if q.cs], [q for _d, q in history if q.cs]))


def hm_predict(history, date, window: int | None) -> HmPrediction:
    """Majority CS and congested-day means over the same-weekday window.

    `history` is a WeekdayHistory (`index_history`); only entries strictly
    before `date` count. `window` counts same-weekday occurrences
    (None or 0 means unbounded).
    """
    n_prior = bisect_left(history.dates, date)
    if not n_prior:
        return HmPrediction(0, 0.0, 0.0, 1.0, flagged="no_history")
    same_dates, same_quads = history.by_weekday.get(date.weekday(), ([], []))
    n_same = bisect_left(same_dates, date)
    flagged = ""
    if n_same:
        pool = same_quads[:n_same]
    else:
        pool = history.quads[:n_prior]
        flagged = "global_fallback"
    if window:
        pool = pool[-window:]
    cs_votes = sum(q.cs for q in pool)
    cs = 1 if 2 * cs_votes >= len(pool) else 0    # tie predicts congested
    congested = [q for q in pool if q.cs]
    if not congested:
        congested_dates, congested_quads = history.congested
        congested = congested_quads[:bisect_left(congested_dates, date)]
        if congested:
            flagged = flagged or "no_congested_in_window"
    if congested:
        cst = float(np.mean([q.cst for q in congested]))
        cd = float(np.mean([q.cd for q in congested]))
        pti = float(np.mean([q.pti for q in congested]))
    else:
        cst, cd, pti = 0.0, 0.0, 1.0
        flagged = flagged or "no_congested_history"
    return HmPrediction(cs, cst, cd, pti, flagged)


@dataclass
class SarModel:
    segment_id: str
    p_lags: int
    h_seasonal: int
    weights: np.ndarray       # [c, w_1..w_P, W_1..W_H]
    in_sample_r2: float


def _design_rows(speeds: np.ndarray, day_idx, slots, p_lags, h_seasonal, morning_offset):
    """(rows, targets) for least squares over in-day lags and weekly seasonal terms."""
    days = np.asarray([d for d in day_idx if d - 7 * h_seasonal >= 0], dtype=int)
    cols = np.asarray([morning_offset + t for t in slots
                       if morning_offset + t - p_lags >= 0], dtype=int)
    if days.size == 0 or cols.size == 0:
        return np.empty((0, 0)), np.empty(0)
    sub = speeds[days]                                   # (n_d, emit_slots)
    windows = np.lib.stride_tricks.sliding_window_view(sub, p_lags + 1, axis=1)
    block = windows[:, cols - p_lags, :]                 # (n_d, n_c, p+1)
    targets = block[:, :, -1]
    lags = block[:, :, :-1][:, :, ::-1]                  # most recent lag first
    parts = [np.ones((days.size, cols.size, 1)), lags]
    for h in range(1, h_seasonal + 1):
        parts.append(speeds[days - 7 * h][:, cols][:, :, None])
    X = np.concatenate(parts, axis=2).reshape(-1, 1 + p_lags + h_seasonal)
    y = targets.reshape(-1)
    ok = np.isfinite(X).all(axis=1) & np.isfinite(y)
    return X[ok], y[ok]


def fit_sar(segment_id: str, speeds: np.ndarray, train_day_idx, p_lags: int,
            h_seasonal: int, morning_offset: int) -> SarModel:
    """Least-squares fit on every morning slot of the training days."""
    slots = range(N_SLOTS)
    h = h_seasonal
    X = np.empty((0, 0))
    y = np.empty(0)
    while h >= 0:
        X, y = _design_rows(speeds, train_day_idx, slots, p_lags, h, morning_offset)
        if X.ndim == 2 and X.size and len(y) >= X.shape[1] + 2:
            break
        h -= 1    # early folds may lack weekly history; shrink the seasonal order
    if h < 0:
        raise InsufficientHistory(segment_id)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    pred = X @ coef
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return SarModel(segment_id, p_lags, h, coef, r2)


def sar_rollout(model: SarModel, speeds: np.ndarray, day_idx,
                morning_offset: int) -> np.ndarray:
    """Predicted morning speeds, one row per day of `day_idx`.

    The days roll out together, slot by slot, substituting predictions for
    unseen lags. Each slot sums c + seasonal term + w_1 v_{t-1} + ... left to
    right (`np.add.accumulate` is sequential), as a scalar loop would.
    """
    days = np.asarray(day_idx, dtype=np.intp)
    work = speeds[days].T.copy()                         # (emit_slots, n_days)
    p = model.p_lags
    w = model.weights
    # seasonal contribution is fixed per slot; fold it into the intercept
    seasonal_term = np.zeros((N_SLOTS, days.size))
    for h in range(1, model.h_seasonal + 1):
        seasonal_term += w[p + h] * speeds[days - 7 * h,
                                           morning_offset:morning_offset + N_SLOTS].T
    base = w[0] + seasonal_term
    lag_w = w[1:1 + p, None]
    # lag rows per slot, most recent first; under-length history clamps to slot 0
    lag_rows = np.maximum(morning_offset + np.arange(N_SLOTS)[:, None]
                          - np.arange(1, p + 1), 0)
    terms = np.empty((1 + p, days.size))
    sums = np.empty_like(terms)
    out = np.empty((N_SLOTS, days.size))
    for t in range(N_SLOTS):
        col = morning_offset + t
        terms[0] = base[t]
        np.multiply(lag_w, work[lag_rows[t]], out=terms[1:])
        np.add.accumulate(terms, axis=0, out=sums)
        np.maximum(sums[-1], 1.0, out=out[t])    # speeds stay physical; NaN stays NaN
        work[col] = out[t]
    return np.ascontiguousarray(out.T)


def sar_quadruple(pred_speeds: np.ndarray, v_ref: float, params: CongestionParams,
                  pti_quantile: float = 0.95):
    """Quadruple of the predicted series; no-congestion days keep PTI diagnostics."""
    tti = v_ref / np.maximum(pred_speeds, 1e-6)
    periods = detect_congested_periods(tti, params)
    pti = morning_pti(tti, pti_quantile)
    if not periods:
        return 0, 0.0, 0.0, pti
    first_start = periods[0][0]
    last_end = periods[-1][1]
    return 1, float(N_SLOTS - first_start), float(last_end - first_start), pti
