"""Incident impact encoding: closure type x relative location x hour window.

Each incident contributes an outer product of its location impact triple
(downstream, containing, upstream; linear distance decay with a 5 km cap)
and its hourly closure indicator over hours 0..10 of the prediction day,
routed to partial- or full-closure feature planes. Multiple incidents
combine by elementwise maximum.
"""
from __future__ import annotations

from datetime import date as date_t
from datetime import datetime, time, timedelta

import numpy as np

from ..clock import MORNING_END_HOUR as N_HOURS   # hours 0..10 of the prediction day
from ..tweetpipe.geo import haversine_km

LOCATION_CODES = ("ds", "in", "us")


def road_orientation(segments) -> int:
    """+1 when mileposts grow along the travel direction (order_on_road), else -1."""
    segs = sorted(segments, key=lambda s: s.order_on_road)
    if len(segs) < 2:
        return 1
    return 1 if segs[-1].start_milepost >= segs[0].start_milepost else -1


def incident_location_impact(incident, segment, orientation: int,
                             d_thres_km: float = 5.0) -> tuple[float, float, float]:
    """(I_ds, I_in, I_us) for one incident relative to one segment.

    The incident interval on the milepost axis decides the relative position;
    the magnitude decays linearly with the minimum endpoint distance.
    """
    seg_lo, seg_hi = sorted((segment.start_milepost, segment.end_milepost))
    inc_lo, inc_hi = sorted((incident.start_milepost, incident.end_milepost))
    d_km = min(
        haversine_km(a[0], a[1], b[0], b[1])
        for a in (incident.start_coord, incident.end_coord)
        for b in (segment.start_coord, segment.end_coord)
    )
    decay = max(0.0, (d_thres_km - d_km) / d_thres_km)
    if inc_lo <= seg_lo and inc_hi >= seg_hi:
        return (0.0, 1.0, 0.0)
    overlap = inc_lo < seg_hi and inc_hi > seg_lo
    # which side of the segment (downstream = ahead along travel direction)
    if overlap:
        ahead = (inc_hi > seg_hi) if orientation > 0 else (inc_lo < seg_lo)
    else:
        ahead = (inc_lo >= seg_hi) if orientation > 0 else (inc_hi <= seg_lo)
    if ahead:
        return (decay, 0.0, 0.0)
    return (0.0, 0.0, decay)


def incident_time_window(incident, day: date_t) -> np.ndarray:
    """H_h = 1 iff the closure overlaps clock hour [h, h+1) of the prediction day."""
    out = np.zeros(N_HOURS)
    day_start = datetime.combine(day, time(0, 0))
    grid_end = day_start + timedelta(hours=N_HOURS)
    if incident.closure_start_ts >= grid_end:
        return out   # entirely after the morning window
    for h in range(N_HOURS):
        lo = day_start + timedelta(hours=h)
        hi = lo + timedelta(hours=1)
        if incident.closure_start_ts < hi and incident.closure_end_ts > lo:
            out[h] = 1.0
    return out


class _IncidentGeometry:
    """IncidentRecord lacks mileposts; recover them from the road's segments."""

    def __init__(self, record, segments):
        self.start_coord = record.start_coord
        self.end_coord = record.end_coord
        mps = [self._coord_to_milepost(c, segments) for c in (record.start_coord, record.end_coord)]
        self.start_milepost, self.end_milepost = min(mps), max(mps)

    @staticmethod
    def _coord_to_milepost(coord, segments) -> float:
        best_mp, best_d = 0.0, np.inf
        for seg in segments:
            for mp, pt in ((seg.start_milepost, seg.start_coord),
                           (seg.end_milepost, seg.end_coord)):
                d = haversine_km(coord[0], coord[1], pt[0], pt[1])
                if d < best_d:
                    best_d, best_mp = d, mp
        return best_mp


def incident_feature_names() -> list[str]:
    """Partial then full closures, each location-major then hour."""
    return [f"{prefix}_{loc}_{h}" for prefix in ("p", "f") for loc in LOCATION_CODES
            for h in range(N_HOURS)]


def incident_days(record) -> list[date_t]:
    """Prediction days whose 00:00-11:00 grid the closure can overlap."""
    out = []
    day = record.closure_start_ts.date()
    last = record.closure_end_ts.date()
    while day <= last:
        out.append(day)
        day = day + timedelta(days=1)
    return out


def bulk_incident_features(incidents, road_segments, days, day_filter,
                           d_thres_km: float = 5.0) -> dict[str, np.ndarray]:
    """Per-segment (n_days, n_cols) blocks for one road, looping per incident.

    `day_filter(record, day)` decides whether the record is usable for that
    prediction day (the data-feed cutoff rule). Columns follow
    `incident_feature_names`; each segment-day holds the max over the usable
    incidents whose closure overlaps hours 0..10 of that day, 0 elsewhere.
    """
    day_pos = {d: i for i, d in enumerate(days)}
    out = {seg.segment_id: np.zeros((len(days), 2 * len(LOCATION_CODES) * N_HOURS))
           for seg in road_segments}
    orientation = road_orientation(road_segments)
    for rec in incidents:
        # (row, closed hours) of each requested, usable day the closure reaches;
        # the geometry is worked out only for a record that has one
        hits = []
        for day in incident_days(rec):
            if day in day_pos and day_filter(rec, day):
                hour_idx = np.flatnonzero(incident_time_window(rec, day))
                if hour_idx.size:
                    hits.append((day_pos[day], hour_idx))
        if not hits:
            continue
        geom = _IncidentGeometry(rec, road_segments)
        triples = {seg.segment_id: incident_location_impact(geom, seg, orientation,
                                                            d_thres_km)
                   for seg in road_segments}
        plane = 0 if rec.closure_type == "PARTIAL" else len(LOCATION_CODES)
        for pos, hour_idx in hits:
            for seg in road_segments:
                row = out[seg.segment_id][pos]
                for loc, impact in enumerate(triples[seg.segment_id]):
                    if impact > 0:
                        cols = (plane + loc) * N_HOURS + hour_idx
                        row[cols] = np.maximum(row[cols], impact)
    return out
