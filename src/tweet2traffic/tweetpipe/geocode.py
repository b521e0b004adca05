"""Census-tract spatial join and milepost-to-coordinate interpolation."""
from __future__ import annotations

from .geo import first_ring_labels


class TractGeocoder:
    """Assigns points to tracts by ray casting; boundary ties go to the lowest id."""

    def __init__(self, tracts):
        self.tracts = sorted(tracts, key=lambda t: t.tract_id)

    def locate_many(self, coords) -> list[str | None]:
        return first_ring_labels(coords, ((t.tract_id, t.ring) for t in self.tracts))


class MilepostGeocoder:
    """Maps (road name, direction, milepost) to a segment-interpolated coordinate.

    Road naming follows 'I-376 eastbound' -> road_id 'I-376 E' style.
    """

    def __init__(self, segments):
        self.by_road: dict[str, list] = {}
        for seg in segments:
            self.by_road.setdefault(seg.road_id, []).append(seg)
        for road in self.by_road.values():
            road.sort(key=lambda s: s.order_on_road)

    def road_id_for(self, road_name: str, direction: str) -> str | None:
        guess = f"{road_name.upper()} {direction[0].upper()}"
        return guess if guess in self.by_road else None

    def __call__(self, road_name: str, direction: str, milepost: float):
        road_id = self.road_id_for(road_name, direction)
        if road_id is None:
            return None
        segs = self.by_road[road_id]
        for seg in segs:
            if seg.start_milepost <= milepost <= seg.end_milepost:
                span = seg.end_milepost - seg.start_milepost
                f = 0.0 if span <= 0 else (milepost - seg.start_milepost) / span
                lat = seg.start_coord[0] + f * (seg.end_coord[0] - seg.start_coord[0])
                lon = seg.start_coord[1] + f * (seg.end_coord[1] - seg.start_coord[1])
                return road_id, lat, lon
        # clamp beyond the ends of the mapped road
        first, last = segs[0], segs[-1]
        if milepost < first.start_milepost:
            return road_id, first.start_coord[0], first.start_coord[1]
        return road_id, last.end_coord[0], last.end_coord[1]
