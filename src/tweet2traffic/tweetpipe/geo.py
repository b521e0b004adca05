"""Great-circle distances, bounding-box and point-in-polygon tests on WGS-84 lat/lon."""
from __future__ import annotations

import numpy as np

EARTH_RADIUS_KM = 6371.0088


def haversine_km(lat1, lon1, lat2, lon2) -> float:
    """Great-circle distance in kilometers (scalar or elementwise arrays)."""
    p1, l1, p2, l2 = map(np.radians, (lat1, lon1, lat2, lon2))
    a = np.sin((p2 - p1) / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin((l2 - l1) / 2) ** 2
    return EARTH_RADIUS_KM * 2 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def pairwise_haversine_km(coords: np.ndarray) -> np.ndarray:
    """Full distance matrix for an (n, 2) array of (lat, lon) rows."""
    lat = coords[:, 0][:, None]
    lon = coords[:, 1][:, None]
    return haversine_km(lat, lon, lat.T, lon.T)


def in_bbox(coord, bbox) -> bool:
    """Whether (lat, lon) lies in (minlat, minlon, maxlat, maxlon), edges included."""
    return bbox[0] <= coord[0] <= bbox[2] and bbox[1] <= coord[1] <= bbox[3]


def points_in_ring(points: np.ndarray, ring) -> np.ndarray:
    """Vectorized even-odd ray cast of (n, 2) lat/lon points against one ring.

    Boundary points (within 1e-12 degrees of an edge) count as inside, which
    the tract tie rule requires.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    eps = 1e-12     # degrees; a point this close to an edge lies on it
    y = pts[:, 0]   # lat plays the usual y role
    x = pts[:, 1]
    ring = np.asarray(ring, dtype=float)
    ys = ring[:, 0]
    xs = ring[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    on_edge = np.zeros(len(pts), dtype=bool)
    for i in range(len(ring) - 1):
        y1, x1 = ys[i], xs[i]
        y2, x2 = ys[i + 1], xs[i + 1]
        crosses = ((y1 > y) != (y2 > y))
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = (y - y1) * (x2 - x1) / (y2 - y1) + x1
        inside ^= crosses & (x < xint)
        # point on the segment: zero cross product and inside the box
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        inbox = ((x >= min(x1, x2) - eps) & (x <= max(x1, x2) + eps)
                 & (y >= min(y1, y2) - eps) & (y <= max(y1, y2) + eps))
        on_edge |= (np.abs(cross) <= eps) & inbox
    return inside | on_edge


def first_ring_labels(coords, labelled_rings) -> list:
    """Label of the first (label, ring) pair whose ring holds each point, else None.

    Each ring is tested only against the points that no earlier ring holds.
    """
    pts = np.asarray(coords, dtype=float)
    out: list = [None] * len(pts)
    unresolved = np.arange(len(pts))
    for label, ring in labelled_rings:
        if unresolved.size == 0:
            break
        hit = points_in_ring(pts[unresolved], ring)
        for idx in unresolved[hit]:
            out[idx] = label
        unresolved = unresolved[~hit]
    return out
