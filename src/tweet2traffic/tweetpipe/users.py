"""Influential-user filtering, bot screening, and home-location inference.

Residents are users with enough geocoded tweets and a profile location
matching the local lexicon; their check-in coordinates are clustered with
DBSCAN and a six-rule classifier picks the home cluster, whose land-use
weighted centroid becomes the home location used to geotag night-time
timeline tweets.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime
from importlib import resources
from pathlib import Path

import numpy as np

from ..config import TweetConfig
from ..ingest.types import Tweet
from .geo import first_ring_labels, haversine_km, in_bbox, pairwise_haversine_km

_COORD_RE = re.compile(r"(-?\d{1,3}\.\d+)[,\s]+(-?\d{1,3}\.\d+)")


def load_resident_lexicon(path=None) -> tuple[str, ...]:
    if path is None:
        text = resources.files("tweet2traffic").joinpath("data/resident_lexicon.txt").read_text("utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    return tuple(line.strip().lower() for line in text.splitlines() if line.strip())


def profile_matches_resident(profile: str | None, lexicon, bbox) -> bool:
    """Substring match against the lexicon, or in-box coordinates in the text."""
    if not profile:
        return False
    lowered = profile.lower()
    if any(entry in lowered for entry in lexicon):
        return True
    m = _COORD_RE.search(lowered)
    if m:
        return in_bbox((float(m.group(1)), float(m.group(2))), bbox)
    return False


@dataclass
class UserProfile:
    is_resident: bool
    location_range_m: float


def filter_influential_users(tweets, cfg: TweetConfig, lexicon=None) -> dict[str, UserProfile]:
    """Users with >= 5 geocoded tweets whose profile matches the resident lexicon."""
    if lexicon is None:
        lexicon = load_resident_lexicon()
    coords_by_user: dict[str, list] = {}
    profile_by_user: dict[str, str | None] = {}
    for t in tweets:
        if t.kind == "GEOCODED" and t.coord is not None:
            coords_by_user.setdefault(t.user_id, []).append(t.coord)
        if t.user_profile_location and t.user_id not in profile_by_user:
            profile_by_user[t.user_id] = t.user_profile_location
    out = {}
    for user_id in sorted(coords_by_user):
        coords = np.asarray(coords_by_user[user_id], dtype=float)
        if len(coords) < cfg.influential_min_geocoded:
            continue
        resident = profile_matches_resident(profile_by_user.get(user_id), lexicon, cfg.bbox)
        # bbox-diagonal location range; identical to max pairwise at the 10 m scale
        rng_km = float(haversine_km(coords[:, 0].min(), coords[:, 1].min(),
                                    coords[:, 0].max(), coords[:, 1].max()))
        out[user_id] = UserProfile(resident, rng_km * 1000.0)
    return out


def detect_bots(users: dict[str, UserProfile], cfg: TweetConfig) -> set[str]:
    """Exclusion set: every user whose location range is under `bot_location_range_m`."""
    return {user_id for user_id, profile in users.items()
            if profile.location_range_m < cfg.bot_location_range_m}


def dbscan_cluster(coords, eps_km: float) -> np.ndarray:
    """DBSCAN at one point per core, over haversine distances.

    With MinPts = 1 every point is a core point and none is noise, so the
    clusters are the connected components of the eps-neighborhood graph.
    Labels number the components in order of first appearance.
    """
    pts = np.asarray(coords, dtype=float)
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=int)
    near = pairwise_haversine_km(pts) <= eps_km   # a NaN point has no neighbor
    labels = np.full(n, -1, dtype=int)
    n_labels = 0
    for seed in range(n):
        if labels[seed] >= 0:
            continue
        # breadth-first over the component, reading each point's row once;
        # seeds go in index order, so labels follow first appearance
        labels[seed] = n_labels
        frontier = np.array([seed])
        while frontier.size:
            frontier = np.flatnonzero(near[frontier].any(axis=0) & (labels < 0))
            labels[frontier] = n_labels
        n_labels += 1
    return labels


@dataclass
class CheckinCluster:
    user_id: str
    coords: np.ndarray
    land_use_mix: dict[str, float]
    checkin_rank: int
    midnight_activity: bool
    home_tweet: bool
    last_destination: bool
    label: str = "UNLABELED"

    @property
    def industry_amenity_share(self) -> float:
        return self.land_use_mix.get("industry", 0.0) + self.land_use_mix.get("amenity", 0.0)


def landuse_of_points(coords, zones) -> list[str | None]:
    """Batch land-use join; the first zone containing a point wins."""
    return first_ring_labels(coords, ((z.land_use, z.ring) for z in zones))


def landuse_table(coords, zones) -> dict[tuple[float, float], str | None]:
    """Land use of every distinct coordinate, from one batch join."""
    distinct = list(dict.fromkeys(coords))
    return dict(zip(distinct, landuse_of_points(distinct, zones)))


def build_checkin_clusters(user_id: str, geocoded_tweets, landuse,
                           cfg: TweetConfig) -> list[CheckinCluster]:
    """Cluster one user's check-ins and compute the six home-rule features.

    `landuse` maps each check-in coordinate to its land use (`landuse_table`).
    """
    tweets = sorted(geocoded_tweets, key=lambda t: (t.timestamp, t.tweet_id))
    if not tweets:
        return []
    coords = np.asarray([t.coord for t in tweets], dtype=float)
    labels = dbscan_cluster(coords, cfg.dbscan_eps_km)

    # last destination: the cluster of the final tweet of each calendar day
    last_of_day = {}
    for t, lab in zip(tweets, labels):
        last_of_day[t.timestamp.date()] = lab
    last_dest_clusters = set(last_of_day.values())

    landuses = [landuse[t.coord] for t in tweets]
    clusters = []
    sizes = []
    for lab in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == lab)
        members = [tweets[i] for i in idx]
        mix: dict[str, float] = {}
        for i in idx:
            lu = landuses[i]
            if lu is not None:
                mix[lu] = mix.get(lu, 0.0) + 1.0
        total = sum(mix.values())
        if total > 0:
            mix = {k: v / total for k, v in mix.items()}
        midnight = any(0 <= t.timestamp.hour < 6 for t in members)
        home_tw = any(any(kw in t.text.lower() for kw in cfg.home_keywords)
                      for t in members)
        clusters.append(CheckinCluster(
            user_id=user_id, coords=coords[idx], land_use_mix=mix,
            checkin_rank=0, midnight_activity=midnight, home_tweet=home_tw,
            last_destination=lab in last_dest_clusters))
        sizes.append(len(idx))
    # rank 1 = most check-ins; ties resolved by cluster discovery order
    order = sorted(range(len(clusters)), key=lambda i: (-sizes[i], i))
    for rank, i in enumerate(order, start=1):
        clusters[i].checkin_rank = rank
    return clusters


def classify_home_cluster(clusters: list[CheckinCluster]) -> list[CheckinCluster]:
    """Apply the six labeling rules in sequence; at most one HOME survives."""
    for c in clusters:
        c.label = "NON_HOME"                                           # rule 1
    ordered = sorted(clusters, key=lambda c: c.checkin_rank)
    for c in ordered:
        if (c.checkin_rank == 1 and c.midnight_activity
                and c.industry_amenity_share < 0.5):                   # rule 2
            c.label = "CANDIDATE"
        if (c.checkin_rank <= 3 and c.midnight_activity
                and c.industry_amenity_share < 0.5 and c.home_tweet):  # rule 3
            c.label = "CANDIDATE"
        if not c.last_destination or c.industry_amenity_share > 0.5:   # rule 4
            c.label = "NON_HOME"
    for c in ordered:                                                  # rule 5
        others_candidate = any(o is not c and o.label == "CANDIDATE" for o in clusters)
        if c.label == "CANDIDATE" and not c.home_tweet and others_candidate:
            c.label = "NON_HOME"
    candidates = [c for c in ordered if c.label == "CANDIDATE"]
    if candidates:                                                     # rule 6
        best = min(candidates, key=lambda c: c.checkin_rank)
        for c in candidates:
            c.label = "NON_HOME"
        best.label = "HOME"
    return clusters


def weighted_home_location(cluster: CheckinCluster, landuse,
                           cfg: TweetConfig) -> tuple[float, float]:
    """Land-use weighted centroid; zero total weight falls back to the plain mean."""
    weights_map = dict(cfg.landuse_weights)
    pts = cluster.coords
    landuses = [landuse[lat, lon] for lat, lon in pts.tolist()]
    w = np.array([weights_map.get(lu, 0.0) if lu is not None else 0.0
                  for lu in landuses])
    if w.sum() <= 0:
        w = np.ones(len(pts))
    w = w / w.sum()
    lat, lon = float(w @ pts[:, 0]), float(w @ pts[:, 1])
    return (lat, lon)


def infer_home(user_id: str, geocoded_tweets, landuse,
               cfg: TweetConfig) -> tuple[float, float] | None:
    clusters = build_checkin_clusters(user_id, geocoded_tweets, landuse, cfg)
    if not clusters:
        return None
    classify_home_cluster(clusters)
    home = [c for c in clusters if c.label == "HOME"]
    if not home:
        return None
    return weighted_home_location(home[0], landuse, cfg)


def in_night_window(ts: datetime, window: tuple[int, int]) -> bool:
    start, end = window
    h = ts.hour + ts.minute / 60.0
    if start <= end:
        return start <= h < end
    return h >= start or h < end


def geotag_timeline(tweets, homes: dict[str, tuple[float, float]],
                    cfg: TweetConfig) -> list:
    """Fill missing coordinates of night-window timeline tweets with user homes."""
    out = []
    for t in tweets:
        if (t.coord is None and t.user_id in homes
                and in_night_window(t.timestamp, cfg.night_window)):
            out.append(Tweet(t.tweet_id, t.user_id, t.timestamp, t.text, homes[t.user_id],
                             t.user_profile_location, t.kind))
        else:
            out.append(t)
    return out
