"""The split-independent joins prepare_data keeps equal the per-call joins."""
import dataclasses
import warnings
from datetime import datetime

import numpy as np
import pytest

from tweet2traffic.config import PipelineConfig, TweetConfig
from tweet2traffic.harness.pipeline import build_split, prepare_data
from tweet2traffic.harness.report import token_frequency
from tweet2traffic.ingest import SyntheticConfig, generate_synthetic
from tweet2traffic.ingest.types import Tweet, ZonePolygon
from tweet2traffic.tweetpipe.textclean import clean_text
from tweet2traffic.tweetpipe.users import (
    build_checkin_clusters,
    landuse_of_points,
    landuse_table,
    weighted_home_location,
)

PC = PipelineConfig(tweets=TweetConfig(agency_user_ids=("agency511",)))


def in_box(coord, bbox):
    return bbox[0] <= coord[0] <= bbox[2] and bbox[1] <= coord[1] <= bbox[3]


@pytest.fixture(scope="module")
def world():
    cfg = SyntheticConfig(n_days=40, n_roads=2, segments_per_road=3,
                          n_users=16, n_tracts=3)
    bundle, _ = generate_synthetic(cfg, seed=21)
    return bundle, prepare_data(bundle, PC)


class PerCallLanduse(dict):
    """Land use joined afresh on every lookup: the per-call reference."""

    def __init__(self, zones):
        super().__init__()
        self.zones = zones

    def __missing__(self, coord):
        return landuse_of_points([coord], self.zones)[0]


def per_call_reference(prepared, zones):
    """The prepared data with every hoisted join replaced by a per-call join:
    an empty tract table sends each coordinate to `TractGeocoder.locate`, and
    each land-use lookup runs its own point-in-polygon join over `zones`."""
    return dataclasses.replace(prepared, coord_tracts={}, landuse=PerCallLanduse(zones))


def test_tract_table_equals_locate(world):
    bundle, prepared = world
    geo = {t.coord for t in bundle.tweets
           if t.coord is not None and in_box(t.coord, PC.tweets.bbox)}
    assert set(prepared.coord_tracts) == geo
    assert len(set(prepared.coord_tracts.values()) - {None}) == 3
    for coord, tract in prepared.coord_tracts.items():
        assert tract == prepared.geocoder.locate(*coord), coord


def test_landuse_table_equals_landuse_of_points(world):
    bundle, prepared = world
    coords = [t.coord for ts in prepared.user_geo.values() for t in ts]
    assert set(prepared.landuse) == set(coords)
    assert list(prepared.landuse.values()) == landuse_of_points(
        list(prepared.landuse), bundle.zones)
    assert len(set(prepared.landuse.values())) > 2
    # the per-call join over one user's points
    for user in sorted(prepared.user_geo):
        own = [t.coord for t in prepared.user_geo[user]]
        assert [prepared.landuse[c] for c in own] == landuse_of_points(own, bundle.zones)


ZONES = (
    ZonePolygon("residence", ((40.0, -80.2), (40.0, -80.0), (40.2, -80.0),
                              (40.2, -80.2), (40.0, -80.2))),
    ZonePolygon("industry", ((40.0, -80.0), (40.0, -79.8), (40.2, -79.8),
                             (40.2, -80.0), (40.0, -80.0))),
    ZonePolygon("amenity", ((40.2, -80.2), (40.2, -79.8), (40.4, -79.8),
                            (40.4, -80.2), (40.2, -80.2))),
)


def test_checkin_clusters_read_the_table_like_a_per_call_join():
    # check-ins scattered ~100 m around two points on zone borders, one where
    # three zones meet: each user has clusters of different land-use mixes
    rng = np.random.default_rng(8)
    by_user = {}
    for u in range(6):
        centers = ((40.2, -80.0 - 0.001 * u), (40.1 + 0.001 * u, -80.0))
        by_user[f"u{u}"] = [
            Tweet(f"t{u}_{i}", f"u{u}", datetime(2014, 3, 1 + i % 9, int(rng.integers(0, 24))),
                  "home", (centers[i % 2][0] + float(rng.normal(0, 1e-3)),
                           centers[i % 2][1] + float(rng.normal(0, 1e-3))), None, "GEOCODED")
            for i in range(30)]
    table = landuse_table([t.coord for ts in by_user.values() for t in ts], ZONES)
    weights = dict(PC.tweets.landuse_weights)
    mixed = 0
    for user, tweets in by_user.items():
        for c in build_checkin_clusters(user, tweets, table, PC.tweets):
            uses = landuse_of_points(c.coords, ZONES)
            counts = {lu: uses.count(lu) for lu in set(uses) - {None}}
            total = sum(counts.values())
            assert c.land_use_mix == {lu: n / total for lu, n in counts.items()}
            mixed += len(counts) > 1
            w = np.array([weights.get(lu, 0.0) for lu in uses])
            if w.sum() <= 0:
                w = np.ones(len(uses))
            w = w / w.sum()
            want = (float(w @ c.coords[:, 0]), float(w @ c.coords[:, 1]))
            assert weighted_home_location(c, table, PC.tweets) == want
    assert mixed >= 3


def test_prepared_text_equals_fresh_clean_text(world):
    bundle, prepared = world
    geo = [t for t in bundle.tweets if t.coord is not None]
    assert {t.text for t in geo} == set(prepared.clean_texts)
    fresh = {t.text: clean_text(t.text) for t in geo}
    assert prepared.clean_texts == fresh
    got = token_frequency(geo, prepared.clean_texts, PC.tweets.periods)
    want = token_frequency(geo, fresh, PC.tweets.periods)
    assert got == want
    assert sum(sum(c.values()) for c in got.values()) > 0


@pytest.mark.parametrize("n_train", [20, 32])
def test_build_split_equals_per_call_joins(world, n_train):
    bundle, prepared = world
    days = prepared.days
    train, test = days[:n_train], days[n_train:n_train + 6]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = build_split(prepared, train, test, seed=4)
        want = build_split(per_call_reference(prepared, bundle.zones), train, test, seed=4)
    assert got.homes and got.homes == want.homes
    assert got.road_matrix.names == want.road_matrix.names
    assert np.array_equal(got.road_matrix.values, want.road_matrix.values)
    sleep_wake = [i for i, g in enumerate(got.road_matrix.groups)
                  if g in ("tweet_sleep", "tweet_wake")]
    assert np.any(got.road_matrix.values[:, sleep_wake] != 0.0)
    assert got.clusters.keys() == want.clusters.keys()
    for road, c in got.clusters.items():
        w = want.clusters[road]
        assert (c.dates, len(c.ordered.centroids)) == (w.dates, len(w.ordered.centroids))
        assert np.array_equal(c.ordered.labels, w.ordered.labels)


def test_sleep_pulses_follow_the_configured_windows(world):
    bundle, _prepared = world
    cfg = dataclasses.replace(PC, tweets=dataclasses.replace(
        PC.tweets, night_window=(19, 5), sleep_window=(19, 3)))
    prepared = prepare_data(bundle, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        art = build_split(prepared, prepared.days, [], seed=4)
    fm = art.road_matrix
    early = [i for i, (n, g) in enumerate(zip(fm.names, fm.groups))
             if g == "tweet_sleep" and n.startswith(("19_", "20_"))]
    assert len(early) == 2 * len(prepared.tract_ids)
    assert fm.values[:, early].sum() > 0.0
