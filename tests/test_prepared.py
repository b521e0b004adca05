"""The split-independent joins prepare_data keeps equal the per-call joins."""
import dataclasses
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweet2traffic.config import PipelineConfig, TweetConfig
from tweet2traffic.harness.pipeline import _split_homes, build_split, prepare_data
from tweet2traffic.harness.report import token_frequency
from tweet2traffic.ingest import SyntheticConfig, generate_synthetic
from tweet2traffic.ingest.types import Tweet, ZonePolygon
from tweet2traffic.tweetpipe.textclean import clean_text
from tweet2traffic.tweetpipe.users import (
    CheckinCluster,
    build_checkin_clusters,
    dbscan_cluster,
    detect_bots,
    filter_influential_users,
    infer_home,
    landuse_of_points,
    landuse_table,
    load_resident_lexicon,
    weighted_home_location,
)

PC = PipelineConfig(tweets=TweetConfig(agency_user_ids=("agency511",)))


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


def per_point_tracts(prepared):
    """The sleep/wake tract table rebuilt from one join per coordinate."""
    return {coord: prepared.geocoder.locate_many([coord])[0] for coord in prepared.pulse_tracts}


def per_call_reference(prepared, zones):
    """The prepared data with every hoisted join replaced by a per-call join:
    each tract comes from its own one-point join, and each land-use lookup
    runs its own point-in-polygon join over `zones`."""
    return dataclasses.replace(prepared, pulse_tracts=per_point_tracts(prepared),
                               landuse=PerCallLanduse(zones))


def test_tract_table_equals_locate(world):
    _bundle, prepared = world
    bucketed = {t.coord for users in prepared.sleep_buckets.values()
                for tweets in users.values() for t in tweets if t.coord is not None}
    assert set(prepared.pulse_tracts) == bucketed
    assert len(set(prepared.pulse_tracts.values()) - {None}) == 3
    assert prepared.pulse_tracts == per_point_tracts(prepared)


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


def reference_build_checkin_clusters(user_id, geocoded_tweets, landuse, cfg):
    """`build_checkin_clusters` as it was before its one-pass walk: a
    `flatnonzero` and a walk over the members for each cluster."""
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
        mix = {}
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


# points ~110 m apart chain into one cluster at eps 0.3 km; a repeated
# coordinate is the same tuple, as the loader's tweets share nothing else
POOL = [(40.400, -80.000), (40.401, -80.000), (40.4025, -80.001), (40.404, -80.000),
        (40.420, -80.030), (40.450, -80.000), (float("nan"), -80.000)]
TEXTS = ["on the couch", "Bed time", "office again", "", "TV night", "HOMEward", "I-279 jam"]


@st.composite
def checkins(draw):
    """One user's check-ins: repeated coordinates, home-keyword texts,
    midnight hours, several check-ins a day and equal timestamps, with a
    land use (or none) for each coordinate."""
    landuse = {c: draw(st.sampled_from(["residence", "industry", "amenity", "park", None]))
               for c in POOL}
    tweets = [Tweet(f"t{draw(st.integers(0, 9))}_{i}", "u1",
                    datetime(2014, 3, draw(st.integers(1, 4)),
                             draw(st.sampled_from([0, 3, 5, 6, 12, 23])),
                             draw(st.sampled_from([0, 30]))),
                    draw(st.sampled_from(TEXTS)), draw(st.sampled_from(POOL)), None, "GEOCODED")
              for i in range(draw(st.integers(0, 40)))]
    return tweets, landuse


def cluster_fields(cluster, landuse):
    """Every field of a cluster, floats by their bits, and its weighted home
    when its coordinates are finite."""
    home = (weighted_home_location(cluster, landuse, PC.tweets)
            if np.isfinite(cluster.coords).all() else ())
    return (cluster.user_id, cluster.coords.dtype.str, cluster.coords.shape,
            [v.hex() for v in cluster.coords.ravel().tolist()],
            list(cluster.land_use_mix), [v.hex() for v in cluster.land_use_mix.values()],
            cluster.checkin_rank, cluster.midnight_activity, cluster.home_tweet,
            cluster.last_destination, cluster.label, [v.hex() for v in home])


@settings(max_examples=400, deadline=None)
@given(data=checkins())
def test_checkin_clusters_equal_the_per_cluster_reference(data):
    tweets, landuse = data
    got = build_checkin_clusters("u1", tweets, landuse, PC.tweets)
    want = reference_build_checkin_clusters("u1", tweets, landuse, PC.tweets)
    assert ([cluster_fields(c, landuse) for c in got]
            == [cluster_fields(c, landuse) for c in want])


def reference_split_homes(prepared, train_days):
    """`_split_homes` as it was when it took each tweet's day from its
    timestamp on every split."""
    cfg = prepared.config.tweets
    train_set = set(train_days)
    train_tweets = [t for u in sorted(prepared.user_geo)
                    for t in prepared.user_geo[u]
                    if t.timestamp.date() in train_set
                    or (t.timestamp.date() + timedelta(days=1)) in train_set]
    users = filter_influential_users(train_tweets, cfg, lexicon=load_resident_lexicon(
        prepared.config.resident_lexicon_path))
    bots = detect_bots(users, cfg)
    homes = {}
    for u in [u for u in sorted(users) if users[u].is_resident and u not in bots]:
        geo = [t for t in prepared.user_geo.get(u, []) if t.timestamp.date() in train_set]
        home = infer_home(u, geo, prepared.landuse, cfg)
        if home is not None:
            homes[u] = home
    return homes


@pytest.mark.parametrize("span", [(0, 3), (9, 12), (8, 30), (0, 40)])
def test_split_homes_equal_the_per_tweet_day_reference(world, span):
    """The days `prepare_data` keeps give the homes that each tweet's
    timestamp gave. On the short spans the eve's tweets make residents of
    users who lack enough check-ins in the span alone; a span that starts
    late leaves out the tweets before its eve."""
    _bundle, prepared = world
    train = prepared.days[span[0]:span[1]]
    got = _split_homes(prepared, train)
    assert got and got == reference_split_homes(prepared, train)
    assert [v.hex() for xy in got.values() for v in xy] == [
        v.hex() for xy in reference_split_homes(prepared, train).values() for v in xy]


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
