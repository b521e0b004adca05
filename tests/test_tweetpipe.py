import dataclasses
import math
from datetime import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tweet2traffic.config import TweetConfig
from tweet2traffic.ingest.types import TractPolygon, Tweet, ZonePolygon
from tweet2traffic.tweetpipe import (
    CheckinCluster,
    TractGeocoder,
    assemble_incident_records,
    classify_home_cluster,
    clean_text,
    dbscan_cluster,
    detect_bots,
    encode_event_indicators,
    encode_sleep_wake,
    filter_influential_users,
    geotag_timeline,
    parse_incident_tweet,
    sentiment_label,
    weighted_home_location,
)
from tweet2traffic.tweetpipe.geo import EARTH_RADIUS_KM, haversine_km, pairwise_haversine_km
from tweet2traffic.tweetpipe.users import in_night_window, landuse_table
from tweet2traffic.tweetpipe.sentiment import LexiconSentimentProvider

CFG = TweetConfig()


def tw(tweet_id, user_id, ts, text="", coord=None, profile=None, kind="GEOCODED"):
    if kind == "GEOCODED" and coord is None:
        coord = (40.4, -80.0)
    return Tweet(tweet_id, user_id, ts, text, coord, profile, kind)


class TestInfluentialUsers:
    def make_tweets(self, user_id, n_geo, profile):
        return [tw(f"{user_id}-{i}", user_id, datetime(2014, 3, 1, 12, i), profile=profile)
                for i in range(n_geo)]

    def test_city_name_resident(self):
        users = filter_influential_users(self.make_tweets("u1", 6, "Pittsburgh, PA"), CFG)
        assert users["u1"].is_resident

    def test_nickname_resident(self):
        users = filter_influential_users(self.make_tweets("u2", 5, "da burgh"), CFG)
        assert users["u2"].is_resident

    def test_below_threshold_not_influential(self):
        users = filter_influential_users(self.make_tweets("u3", 4, "Pittsburgh"), CFG)
        assert "u3" not in users

    def test_non_matching_profile(self):
        users = filter_influential_users(self.make_tweets("u4", 8, "Cleveland, OH"), CFG)
        assert not users["u4"].is_resident

    def test_coordinates_in_box(self):
        users = filter_influential_users(self.make_tweets("u5", 5, "40.429, -79.932"), CFG)
        assert users["u5"].is_resident


class TestBots:
    def make_user(self, user_id, coords):
        return filter_influential_users(
            [tw(f"{user_id}-{i}", user_id, datetime(2014, 3, 1, 12, i), coord=c,
                profile="pgh") for i, c in enumerate(coords)], CFG)

    def test_single_point_suspicious_excluded_by_default(self):
        users = self.make_user("b1", [(40.4, -80.0)] * 5)
        assert detect_bots(users, CFG) == {"b1"}

    def test_scored_above_threshold_excluded(self):
        users = self.make_user("b2", [(40.4, -80.0)] * 5)
        out = detect_bots(users, CFG)
        assert out == {"b2"}

    def test_wide_range_never_suspicious(self):
        coords = [(40.4, -80.0), (40.445, -80.0)] * 3   # ~5 km apart
        users = self.make_user("b4", coords)
        out = detect_bots(users, CFG)
        assert out == set()


def offset_km(lat, lon, north_km):
    """Move north along the meridian by an exact great-circle distance."""
    return lat + math.degrees(north_km / EARTH_RADIUS_KM), lon


@st.composite
def checkins(draw):
    """Points in a 2 km box, some repeated and some with a NaN coordinate, shuffled."""
    base = draw(st.lists(st.tuples(st.floats(40.40, 40.42), st.floats(-80.01, -79.99)),
                         max_size=30))
    dups = draw(st.lists(st.sampled_from(base), max_size=10)) if base else []
    nans = draw(st.lists(st.sampled_from([(math.nan, -80.0), (40.41, math.nan)]), max_size=2))
    return draw(st.permutations(base + dups + nans))


def components_oracle(coords, eps_km) -> list[int]:
    """scipy's connected components of the eps graph, numbered by first appearance."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    pts = np.asarray(coords, dtype=float)
    if len(pts) == 0:
        return []
    _n, comp = connected_components(csr_matrix(pairwise_haversine_km(pts) <= eps_km),
                                    directed=False)
    first: dict[int, int] = {}
    return [first.setdefault(c, len(first)) for c in comp.tolist()]


class TestDbscan:
    def test_single_point_own_cluster(self):
        labels = dbscan_cluster([(40.4, -80.0)], eps_km=0.3)
        assert labels.tolist() == [0]

    def test_two_close_points_one_cluster(self):
        p1 = (40.4, -80.0)
        p2 = offset_km(*p1, 0.2)
        assert haversine_km(*p1, *p2) == pytest.approx(0.2, rel=1e-6)
        labels = dbscan_cluster([p1, p2], eps_km=0.3)
        assert labels[0] == labels[1]

    def test_two_far_points_two_clusters(self):
        p1 = (40.4, -80.0)
        p2 = offset_km(*p1, 1.0)
        labels = dbscan_cluster([p1, p2], eps_km=0.3)
        assert labels[0] != labels[1]

    def test_chaining(self):
        p1 = (40.4, -80.0)
        p2 = offset_km(*p1, 0.25)
        p3 = offset_km(*p1, 0.5)
        labels = dbscan_cluster([p1, p2, p3], eps_km=0.3)
        assert labels[0] == labels[1] == labels[2]

    def test_min_pts_one_no_noise(self):
        rng = np.random.default_rng(0)
        pts = [(40.0 + rng.random(), -80.0 + rng.random()) for _ in range(30)]
        labels = dbscan_cluster(pts, eps_km=0.3)
        assert (labels >= 0).all()

    @given(checkins())
    @example([])
    @example([(40.4, -80.0)])
    @settings(max_examples=150, deadline=None)
    def test_labels_match_the_components_oracle(self, pts):
        assert dbscan_cluster(pts, eps_km=0.3).tolist() == components_oracle(pts, 0.3)

    @given(st.lists(st.sampled_from([0.25, 0.35]), min_size=300, max_size=400).flatmap(
        lambda steps: st.tuples(st.just(steps), st.permutations(range(len(steps) + 1)))))
    @settings(max_examples=20, deadline=None)
    def test_a_permuted_chain_matches_the_components_oracle(self, chain):
        steps, order = chain
        north = np.concatenate([[0.0], np.cumsum(steps)])
        pts = [offset_km(40.4, -80.0, north[i]) for i in order]
        labels = dbscan_cluster(pts, eps_km=0.3).tolist()
        assert labels == components_oracle(pts, 0.3)
        assert max(labels) == steps.count(0.35)


def make_cluster(rank, midnight=True, industry_amenity=0.1, home_tweet=False,
                 last_destination=True, coords=None):
    mix = {"industry": industry_amenity / 2, "amenity": industry_amenity / 2,
           "residence": 1.0 - industry_amenity}
    return CheckinCluster(
        user_id="u", coords=np.asarray(coords if coords is not None else [[40.4, -80.0]]),
        land_use_mix=mix, checkin_rank=rank, midnight_activity=midnight,
        home_tweet=home_tweet, last_destination=last_destination)


class TestHomeRules:
    def test_rule2_top_rank_candidate(self):
        clusters = [make_cluster(1, midnight=True, industry_amenity=0.1)]
        classify_home_cluster(clusters)
        assert clusters[0].label == "HOME"   # lone candidate promoted by rule 6

    def test_rule4_industry_majority_non_home(self):
        clusters = [make_cluster(1, midnight=True, industry_amenity=0.6)]
        classify_home_cluster(clusters)
        assert clusters[0].label == "NON_HOME"

    def test_rule6_highest_rank_wins(self):
        c1 = make_cluster(1, midnight=True, home_tweet=True)
        c3 = make_cluster(3, midnight=True, home_tweet=True)
        classify_home_cluster([c3, c1])
        assert c1.label == "HOME"
        assert c3.label == "NON_HOME"

    def test_rule5_no_home_tweet_demoted(self):
        no_kw = make_cluster(1, midnight=True, home_tweet=False)
        with_kw = make_cluster(2, midnight=True, home_tweet=True)
        classify_home_cluster([no_kw, with_kw])
        assert no_kw.label == "NON_HOME"
        assert with_kw.label == "HOME"

    def test_rule4_never_last_destination(self):
        clusters = [make_cluster(1, midnight=True, last_destination=False)]
        classify_home_cluster(clusters)
        assert clusters[0].label == "NON_HOME"

    def test_at_most_one_home(self):
        clusters = [make_cluster(r, midnight=True, home_tweet=True) for r in (1, 2, 3)]
        classify_home_cluster(clusters)
        assert sum(c.label == "HOME" for c in clusters) == 1


RES_ZONE = ZonePolygon("residence", ((40.0, -80.2), (40.0, -80.0), (40.2, -80.0),
                                     (40.2, -80.2), (40.0, -80.2)))
IND_ZONE = ZonePolygon("industry", ((40.0, -79.9), (40.0, -79.7), (40.2, -79.7),
                                    (40.2, -79.9), (40.0, -79.9)))
AMEN_ZONE = ZonePolygon("amenity", ((40.3, -80.2), (40.3, -80.0), (40.5, -80.0),
                                    (40.5, -80.2), (40.3, -80.2)))


def zone_table(coords, zones):
    return landuse_table([tuple(c) for c in coords], zones)


class TestWeightedHome:
    def test_all_residence_plain_centroid(self):
        coords = [[40.05, -80.15], [40.15, -80.05]]
        c = make_cluster(1, coords=coords)
        lat, lon = weighted_home_location(c, zone_table(coords, [RES_ZONE]), CFG)
        assert lat == pytest.approx(40.10)
        assert lon == pytest.approx(-80.10)

    def test_industry_zero_weight(self):
        coords = [[40.1, -80.1], [40.1, -79.8]]   # residence vs industry
        c = make_cluster(1, coords=coords)
        lat, lon = weighted_home_location(c, zone_table(coords, [RES_ZONE, IND_ZONE]),
                                          CFG)
        assert (lat, lon) == pytest.approx((40.1, -80.1))

    def test_all_amenity_falls_back_to_centroid(self):
        coords = [[40.35, -80.15], [40.45, -80.05]]
        c = make_cluster(1, coords=coords)
        lat, lon = weighted_home_location(c, zone_table(coords, [AMEN_ZONE]), CFG)
        assert (lat, lon) == pytest.approx((40.40, -80.10))


class TestGeotag:
    HOME = (40.41, -80.01)

    def run(self, ts, coord=None, kind="TIMELINE"):
        t = Tweet("t1", "u1", ts, "txt", coord, None, kind)
        out = geotag_timeline([t], {"u1": self.HOME}, CFG)
        return out[0]

    def test_night_timeline_filled(self):
        t = self.run(datetime(2014, 3, 1, 23, 0))
        assert t.coord == self.HOME

    def test_geocoded_untouched(self):
        t = self.run(datetime(2014, 3, 1, 23, 0), coord=(40.5, -80.2), kind="GEOCODED")
        assert t.coord == (40.5, -80.2)

    def test_outside_window_untouched(self):
        t = self.run(datetime(2014, 3, 1, 14, 0))
        assert t.coord is None

    @given(st.integers(0, 23), st.integers(0, 59))
    @settings(max_examples=60)
    def test_never_moves_existing(self, hour, minute):
        t = Tweet("t", "u1", datetime(2014, 3, 1, hour, minute), "", (40.3, -80.3), None, "TIMELINE")
        out = geotag_timeline([t], {"u1": self.HOME}, CFG)
        assert out[0].coord == (40.3, -80.3)

    def test_records_equal_the_replace_result(self):
        """Each record equals `dataclasses.replace(t, coord=home)` of its input,
        field by field, and an untouched tweet is the input object itself."""
        tweets = [Tweet(f"t{h}", user, datetime(2014, 3, 1, h, 30), f"text {h}", coord,
                        "Pittsburgh, PA" if user == "u1" else None, kind)
                  for h in range(24) for user in ("u1", "u2")
                  for coord, kind in ((None, "TIMELINE"), ((40.3, -80.3), "GEOCODED"))]
        out = geotag_timeline(tweets, {"u1": self.HOME}, CFG)
        filled = 0
        for t, got in zip(tweets, out, strict=True):
            if got is t:
                continue
            want = dataclasses.replace(t, coord=self.HOME)
            assert [getattr(got, f.name) for f in dataclasses.fields(Tweet)] == \
                [getattr(want, f.name) for f in dataclasses.fields(Tweet)]
            filled += 1
        assert filled == sum(t.coord is None and t.user_id == "u1"
                             and in_night_window(t.timestamp, CFG.night_window) for t in tweets)
        assert filled > 0


class TestCleaner:
    def test_hashtag_example(self):
        assert clean_text("#LetsGoPens") == "lets go pens."

    def test_spaced_singles_example(self):
        assert clean_text("Ain't H A P P Y") == "ain't happy."

    def test_repeated_suffix_example(self):
        assert clean_text("Soooo good lololol") == "so good lol."

    def test_entity_stripping(self):
        out = clean_text("yo @alice see https://x.co/q or mail a@b.com \U0001F600")
        assert "@" not in out and "http" not in out and "\U0001F600" not in out

    def test_slang_expansion(self):
        assert clean_text("thx u", slang={"thx": "thanks", "u": "you"}) == "thanks you."

    def test_empty_becomes_period(self):
        assert clean_text("") == "."

    @given(st.text(max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, raw):
        once = clean_text(raw)
        assert clean_text(once) == once


T0 = datetime(2019, 12, 27, 6, 42)
T1 = datetime(2019, 12, 27, 7, 18)
T2 = datetime(2019, 12, 27, 8, 2)
OCCUR_TXT = "Multi vehicle crash on I-376 eastbound at Mile Post: 74.0. There is a lane restriction."
UPDATE_TXT = "UPDATE: Multi vehicle crash on I-376 eastbound at Mile Post: 74.0. All lanes closed."
CLEAR_TXT = "CLEARED: Multi vehicle crash on I-376 eastbound at Mile Post: 74.0."


class TestIncidentParser:
    def test_occur(self):
        p = parse_incident_tweet(OCCUR_TXT, T0)
        assert p.road_name == "I-376"
        assert p.direction == "eastbound"
        assert p.mileposts == (74.0,)
        assert p.incident_type == "multi vehicle crash"
        assert p.lane_status == "RESTRICTION"
        assert p.flag == "OCCUR"

    def test_update_full_closure(self):
        p = parse_incident_tweet(UPDATE_TXT, T1)
        assert p.flag == "UPDATE"
        assert p.lane_status == "FULL_CLOSURE"

    def test_clear(self):
        p = parse_incident_tweet(CLEAR_TXT, T2)
        assert p.flag == "CLEAR"

    def test_non_incident_no_match(self):
        assert parse_incident_tweet("Good night everyone!", T0) is None

    def test_two_mileposts(self):
        p = parse_incident_tweet(
            "Roadwork on PA-28 southbound between Mile Post: 70.0 and Mile Post: 74.0."
            " There is a lane restriction.", T0)
        assert p.mileposts == (70.0, 74.0)


def flat_geocoder(road_name, direction, milepost):
    return f"{road_name} {direction[0].upper()}", 40.0 + milepost * 0.01, -80.0


class TestIncidentAssembly:
    def test_three_tweet_record(self):
        parsed = [parse_incident_tweet(t, ts) for t, ts in
                  [(OCCUR_TXT, T0), (UPDATE_TXT, T1), (CLEAR_TXT, T2)]]
        recs = assemble_incident_records(parsed, flat_geocoder)
        assert len(recs) == 1
        rec = recs[0]
        assert rec.closure_start_ts == T0
        assert rec.closure_end_ts == T2
        assert rec.closure_type == "FULL"
        assert rec.road_id == "I-376 E"
        assert rec.start_coord == rec.end_coord == (40.74, -80.0)

    def test_partial_when_no_full_seen(self):
        parsed = [parse_incident_tweet(OCCUR_TXT, T0), parse_incident_tweet(CLEAR_TXT, T2)]
        recs = assemble_incident_records(parsed, flat_geocoder)
        assert recs[0].closure_type == "PARTIAL"

    def test_two_mileposts_span(self):
        p = parse_incident_tweet(
            "Roadwork on I-376 eastbound between Mile Post: 70.0 and Mile Post: 74.0."
            " All lanes closed.", T0)
        recs = assemble_incident_records([p], flat_geocoder)
        assert recs[0].start_coord == (40.70, -80.0)
        assert recs[0].end_coord == (40.74, -80.0)

    def test_orphan_update_synthesizes(self):
        from tweet2traffic.errors import OrphanUpdate

        with pytest.warns(OrphanUpdate):
            recs = assemble_incident_records([parse_incident_tweet(UPDATE_TXT, T1)],
                                             flat_geocoder)
        assert len(recs) == 1
        assert recs[0].closure_start_ts == T1

    def test_orphan_clear_is_a_one_tweet_record(self):
        from tweet2traffic.errors import OrphanUpdate

        with pytest.warns(OrphanUpdate):
            recs = assemble_incident_records([parse_incident_tweet(CLEAR_TXT, T2)],
                                             flat_geocoder)
        assert len(recs) == 1
        assert recs[0].closure_start_ts == recs[0].closure_end_ts == T2

    def test_partition_every_tweet_in_one_record(self):
        texts = [(OCCUR_TXT, T0), (UPDATE_TXT, T1), (CLEAR_TXT, T2),
                 (OCCUR_TXT, datetime(2019, 12, 28, 9, 0)),
                 (CLEAR_TXT, datetime(2019, 12, 28, 10, 0))]
        parsed = [parse_incident_tweet(t, ts) for t, ts in texts]
        recs = assemble_incident_records(parsed, flat_geocoder)
        assert len(recs) == 2
        spans = sorted((r.closure_start_ts, r.closure_end_ts) for r in recs)
        for p in parsed:
            assert sum(s <= p.timestamp <= e for s, e in spans) >= 1


SQ = TractPolygon("T01", ((40.0, -80.0), (40.0, -79.0), (41.0, -79.0), (41.0, -80.0), (40.0, -80.0)))
SQ2 = TractPolygon("T02", ((40.0, -79.0), (40.0, -78.0), (41.0, -78.0), (41.0, -79.0), (40.0, -79.0)))


class TestTractGeocoder:
    def test_interior_point(self):
        geo = TractGeocoder([SQ, SQ2])
        assert geo.locate_many([(40.5, -79.5), (40.5, -78.5)]) == ["T01", "T02"]

    def test_outside_bbox(self):
        geo = TractGeocoder([SQ, SQ2])
        assert geo.locate_many([(40.5, -78.5), (45.0, -70.0)]) == ["T02", None]

    def test_shared_edge_lowest_id(self):
        geo = TractGeocoder([SQ2, SQ])
        assert geo.locate_many([(40.5, -79.0), (40.5, -79.5)]) == ["T01", "T01"]


class TestSentiment:
    class Fixed:
        def __init__(self, p):
            self.p = p

        def score(self, tweet_id, text):
            return self.p

    def test_positive(self):
        assert sentiment_label("t", "x", self.Fixed(0.8))[1] == "POS"

    def test_neutral(self):
        assert sentiment_label("t", "x", self.Fixed(0.5))[1] == "NEU"

    def test_negative_boundary(self):
        assert sentiment_label("t", "x", self.Fixed(0.3))[1] == "NEG"

    def test_positive_boundary(self):
        assert sentiment_label("t", "x", self.Fixed(0.7))[1] == "POS"

    def test_lexicon_directional(self):
        lex = LexiconSentimentProvider()
        assert lex.score("a", "what a great happy win") > 0.7
        assert lex.score("b", "awful terrible crash") < 0.3
        assert lex.score("c", "the road is a road") == 0.5


def sq_tracts(tweets_by_user):
    """The tract table of every coordinate of `tweets_by_user`, against SQ."""
    coords = list({t.coord for ts in tweets_by_user.values() for t in ts})
    return dict(zip(coords, TractGeocoder([SQ]).locate_many(coords)))


class TestEncoders:

    def test_single_last_tweet(self):
        tweets = {"u1": [tw("a", "u1", datetime(2014, 3, 4, 22, 15), coord=(40.5, -79.5))]}
        sleep, wake = encode_sleep_wake(tweets, sq_tracts(tweets), CFG)
        assert sleep == {(22, "T01"): 1.0}
        assert wake == {}

    def test_only_last_counts(self):
        tweets = {"u1": [
            tw("a", "u1", datetime(2014, 3, 4, 22, 0), coord=(40.5, -79.5)),
            tw("b", "u1", datetime(2014, 3, 4, 23, 30), coord=(40.5, -79.5)),
        ]}
        sleep, _ = encode_sleep_wake(tweets, sq_tracts(tweets), CFG)
        assert sleep == {(23, "T01"): 1.0}

    def test_wake_window_empty(self):
        tweets = {"u1": [tw("a", "u1", datetime(2014, 3, 4, 22, 0), coord=(40.5, -79.5))]}
        _, wake = encode_sleep_wake(tweets, sq_tracts(tweets), CFG)
        assert wake == {}

    def test_sleep_window_wraps_midnight(self):
        tweets = {"u1": [tw("a", "u1", datetime(2014, 3, 5, 2, 30), coord=(40.5, -79.5))]}
        sleep, _ = encode_sleep_wake(tweets, sq_tracts(tweets), CFG)
        assert sleep == {(2, "T01"): 1.0}

    def test_histogram_normalized(self):
        tweets = {
            "u1": [tw("a", "u1", datetime(2014, 3, 4, 21, 10), coord=(40.5, -79.5))],
            "u2": [tw("b", "u2", datetime(2014, 3, 4, 21, 20), coord=(40.5, -79.5))],
            "u3": [tw("c", "u3", datetime(2014, 3, 4, 23, 50), coord=(40.5, -79.5))],
        }
        sleep, _ = encode_sleep_wake(tweets, sq_tracts(tweets), CFG)
        assert sum(sleep.values()) == pytest.approx(1.0)
        assert sleep[(21, "T01")] == pytest.approx(2 / 3)

    def test_event_periods(self):
        tweets = [tw(f"t{i}", "u1", datetime(2014, 3, 4, 19, 0)) for i in range(3)]
        counts, pct = encode_event_indicators(tweets, {}, CFG)
        assert counts["EV"] == 3
        assert counts["MN"] == 0 and pct["MN"] == 0.0

    def test_all_neutral_ev(self):
        tweets = [tw(f"t{i}", "u1", datetime(2014, 3, 4, 19, 0)) for i in range(4)]
        labels = {t.tweet_id: "NEU" for t in tweets}
        _, pct = encode_event_indicators(tweets, labels, CFG)
        assert pct["EV"] == 1.0

    def test_sum_counts_equals_window_tweets(self):
        # a tweet outside the window is in another day's bucket: see
        # test_day_windows.py::test_a_noon_tweet_counts_for_the_next_day
        tweets = [tw(f"t{i}", "u1", datetime(2014, 3, 4, 6 + i, 0)) for i in range(12)]
        counts, _ = encode_event_indicators(tweets, {}, CFG)
        assert sum(counts.values()) == 12


def test_home_inference_deterministic():
    from tweet2traffic.tweetpipe import infer_home

    rng = np.random.default_rng(17)
    tweets = []
    for i in range(12):
        lat = 40.05 + float(rng.normal(0, 0.001))
        lon = -80.15 + float(rng.normal(0, 0.001))
        hour = int(rng.integers(0, 24))
        tweets.append(tw(f"h{i}", "u9", datetime(2014, 3, 1 + i % 5, hour, 0),
                         text="off to sleep", coord=(lat, lon)))
    landuse = landuse_table([t.coord for t in tweets], [RES_ZONE])
    h1 = infer_home("u9", tweets, landuse, CFG)
    h2 = infer_home("u9", list(tweets), dict(landuse), CFG)
    assert h1 is not None
    assert h1 == h2
