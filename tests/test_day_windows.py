"""`day_blocks` is the one place a tweet is assigned to a day: its buckets are
the feature windows, and the encoders read them with no window of their own.
These tests hold the bucketed features equal to a reference that applies
each day's datetime windows to every tweet."""
from datetime import date, datetime, time, timedelta
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tweet2traffic.clock import CUTOFF_HOUR, SLEEP_ANCHOR_HOUR
from tweet2traffic.config import PipelineConfig, TweetConfig
from tweet2traffic.features.assemble import pulse_keys
from tweet2traffic.harness import pipeline
from tweet2traffic.ingest.types import TractPolygon, Tweet
from tweet2traffic.tweetpipe.geocode import TractGeocoder
from tweet2traffic.tweetpipe.users import geotag_timeline

DAY = date(2014, 3, 5)
DAYS = [DAY, DAY + timedelta(days=1), DAY + timedelta(days=2)]
TRACTS = [
    TractPolygon("T01", ((40.0, -80.0), (40.0, -79.0), (41.0, -79.0), (41.0, -80.0),
                         (40.0, -80.0))),
    TractPolygon("T02", ((40.0, -79.0), (40.0, -78.0), (41.0, -78.0), (41.0, -79.0),
                         (40.0, -79.0))),
]
# in T01 and the box, on the T01/T02 edge, in T02 outside the box, in no
# tract, and none (a timeline tweet, geotagged at home in the night window)
COORDS = [(40.5, -79.9), (40.5, -79.0), (40.5, -78.5), (45.0, -70.0), None]
HOMES = {"u0": (40.2, -79.7), "u1": (40.7, -78.2)}
USERS = ["u0", "u1", "u2"]
VALID_WINDOWS = [(s, e) for s in range(24) for e in range(SLEEP_ANCHOR_HOUR + 1)
                 if s < e or s >= SLEEP_ANCHOR_HOUR]


def blocks_of(tweets, tweet_cfg=TweetConfig()):
    bundle = SimpleNamespace(segments=[], tracts=TRACTS, tweets=tweets, incidents=[],
                             weather=[], calendar=[])
    return pipeline.day_blocks(bundle, PipelineConfig(tweets=tweet_cfg), DAYS,
                               clean_texts={t.text: t.text for t in tweets})


def window(day, start_hour, end_hour):
    """[start, end) of a day's window; one that wraps midnight starts on the eve."""
    eve = day - timedelta(days=1) if start_hour >= end_hour else day
    return datetime.combine(eve, time(start_hour)), datetime.combine(day, time(end_hour))


def reference_event_counts(tweets, cfg):
    lat0, lon0, lat1, lon1 = cfg.bbox
    out = np.zeros((len(DAYS), len(cfg.periods)))
    for i, d in enumerate(DAYS):
        start, end = window(d, CUTOFF_HOUR, CUTOFF_HOUR)
        for t in tweets:
            if t.coord is None or not (lat0 <= t.coord[0] <= lat1 and lon0 <= t.coord[1] <= lon1):
                continue
            if start <= t.timestamp < end:
                out[i, [p_s <= t.timestamp.hour < p_e
                        for _n, p_s, p_e in cfg.periods].index(True)] += 1
    return out


def reference_pulses(tweets, cfg):
    """Each resident's last sleep-window and first wake-window tweet of every
    day, per-point tract joins, each histogram normalized by its total."""
    geocoder = TractGeocoder(TRACTS)
    sleep_cols = pulse_keys(["T01", "T02"], cfg.sleep_hours)
    wake_cols = pulse_keys(["T01", "T02"], cfg.wake_hours)
    out = np.zeros((len(DAYS), len(sleep_cols) + len(wake_cols)))
    for i, d in enumerate(DAYS):
        for cols, offset, (s, e), pick in ((sleep_cols, 0, cfg.sleep_window, max),
                                           (wake_cols, len(sleep_cols), cfg.wake_window, min)):
            start, end = window(d, s, e)
            counts = {}
            for u in sorted(HOMES):
                own = [t for t in geotag_timeline([t for t in tweets if t.user_id == u],
                                                  HOMES, cfg)
                       if t.coord is not None and start <= t.timestamp < end]
                if own:
                    chosen = pick(own, key=lambda t: (t.timestamp, t.tweet_id))
                    tract = geocoder.locate_many([chosen.coord])[0]
                    if tract is not None:
                        key = (chosen.timestamp.hour, tract)
                        counts[key] = counts.get(key, 0.0) + 1.0
            total = sum(counts.values())
            for key, n in counts.items():
                out[i, offset + cols.index(key)] = n / total
    return out


tweet_times = st.tuples(st.integers(-1, 2), st.integers(0, 23), st.sampled_from([0, 30, 59]))


@settings(max_examples=60, deadline=None)
@given(stamps=st.lists(st.tuples(tweet_times, st.sampled_from(USERS),
                                 st.sampled_from(COORDS)), min_size=1, max_size=40),
       sleep_window=st.sampled_from(VALID_WINDOWS), wake_window=st.sampled_from(VALID_WINDOWS))
def test_buckets_equal_datetime_windows(stamps, sleep_window, wake_window):
    cfg = TweetConfig(sleep_window=sleep_window, wake_window=wake_window)
    tweets = [Tweet(f"t{i:02d}", user,
                    datetime.combine(DAY + timedelta(days=dd), time(h, m)),
                    "", coord, None, "GEOCODED" if coord is not None else "TIMELINE")
              for i, ((dd, h, m), user, coord) in enumerate(stamps)]
    blocks = blocks_of(tweets, cfg)
    n_periods = len(cfg.periods)
    assert np.array_equal(blocks.event_features[:, :n_periods],
                          reference_event_counts(tweets, cfg))
    assert np.array_equal(pipeline._pulse_features(blocks, DAYS, HOMES),
                          reference_pulses(tweets, cfg))


def test_a_noon_tweet_counts_for_the_next_day():
    eve = DAY - timedelta(days=1)
    tweets = [Tweet(f"t{i}", "u0", datetime.combine(eve, time(6 + i)), "", (40.4, -80.0),
                    None, "GEOCODED") for i in range(12)]
    tweets.append(Tweet("late", "u0", datetime.combine(DAY, time(12)), "", (40.4, -80.0),
                        None, "GEOCODED"))
    counts = blocks_of(tweets).event_features[:, :len(TweetConfig().periods)]
    assert counts.sum(axis=1).tolist() == [12.0, 1.0, 0.0]
