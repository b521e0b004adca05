"""Sleep-wake pulse histograms and daily event-indicator features.

Day d is described by the night leading into it: the feature window runs
from 05:00 of day d-1 through 05:00 of day d. Sleep pulses count each
resident's last tweet between 21:00 and 03:00 by (tract, hour); wake pulses
count first tweets between 03:00 and 05:00. Event indicators count geocoded
tweets per day period together with the neutral-sentiment share.
"""
from __future__ import annotations

from datetime import date as date_t
from datetime import datetime, time, timedelta

from ..clock import CUTOFF_HOUR
from ..config import TweetConfig


def _window_bounds(day: date_t, start_hour: int, end_hour: int) -> tuple[datetime, datetime]:
    # windows that wrap midnight start on day-1 (evening) and end on day d
    if start_hour >= end_hour:
        start = datetime.combine(day - timedelta(days=1), time(start_hour, 0))
        end = datetime.combine(day, time(end_hour, 0))
    else:
        start = datetime.combine(day, time(start_hour, 0))
        end = datetime.combine(day, time(end_hour, 0))
    return start, end


def encode_sleep_wake(day: date_t, tweets_by_user: dict[str, list], tract_of,
                      cfg: TweetConfig) -> tuple[dict, dict]:
    """Normalized (hour, tract) histograms of last-evening and first-morning tweets.

    `tweets_by_user` holds each influential resident's augmented timeline
    tweets (any day; filtering happens here), `tract_of` maps a coordinate to
    a tract id or None. Histograms normalize by their own totals and are
    all-zero (empty) when no tweet qualifies.
    """
    sleep_start, sleep_end = _window_bounds(day, *cfg.sleep_window)
    wake_start, wake_end = _window_bounds(day, *cfg.wake_window)
    sleep_counts: dict[tuple[int, str], float] = {}
    wake_counts: dict[tuple[int, str], float] = {}
    for user_id in sorted(tweets_by_user):
        tweets = [t for t in tweets_by_user[user_id] if t.coord is not None]
        night = [t for t in tweets if sleep_start <= t.timestamp < sleep_end]
        if night:
            last = max(night, key=lambda t: (t.timestamp, t.tweet_id))
            tract = tract_of(last.coord[0], last.coord[1])
            if tract is not None:
                key = (last.timestamp.hour, tract)
                sleep_counts[key] = sleep_counts.get(key, 0.0) + 1.0
        morning = [t for t in tweets if wake_start <= t.timestamp < wake_end]
        if morning:
            first = min(morning, key=lambda t: (t.timestamp, t.tweet_id))
            tract = tract_of(first.coord[0], first.coord[1])
            if tract is not None:
                key = (first.timestamp.hour, tract)
                wake_counts[key] = wake_counts.get(key, 0.0) + 1.0
    for counts in (sleep_counts, wake_counts):
        total = sum(counts.values())
        if total > 0:
            for key in counts:
                counts[key] /= total
    return sleep_counts, wake_counts


def encode_event_indicators(day: date_t, geocoded_tweets, labels: dict[str, str],
                            cfg: TweetConfig) -> tuple[dict[str, int], dict[str, float]]:
    """Per-period tweet counts and neutral share over the day's feature window.

    Periods on or after 05:00 (AM, DA, EV, LN) are read from day d-1; periods
    before 05:00 (MN, EM) from day d, so every input precedes the 05:00 cutoff.
    """
    start, end = _window_bounds(day, CUTOFF_HOUR, CUTOFF_HOUR)
    counts = {name: 0 for name, _s, _e in cfg.periods}
    neutral = {name: 0 for name, _s, _e in cfg.periods}
    for t in geocoded_tweets:
        if not (start <= t.timestamp < end):
            continue
        h = t.timestamp.hour
        for name, p_start, p_end in cfg.periods:
            if p_start <= h < p_end:
                counts[name] += 1
                if labels.get(t.tweet_id) == "NEU":
                    neutral[name] += 1
                break
    pct = {name: (neutral[name] / counts[name] if counts[name] else 0.0)
           for name in counts}
    return counts, pct
