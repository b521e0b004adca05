"""Sleep-wake pulse histograms and daily event-indicator features.

Day d is described by the night leading into it. Each encoder reads the one
bucket of tweets that `harness.pipeline.day_blocks` keeps for day d and
filters no times of its own. Sleep pulses count each resident's last tweet
in a `sleep_hours` hour (21:00 to 03:00) by (tract, hour); wake pulses count
first tweets in a `wake_hours` hour (03:00 to 05:00). Event indicators count
geocoded tweets per day period together with the neutral-sentiment share.
"""
from __future__ import annotations

from ..config import TweetConfig


def encode_sleep_wake(tweets_by_user: dict[str, list], tracts: dict,
                      cfg: TweetConfig) -> tuple[dict, dict]:
    """Normalized (hour, tract) histograms of last-evening and first-morning tweets.

    `tweets_by_user` holds each influential resident's augmented timeline
    tweets of one day's sleep/wake bucket, `tracts` maps each of their
    coordinates to a tract id or None. The bucket spans 12:00 on the eve to
    12:00 on the day, so a tweet's clock hour alone places it in the sleep or
    the wake window (`TweetConfig` checks the windows fit that span).
    Histograms normalize by their own totals and are all-zero (empty) when no
    tweet qualifies.
    """
    sleep_hours, wake_hours = cfg.sleep_hours, cfg.wake_hours
    sleep_counts: dict[tuple[int, str], float] = {}
    wake_counts: dict[tuple[int, str], float] = {}
    for user_id in sorted(tweets_by_user):
        tweets = [t for t in tweets_by_user[user_id] if t.coord is not None]
        night = [t for t in tweets if t.timestamp.hour in sleep_hours]
        if night:
            last = max(night, key=lambda t: (t.timestamp, t.tweet_id))
            tract = tracts[last.coord]
            if tract is not None:
                key = (last.timestamp.hour, tract)
                sleep_counts[key] = sleep_counts.get(key, 0.0) + 1.0
        morning = [t for t in tweets if t.timestamp.hour in wake_hours]
        if morning:
            first = min(morning, key=lambda t: (t.timestamp, t.tweet_id))
            tract = tracts[first.coord]
            if tract is not None:
                key = (first.timestamp.hour, tract)
                wake_counts[key] = wake_counts.get(key, 0.0) + 1.0
    for counts in (sleep_counts, wake_counts):
        total = sum(counts.values())
        if total > 0:
            for key in counts:
                counts[key] /= total
    return sleep_counts, wake_counts


def encode_event_indicators(geocoded_tweets, labels: dict[str, str],
                            cfg: TweetConfig) -> tuple[dict[str, int], dict[str, float]]:
    """Per-period tweet counts and neutral share of one day's window bucket.

    The bucket spans 05:00 on the eve to 05:00 on the day, so periods on or
    after 05:00 (AM, DA, EV, LN) are read from day d-1 and periods before
    05:00 (MN, EM) from day d: every input precedes the 05:00 cutoff.
    """
    counts = {name: 0 for name, _s, _e in cfg.periods}
    neutral = {name: 0 for name, _s, _e in cfg.periods}
    for t in geocoded_tweets:
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
