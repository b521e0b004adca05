"""Pluggable sentiment scoring with the fixed three-way threshold rule."""
from __future__ import annotations

import csv
import logging
from pathlib import Path

from ..errors import ParseError, SchemaMismatch

log = logging.getLogger(__name__)

# compact valence lexicon; scores average to a [0, 1] positivity estimate
_POSITIVE = {
    "good", "great", "love", "happy", "awesome", "best", "win", "fun",
    "nice", "amazing", "excited", "beautiful", "thanks", "glad", "enjoy",
    "wonderful", "cool", "sweet", "perfect", "yay",
}
_NEGATIVE = {
    "bad", "sad", "hate", "angry", "worst", "lose", "awful", "terrible",
    "annoying", "sick", "tired", "ugh", "sucks", "horrible", "mad",
    "crash", "stuck", "delay", "broken", "pain",
}


class LexiconSentimentProvider:
    """Mean token valence mapped into [0, 1]; tokens off-lexicon are neutral."""

    def score(self, tweet_id: str, text: str) -> float:
        tokens = text.lower().split()
        vals = [1.0 if t.strip(".,!?") in _POSITIVE else -1.0
                for t in tokens if t.strip(".,!?") in _POSITIVE | _NEGATIVE]
        if not vals:
            return 0.5
        return 0.5 + 0.5 * sum(vals) / len(vals)


class PrecomputedSentimentProvider:
    """Scores read from sentiment_scores.csv (tweet_id,p)."""

    def __init__(self, path):
        self.scores: dict[str, float] = {}
        with Path(path).open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            want = ["tweet_id", "p"]
            if header != want:
                missing = [c for c in want if c not in (header or [])]
                raise SchemaMismatch(missing[0] if missing else header[0],
                                     f"expected sentiment score header {want}, got {header}")
            for i, row in enumerate(reader, start=1):
                if len(row) != 2:
                    raise ParseError(i, f"expected 2 fields, got {len(row)}")
                try:
                    self.scores[row[0]] = float(row[1])
                except ValueError:
                    raise ParseError(i, f"bad sentiment score {row[1]!r}") from None

    def score(self, tweet_id: str, text: str) -> float:
        return self.scores.get(tweet_id, 0.5)


def sentiment_label(tweet_id: str, text: str, provider=None,
                    pos: float = 0.7, neg: float = 0.3) -> tuple[float, str]:
    """(p, label): POS iff p >= 0.7, NEG iff p <= 0.3, NEU between."""
    if provider is None:
        provider = LexiconSentimentProvider()
    try:
        p = float(provider.score(tweet_id, text))
    except Exception as exc:
        log.warning("sentiment provider failed for %s: %s", tweet_id, exc)
        p = 0.5
    if p >= pos:
        return p, "POS"
    if p <= neg:
        return p, "NEG"
    return p, "NEU"
