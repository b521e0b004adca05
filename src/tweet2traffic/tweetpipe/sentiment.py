"""Pluggable sentiment scoring with the fixed three-way threshold rule."""
from __future__ import annotations

from ..errors import ParseError
from ..ingest.loaders import read_rows

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
_VALENCE = {**dict.fromkeys(_NEGATIVE, -1.0), **dict.fromkeys(_POSITIVE, 1.0)}


class LexiconSentimentProvider:
    """Mean token valence mapped into [0, 1]; tokens off-lexicon are neutral."""

    def score(self, tweet_id: str, text: str) -> float:
        words = (t.strip(".,!?") for t in text.lower().split())
        vals = [_VALENCE[w] for w in words if w in _VALENCE]
        if not vals:
            return 0.5
        return 0.5 + 0.5 * sum(vals) / len(vals)


class PrecomputedSentimentProvider:
    """Scores read from sentiment_scores.csv (tweet_id,p)."""

    def __init__(self, path):
        self.scores: dict[str, float] = {}
        for i, (tweet_id, p) in read_rows(path, "sentiment_scores"):
            try:
                self.scores[tweet_id] = float(p)
            except ValueError:
                raise ParseError(i, f"bad sentiment score {p!r}") from None

    def score(self, tweet_id: str, text: str) -> float:
        return self.scores.get(tweet_id, 0.5)


def sentiment_label(tweet_id: str, text: str, provider,
                    pos: float = 0.7, neg: float = 0.3) -> tuple[float, str]:
    """(p, label): POS iff p >= 0.7, NEG iff p <= 0.3, NEU between."""
    p = float(provider.score(tweet_id, text))
    if p >= pos:
        return p, "POS"
    if p <= neg:
        return p, "NEG"
    return p, "NEU"
