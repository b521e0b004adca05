"""Daily congestion / tweeting profile construction and cluster analysis.

Road profiles concatenate per-segment TTI curves (segment order, then slot
order) into one row per day; PCA reduces them to the components covering 90%
of variance and K-means (k-means++ init, elbow-selected K) extracts typical
morning patterns, relabeled so the label index grows with centroid severity.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInput,
    DegenerateTable,
    EmptyDay,
    EmptyRoad,
    KTooLarge,
    RangeTooSmall,
)

log = logging.getLogger(__name__)


@dataclass
class RoadProfileMatrix:
    road_id: str
    dates: list
    segment_ids: list[str]
    rows: np.ndarray          # (n_days, n_segments * 72)
    dropped_days: list = field(default_factory=list)


def build_road_profiles(road_id: str, segment_ids, tti_by_segment_day: dict) -> RoadProfileMatrix:
    """Assemble one row per day from per-(segment, day) TTI series.

    `tti_by_segment_day` maps (segment_id, date) -> 72-vector. Days missing
    any segment of the road are dropped road-wide and reported.
    """
    segment_ids = list(segment_ids)
    if not segment_ids:
        raise EmptyRoad(road_id)
    dates = sorted({d for (_s, d) in tti_by_segment_day.keys()})
    kept, dropped, rows = [], [], []
    for d in dates:
        parts = []
        for s in segment_ids:
            v = tti_by_segment_day.get((s, d))
            if v is None:
                parts = None
                break
            parts.append(np.asarray(v, dtype=float))
        if parts is None:
            dropped.append(d)
            continue
        kept.append(d)
        rows.append(np.concatenate(parts))
    if not rows:
        raise EmptyRoad(f"{road_id}: no complete days")
    if dropped:
        log.info("road %s: dropped %d incomplete days", road_id, len(dropped))
    return RoadProfileMatrix(road_id, kept, segment_ids, np.vstack(rows), dropped)


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray            # (p_retained, n_features), orthonormal rows
    explained_variance_ratio: np.ndarray
    n_components: int


def pca_fit(rows, variance_target: float = 0.90) -> PcaModel:
    X = np.asarray(rows, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DegenerateInput("need at least two rows")
    if not np.all(np.isfinite(X)):
        raise DegenerateInput("non-finite entries")
    mean = X.mean(axis=0)
    centered = X - mean
    # SVD of the centered matrix factorizes the sample covariance
    _u, s, vt = np.linalg.svd(centered, full_matrices=False)
    var = s ** 2
    total = var.sum()
    if total <= 0:
        log.warning("pca_fit: zero-variance matrix, falling back to identity transform")
        return PcaModel(mean, np.zeros((0, X.shape[1])), np.zeros(0), 0)
    ratio = var / total
    cum = np.cumsum(ratio)
    p = int(np.searchsorted(cum, variance_target - 1e-12) + 1)
    return PcaModel(mean, vt[:p], ratio[:p], p)


def pca_transform(model: PcaModel, rows) -> np.ndarray:
    X = np.asarray(rows, dtype=float)
    if model.n_components == 0:
        return X - model.mean
    return (X - model.mean) @ model.components.T


def pca_inverse_transform(model: PcaModel, reduced) -> np.ndarray:
    R = np.asarray(reduced, dtype=float)
    if model.n_components == 0:
        return R + model.mean
    return R @ model.components + model.mean


@dataclass
class KMeansModel:
    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    inertia_path: list[float]     # inertia after each Lloyd iteration of the winning restart


def _assign(X, centroids):
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(X.shape[0]), labels].sum())
    if not np.isfinite(inertia):
        raise DegenerateInput(f"squared distances to the centroids sum to {inertia}")
    return labels, inertia


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """numpy's `SeedSequence(seed).generate_state(4, np.uint64)`."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    hash_a = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hash_b, out = 0x8B51F9DD, []
    for i in range(8):
        v = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _M32
        v = v * hash_b & _M32
        out.append(v ^ v >> 16)
    return [out[2 * j] | out[2 * j + 1] << 32 for j in range(4)]


class _Pcg64:
    """The draws k-means makes, bit for bit those of `np.random.default_rng(seed)`.

    PCG64 (XSL-RR 128/64) seeded through numpy's SeedSequence, with numpy's
    Lemire bounded integers and its 32-bit half-word buffer. Python ints
    keep `numpy.random`, and the `secrets`/`hashlib`/OpenSSL it imports, out
    of every command that clusters.
    """

    def __init__(self, seed: int):
        s = _seed_words(int(seed))
        self._inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
        # state 0, step, add the initial state, step
        self._state = ((self._inc + (s[0] << 64 | s[1])) * _PCG_MULT + self._inc) & _M128
        self._half = None         # the high half of a 64-bit draw, kept for the next 32-bit one

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def integers(self, n: int) -> int:
        """One draw from [0, n), by Lemire's rejection on 32 bits while n <= 2**32."""
        if n == 1:
            return 0
        bits, draw = (32, self._next32) if n - 1 <= _M32 else (64, self._next64)
        mask = (1 << bits) - 1
        m = draw() * n
        if m & mask < n:
            threshold = (1 << bits) % n
            while m & mask < threshold:
                m = draw() * n
        return m >> bits

    def choice(self, p: np.ndarray) -> int:
        """An index into `p` drawn with probabilities `p`, which sum to 1."""
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted((self._next64() >> 11) * 2.0 ** -53, side="right"))


def _kmeans_pp_init(X, k, rng):
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if not np.isfinite(total):
            raise DegenerateInput(f"squared distances to the centroids sum to {total}")
        if total <= 0:
            centroids[j] = X[rng.integers(n)]
        else:
            probs = d2 / total
            centroids[j] = X[rng.choice(probs)]
        d2 = np.minimum(d2, ((X - centroids[j]) ** 2).sum(axis=1))
    return centroids


def kmeans_fit(rows, k: int, seed: int, n_init: int = 10, max_iter: int = 300) -> KMeansModel:
    """Best of `n_init` k-means++ restarts, Lloyd iterations to a fixpoint."""
    X = np.asarray(rows, dtype=float)
    if k > X.shape[0]:
        raise KTooLarge(f"k={k} > {X.shape[0]} rows")
    if k < 1:
        raise KTooLarge("k must be >= 1")
    if not np.all(np.isfinite(X)):
        raise DegenerateInput("non-finite entries")
    best = None
    master = _Pcg64(seed)
    for _ in range(n_init):
        rng = _Pcg64(master.integers(2 ** 63 - 1))
        centroids = _kmeans_pp_init(X, k, rng)
        labels, inertia = _assign(X, centroids)
        path = [inertia]
        for _ in range(max_iter):
            new_centroids = centroids.copy()
            for j in range(k):
                members = X[labels == j]
                if members.shape[0]:
                    new_centroids[j] = members.mean(axis=0)
            new_labels, new_inertia = _assign(X, new_centroids)
            centroids = new_centroids
            path.append(new_inertia)
            if np.array_equal(new_labels, labels):
                labels = new_labels
                inertia = new_inertia
                break
            labels, inertia = new_labels, new_inertia
        if best is None or inertia < best.inertia:
            best = KMeansModel(centroids, labels, inertia, path)
    return best


def elbow_select_k(rows, k_range, seed: int, n_init: int = 10,
                   max_iter: int = 300) -> tuple[int, dict[int, KMeansModel]]:
    """K at the maximal discrete curvature of the inertia curve (ties: smaller K).

    Returns the chosen K and the fitted model of every candidate K.
    """
    ks = sorted(k_range)
    X = np.asarray(rows, dtype=float)
    if len(ks) < 3:
        raise RangeTooSmall("elbow needs at least 3 candidate K values")
    if ks[0] < 2 or ks[-1] > X.shape[0]:
        raise RangeTooSmall("k_range must lie within [2, n_rows]")
    models = {k: kmeans_fit(X, k, seed=seed, n_init=n_init, max_iter=max_iter) for k in ks}
    inertias = {k: m.inertia for k, m in models.items()}
    best_k, best_curv = None, -np.inf
    for i in range(1, len(ks) - 1):
        curv = inertias[ks[i - 1]] - 2 * inertias[ks[i]] + inertias[ks[i + 1]]
        if curv > best_curv + 1e-12:
            best_curv, best_k = curv, ks[i]
    return best_k, models


@dataclass
class OrderedClusterLabels:
    labels: np.ndarray                # per-day label, 0 = lightest congestion
    centroids: np.ndarray             # reconstructed TTI profile per k-means (old) label
    permutation: np.ndarray           # new_label = permutation[old_label]


def order_clusters_by_mean_tti(kmeans: KMeansModel, pca: PcaModel) -> OrderedClusterLabels:
    """Relabel clusters so mean inverse-transformed centroid TTI is nondecreasing."""
    recon = pca_inverse_transform(pca, kmeans.centroids)
    means = recon.mean(axis=1)
    order = np.argsort(means, kind="stable")     # ties keep original index order
    perm = np.empty_like(order)
    perm[order] = np.arange(order.size)
    return OrderedClusterLabels(
        labels=perm[kmeans.labels],
        centroids=recon,
        permutation=perm,
    )


def build_tweeting_profiles(tweet_hours_by_day: dict, n_bins: int = 19,
                            start_hour: float = 18.0, bin_minutes: int = 30,
                            smooth_minutes: int = 120) -> dict:
    """Normalized, smoothed tweet-count histograms over the evening/night window.

    `tweet_hours_by_day` maps a profile date to hours-past-midnight floats
    (values past 24 belong to the small hours of the next day). Days with no
    tweets in the window are omitted and logged.
    """
    half_bins = smooth_minutes // (2 * bin_minutes)
    out = {}
    for day in sorted(tweet_hours_by_day):
        hours = np.asarray(tweet_hours_by_day[day], dtype=float)
        counts = np.zeros(n_bins)
        idx = np.floor((hours - start_hour) * 60.0 / bin_minutes).astype(int)
        for i in idx:
            if 0 <= i < n_bins:
                counts[i] += 1
        if counts.sum() == 0:
            log.info("tweeting profile: empty day %s omitted", day)
            continue
        smooth = np.empty(n_bins)
        for i in range(n_bins):
            lo, hi = max(0, i - half_bins), min(n_bins, i + half_bins + 1)
            smooth[i] = counts[lo:hi].mean()   # truncated window at the edges
        out[day] = smooth / smooth.sum()
    if not out:
        raise EmptyDay("no non-empty tweeting profiles")
    return out


def _chi2_tail(k: int, x: float) -> float:
    """P(X > x) for X chi-squared with integer k degrees of freedom, in closed
    form (Abramowitz & Stegun 26.4.4-26.4.5): exp(-x/2) times the sum of
    (x/2)^i / i! for i < k/2 if k is even, erfc(sqrt(x/2)) plus the sum of
    exp(-x/2) (x/2)^(i+1/2) / Gamma(i+3/2) for i < (k-1)/2 if k is odd. Each
    term is taken from its logarithm, so the tail does not underflow where
    exp(-x/2) alone would."""
    if x <= 0.0:
        return 1.0
    h, half = x / 2.0, (k % 2) / 2.0
    head = math.erfc(math.sqrt(h)) if k % 2 else 0.0
    terms = (math.exp((i + half) * math.log(h) - h - math.lgamma(i + half + 1.0))
             for i in range(k // 2))
    return min(1.0, head + math.fsum(terms))   # a rounded sum may pass 1 near x = 0


def chi_squared_cramers_v(table):
    """Pearson chi-squared test plus Cramer's V on a contingency table of
    counts; its all-zero rows and columns are dropped first."""
    table = np.asarray(table, dtype=float)
    table = table[np.ix_(table.sum(axis=1) > 0, table.sum(axis=0) > 0)]
    r, c = table.shape
    if r < 2 or c < 2:
        raise DegenerateTable("need at least 2 categories on each axis")
    n = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    chi2 = float(((table - expected) ** 2 / expected).sum())
    p_value = _chi2_tail((r - 1) * (c - 1), chi2)
    v = float(np.sqrt(chi2 / (n * (min(r, c) - 1))))
    return chi2, p_value, v
