import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tweet2traffic.clustering import (
    KMeansModel,
    _chi2_tail,
    _Pcg64,
    build_road_profiles,
    build_tweeting_profiles,
    chi_squared_cramers_v,
    elbow_select_k,
    kmeans_fit,
    order_clusters_by_mean_tti,
    pca_fit,
    pca_inverse_transform,
    pca_transform,
)
from tweet2traffic.config import PipelineConfig
from tweet2traffic.errors import (
    DegenerateInput,
    DegenerateTable,
    EmptyDay,
    EmptyRoad,
    KTooLarge,
    RangeTooSmall,
)
from tweet2traffic.harness.pipeline import build_split, prepare_data
from tweet2traffic.ingest import SyntheticConfig, generate_synthetic


class TestRoadProfiles:
    def test_single_segment_single_day(self):
        m = build_road_profiles("R1", ["S1"], {("S1", "d1"): np.ones(72)})
        assert m.rows.shape == (1, 72)
        assert np.allclose(m.rows, 1.0)

    def test_two_segments_layout(self):
        tti = {("S1", "d1"): np.full(72, 2.0), ("S2", "d1"): np.full(72, 3.0)}
        m = build_road_profiles("R1", ["S1", "S2"], tti)
        assert m.rows.shape == (1, 144)
        assert np.allclose(m.rows[0, :72], 2.0)
        assert np.allclose(m.rows[0, 72:], 3.0)

    def test_incomplete_day_dropped(self):
        tti = {
            ("S1", "d1"): np.ones(72), ("S2", "d1"): np.ones(72),
            ("S1", "d2"): np.ones(72),
        }
        m = build_road_profiles("R1", ["S1", "S2"], tti)
        assert m.dates == ["d1"]
        assert m.dropped_days == ["d2"]

    def test_empty_road(self):
        with pytest.raises(EmptyRoad):
            build_road_profiles("R1", [], {})


class TestPca:
    def test_rank_one_data(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=50)
        X = np.outer(t, [1.0, 2.0])
        model = pca_fit(X)
        assert model.n_components == 1
        assert model.explained_variance_ratio[0] == pytest.approx(1.0)

    def test_round_trip_full_components(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 6))
        model = pca_fit(X, variance_target=1.0)
        Z = pca_transform(model, X)
        back = pca_inverse_transform(model, Z)
        assert np.abs(back - X).max() < 1e-8

    def test_isotropic_gaussian_split(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10000, 2))
        # sample-covariance oracle: eigenvalues of the empirical covariance
        cov = np.cov(X.T)
        eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
        oracle_ratio = eig / eig.sum()
        model = pca_fit(X, variance_target=1.0)
        assert np.allclose(model.explained_variance_ratio, oracle_ratio, atol=1e-6)
        assert abs(model.explained_variance_ratio[0] - 0.5) < 0.05

    def test_orthonormal_components(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 8)) @ np.diag([5, 3, 2, 1, 1, 0.5, 0.2, 0.1])
        model = pca_fit(X, variance_target=0.90)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(model.n_components)).max() < 1e-8
        assert model.explained_variance_ratio.sum() >= 0.90

    def test_transform_of_mean_is_zero(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 5)) + 7.0
        model = pca_fit(X)
        z = pca_transform(model, X.mean(axis=0)[None, :])
        assert np.abs(z).max() < 1e-10

    def test_zero_variance_fallback(self):
        X = np.ones((5, 3))
        model = pca_fit(X)
        assert model.n_components == 0
        Z = pca_transform(model, X)
        assert np.allclose(Z, 0.0)


def wcss_of_partition(X, groups):
    total = 0.0
    for g in groups:
        pts = X[list(g)]
        total += ((pts - pts.mean(axis=0)) ** 2).sum()
    return total


class TestKMeans:
    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        model = kmeans_fit(X, 1, seed=0)
        assert np.allclose(model.centroids[0], X.mean(axis=0))

    def test_two_pairs_partition(self):
        X = np.array([[0, 0], [0, 0.1], [10, 10], [10, 10.1]])
        model = kmeans_fit(X, 2, seed=0)
        assert model.labels[0] == model.labels[1]
        assert model.labels[2] == model.labels[3]
        assert model.labels[0] != model.labels[2]
        # exhaustive-partition oracle: the returned WCSS is the global optimum
        best = min(
            wcss_of_partition(X, (g, tuple(set(range(4)) - set(g))))
            for r in range(1, 4) for g in itertools.combinations(range(4), r)
        )
        assert model.inertia == pytest.approx(best)

    def test_inertia_monotone_per_iteration(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 4))
        model = kmeans_fit(X, 5, seed=1)
        path = model.inertia_path
        assert all(a >= b - 1e-9 for a, b in zip(path, path[1:]))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 3))
        m1 = kmeans_fit(X, 3, seed=42)
        m2 = kmeans_fit(X, 3, seed=42)
        assert np.array_equal(m1.labels, m2.labels)
        assert np.allclose(m1.centroids, m2.centroids)

    def test_scale_invariant_labels(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 2))
        m1 = kmeans_fit(X, 3, seed=9)
        m2 = kmeans_fit(X * 3.7, 3, seed=9)
        assert np.array_equal(m1.labels, m2.labels)

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            kmeans_fit(np.zeros((3, 2)), 4, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "1e200"])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_rows_without_finite_distances_are_rejected(self, bad):
        # 1e200 is finite, but its squared distances overflow
        X = np.random.default_rng(13).normal(size=(20, 3))
        X[4, 1] = bad
        with pytest.raises(DegenerateInput):
            kmeans_fit(X, 3, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_one_cluster_whose_distances_overflow_is_rejected(self):
        # k = 1 draws no k-means++ index, so only the inertia can overflow
        X = np.random.default_rng(13).normal(size=(20, 3))
        X[4, 1] = 1e200
        with pytest.raises(DegenerateInput):
            kmeans_fit(X, 1, seed=0)


def make_blobs(rng, centers, n_per, sigma):
    rows = [rng.normal(size=(n_per, len(centers[0]))) * sigma + np.asarray(c) for c in centers]
    labels = np.repeat(np.arange(len(centers)), n_per)
    return np.vstack(rows), labels


class TestElbow:
    def test_three_blobs(self):
        rng = np.random.default_rng(10)
        X, _ = make_blobs(rng, [(0, 0), (20, 0), (0, 20)], 30, 0.5)
        k, models = elbow_select_k(X, range(2, 9), seed=0)
        inertias = {kk: m.inertia for kk, m in models.items()}
        assert k == 3
        # inertia-curve oracle: the drop into k=3 dwarfs the drop out of it
        assert inertias[2] - inertias[3] > 10 * (inertias[3] - inertias[4])

    def test_linear_curve_tie_rule(self):
        # near-linear inertia curve: 1-d uniform grid; tie favors smaller interior k
        X = np.arange(64, dtype=float)[:, None]
        k, models = elbow_select_k(X, [2, 3, 4, 5], seed=0)
        inertias = {kk: m.inertia for kk, m in models.items()}
        assert k in (3, 4)  # tie favors the smaller interior candidate
        curvs = {kk: inertias[kk - 1] - 2 * inertias[kk] + inertias[kk + 1] for kk in (3, 4)}
        if abs(curvs[3] - curvs[4]) < 1e-9:
            assert k == 3

    def test_returns_the_fit_of_every_k(self):
        X = np.random.default_rng(4).normal(size=(40, 3))
        k, models = elbow_select_k(X, [2, 3, 4, 5], seed=7, n_init=3)
        assert sorted(models) == [2, 3, 4, 5] and k in models
        for kk, model in models.items():
            refit = kmeans_fit(X, kk, seed=7, n_init=3)
            assert np.array_equal(model.labels, refit.labels)
            assert model.inertia == refit.inertia

    def test_honours_max_iter(self):
        X = np.random.default_rng(4).normal(size=(40, 3))
        _k, capped = elbow_select_k(X, [2, 3, 4, 5], seed=7, n_init=3, max_iter=1)
        _k, full = elbow_select_k(X, [2, 3, 4, 5], seed=7, n_init=3)
        for kk, model in capped.items():
            assert len(model.inertia_path) <= 2       # the init plus one Lloyd step
            assert model.inertia == kmeans_fit(X, kk, seed=7, n_init=3, max_iter=1).inertia
        assert any(len(m.inertia_path) > 2 for m in full.values())

    def test_range_too_small(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(RangeTooSmall):
            elbow_select_k(X, [2, 3], seed=0)


# Each draw is None for `integers(0, 2**63 - 1)`, an int n for `integers(n)`, or
# a list of weights for `choice(len(p), p=p)` with p the normalised weights.
DRAWS = st.lists(st.one_of(
    st.none(),
    st.integers(1, 2 ** 33),
    st.lists(st.integers(0, 1000), min_size=1, max_size=8).filter(any)),
    min_size=1, max_size=40)


def draw_both(ours, theirs, draw):
    if draw is None:
        return ours.integers(2 ** 63 - 1), int(theirs.integers(0, 2 ** 63 - 1))
    if isinstance(draw, int):
        return ours.integers(draw), int(theirs.integers(draw))
    p = np.asarray(draw, dtype=float) / sum(draw)
    cdf = p.cumsum()                    # the draw of a row in `_kmeans_pp_init`
    cdf /= cdf[-1]
    return int((cdf <= ours.random()).sum()), int(theirs.choice(len(p), p=p))


# a 32-bit draw, a 64-bit one, then the 32-bit draw from the kept half-word
@example(seed=0, draws=[5, None, 5])
@example(seed=0, draws=[5, [1, 2], 5])
@example(seed=2 ** 32 - 1, draws=[2 ** 32, 2 ** 32 + 1, 1, 2 ** 31 + 5])
@example(seed=10 ** 30, draws=[None, 7, None])
@given(seed=st.integers(0, 2 ** 128 - 1), draws=DRAWS)
@settings(max_examples=300, deadline=None)
def test_the_kmeans_stream_is_numpys_default_rng(seed, draws):
    ours, theirs = _Pcg64(seed), np.random.default_rng(seed)
    pairs = [draw_both(ours, theirs, d) for d in draws]
    assert [a for a, _ in pairs] == [b for _, b in pairs]


def reference_kmeans_pp_init(X, k, rng):
    """k-means++ seeding as it was written against `np.random.default_rng`."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = X[rng.integers(n)]
        else:
            probs = d2 / total
            centroids[j] = X[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((X - centroids[j]) ** 2).sum(axis=1))
    return centroids


def reference_kmeans_fit(X, k, seed, n_init=10, max_iter=300, empties=None):
    """`kmeans_fit` as it was written against `np.random.default_rng`, one
    restart after another; `empties`, if given, gets the (restart, Lloyd
    step, cluster) of each cluster found empty."""
    best = None
    master = np.random.default_rng(seed)
    for restart, rs in enumerate(master.integers(0, 2 ** 63 - 1, size=n_init)):
        rng = np.random.default_rng(int(rs))
        centroids = reference_kmeans_pp_init(X, k, rng)
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(X.shape[0]), labels].sum())
        path = [inertia]
        for step in range(max_iter):
            new_centroids = centroids.copy()
            for j in range(k):
                members = X[labels == j]
                if members.shape[0]:
                    new_centroids[j] = members.mean(axis=0)
                elif empties is not None:
                    empties.append((restart, step, j))
            d2 = ((X[:, None, :] - new_centroids[None, :, :]) ** 2).sum(axis=2)
            new_labels = np.argmin(d2, axis=1)
            new_inertia = float(d2[np.arange(X.shape[0]), new_labels].sum())
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


def model_bits(model):
    return (model.centroids.shape, [float(v).hex() for v in model.centroids.ravel()],
            model.labels.tolist(), model.inertia.hex(), [v.hex() for v in model.inertia_path])


def split_road_profiles():
    """The PCA-reduced profiles of one road over the training days of one
    outer split of a synthetic world, as `build_split` clusters them."""
    bundle, _ = generate_synthetic(SyntheticConfig(n_days=40, n_roads=1, segments_per_road=3,
                                                   n_users=8, n_tracts=3), seed=12)
    prepared = prepare_data(bundle, PipelineConfig())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        art = build_split(prepared, prepared.days[:32], [], seed=12)
    (road,) = prepared.roads
    seg_ids = [s.segment_id for s in prepared.segs_by_road[road]]
    profile = build_road_profiles(road, seg_ids, art.tti)
    pca = pca_fit(profile.rows, PipelineConfig().clustering.pca_variance_target)
    return pca_transform(pca, profile.rows)


# Seven points on a grid where, at seeds 0 and 7, a cluster of one restart
# loses all its rows in a Lloyd step and keeps its centroid.
EMPTIES = np.array([[4, 6], [2, 0], [0, 2], [5, 5], [1, 1], [6, 7], [7, 0]], dtype=float)

# The inputs of TestKMeans and TestElbow, plus one with repeated rows, whose
# zero distance total takes the `integers(n)` branch of the seeding; a
# cluster emptied by a Lloyd step; k equal to the number of rows, distinct
# and repeated; a single column, whose cluster means numpy sums pairwise; and
# a split's road profiles.
ORACLE_INPUTS = {
    "k1": (np.random.default_rng(5).normal(size=(20, 3)), [1]),
    "two_pairs": (np.array([[0, 0], [0, 0.1], [10, 10], [10, 10.1]]), [2]),
    "gauss100": (np.random.default_rng(6).normal(size=(100, 4)), [5]),
    "gauss50": (np.random.default_rng(7).normal(size=(50, 3)), [3]),
    "scaled": (np.random.default_rng(8).normal(size=(40, 2)) * 3.7, [3]),
    "blobs": (make_blobs(np.random.default_rng(10), [(0, 0), (20, 0), (0, 20)], 30, 0.5)[0],
              list(range(2, 9))),
    "grid": (np.arange(64, dtype=float)[:, None], [2, 3, 4, 5]),
    "repeated": (np.repeat(np.random.default_rng(9).normal(size=(2, 3)), 4, axis=0), [3, 4, 5]),
    "empties": (EMPTIES, [3]),
    "k_is_n": (np.random.default_rng(11).normal(size=(6, 2)), [6]),
    "k_is_n_repeated": (np.repeat(np.random.default_rng(12).normal(size=(3, 2)), 2, axis=0), [6]),
    "one_column": (np.random.default_rng(13).normal(size=(60, 1)), [2, 3, 4]),
    "split_profiles": (split_road_profiles(), [2, 3, 4, 5, 6]),
}


def test_a_cluster_empties_in_a_lloyd_step_of_the_empties_input():
    for seed in (0, 7):
        empties = []
        reference_kmeans_fit(EMPTIES, 3, seed, empties=empties)
        assert [step for _restart, step, _j in empties if step > 0], (seed, empties)


@pytest.mark.parametrize("seed", [0, 7, 42, 2 ** 32 + 3])
@pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
def test_kmeans_fit_matches_its_numpy_seeded_reference(name, seed):
    X, ks = ORACLE_INPUTS[name]
    for k in ks:
        for n_init, max_iter in ((10, 300), (3, 1)):
            assert (model_bits(kmeans_fit(X, k, seed=seed, n_init=n_init, max_iter=max_iter))
                    == model_bits(reference_kmeans_fit(X, k, seed, n_init, max_iter)))
    if len(ks) >= 3:
        _k, models = elbow_select_k(X, ks, seed=seed, n_init=3)
        for k, model in models.items():
            assert model_bits(model) == model_bits(reference_kmeans_fit(X, k, seed, n_init=3))


class TestOrdering:
    def test_two_centroids(self):
        pca = pca_fit(np.vstack([np.full(4, 1.0), np.full(4, 2.0), np.full(4, 3.0)]),
                      variance_target=1.0)
        km = KMeansModel(
            centroids=pca_transform(pca, np.vstack([np.full(4, 2.5), np.full(4, 1.2)])),
            labels=np.array([0, 0, 1]),
            inertia=0.0, inertia_path=[0.0])
        ordered = order_clusters_by_mean_tti(km, pca)
        # centroid with mean 2.5 must get the larger label
        assert ordered.permutation[0] == 1
        assert ordered.permutation[1] == 0
        assert np.array_equal(ordered.labels, [1, 1, 0])
        by_label = ordered.centroids[np.argsort(ordered.permutation)]
        assert np.all(np.diff(by_label.mean(axis=1)) >= 0)
        assert np.allclose(ordered.centroids, pca_inverse_transform(pca, km.centroids))

    def test_partition_unchanged(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 6)) + 2.0
        pca = pca_fit(X, variance_target=1.0)
        km = kmeans_fit(pca_transform(pca, X), 3, seed=5)
        ordered = order_clusters_by_mean_tti(km, pca)
        # relabeling is a permutation: co-membership is preserved
        for i in range(30):
            for j in range(30):
                assert (km.labels[i] == km.labels[j]) == (ordered.labels[i] == ordered.labels[j])


class TestTweetingProfiles:
    def test_single_bin_mass_spreads(self):
        prof = build_tweeting_profiles({"d1": [20.2] * 10})
        p = prof["d1"]
        assert p.sum() == pytest.approx(1.0)
        assert (p > 0).sum() == 5  # 2-hour neighborhood of the loaded bin

    def test_uniform_profile(self):
        hours = []
        for b in range(19):
            hours += [18.0 + b * 0.5 + 0.1] * 3
        prof = build_tweeting_profiles({"d1": hours})
        assert np.abs(prof["d1"] - 1.0 / 19).max() < 1e-9

    def test_empty_day(self):
        with pytest.raises(EmptyDay):
            build_tweeting_profiles({"d1": []})

    def test_days_independent(self):
        prof = build_tweeting_profiles({"d1": [19.0, 20.0], "d2": [23.0]})
        prof_swapped = build_tweeting_profiles({"d2": [23.0], "d1": [19.0, 20.0]})
        assert np.allclose(prof["d1"], prof_swapped["d1"])
        assert np.allclose(prof["d2"], prof_swapped["d2"])


def count_table(labels_a, labels_b):
    """The contingency table of two non-negative integer labelings."""
    a, b = np.asarray(labels_a), np.asarray(labels_b)
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1)
    return table


@st.composite
def label_pairs(draw):
    """Two labelings whose contingency table is r x c, for r and c from 2 to 6."""
    r, c = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    cover = [(i % r, i % c) for i in range(max(r, c))]
    extra = draw(st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, c - 1)),
                          max_size=120))
    pairs = cover + extra
    return r, c, [x for x, _ in pairs], [y for _, y in pairs]


class TestChiSquared:
    def test_perfect_association(self):
        a = [0] * 10 + [1] * 10
        chi2, p, v = chi_squared_cramers_v(count_table(a, a))
        assert chi2 == pytest.approx(20.0)
        assert v == pytest.approx(1.0)
        assert p < 1e-4

    def test_exact_independence(self):
        a = [0, 0, 1, 1] * 5
        b = [0, 1, 0, 1] * 5
        chi2, p, v = chi_squared_cramers_v(count_table(a, b))
        assert chi2 == pytest.approx(0.0)
        assert v == pytest.approx(0.0)
        assert p == pytest.approx(1.0)

    def test_standard_v_formula(self):
        # chi2=106.291, n=300, 4x4 table -> sqrt(106.291 / (300*3)) = 0.344
        v = np.sqrt(106.291 / (300 * 3))
        assert round(float(v), 3) == 0.344

    def test_v_self_is_one(self):
        rng = np.random.default_rng(12)
        labels = rng.integers(0, 4, size=200)
        _, _, v = chi_squared_cramers_v(count_table(labels, labels))
        assert v == pytest.approx(1.0)

    @given(st.lists(st.integers(0, 3), min_size=20, max_size=60),
           st.lists(st.integers(0, 3), min_size=20, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_v_in_unit_interval(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        if len(set(a)) < 2 or len(set(b)) < 2:
            return
        _, p, v = chi_squared_cramers_v(count_table(a, b))
        assert -1e-9 <= v <= 1 + 1e-9
        assert 0 <= p <= 1

    def test_degenerate_table(self):
        with pytest.raises(DegenerateTable):
            chi_squared_cramers_v(count_table([0] * 10, [0, 1] * 5))

    def test_all_zero_rows_and_columns_are_dropped(self):
        table = np.array([[5.0, 0.0, 2.0], [0.0, 0.0, 0.0], [1.0, 0.0, 6.0]])
        assert (chi_squared_cramers_v(table)
                == chi_squared_cramers_v([[5.0, 2.0], [1.0, 6.0]]))
        with pytest.raises(DegenerateTable):
            chi_squared_cramers_v([[0.0, 0.0], [3.0, 4.0]])

    @given(label_pairs())
    @settings(max_examples=200, deadline=None)
    def test_p_value_is_the_chi_squared_survival_function(self, pairs):
        from scipy.stats import chi2 as chi2_dist

        r, c, a, b = pairs
        chi2, p, _v = chi_squared_cramers_v(count_table(a, b))
        assert p == pytest.approx(chi2_dist.sf(chi2, (r - 1) * (c - 1)), rel=1e-12, abs=0)

    def test_the_closed_form_tail_is_chdtrc(self):
        """k = 1..49 over [0, 3k + 30] and log-spaced up to 2,000, wherever
        the tail is above 1e-300."""
        from scipy.special import chdtrc

        for k in range(1, 50):
            xs = np.concatenate([np.linspace(0.0, 3 * k + 30, 200),
                                 np.logspace(-6, np.log10(2000.0), 200)])
            ref = chdtrc(k, xs)
            keep = ref > 1e-300
            got = np.array([_chi2_tail(k, float(x)) for x in xs[keep]])
            np.testing.assert_allclose(got, ref[keep], rtol=1e-12, atol=0, err_msg=f"k={k}")
