import json

import numpy as np
import pytest

from tweet2traffic.config import ModelConfig
from tweet2traffic.congestion import CongestionMeasurements
from tweet2traffic.learn.forest import RandomForestModel, rf_fit
from tweet2traffic.learn.knn import KnnModel, knn_fit
from tweet2traffic.learn.selection import contiguous_folds, fit_lasso_cv, penalty_grid
from tweet2traffic.learn.serialize import (
    bundle_from_json,
    bundle_hash,
    bundle_to_json,
    descriptor_from_dict,
    descriptor_to_dict,
)
from tweet2traffic.learn.stack import (
    FALLBACK_DEFAULTS,
    descriptor_targets,
    fit_ordered_descriptor,
    fit_segment_heads,
    fit_segment_models,
    predict_day,
)

CFG = ModelConfig()


def make_quads(cs_list, cst=None, cd=None, pti=None):
    out = []
    for i, cs in enumerate(cs_list):
        if cs:
            out.append(CongestionMeasurements(True, cst[i] if cst else 40,
                                              cd[i] if cd else 12,
                                              pti[i] if pti else 2.0))
        else:
            out.append(CongestionMeasurements(False, 0, None, None))
    return out


class TestDescriptor:
    def test_targets_for_label_two(self):
        assert descriptor_targets(np.array([2]), 0).tolist() == [1.0]
        assert descriptor_targets(np.array([2]), 1).tolist() == [1.0]
        assert descriptor_targets(np.array([2]), 2).tolist() == [0.0]

    def test_targets_nonincreasing_in_level(self):
        labels = np.array([0, 1, 2, 3, 2, 1])
        rows = np.array([descriptor_targets(labels, lev) for lev in range(3)])
        assert (np.diff(rows, axis=0) <= 0).all()

    def test_four_clusters_three_classifiers(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(80, 5))
        labels = np.clip((X[:, 0] * 1.5 + 1.5).astype(int), 0, 3)
        desc = fit_ordered_descriptor(X, labels, [f"f{i}" for i in range(5)], CFG)
        assert desc.n_clusters == 4
        assert len(desc.classifiers) == 3

    def test_two_clusters_single_classifier(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3))
        labels = (X[:, 0] > 0).astype(int)
        desc = fit_ordered_descriptor(X, labels, ["a", "b", "c"], CFG)
        assert len(desc.classifiers) == 1
        scales = desc.predict_scales(X)
        assert scales.shape == (40, 1)
        assert ((scales > 0) & (scales < 1)).all()

    def test_degenerate_level_constant(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 3))
        labels = np.ones(30, dtype=int)   # [label > 0] all true, [label > 1]... n_clusters=2
        desc = fit_ordered_descriptor(X, labels, ["a", "b", "c"], CFG)
        scales = desc.predict_scales(X)
        assert np.allclose(scales, scales[0])
        assert scales[0, 0] > 0.99

    def test_monotone_levels_not_enforced(self):
        # independent classifiers can produce scale_1 < scale_2 by construction
        from tweet2traffic.learn.optimizers import LinearModel
        from tweet2traffic.learn.stack import OrderedDescriptor

        up = LinearModel(np.array([4.0]), 0.0, ["x"], 0.0, "LOGISTIC")
        down = LinearModel(np.array([-4.0]), 0.0, ["x"], 0.0, "LOGISTIC")
        desc = OrderedDescriptor(3, [down, up], ["x"])
        scales = desc.predict_scales(np.array([[1.0]]))
        assert scales[0, 0] < scales[0, 1]

    def test_zero_model_outputs_half(self):
        from tweet2traffic.learn.optimizers import LinearModel
        from tweet2traffic.learn.stack import OrderedDescriptor

        zero = LinearModel(np.zeros(2), 0.0, ["a", "b"], 0.0, "LOGISTIC")
        desc = OrderedDescriptor(2, [zero], ["a", "b"])
        assert desc.predict_scales(np.zeros((3, 2))).flatten().tolist() == [0.5] * 3


class TestSelection:
    def test_contiguous_folds_cover(self):
        folds = contiguous_folds(22, 4)
        flat = np.concatenate(folds)
        assert sorted(flat.tolist()) == list(range(22))
        assert all(np.array_equal(f, np.arange(f[0], f[-1] + 1)) for f in folds)

    def test_contiguous_folds_round_their_edges(self):
        # edges at round(i * n / k): halves round to even, so 2.5 -> 2, 7.5 -> 8
        assert [len(f) for f in contiguous_folds(10, 4)] == [2, 3, 3, 2]
        assert [len(f) for f in contiguous_folds(22, 4)] == [6, 5, 5, 6]

    def test_penalty_grid_descending(self):
        grid = penalty_grid(10.0, (0.01, 0.1, 1.0, 10.0))
        assert grid == [100.0, 10.0, 1.0, 0.1]

    def test_lasso_cv_recovers_signal(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(120, 20))
        y = 3.0 * X[:, 4] - 2.0 * X[:, 11] + 0.3 * rng.normal(size=120)
        model = fit_lasso_cv(X, y, CFG.grid_multipliers, feature_names=[f"f{i}" for i in range(20)])
        assert abs(model.weights[4] - 3.0) < 0.3
        assert abs(model.weights[11] + 2.0) < 0.3
        noise_mass = np.abs(np.delete(model.weights, [4, 11])).sum()
        assert noise_mass < 0.5


class TestSegmentModels:
    def make_data(self, n=60, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 8))
        X = np.hstack([X, rng.random((n, 2))])   # c_1, c_2 stand-ins
        names = [f"f{i}" for i in range(8)] + ["c_1", "c_2"]
        p = 1 / (1 + np.exp(-(2.0 * X[:, 0])))
        cs = (rng.random(n) < p).astype(int)
        cst = np.clip(40 + 10 * X[:, 1], 0, 72).round()
        cd = np.clip(12 + 4 * X[:, 2], 3, 60).round()
        pti = np.clip(2.0 + 0.5 * X[:, 3], 1, 8)
        quads = make_quads(cs, cst.astype(int).tolist(), cd.astype(int).tolist(), pti.tolist())
        return X, names, quads

    def test_linear_fit_and_predict(self):
        X, names, quads = self.make_data()
        model = fit_segment_models("S1", X, quads, names, CFG)
        pred = predict_day(model, X[0])
        assert pred.cs in (0, 1)
        assert 0.0 <= pred.raw["cst"] <= 72.0
        if pred.cs == 0:
            assert pred.cst == 0.0 and pred.cd is None and pred.pti is None

    def test_all_congested_boundary(self):
        X, names, _ = self.make_data()
        quads = make_quads([1] * len(X), [40] * len(X), [12] * len(X), [2.0] * len(X))
        model = fit_segment_models("S1", X, quads, names, CFG)
        assert "degenerate_classifier" in model.flags
        pred = predict_day(model, X[0])
        assert pred.cs == 1

    def test_no_congested_days_fallback(self):
        X, names, _ = self.make_data()
        quads = make_quads([0] * len(X))
        model = fit_segment_models("S1", X, quads, names, CFG)
        assert "no_congested_days" in model.flags
        assert model.regressors == {}
        pred = predict_day(model, X[0])
        assert pred.raw["cst"] == FALLBACK_DEFAULTS["cst"]

    def test_constant_feature_zero_coefficient(self):
        X, names, quads = self.make_data()
        X = X.copy()
        X[:, 5] = 7.7
        model = fit_segment_models("S1", X, quads, names, CFG)
        assert model.classifier.weights[5] == 0.0
        for reg in model.regressors.values():
            assert reg.weights[5] == 0.0

    def test_clamping(self):
        X, names, quads = self.make_data()
        model = fit_segment_models("S1", X, quads, names, CFG)
        big = X[0].copy()
        big[:] = 50.0
        pred = predict_day(model, big)
        assert pred.raw["cst"] <= 72.0 and pred.raw["cd"] <= 72.0 and pred.raw["pti"] >= 0.0

    def test_identical_rows_identical_predictions(self):
        X, names, quads = self.make_data()
        model = fit_segment_models("S1", X, quads, names, CFG)
        p1 = predict_day(model, X[3])
        p2 = predict_day(model, X[3].copy())
        assert p1 == p2

    def test_prediction_respects_quadruple_invariant(self):
        X, names, quads = self.make_data()
        model = fit_segment_models("S1", X, quads, names, CFG)
        for row in X[:20]:
            pred = predict_day(model, row)
            if pred.cs == 0:
                assert pred.cst == 0.0


class TestKnn:
    def test_exact_match_k1(self):
        m = knn_fit([[0.2], [0.8]], [5.0, 9.0], k=1, task="reg", columns=[0])
        assert m.predict_values([[0.8]]).tolist() == [9.0]

    def test_uniform_mean(self):
        m = knn_fit([[0.0], [0.5], [1.0]], [2.0, 4.0, 6.0], k=3, task="reg", columns=[0])
        assert m.predict_values([[0.5]])[0] == pytest.approx(4.0)

    def test_tie_vote_goes_congested(self):
        m = knn_fit([[0.0], [1.0]], [0.0, 1.0], k=2, task="clf", columns=[0])
        assert m.predict_values([[0.5]]).tolist() == [1.0]

    def test_k_clipped_to_train_size(self):
        m = knn_fit([[0.0]], [3.0], k=5, task="reg", columns=[0])
        assert m.k == 1

    def test_reads_only_its_columns(self):
        m = knn_fit([[9.0, 0.0], [9.0, 1.0]], [2.0, 4.0], k=1, task="reg", columns=[1])
        assert m.predict_values([[-5.0, 0.9], [100.0, 0.1]]).tolist() == [4.0, 2.0]


class TestForest:
    def test_pure_node_no_split(self):
        X = np.array([[1.0], [2.0], [3.0]])
        m = rf_fit(X, np.array([1, 1, 1]), "clf", [0], n_trees=3, bootstrap=False, seed=0)
        assert m.offsets.tolist() == [0, 1, 2] and (m.feature == -1).all()

    def test_single_tree_zero_training_error(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(10, 3))
        y = (rng.random(10) < 0.5).astype(float)
        m = rf_fit(X, y, "clf", range(3), n_trees=1, bootstrap=False, feature_frac="all",
                   seed=0)
        assert np.array_equal((m.predict_values(X) >= 0.5).astype(int), y.astype(int))
        yr = rng.normal(size=10)
        mr = rf_fit(X, yr, "reg", range(3), n_trees=1, bootstrap=False, feature_frac="all",
                    seed=0)
        assert np.abs(mr.predict_values(X) - yr).max() < 1e-9

    def test_same_seed_identical_forest(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 4))
        y = (X[:, 0] > 0).astype(float)
        m1 = rf_fit(X, y, "clf", range(4), n_trees=10, seed=7)
        m2 = rf_fit(X, y, "clf", range(4), n_trees=10, seed=7)
        assert np.array_equal(m1.predict_values(X), m2.predict_values(X))

    def test_learns_simple_signal(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 5))
        y = (X[:, 2] > 0).astype(float)
        m = rf_fit(X, y, "clf", range(5), n_trees=30, seed=1)
        assert ((m.predict_values(X) >= 0.5) == y).mean() > 0.95

    def test_packed_forest_votes_like_a_per_tree_walk(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 4))
        y = X[:, 1] + 0.3 * rng.normal(size=60)
        m = rf_fit(X, y, "reg", [0, 1, 3], n_trees=7, max_depth=4, seed=2)
        assert len(m.offsets) == 7 and (m.value[m.feature >= 0] == 0.0).all()
        want = np.zeros(len(X))
        for root in m.offsets:       # the reference: one row, one tree at a time
            votes = []
            for row in X[:, m.columns]:
                node = root
                while m.feature[node] >= 0:
                    child = m.left if row[m.feature[node]] <= m.threshold[node] else m.right
                    node = root + child[node]
                votes.append(m.value[node])
            want += np.array(votes)
        assert np.array_equal(m.predict_values(X), want / 7)

    def test_reads_only_its_columns(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 4))
        y = (X[:, 2] > 0).astype(float)
        m = rf_fit(X, y, "clf", [2], n_trees=5, seed=1)
        noisy = X.copy()
        noisy[:, [0, 1, 3]] = rng.normal(size=(40, 3)) * 100
        assert np.array_equal(m.predict_values(noisy), m.predict_values(X))


class TestSerialize:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 4))
        labels = np.clip((X[:, 0] + 1).astype(int), 0, 2)
        desc = fit_ordered_descriptor(X, labels, [f"f{i}" for i in range(4)], CFG)
        quads = make_quads((X[:, 1] > 0).astype(int).tolist(),
                           [40] * 50, [12] * 50, [2.0] * 50)
        seg = fit_segment_models("S1", X, quads, [f"f{i}" for i in range(4)], CFG)
        text = bundle_to_json({"R1": desc}, {"S1": seg}, meta={"seed": 1})
        d2, s2, meta = bundle_from_json(text)
        assert meta["seed"] == 1
        assert np.array_equal(d2["R1"].predict_scales(X), desc.predict_scales(X))
        assert predict_day(s2["S1"], X[0]) == predict_day(seg, X[0])

    def test_reads_bundles_that_store_fallbacks(self):
        # format 3 bundles once carried an unread per-segment fallback map
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 4))
        for cs in ((X[:, 1] > 0).astype(int).tolist(), [0] * 50):
            quads = make_quads(cs, [40] * 50, [12] * 50, [2.0] * 50)
            seg = fit_segment_models("S1", X, quads, [f"f{i}" for i in range(4)], CFG)
            doc = json.loads(bundle_to_json({}, {"S1": seg}))
            doc["segments"]["S1"]["fallbacks"] = {"cd": 9.0, "cst": 30.0, "pti": 1.2}
            _d, s2, _meta = bundle_from_json(json.dumps(doc))
            for row in X:
                assert predict_day(s2["S1"], row) == predict_day(seg, row)

    def test_hash_stable_and_sensitive(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 3))
        labels = (X[:, 0] > 0).astype(int)
        desc = fit_ordered_descriptor(X, labels, ["a", "b", "c"], CFG)
        h1 = bundle_hash({"R1": desc}, {})
        h2 = bundle_hash({"R1": desc}, {})
        assert h1 == h2
        desc2 = fit_ordered_descriptor(X * 1.1, labels, ["a", "b", "c"], CFG)
        assert bundle_hash({"R1": desc2}, {}) != h1

    def test_descriptor_dict_stable(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 3))
        labels = (X[:, 0] > 0).astype(int)
        desc = fit_ordered_descriptor(X, labels, ["a", "b", "c"], CFG)
        doc = descriptor_to_dict(desc)
        rebuilt = descriptor_from_dict(doc)
        assert descriptor_to_dict(rebuilt) == doc


def fit_variant(X, quads, names, variant, seed=0):
    """A segment's linear set, with `variant` heads on top unless it is linear."""
    linear = fit_segment_models("S1", X, quads, names, CFG)
    if variant == "linear":
        return linear
    return fit_segment_heads(linear, X, quads, variant, CFG, seed)


class TestVariantHeads:
    def make_data(self, n=50, seed=12):
        rng = np.random.default_rng(seed)
        X = np.hstack([rng.normal(size=(n, 6)), rng.random((n, 2))])
        names = [f"f{i}" for i in range(6)] + ["c_1", "c_2"]
        cs = (X[:, 7] > 0.5).astype(int)
        quads = make_quads(cs, [40] * n, [12] * n, [2.0] * n)
        return X, names, quads

    def test_knn_variant_predicts(self):
        X, names, quads = self.make_data()
        model = fit_variant(X, quads, names, "knn")
        assert isinstance(model.heads["cs"], KnnModel)
        pred = predict_day(model, X[0])
        assert pred.cs in (0, 1)

    def test_knn_uses_scale_columns_only(self):
        X, names, quads = self.make_data()
        model = fit_variant(X, quads, names, "knn")
        row = X[4].copy()
        row[:6] = 99.0    # non-scale features must not affect the KNN head
        assert predict_day(model, row).cs == predict_day(model, X[4]).cs

    def test_rf_variant_predicts(self):
        X, names, quads = self.make_data()
        model = fit_variant(X, quads, names, "rf", seed=3)
        pred = predict_day(model, X[0])
        assert pred.cs in (0, 1)
        assert 0 <= pred.raw["cst"] <= 72

    def test_rf_restricted_to_selected_columns(self):
        X, names, quads = self.make_data()
        model = fit_variant(X, quads, names, "rf", seed=3)
        if "cs" in model.heads:
            assert isinstance(model.heads["cs"], RandomForestModel)
            sel = {model.feature_names[i] for i in model.heads["cs"].columns}
            nonzero = {n for n, w in zip(model.feature_names, model.classifier.weights)
                       if w != 0.0}
            assert sel == nonzero

    @pytest.mark.parametrize("variant", ["linear", "rf", "knn"])
    def test_bundle_round_trip_predicts_the_same(self, variant):
        X, names, quads = self.make_data()
        rng = np.random.default_rng(14)
        quads = [q if not q.cs else CongestionMeasurements(
            True, int(30 + 8 * X[i, 0]), int(10 + 4 * X[i, 1]), 1.5 + 0.2 * rng.random())
            for i, q in enumerate(quads)]
        model = fit_variant(X, quads, names, variant, seed=3)
        assert variant == "linear" or set(model.heads) > {"cs"}
        _desc, segments, _meta = bundle_from_json(bundle_to_json({}, {"S1": model}))
        reloaded = segments["S1"]
        assert reloaded.heads.keys() == model.heads.keys()
        for row in X:
            assert predict_day(reloaded, row) == predict_day(model, row)

    @pytest.mark.parametrize("variant", ["rf", "knn"])
    def test_bundle_hash_covers_heads(self, variant):
        X, names, quads = self.make_data()
        model = fit_variant(X, quads, names, variant, seed=3)
        h = bundle_hash({}, {"S1": model})
        head = model.heads["cs"]
        if variant == "knn":
            head.targets[0] = 1.0 - head.targets[0]
        else:
            head.value[np.flatnonzero(head.feature < 0)[0]] += 0.5
        assert bundle_hash({}, {"S1": model}) != h

    def test_rf_falls_back_without_selection(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 4))
        names = [f"f{i}" for i in range(4)]
        cs = rng.integers(0, 2, size=40)     # pure noise: L1 zeroes everything
        quads = make_quads(cs.tolist(), [40] * 40, [12] * 40, [2.0] * 40)
        model = fit_variant(X, quads, names, "rf", seed=3)
        pred = predict_day(model, X[0])
        assert pred.cs in (0, 1)


def test_rf_training_error_not_worse_than_linear():
    # unlimited-depth single tree on the linear model's selected columns,
    # distinct rows: training error can only match or beat the linear fit
    rng = np.random.default_rng(21)
    X = rng.normal(size=(40, 6))
    logits = 1.5 * X[:, 0] - 1.0 * X[:, 2] + 0.5 * rng.normal(size=40)
    y = (logits > 0).astype(float)
    from tweet2traffic.learn.optimizers import fit_l1_logistic
    from tweet2traffic.learn.forest import rf_fit

    linear = fit_l1_logistic(X, y, lam=2.0)
    sel = [i for i, w in enumerate(linear.weights) if abs(w) > 1e-12]
    assert sel, "the linear model must select something for this check"
    linear_err = float(((linear.predict_proba(X) >= 0.5) != y).mean())
    tree = rf_fit(X, y, "clf", sel, n_trees=1, bootstrap=False,
                  feature_frac="all", max_depth=None, seed=0)
    tree_err = float(((tree.predict_values(X) >= 0.5) != y).mean())
    assert tree_err <= linear_err + 1e-12
