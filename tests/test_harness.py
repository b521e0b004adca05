import dataclasses
import inspect
import warnings
from datetime import date, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweet2traffic.config import CongestionParams, HarnessConfig, PipelineConfig, TweetConfig
from tweet2traffic.congestion import CongestionMeasurements, N_SLOTS
from tweet2traffic.errors import TooFewDays, UnknownVariant
from tweet2traffic.harness.baselines import (
    SarModel,
    fit_sar,
    hm_predict,
    index_history,
    sar_quadruple,
    sar_rollout,
)
from tweet2traffic.harness.metrics import compute_metrics, weighted_aggregate
from tweet2traffic.harness.pipeline import build_split, fit_stack, prepare_data
from tweet2traffic.harness.report import emit_report
from tweet2traffic.harness.tscv import EvaluationReport, outer_folds, run_nested_tscv
from tweet2traffic.harness.ablation import run_ablation
from tweet2traffic.ingest import SyntheticConfig, generate_synthetic
from tweet2traffic.learn.serialize import bundle_hash


def quad(cs, cst=40, cd=12, pti=2.0):
    if cs:
        return CongestionMeasurements(True, cst, cd, pti)
    return CongestionMeasurements(False, 0, None, None)


def day_seq(n, start=date(2014, 3, 3)):
    return [start + timedelta(days=i) for i in range(n)]


class TestHm:
    def test_constant_history(self):
        days = day_seq(22)
        hist = [(d, quad(1, cst=40)) for d in days[:21]]
        target = days[21]
        same_dow = [d for d, _q in hist if d.weekday() == target.weekday()]
        pred = hm_predict(index_history(hist), target, window=3)
        assert pred.cs == 1 and pred.cst == 40.0
        assert len(same_dow) >= 3

    def test_majority_vote(self):
        days = day_seq(29)
        target = days[28]
        hist = [(d, quad(1 if i < 2 else 0)) for i, d in enumerate(
            [dd for dd in days[:28] if dd.weekday() == target.weekday()])]
        pred = hm_predict(index_history(hist), target, window=None)
        # history cs = {1,1,0,0}: tie -> congested
        assert pred.cs == 1

    def test_cold_start(self):
        pred = hm_predict(index_history([]), date(2014, 3, 3), window=4)
        assert pred.cs == 0 and pred.flagged == "no_history"

    def test_unbounded_window_equals_all_history_mean(self):
        days = day_seq(70)
        target = days[69]
        same = [d for d in days[:69] if d.weekday() == target.weekday()]
        hist = [(d, quad(1, cst=10 + i)) for i, d in enumerate(same)]
        pred = hm_predict(index_history(hist), target, window=None)
        assert pred.cst == pytest.approx(np.mean([10 + i for i in range(len(same))]))

    def test_global_fallback_when_no_same_weekday(self):
        hist = [(date(2014, 3, 3), quad(1))]     # Monday only
        pred = hm_predict(index_history(hist), date(2014, 3, 5), window=4)
        assert pred.flagged == "global_fallback"
        assert pred.cs == 1


def one_day_rollout(model, speeds, day_idx, morning_offset):
    """Reference SAR rollout of one day: scalar arithmetic, slot by slot."""
    work = [float(v) for v in speeds[day_idx]]
    p = model.p_lags
    w = [float(v) for v in model.weights]
    seasonal_term = np.zeros(N_SLOTS)
    for h in range(1, model.h_seasonal + 1):
        seasonal_term += (w[1 + p + h - 1]
                          * speeds[day_idx - 7 * h, morning_offset:morning_offset + N_SLOTS])
    out = np.empty(N_SLOTS)
    for t in range(N_SLOTS):
        col = morning_offset + t
        v = w[0] + float(seasonal_term[t])
        for i in range(p):
            v += w[1 + i] * work[max(col - 1 - i, 0)]
        if v < 1.0:
            v = 1.0
        out[t] = v
        work[col] = v
    return out


def drop_days(cube, cut):
    """The speed cube without the days in `cut`."""
    kept = [i for i, d in enumerate(cube.days) if d not in cut]
    return dataclasses.replace(cube, days=tuple(cube.days[i] for i in kept),
                               speed=cube.speed[:, kept])


def make_speed_array(n_days, emit_slots, value=60.0):
    return np.full((n_days, emit_slots), value)


class TestSar:
    OFF = 24    # morning offset when emission starts at 03:00

    def test_constant_series_fixpoint(self):
        speeds = make_speed_array(40, self.OFF + N_SLOTS)
        model = fit_sar("S", speeds, list(range(30, 40)), p_lags=4, h_seasonal=2,
                        morning_offset=self.OFF)
        out = sar_rollout(model, speeds, [39], self.OFF)
        assert out.shape == (1, N_SLOTS)
        assert np.allclose(out, 60.0, atol=1e-6)

    def test_identity_recursion(self):
        speeds = make_speed_array(10, self.OFF + N_SLOTS)
        speeds[9, self.OFF - 1] = 47.0     # last observed value before the cutoff
        model = SarModel("S", p_lags=1, h_seasonal=0,
                         weights=np.array([0.0, 1.0]), in_sample_r2=1.0)
        out = sar_rollout(model, speeds, [9], self.OFF)
        assert out.shape == (1, N_SLOTS)
        assert np.allclose(out, 47.0)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_batched_rollout_matches_one_day_loop(self, data):
        p_lags = data.draw(st.integers(1, 8))
        h_seasonal = data.draw(st.integers(0, 2))
        offset = data.draw(st.sampled_from([0, 3, self.OFF]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        speeds = 55 + 20 * rng.standard_normal((30, offset + N_SLOTS))
        speeds[rng.random(speeds.shape) < data.draw(st.sampled_from([0.0, 0.05]))] = np.nan
        # large negative weights drive some predictions under the 1.0 clamp
        weights = rng.normal(0.0, data.draw(st.sampled_from([0.3, 3.0])),
                             1 + p_lags + h_seasonal)
        model = SarModel("S", p_lags, h_seasonal, weights, in_sample_r2=0.0)
        days = data.draw(st.lists(st.integers(7 * h_seasonal, 29), min_size=1, max_size=12))
        out = sar_rollout(model, speeds, days, offset)
        for row, di in zip(out, days):
            want = one_day_rollout(model, speeds, di, offset)
            assert np.array_equal(row, want, equal_nan=True)

    def test_in_sample_r2_nonnegative(self):
        rng = np.random.default_rng(0)
        speeds = 55 + 5 * rng.standard_normal((60, self.OFF + N_SLOTS))
        model = fit_sar("S", speeds, list(range(30, 60)), p_lags=6, h_seasonal=2,
                        morning_offset=self.OFF)
        assert model.in_sample_r2 >= 0.0

    def test_quadruple_no_congestion(self):
        cs, cst, cd, pti = sar_quadruple(np.full(N_SLOTS, 60.0), 60.0, CongestionParams())
        assert (cs, cst, cd) == (0, 0.0, 0.0)
        assert pti == pytest.approx(1.0)

    def test_quadruple_with_congestion(self):
        speeds = np.full(N_SLOTS, 60.0)
        speeds[24:36] = 25.0
        cs, cst, cd, pti = sar_quadruple(speeds, 60.0, CongestionParams())
        assert cs == 1 and cst == 72 - 24 and cd == 12
        assert pti == pytest.approx(60.0 / 25.0)


class TestPlan:
    def test_fold_arithmetic_22_days(self, monkeypatch):
        folds = outer_folds(22, 10)
        assert len(folds) == 11
        assert all(len(f) == 2 for f in folds)
        splits = []
        monkeypatch.setattr("tweet2traffic.harness.tscv._run_split",
                            lambda _p, _r, _m, k, train, test, _s: splits.append((k, train, test)))
        days = day_seq(22)
        prepared = SimpleNamespace(days=days, config=PipelineConfig())
        run_nested_tscv(prepared, models=())
        k, train, test = splits[0]
        assert k == 1 and train == days[:2] and test == days[2:4]
        k, train, test = splits[-1]
        assert k == 10 and train == days[:20] and test == days[20:]

    def test_remainder_joins_final_fold(self):
        folds = outer_folds(25, 10)
        assert len(folds[-1]) == 5   # 25 = 11*2 + 3 extra

    def test_too_few_days(self):
        with pytest.raises(TooFewDays):
            outer_folds(10, 10)


class TestMetrics:
    def test_perfect_predictor(self):
        quads = [quad(1), quad(0), quad(1)]
        ms = compute_metrics(quads, [1, 0, 1], [40, 0, 40], [12, 0, 12], [2.0, 1.0, 2.0])
        assert ms.accuracy == 1.0 and ms.precision == 1.0 and ms.recall == 1.0
        assert ms.rmse_cst_h == 0.0 and ms.rmse_cd_h == 0.0 and ms.rmse_pti == 0.0

    def test_all_negative_recall_zero(self):
        quads = [quad(1), quad(0)]
        ms = compute_metrics(quads, [0, 0], [0, 0], [0, 0], [1.0, 1.0])
        assert ms.recall == 0.0
        assert ms.precision is None     # empty denominator stays absent

    def test_rmse_unit_conversion(self):
        quads = [quad(1, cst=60)]
        ms = compute_metrics(quads, [1], [48.0], [12.0], [2.0])
        assert ms.rmse_cst_h == pytest.approx(1.0)   # 12 slots = 1 hour

    def test_permutation_invariance(self):
        quads = [quad(1, cst=30), quad(0), quad(1, cst=50), quad(1, cst=60)]
        preds = ([1, 0, 0, 1], [28.0, 0.0, 40.0, 55.0], [10.0, 0, 12.0, 13.0],
                 [2.0, 1.0, 2.2, 2.4])
        ms1 = compute_metrics(quads, *preds)
        perm = [2, 0, 3, 1]
        ms2 = compute_metrics([quads[i] for i in perm],
                              [preds[0][i] for i in perm], [preds[1][i] for i in perm],
                              [preds[2][i] for i in perm], [preds[3][i] for i in perm])
        assert ms1 == ms2

    def test_weighted_aggregate_identity(self):
        ms1 = compute_metrics([quad(1), quad(0)], [1, 0], [40, 0], [12, 0], [2.0, 1.0])
        ms2 = compute_metrics([quad(1, cst=50)] * 3, [1, 1, 0], [40, 50, 50],
                              [12, 12, 12], [2.0, 2.0, 2.0])
        agg = weighted_aggregate([ms1, ms2])
        for name in ("accuracy",):
            w1, w2 = ms1.n_days, ms2.n_days
            want = (ms1.accuracy * w1 + ms2.accuracy * w2) / (w1 + w2)
            assert abs(agg[name] - want) < 1e-12
        w1, w2 = ms1.n_congested, ms2.n_congested
        want = (ms1.rmse_cst_h * w1 + ms2.rmse_cst_h * w2) / (w1 + w2)
        assert abs(agg["rmse_cst_h"] - want) < 1e-12


@pytest.fixture(scope="module")
def small_world():
    cfg = SyntheticConfig(n_days=48, n_roads=2, segments_per_road=3,
                          n_users=16, n_tracts=3)
    bundle, sidecar = generate_synthetic(cfg, seed=21)
    pc = PipelineConfig(tweets=TweetConfig(agency_user_ids=("agency511",)),
                        harness=HarnessConfig(n_outer=3))
    prepared = prepare_data(bundle, pc)
    return prepared, sidecar


@pytest.fixture(scope="module")
def small_report(small_world):
    prepared, _ = small_world
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_nested_tscv(prepared, models=("t2t", "hm", "sar"), seed=0)


class TestNestedTscv:
    def test_report_structure(self, small_report):
        models = {m for m, _s, _k in small_report.per_split}
        assert models == {"t2t", "hm", "sar"}
        splits = {k for _m, _s, k in small_report.per_split}
        assert splits == {1, 2, 3}
        assert ("t2t", "ALL") in small_report.aggregate

    def test_aggregate_matches_weighted_mean(self, small_report):
        entries = [ms for (m, _s, _k), ms in small_report.per_split.items() if m == "t2t"]
        want = weighted_aggregate(entries)
        got = small_report.aggregate[("t2t", "ALL")]
        for key, value in want.items():
            if value is None:
                assert got[key] is None
            else:
                assert abs(got[key] - value) < 1e-12

    def test_deterministic_given_seed(self, small_world, small_report):
        prepared, _ = small_world
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            again = run_nested_tscv(prepared, models=("t2t",), seed=0)
        for key, ms in again.per_split.items():
            assert small_report.per_split[key] == ms


    def test_sar_scored_at_configured_pti_quantile(self, small_world, monkeypatch):
        prepared, _ = small_world
        quantiles = []

        def spy(*args, **kwargs):
            bound = inspect.signature(sar_quadruple).bind(*args, **kwargs)
            quantiles.append(bound.arguments.get("pti_quantile"))
            return sar_quadruple(*args, **kwargs)

        monkeypatch.setattr("tweet2traffic.harness.tscv.sar_quadruple", spy)
        half = dataclasses.replace(
            prepared, config=dataclasses.replace(prepared.config, pti_quantile=0.5))
        run_nested_tscv(half, models=("sar",))
        assert quantiles and set(quantiles) == {0.5}

    def test_unknown_model_rejected_before_any_split(self, small_world, monkeypatch):
        prepared, _ = small_world

        def no_split(*_a, **_k):
            raise AssertionError("build_split ran before the model names were checked")

        monkeypatch.setattr("tweet2traffic.harness.tscv.build_split", no_split)
        with pytest.raises(UnknownVariant, match="'bogus'"):
            run_nested_tscv(prepared, models=("hm", "bogus"))


class TestLeakage:
    def test_model_hash_invariant_to_test_fold_deletion(self):
        cfg = SyntheticConfig(n_days=40, n_roads=1, segments_per_road=3,
                              n_users=14, n_tracts=3)
        bundle, _ = generate_synthetic(cfg, seed=33)
        pc = PipelineConfig(tweets=TweetConfig(agency_user_ids=("agency511",)))

        def fit_hash(b, train_days, test_days):
            prepared = prepare_data(b, pc)
            art = build_split(prepared, train_days, test_days, seed=5)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                stack = fit_stack(prepared, art, seed=5)
            return bundle_hash(stack.descriptors, stack.segment_models)

        prepared = prepare_data(bundle, pc)
        days = prepared.days
        train_days, test_days = days[:30], days[30:36]
        h_full = fit_hash(bundle, train_days, test_days)

        import dataclasses

        cut = set(test_days)
        pruned = dataclasses.replace(
            bundle,
            speed=drop_days(bundle.speed, cut),
            tweets=[t for t in bundle.tweets if t.timestamp.date() not in cut],
            weather=[w for w in bundle.weather if w.timestamp.date() not in cut],
            incidents=[i for i in bundle.incidents
                       if i.closure_start_ts.date() not in cut],
        )
        h_pruned = fit_hash(pruned, train_days, [])
        assert h_full == h_pruned


class TestAblation:
    def test_unknown_variant(self, small_world):
        prepared, _ = small_world
        with pytest.raises(UnknownVariant):
            run_ablation(prepared, "NO_SUCH")

    def test_no_tweet_runs_and_deltas_defined(self, small_world, small_report):
        prepared, _ = small_world
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            var_report, deltas = run_ablation(prepared, "NO_TWEET", seed=0)
        assert ("NO_TWEET", "ALL") in var_report.aggregate
        assert deltas["accuracy"] is not None

    def test_self_delta_zero(self, small_report):
        base = small_report.aggregate_metric("t2t", "accuracy")
        assert (base - base) / base == 0.0


class TestEmitReport:
    def test_empty_report_headers_only(self, tmp_path):
        files = emit_report(EvaluationReport().finalize(), tmp_path)
        for f in files:
            lines = Path(f).read_text().splitlines()
            assert len(lines) == 1

    def test_row_count_and_determinism(self, small_report, tmp_path):
        emit_report(small_report, tmp_path / "a")
        emit_report(small_report, tmp_path / "b")
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        assert a == (tmp_path / "b" / "metrics.csv").read_bytes()
        rows = a.decode().splitlines()[1:]
        models = {m for m, _s, _k in small_report.per_split}
        segments = {s for _m, s, _k in small_report.per_split}
        splits = {k for _m, _s, k in small_report.per_split}
        assert len(rows) == len(models) * len(segments) * len(splits) * 6


class TestVariantModels:
    def test_rf_and_knn_variants_run(self, small_world):
        prepared, _ = small_world
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_nested_tscv(prepared, models=("t2t_rf", "t2t_knn"), seed=0)
        for m in ("t2t_rf", "t2t_knn"):
            agg = report.aggregate[(m, "ALL")]
            assert agg["accuracy"] is not None
            assert 0.0 <= agg["accuracy"] <= 1.0
