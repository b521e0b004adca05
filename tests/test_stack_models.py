"""The stack-model table: what each named model sees and fits, the fits the
models of one split share, and the one-pass ablation that scores a variant
against the base model."""
import json
import warnings
from collections import Counter

import numpy as np
import pytest

from tweet2traffic.config import HarnessConfig, PipelineConfig, TweetConfig
from tweet2traffic.harness import pipeline, tscv
from tweet2traffic.harness.ablation import run_ablation
from tweet2traffic.harness.pipeline import (
    ABLATION_VARIANTS,
    STACK_MODELS,
    build_split,
    fit_stack,
    prepare_data,
)
from tweet2traffic.harness.tscv import run_nested_tscv
from tweet2traffic.ingest import SyntheticConfig, generate_synthetic
from tweet2traffic.learn import stack as stack_module
from tweet2traffic.learn.forest import RandomForestModel
from tweet2traffic.learn.knn import KnnModel
from tweet2traffic.learn.serialize import bundle_from_json, bundle_hash, bundle_to_json


@pytest.fixture(scope="module")
def prepared():
    cfg = SyntheticConfig(n_days=48, n_roads=2, segments_per_road=3,
                          n_users=16, n_tracts=3)
    bundle, _ = generate_synthetic(cfg, seed=21)
    return prepare_data(bundle, PipelineConfig(
        tweets=TweetConfig(agency_user_ids=("agency511",)), harness=HarnessConfig(n_outer=3)))


@pytest.fixture(scope="module")
def art(prepared):
    return build_split(prepared, prepared.days[:36], prepared.days[36:], seed=4)


@pytest.fixture(scope="module")
def fitted(prepared, art):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {name: fit_stack(prepared, art, model, seed=4)
                for name, model in STACK_MODELS.items()}


def columns(stack):
    """Every design column of a fitted stack, over all its segments."""
    return {n for names, _X, _pos in stack.designs.values() for n in names}


def road_columns(art, keep):
    rm = art.road_matrix
    return {n for n, g, a in zip(rm.names, rm.groups, rm.avail_hours) if keep(g, a)}


def is_incident(name):
    return name.startswith(("p_", "f_"))


def is_cluster(name):
    return name.startswith("c_")


def test_table_names_the_base_heads_and_every_ablation():
    assert set(STACK_MODELS) == {"t2t", "t2t_rf", "t2t_knn", *ABLATION_VARIANTS}
    assert len(ABLATION_VARIANTS) == 6


def test_every_model_fits_every_segment_on_its_design(prepared, fitted):
    want = {s.segment_id for s in prepared.segments}
    for name, stack in fitted.items():
        assert set(stack.designs) == set(stack.segment_models) == want, name
        for sid, model in stack.segment_models.items():
            assert model.feature_names == stack.designs[sid][0], (name, sid)


def test_base_model_sees_every_family(art, fitted):
    cols = columns(fitted["t2t"])
    assert road_columns(art, lambda g, a: True) <= cols
    assert any(map(is_incident, cols)) and any(map(is_cluster, cols))
    assert all(d is not None for d in fitted["t2t"].descriptors.values())


def test_no_tweet_has_no_tweet_column(art, fitted):
    tweet = road_columns(art, lambda g, a: g.startswith("tweet_"))
    assert tweet
    assert not columns(fitted["NO_TWEET"]) & tweet


def test_no_weather_has_no_weather_column(art, fitted):
    weather = road_columns(art, lambda g, a: g == "weather")
    assert weather
    assert not columns(fitted["NO_WEATHER"]) & weather


def test_no_incident_has_no_incident_column(fitted):
    cols = columns(fitted["NO_INCIDENT"])
    assert not any(map(is_incident, cols))
    assert any(map(is_cluster, cols))


def test_no_cluster_has_no_scale_column_and_no_descriptor(fitted):
    stack = fitted["NO_CLUSTER"]
    assert not any(map(is_cluster, columns(stack)))
    assert all(d is None for d in stack.descriptors.values())
    assert any(map(is_incident, columns(stack)))


@pytest.mark.parametrize("name,cutoff", [("BEFORE_3AM", 3.0), ("BEFORE_MIDNIGHT", 0.0)])
def test_cutoff_drops_what_completes_after_it(art, fitted, name, cutoff):
    def maskable(g):
        return g.startswith("tweet_") or g == "weather"

    late = road_columns(art, lambda g, a: maskable(g) and a > cutoff)
    early = road_columns(art, lambda g, a: maskable(g) and a <= cutoff)
    cols = columns(fitted[name])
    assert late and early
    assert not cols & late
    assert early <= cols


def test_heads_follow_the_model(fitted):
    assert all(not m.heads for m in fitted["t2t"].segment_models.values())
    for name, kind in (("t2t_rf", RandomForestModel), ("t2t_knn", KnnModel)):
        heads = [h for m in fitted[name].segment_models.values() for h in m.heads.values()]
        assert heads, name
        assert all(isinstance(h, kind) for h in heads), name
    assert all("cs" in m.heads for m in fitted["t2t_knn"].segment_models.values())


def test_ablation_builds_each_split_once(prepared, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = run_nested_tscv(prepared, models=("t2t",), seed=0)
        alone = run_nested_tscv(prepared, models=("NO_INCIDENT",), seed=0)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return build_split(*args, **kwargs)

        monkeypatch.setattr(tscv, "build_split", counting)
        report, deltas = run_ablation(prepared, "NO_INCIDENT", seed=0)
    assert len(calls) == 3
    assert report.per_split == alone.per_split
    assert report.aggregate == alone.aggregate
    for metric, delta in deltas.items():
        b = base.aggregate_metric("t2t", metric)
        v = alone.aggregate_metric("NO_INCIDENT", metric)
        assert delta == (None if b is None or v is None or b == 0 else (v - b) / b)


def stack_hash(stack):
    return bundle_hash(stack.descriptors, stack.segment_models)


def test_no_cluster_bundle_hashes_and_round_trips(fitted):
    stack = fitted["NO_CLUSTER"]
    text = bundle_to_json(stack.descriptors, stack.segment_models)
    assert json.loads(text)["descriptors"] == {road: None for road in stack.descriptors}
    descriptors, segments, _meta = bundle_from_json(text)
    assert descriptors == stack.descriptors
    assert bundle_to_json(descriptors, segments) == text
    assert bundle_hash(descriptors, segments) == stack_hash(stack)


def test_shared_fits_equal_each_stack_fitted_alone(prepared, art, fitted):
    fits = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shared = {name: fit_stack(prepared, art, model, seed=4, fits=fits)
                  for name, model in STACK_MODELS.items()}
    for name, stack in shared.items():
        assert stack_hash(stack) == stack_hash(fitted[name]), name
    for model in shared["t2t"].segment_models.values():
        assert not model.heads
        assert not [f for f in model.flags if f.startswith("rf_")]
    base = shared["t2t"].segment_models
    for name in ("t2t_rf", "t2t_knn"):
        for sid, model in shared[name].segment_models.items():
            assert model.classifier is base[sid].classifier, (name, sid)
            assert model.regressors is base[sid].regressors, (name, sid)


def test_one_pass_fits_what_its_stack_models_share_once(prepared, monkeypatch):
    heads = ("t2t", "t2t_rf", "t2t_knn")
    calls = Counter()
    for module, name in ((stack_module, "fit_lasso_cv"), (stack_module, "fit_l1_logistic_cv"),
                         (pipeline, "fit_ordered_descriptor")):
        def wrapped(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        together = run_nested_tscv(prepared, models=heads, seed=0)
        shared, separate = Counter(calls), Counter()
        per_split = {}
        for name in heads:
            calls.clear()
            per_split.update(run_nested_tscv(prepared, models=(name,),
                                             seed=0).per_split)
            separate += calls
        calls.clear()
        run_ablation(prepared, "NO_INCIDENT", seed=0)
    assert together.per_split == per_split
    for name in ("fit_lasso_cv", "fit_l1_logistic_cv"):
        assert shared[name] > 0
        assert 3 * shared[name] == separate[name], name
    assert calls["fit_ordered_descriptor"] == 3 * len(prepared.roads)


@pytest.mark.parametrize("name", ["t2t", "NO_TWEET"])
def test_training_scales_do_not_depend_on_the_test_days(prepared, name):
    """fit_stack gives each training day the same cluster-scale columns with
    no test day, 5 or 7 of them. Neither those counts nor the 34 training
    days are multiples of 4, the row block a BLAS product works in."""
    train = prepared.days[:34]
    scales = []
    for n_test in (0, 5, 7):
        art = build_split(prepared, train, prepared.days[34:34 + n_test], seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stack = fit_stack(prepared, art, STACK_MODELS[name], seed=4)
        per_segment = {}
        for sid, (names, X_all, pos) in stack.designs.items():
            cols = [j for j, n in enumerate(names) if is_cluster(n)]
            assert cols, sid
            per_segment[sid] = X_all[[pos[d] for d in train]][:, cols]
        scales.append(per_segment)
    for other in scales[1:]:
        assert other.keys() == scales[0].keys()
        for sid, values in other.items():
            assert np.array_equal(values, scales[0][sid]), sid
