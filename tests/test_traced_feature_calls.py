"""The functions the benchmark traces still run in a split and a fit.

The benchmark's tracer wraps `weather_features`, `build_feature_matrix`,
`geotag_timeline`, `encode_sleep_wake`, `segment_design`,
`fit_ordered_descriptor` and `fit_segment_models` where `harness.pipeline`
looks them up, `fit_lasso_cv` and `fit_l1_logistic_cv` where `learn.stack`
looks them up, and the solvers `fit_lasso` and `fit_l1_logistic` where
`learn.selection`'s warm paths and final fits look them up (the benchmark
counts their `NotConverged` returns there). In a split it also wraps
`filter_influential_users`, `infer_home`, `pca_fit`, `elbow_select_k` and
`kmeans_fit` where `harness.pipeline` looks them up, and `kmeans_fit` where
`clustering`'s elbow looks it up. A refactor that inlines one of them, or
batches past it, or reaches it through another name, keeps the name
resolvable but no longer calls it there, which silently zeroes that layer in
every benchmark run.
"""
import sys
import warnings
from pathlib import Path

from tweet2traffic import clustering
from tweet2traffic.config import PipelineConfig
from tweet2traffic.harness import pipeline
from tweet2traffic.ingest import SyntheticConfig, generate_synthetic
from tweet2traffic.learn import selection, stack
from tweet2traffic.tweetpipe.users import detect_bots

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import SITES  # noqa: E402

TRACED = ("weather_features", "build_feature_matrix", "geotag_timeline",
          "encode_sleep_wake", "segment_design")
# what fit_stack must reach, by the module that looks it up
FIT_TRACED = ((pipeline, "fit_ordered_descriptor"), (pipeline, "fit_segment_models"),
              (pipeline, "segment_design"), (stack, "fit_lasso_cv"),
              (stack, "fit_l1_logistic_cv"), (selection, "fit_lasso"),
              (selection, "fit_l1_logistic"))
# what build_split's homes and clustering must reach, by the module that looks it up
SPLIT_TRACED = ((pipeline, "filter_influential_users"), (pipeline, "infer_home"),
                (pipeline, "pca_fit"), (pipeline, "elbow_select_k"),
                (pipeline, "kmeans_fit"), (clustering, "kmeans_fit"))


def test_traced_names_are_pipeline_sites():
    lookups = {lookup[:2] for site in SITES for lookup in site.lookups}
    assert {(pipeline.__name__, name) for name in TRACED} <= lookups
    assert {(module.__name__, name) for module, name in FIT_TRACED} <= lookups
    assert {(module.__name__, name) for module, name in SPLIT_TRACED} <= lookups


def counting(monkeypatch, calls, traced, key=lambda module, name: name, record=None):
    """Count each call of `traced` in `calls` under `key`; `record`, if given,
    gets each call's key, arguments and result."""
    for module, name in traced:
        def wrapped(*args, _fn=getattr(module, name), _key=key(module, name), **kwargs):
            calls[_key] += 1
            out = _fn(*args, **kwargs)
            if record is not None:
                record.append((_key, args, out))
            return out
        monkeypatch.setattr(module, name, wrapped)


def prepared_world():
    cfg = SyntheticConfig(n_days=30, n_roads=1, segments_per_road=2, n_users=12,
                          n_tracts=3)
    bundle, _ = generate_synthetic(cfg, seed=5)
    return pipeline.prepare_data(bundle, PipelineConfig())


def test_split_and_fit_call_the_traced_feature_functions(monkeypatch):
    prepared = prepared_world()
    calls = dict.fromkeys(TRACED, 0)
    counting(monkeypatch, calls, [(pipeline, name) for name in TRACED])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        art = pipeline.build_split(prepared, prepared.days[:24], prepared.days[24:], seed=5)
        pipeline.fit_stack(prepared, art, seed=5)
    assert all(calls.values()), calls


def test_fit_stack_reaches_the_traced_learn_calls(monkeypatch):
    prepared = prepared_world()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        art = pipeline.build_split(prepared, prepared.days[:24], prepared.days[24:], seed=5)
        calls = {name: 0 for _module, name in FIT_TRACED}
        counting(monkeypatch, calls, FIT_TRACED)
        pipeline.fit_stack(prepared, art, seed=5)
    assert calls["fit_ordered_descriptor"] == len(prepared.roads)
    assert calls["fit_segment_models"] == len(prepared.segments)
    assert calls["segment_design"] == 1
    assert calls["fit_lasso_cv"] and calls["fit_l1_logistic_cv"], calls
    assert calls["fit_lasso"] and calls["fit_l1_logistic"], calls


def test_build_split_reaches_the_traced_home_and_cluster_calls(monkeypatch):
    """Homes: one user filter per split, then `infer_home` once per resident,
    in user order. Clustering: per road one PCA, then the elbow, which fits
    k-means once per candidate K through `clustering.kmeans_fit`; a span too
    short for the elbow fits one K through `pipeline.kmeans_fit` instead."""
    prepared = prepared_world()
    roads = len(prepared.roads)
    key = lambda module, name: f"{module.__name__.rsplit('.', 1)[-1]}.{name}"  # noqa: E731
    for n_train, elbow in ((24, True), (3, False)):
        calls = {key(module, name): 0 for module, name in SPLIT_TRACED}
        record = []
        with monkeypatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            counting(patch, calls, SPLIT_TRACED, key, record)
            art = pipeline.build_split(prepared, prepared.days[:n_train],
                                       prepared.days[n_train:n_train + 3], seed=5)
        assert calls["pipeline.filter_influential_users"] == 1
        (users,) = [out for k, _args, out in record if k == "pipeline.filter_influential_users"]
        bots = detect_bots(users, prepared.config.tweets)
        residents = [u for u in sorted(users) if users[u].is_resident and u not in bots]
        homed = [args[0] for k, args, _out in record if k == "pipeline.infer_home"]
        assert homed == residents and set(art.homes) <= set(homed)
        assert calls["pipeline.pca_fit"] == roads
        k_ranges = [args[1] for k, args, _out in record if k == "pipeline.elbow_select_k"]
        if elbow:
            assert art.homes and len(k_ranges) == roads
            assert calls["clustering.kmeans_fit"] == sum(len(ks) for ks in k_ranges)
            assert calls["pipeline.kmeans_fit"] == 0
        else:
            assert not k_ranges and calls["clustering.kmeans_fit"] == 0
            assert calls["pipeline.kmeans_fit"] == roads
