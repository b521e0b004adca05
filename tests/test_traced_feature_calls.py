"""The functions the benchmark traces still run in a split and a fit.

The benchmark's tracer wraps `weather_features`, `build_feature_matrix`,
`geotag_timeline`, `encode_sleep_wake`, `segment_design`,
`fit_ordered_descriptor` and `fit_segment_models` where `harness.pipeline`
looks them up, `fit_lasso_cv` and `fit_l1_logistic_cv` where `learn.stack`
looks them up, and the solvers `fit_lasso` and `fit_l1_logistic` where
`learn.selection`'s warm paths and final fits look them up (the benchmark
counts their `NotConverged` returns there). A refactor that inlines one of them, or reaches
it through another name, keeps the name resolvable but no longer calls it
there, which silently zeroes that layer in every benchmark run.
"""
import sys
import warnings
from pathlib import Path

from tweet2traffic.config import PipelineConfig
from tweet2traffic.harness import pipeline
from tweet2traffic.ingest import SyntheticConfig, generate_synthetic
from tweet2traffic.learn import selection, stack

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import SITES  # noqa: E402

TRACED = ("weather_features", "build_feature_matrix", "geotag_timeline",
          "encode_sleep_wake", "segment_design")
# what fit_stack must reach, by the module that looks it up
FIT_TRACED = ((pipeline, "fit_ordered_descriptor"), (pipeline, "fit_segment_models"),
              (pipeline, "segment_design"), (stack, "fit_lasso_cv"),
              (stack, "fit_l1_logistic_cv"), (selection, "fit_lasso"),
              (selection, "fit_l1_logistic"))


def test_traced_names_are_pipeline_sites():
    lookups = {lookup[:2] for site in SITES for lookup in site.lookups}
    assert {(pipeline.__name__, name) for name in TRACED} <= lookups
    assert {(module.__name__, name) for module, name in FIT_TRACED} <= lookups


def counting(monkeypatch, calls, traced):
    for module, name in traced:
        def wrapped(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
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
