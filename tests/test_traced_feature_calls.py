"""The feature functions the benchmark traces still run in a split and a fit.

The benchmark's tracer wraps `weather_features`, `build_feature_matrix`,
`geotag_timeline`, `encode_sleep_wake` and `segment_design` where
`harness.pipeline` looks them up. A refactor that inlines one of them keeps
the name resolvable but no longer calls it, which silently zeroes that
layer in every benchmark run.
"""
import sys
import warnings
from pathlib import Path

from tweet2traffic.config import PipelineConfig
from tweet2traffic.harness import pipeline
from tweet2traffic.ingest import SyntheticConfig, generate_synthetic

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import SITES  # noqa: E402

TRACED = ("weather_features", "build_feature_matrix", "geotag_timeline",
          "encode_sleep_wake", "segment_design")


def test_traced_names_are_pipeline_sites():
    pipeline_lookups = {lookup[1] for site in SITES for lookup in site.lookups
                        if lookup[0] == pipeline.__name__}
    assert set(TRACED) <= pipeline_lookups


def test_split_and_fit_call_the_traced_feature_functions(monkeypatch):
    cfg = SyntheticConfig(n_days=30, n_roads=1, segments_per_road=2, n_users=12,
                          n_tracts=3)
    bundle, _ = generate_synthetic(cfg, seed=5)
    prepared = pipeline.prepare_data(bundle, PipelineConfig())
    calls = dict.fromkeys(TRACED, 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in TRACED:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        art = pipeline.build_split(prepared, prepared.days[:24], prepared.days[24:], seed=5)
        pipeline.fit_stack(prepared, art, seed=5)
    assert all(calls.values()), calls
