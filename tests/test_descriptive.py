"""Association analysis behavior on generated data with known structure."""
import warnings

import numpy as np
import pytest

from tweet2traffic.config import PipelineConfig, TweetConfig
from tweet2traffic.clustering import chi_squared_cramers_v
from tweet2traffic.harness.descriptive import run_descriptive_analysis
from tweet2traffic.harness.pipeline import build_split, prepare_data
from tweet2traffic.ingest import SyntheticConfig, generate_synthetic

PC = PipelineConfig(tweets=TweetConfig(agency_user_ids=("agency511",)))


def run_world(sleep_effect, seed=77):
    cfg = SyntheticConfig(n_days=300, n_roads=4, segments_per_road=4,
                          n_users=40, n_tracts=4, sleep_effect=sleep_effect,
                          incident_effect=0.0, weather_effect=0.0)
    bundle, _ = generate_synthetic(cfg, seed=seed)
    prepared = prepare_data(bundle, PC)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        art = build_split(prepared, prepared.days, [], seed=0)
        return run_descriptive_analysis(prepared, art, seed=0)


@pytest.fixture(scope="module")
def effect_on():
    return run_world(sleep_effect=0.8)


@pytest.fixture(scope="module")
def effect_off():
    return run_world(sleep_effect=0.0)


class TestDescriptive:
    def test_effect_on_significant_on_most_roads(self, effect_on):
        assert len(effect_on) == 4
        significant = sum(r.p_value < 0.001 for r in effect_on)
        assert significant >= 3

    def test_effect_off_v_below_permutation_quantile(self, effect_off):
        rng = np.random.default_rng(5)
        for row in effect_off:
            # rebuild the paired labelings from the contingency table
            a, b = [], []
            for i in range(row.table.shape[0]):
                for j in range(row.table.shape[1]):
                    count = int(row.table[i, j])
                    a += [i] * count
                    b += [j] * count
            a = np.array(a)
            b = np.array(b)
            null_vs = []
            for _ in range(200):
                table = np.zeros_like(row.table)
                np.add.at(table, (a, rng.permutation(b)), 1)
                _c, _p, v = chi_squared_cramers_v(table)
                null_vs.append(v)
            assert row.cramers_v <= np.quantile(null_vs, 0.95) + 1e-9

    def test_conditional_distributions_are_probabilities(self, effect_on):
        for row in effect_on:
            sums = row.conditional.sum(axis=0)
            nonzero = row.table.sum(axis=0) > 0
            assert np.allclose(sums[nonzero], 1.0)

    def test_reported_shapes(self, effect_on):
        for row in effect_on:
            assert row.table.shape == (row.n_traffic_clusters, row.n_tweet_clusters)
            assert row.n_days == int(row.table.sum())
            assert 0.0 <= row.cramers_v <= 1.0
