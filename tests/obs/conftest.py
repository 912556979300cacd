"""Shared fixtures for the obs tier: one tiny platform + pinned run recipes.

The golden-trace and invariant tests all drive the *same* two runs — a
small MA-TARW and a small MA-SRW estimation with every knob pinned — so
a behaviour change shows up consistently across the tier.  The configs
cap walk instances / steps: walks over the cached region are free, so an
uncapped run emits tens of thousands of span records and the committed
golden files would dwarf the test suite.
"""

from __future__ import annotations

import pytest

from repro.core.analyzer import MicroblogAnalyzer
from repro.core.query import Aggregate, AggregateQuery, CONSTANT_ONE
from repro.core.srw import SRWConfig
from repro.core.tarw import TARWConfig
from repro.core.wnw import WNWConfig
from repro.platform.clock import DAY
from repro.platform.simulator import PlatformConfig, build_platform
from tests.conftest import tiny_keywords

GOLDEN_WALK_SEED = 5
GOLDEN_PLATFORM = dict(num_users=400, seed=11)

GOLDEN_BUDGETS = {"ma-tarw": 180, "ma-srw": 420, "wnw": 420}
GOLDEN_SHARDED_BUDGETS = {"ma-tarw": 540, "ma-srw": 700, "wnw": 700}
"""Sharded runs split the budget across :data:`GOLDEN_SHARDS` shards, so
they get proportionally more spend — enough that every shard still
completes walks and the merged run produces an estimate."""


def golden_estimator_config(algorithm):
    """The pinned estimator knobs for one golden run (fresh instance)."""
    if algorithm == "ma-tarw":
        return TARWConfig(
            max_instances=50,
            stall_instances=25,
            discovery_instances=30,
            final_recount_instances=60,
        )
    if algorithm == "wnw":
        return WNWConfig(max_steps=400, stall_steps=300)
    return SRWConfig(max_steps=400, stall_steps=300)


def golden_query() -> AggregateQuery:
    return AggregateQuery(
        keyword="privacy", aggregate=Aggregate.COUNT, measure=CONSTANT_ONE
    )


@pytest.fixture(scope="session")
def obs_platform():
    """~400 users — small enough that a budgeted run traces < 1k records."""
    config = PlatformConfig(
        keywords=tiny_keywords(), background_posts_mean=3.0, **GOLDEN_PLATFORM
    )
    return build_platform(config)


GOLDEN_SHARDS = 3
"""Sharded golden runs pin the shard count explicitly: the default
backoff would collapse these small budgets to one shard, leaving the
multi-shard merge ordering (the worker-invariance mechanism) unpinned."""


def golden_run(
    platform,
    algorithm: str,
    n_workers=None,
    obs=None,
    fault_plan=None,
    budget=None,
):
    """One pinned estimation run; returns the :class:`EstimateResult`."""
    key = {"ma-tarw": "tarw_config", "wnw": "wnw_config"}.get(algorithm, "srw_config")
    analyzer = MicroblogAnalyzer(
        platform,
        algorithm=algorithm,
        interval=DAY,
        seed=GOLDEN_WALK_SEED,
        n_workers=n_workers,
        n_shards=GOLDEN_SHARDS if n_workers is not None else None,
        fault_plan=fault_plan,
        obs=obs,
        **{key: golden_estimator_config(algorithm)},
    )
    if budget is None:
        table = GOLDEN_BUDGETS if n_workers is None else GOLDEN_SHARDED_BUDGETS
        budget = table[algorithm]
    return analyzer.estimate(golden_query(), budget=budget)
