"""Walk kernel under faults: kernel-on ≡ fully layered on every fault stack.

The walk kernel resolves on the fault stacks the caching client
recognises (a resilient layer over the simulator, with or without a
fault-injection layer between).  There every request still travels the
whole stack, so the kernel must be invisible except in speed.  Each cell
of the matrix — fault stack × data plane × walker — compares a kernel-on
run against ``set_kernel_enabled(False)`` on: value, the whole bill
(``retries`` included), diagnostics, the caching client's hits, misses
and uncacheable count, the injected-fault counts, the metrics snapshot
(minus the resolvers' own guard counters) and the trace bytes.

Stacks: the ``flaky``, ``unstable`` and ``hostile`` profiles behind the
default retry policy; ``hostile`` behind a retry policy too weak to heal
every fault; and ``hostile`` behind a breaker that opens and serves
degraded partial timelines — whose first mentions the kernel must keep
exactly as the layered reader does.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter

import pytest

from repro.api.client import CachingClient, SimulatedMicroblogClient
from repro.api.faults import FAULT_PROFILES, FaultInjectingClient
from repro.api.resilient import ResilientClient, RetryPolicy
from repro.core.analyzer import MicroblogAnalyzer
from repro.core.graph_builder import QueryContext
from repro.core.kernels import set_kernel_enabled
from repro.core.query import FOLLOWERS, avg_of, count_users
from repro.errors import BudgetExhaustedError
from repro.obs import MetricsRegistry, Observability
from repro.obs.export import trace_lines
from repro.obs.trace import RecordingSink
from repro.platform.clock import DAY, SimulatedClock
from repro.platform.frozen import FrozenStore
from repro.platform.posts import Post, make_keywords
from repro.platform.simulator import PlatformConfig, SimulatedPlatform, build_platform
from tests.conftest import tiny_keywords
from tests.obs.conftest import (
    GOLDEN_BUDGETS,
    GOLDEN_PLATFORM,
    GOLDEN_WALK_SEED,
    golden_estimator_config,
    golden_query,
)

pytestmark = [pytest.mark.kernels, pytest.mark.chaos]

HOSTILE = FAULT_PROFILES["hostile"]
WEAK = RetryPolicy(max_attempts=3, breaker_threshold=3, breaker_cooldown=0.0)
BREAKER = RetryPolicy(max_attempts=3, breaker_threshold=3, breaker_cooldown=60.0)
STACKS = {
    "flaky": (FAULT_PROFILES["flaky"], None),
    "unstable": (FAULT_PROFILES["unstable"], None),
    "hostile": (HOSTILE, None),
    "weak-retries": (HOSTILE, WEAK),
    "breaker": (HOSTILE, BREAKER),
}
GUARDS = ("kernel.", "fastpath.")
"""Metric prefixes of the resolvers themselves: the one thing the switch
is meant to move."""


@contextlib.contextmanager
def kernel_switch(enabled):
    previous = set_kernel_enabled(enabled)
    try:
        yield
    finally:
        set_kernel_enabled(previous)


def _config(**overrides) -> PlatformConfig:
    base = dict(keywords=tiny_keywords(), background_posts_mean=3.0, **GOLDEN_PLATFORM)
    base.update(overrides)
    return PlatformConfig(**base)


@pytest.fixture(scope="module")
def frozen_platform():
    return build_platform(_config(data_plane="frozen"))


@pytest.fixture(scope="module")
def mmap_platform():
    return build_platform(_config(data_plane="mmap", build_chunk_rows=911))


class _KeepingAnalyzer(MicroblogAnalyzer):
    """Keeps every query context it builds, for inspection after the run."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.contexts = []

    def _build_oracle(self, context, run_rng):
        self.contexts.append(context)
        return super()._build_oracle(context, run_rng)


def _observe(platform, algorithm, stack, enabled, query, budget, seed, **config):
    """One traced, metered run; returns everything the switch must not move."""
    plan, policy = STACKS[stack]
    obs = Observability(trace_sink=RecordingSink(), metrics=MetricsRegistry())
    with kernel_switch(enabled):
        analyzer = _KeepingAnalyzer(
            platform, algorithm=algorithm, seed=seed, fault_plan=plan,
            retry_policy=policy, obs=obs, **config,
        )
        result = analyzer.estimate(query, budget=budget)
    (context,) = analyzer.contexts
    assert (context.kernel is not None) == enabled
    client = context.client
    faults = client.inner.inner
    assert isinstance(faults, FaultInjectingClient)
    counters = {
        name: value
        for name, value in obs.metrics.snapshot()["counters"].items()
        if not name.startswith(GUARDS)
    }
    return dict(
        value=result.value,
        cost_by_kind=result.cost_by_kind,
        trace_points=result.trace,
        diagnostics=result.diagnostics,
        cache=(client.hits, client.misses, client.uncacheable),
        injected=dict(faults.injected),
        counters=counters,
        histograms=obs.metrics.snapshot()["histograms"],
        trace="\n".join(trace_lines(obs.trace_records())),
    )


@pytest.mark.parametrize("algorithm", ["ma-tarw", "ma-srw", "wnw"])
@pytest.mark.parametrize("plane", ["frozen", "mmap"])
@pytest.mark.parametrize("stack", list(STACKS))
def test_fault_stack_kernel_matches_layered(request, stack, plane, algorithm):
    platform = request.getfixturevalue(f"{plane}_platform")
    key = {"ma-tarw": "tarw_config", "wnw": "wnw_config"}.get(algorithm, "srw_config")
    config = {key: golden_estimator_config(algorithm), "interval": DAY}
    runs = [
        _observe(
            platform, algorithm, stack, enabled, golden_query(),
            GOLDEN_BUDGETS[algorithm], GOLDEN_WALK_SEED, **config,
        )
        for enabled in (False, True)
    ]
    layered, kernel = runs
    assert sum(layered["injected"].values()) > 0  # the stack really faulted
    for field in layered:
        assert kernel[field] == layered[field], field


# ----------------------------------------------------------------------
# the breaker case: degraded partial timelines
# ----------------------------------------------------------------------
def test_breaker_partial_first_mentions_kept_exactly(tiny_platform):
    """``hostile`` behind a breaker that opens, budget 1,000: the run is
    served partial timelines after exhausted retries.  The kernel reads
    each partial page's first mention from its rows and memoises it,
    exactly as the layered reader does — same memo, same bill, same trace
    (the memoised partial answer itself is a known, separate issue)."""
    memos = []
    runs = []
    for enabled in (False, True):
        obs = Observability(trace_sink=RecordingSink(), metrics=MetricsRegistry())
        with kernel_switch(enabled):
            analyzer = _KeepingAnalyzer(
                tiny_platform, algorithm="ma-tarw", seed=0, fault_plan=HOSTILE,
                retry_policy=BREAKER, obs=obs,
            )
            result = analyzer.estimate(avg_of("privacy", FOLLOWERS), budget=1_000)
        (context,) = analyzer.contexts
        memos.append(dict(context._first_mentions))
        degraded = Counter(
            (record["api"], record["source"])
            for record in obs.trace_records()
            if record["name"] == "api.degraded"
        )
        runs.append(
            (
                result.value, result.cost_by_kind, result.diagnostics, degraded,
                "\n".join(trace_lines(obs.trace_records())),
            )
        )
    assert runs[1] == runs[0]
    assert memos[1] == memos[0]
    assert runs[0][3][("timeline", "partial")] == 6


# ----------------------------------------------------------------------
# budget exhaustion mid-neighbourhood on a faulted stack
# ----------------------------------------------------------------------
def _exhausted_batch(platform, enabled, budget):
    """Resolve a large neighbourhood's first mentions through a hostile
    stack whose budget runs out part-way; returns the state left behind."""
    obs = Observability(trace_sink=RecordingSink(), metrics=MetricsRegistry())
    plan = dataclasses.replace(HOSTILE, seed=3)
    with kernel_switch(enabled):
        sim = SimulatedMicroblogClient(platform, budget=budget, obs=obs)
        obs.bind_clock(sim.clock)
        faults = FaultInjectingClient(sim, plan, obs=obs)
        resilient = ResilientClient(faults, obs=obs)
        client = CachingClient(resilient, obs=obs)
        context = QueryContext(client, count_users("privacy"), obs=obs)
        assert (context.kernel is not None) == enabled
        users = list(range(0, 600, 2))
        with pytest.raises(BudgetExhaustedError):
            context.first_mentions(users)
    counters = {
        name: value
        for name, value in obs.metrics.snapshot()["counters"].items()
        if not name.startswith(GUARDS)
    }
    return dict(
        memo=dict(context._first_mentions),
        bill=sim.meter.by_kind(),
        retries=resilient.retries,
        attempts=dict(faults._attempts),
        consecutive=dict(faults._consecutive),
        injected=dict(faults.injected),
        cache=(client.hits, client.misses, client.uncacheable),
        counters=counters,
        trace="\n".join(trace_lines(obs.trace_records())),
    )


def test_budget_exhaustion_mid_neighbourhood_leaves_layered_prefix(tiny_platform):
    layered = _exhausted_batch(tiny_platform, False, budget=120)
    kernel = _exhausted_batch(tiny_platform, True, budget=120)
    assert 0 < len(layered["memo"]) < 300  # really stopped part-way
    assert layered["retries"] > 0
    for field in layered:
        assert kernel[field] == layered[field], field


# ----------------------------------------------------------------------
# first mentions of a needle with and without a first-mention column
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tagged_platform():
    """A frozen platform where some posts carry ``privacy`` plus
    ``zebra``, a needle with no first-mention column of its own."""
    legacy = build_platform(
        PlatformConfig(
            num_users=300, keywords=tiny_keywords(), background_posts_mean=6.0,
            seed=11, data_plane="legacy",
        )
    )
    store = legacy.store
    for user_id in range(0, 300, 7):
        timeline = store.timeline(user_id)
        when = timeline[len(timeline) // 2].timestamp if timeline else 1.0
        store.add_post(
            Post(store.new_post_id(), user_id, when, keywords=make_keywords("privacy", "zebra"))
        )
    return SimulatedPlatform(
        config=legacy.config,
        store=FrozenStore.from_store(store),
        clock=SimulatedClock(legacy.clock.now()),
        cascades=legacy.cascades,
    )


@pytest.mark.parametrize("keyword,log_exact", [("privacy", True), ("zebra", False)])
def test_fault_stack_first_mentions_with_and_without_a_column(
    tagged_platform, keyword, log_exact
):
    """On a hostile stack the kernel answers a user missing from the
    keyword's first-mention column with None only when that column is
    exact; a needle without one reads every returned page.  Either way
    the memo, bill and trace equal the layered path's."""
    runs = []
    for enabled in (False, True):
        obs = Observability(trace_sink=RecordingSink(), metrics=MetricsRegistry())
        with kernel_switch(enabled):
            sim = SimulatedMicroblogClient(tagged_platform, obs=obs)
            obs.bind_clock(sim.clock)
            client = CachingClient(
                ResilientClient(FaultInjectingClient(sim, HOSTILE, obs=obs), obs=obs), obs=obs
            )
            context = QueryContext(client, count_users(keyword), obs=obs)
            if enabled:
                assert context.kernel._log_exact is log_exact
            context.first_mentions(list(range(300)))
        runs.append(
            (
                dict(context._first_mentions), sim.meter.by_kind(),
                "\n".join(trace_lines(obs.trace_records())),
            )
        )
    assert runs[1] == runs[0]
    assert sum(t is not None for t in runs[0][0].values()) >= 300 // 7
