"""Regression suite for the flattened client fast path.

Pins the :mod:`repro.api.fastpath` contract: resolution rules (clean
stacks flatten, recognised fault/resilient stacks bind without
flattening, unrecognised stacks stay layered), bit-identical estimates and
accounting fast-vs-slow, the prepaid-timeline single-charge rule, the
once-per-(client, keyword) classification dedup across pilot candidates,
capped timelines, the DP epoch key, and the vectorised level
classification's scalar equivalence.
"""

import contextlib
import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.client import CachingClient, SimulatedMicroblogClient
from repro.api.fastpath import set_fast_path_enabled
from repro.api.faults import FaultInjectingClient, FaultPlan
from repro.api.resilient import ResilientClient
from repro.core.graph_builder import LevelByLevelOracle, QueryContext
from repro.core.interval import select_time_interval
from repro.core.levels import LevelIndex, QuantileLevelIndex
from repro.core.query import count_users
from repro.core.srw import MASRWEstimator
from repro.core.tarw import MATARWEstimator, TARWConfig
from repro.platform.clock import DAY

KEYWORD = "privacy"


@contextlib.contextmanager
def fast_path(enabled):
    previous = set_fast_path_enabled(enabled)
    try:
        yield
    finally:
        set_fast_path_enabled(previous)


def _stack(platform, budget=None, sim_cls=SimulatedMicroblogClient):
    client = CachingClient(sim_cls(platform, budget=budget))
    return client, QueryContext(client, count_users(KEYWORD))


SMALL_TARW = TARWConfig(
    discovery_instances=100, final_recount_instances=300, max_instances=400,
    stall_instances=50,
)


def _estimate(platform, algorithm, fast, budget=1_500, platform_mutator=None):
    with fast_path(fast):
        client, context = _stack(platform, budget=budget)
        if platform_mutator is not None:
            platform_mutator(context)
        oracle = LevelByLevelOracle(context, LevelIndex(interval=DAY))
        if algorithm == "ma-tarw":
            estimator = MATARWEstimator(context, oracle, config=SMALL_TARW, seed=3)
        else:
            estimator = MASRWEstimator(context, oracle, seed=3)
        result = estimator.estimate()
    return result, client, context, estimator


class TestResolution:
    def test_clean_stack_resolves(self, tiny_platform):
        _, context = _stack(tiny_platform)
        assert context.fast is not None
        assert context.fast.keyword == KEYWORD

    def test_switch_disables_resolution(self, tiny_platform):
        with fast_path(False):
            _, context = _stack(tiny_platform)
        assert context.fast is None

    def test_bare_sim_client_stays_layered(self, tiny_platform):
        client = SimulatedMicroblogClient(tiny_platform)
        context = QueryContext(client, count_users(KEYWORD))
        assert context.fast is None

    @pytest.mark.chaos
    def test_fault_stack_resolves(self, tiny_platform):
        """The fault stack binds the fast path, but not its flattening:
        requests still travel the fault and resilient layers."""
        plan = FaultPlan(seed=5, transient_rate=0.05)
        sim = SimulatedMicroblogClient(tiny_platform)
        client = CachingClient(ResilientClient(FaultInjectingClient(sim, plan)))
        context = QueryContext(client, count_users(KEYWORD))
        assert context.fast is not None and context.fast.sim is sim
        assert not context.fast.faultless

    @pytest.mark.chaos
    def test_resilient_only_stack_resolves(self, tiny_platform):
        sim = SimulatedMicroblogClient(tiny_platform)
        client = CachingClient(ResilientClient(sim))
        context = QueryContext(client, count_users(KEYWORD))
        assert context.fast is not None and context.fast.sim is sim
        assert not context.fast.faultless

    @pytest.mark.chaos
    def test_unrecognised_stack_stays_layered(self, tiny_platform):
        """A fault layer straight under the cache (no resilient layer to
        heal it) is not a stack the kernel knows."""
        plan = FaultPlan(seed=5, transient_rate=0.05)
        sim = SimulatedMicroblogClient(tiny_platform)
        client = CachingClient(FaultInjectingClient(sim, plan))
        context = QueryContext(client, count_users(KEYWORD))
        assert context.fast is None


class TestBitIdentity:
    @pytest.mark.parametrize("algorithm", ["ma-tarw", "ma-srw"])
    def test_estimates_and_accounting_identical(self, tiny_platform, algorithm):
        slow, slow_client, slow_ctx, _ = _estimate(tiny_platform, algorithm, fast=False)
        fast, fast_client, fast_ctx, _ = _estimate(tiny_platform, algorithm, fast=True)
        assert slow_ctx.fast is None and fast_ctx.fast is not None
        assert fast.value == slow.value
        assert fast.cost_total == slow.cost_total
        assert fast.cost_by_kind == slow.cost_by_kind
        assert fast.trace == slow.trace
        assert (fast_client.hits, fast_client.misses) == (
            slow_client.hits, slow_client.misses
        )

    def test_memo_matches_slow_lookups(self, tiny_platform):
        """Batched column reads return exactly the per-user view answers."""
        _, fast_ctx = _stack(tiny_platform)
        with fast_path(False):
            _, slow_ctx = _stack(tiny_platform)
        store = tiny_platform.store
        users = store.user_ids()[:200]
        assert fast_ctx.first_mentions(users) == slow_ctx.first_mentions(users)
        assert fast_ctx._first_mentions == slow_ctx._first_mentions

    def test_capped_timelines_take_identical_slow_detour(self, tiny_platform):
        """A cap below some timeline lengths sends those users through the
        kernel's capped-window resolution; estimates and charges must not
        move."""
        capped = tiny_platform.with_profile(
            dataclasses.replace(tiny_platform.profile, timeline_cap=2)
        )
        store = capped.store
        assert any(store.timeline_length(u) > 2 for u in store.user_ids()[:500])
        slow, _, _, _ = _estimate(capped, "ma-tarw", fast=False)
        fast, _, _, _ = _estimate(capped, "ma-tarw", fast=True)
        assert fast.value == slow.value
        assert fast.cost_by_kind == slow.cost_by_kind

    def test_unknown_user_error_identical(self, tiny_platform):
        from repro.errors import APIError

        _, fast_ctx = _stack(tiny_platform)
        with fast_path(False):
            _, slow_ctx = _stack(tiny_platform)
        missing = max(tiny_platform.store.user_ids()) + 1
        with pytest.raises(APIError) as fast_err:
            fast_ctx.first_mention(missing)
        with pytest.raises(APIError) as slow_err:
            slow_ctx.first_mention(missing)
        assert str(fast_err.value) == str(slow_err.value)


class TestPrepaidTimelines:
    def test_prepay_charges_once_then_materialises_free(self, tiny_platform):
        sim = SimulatedMicroblogClient(tiny_platform)
        client = CachingClient(sim)
        twin = CachingClient(SimulatedMicroblogClient(tiny_platform))
        user = tiny_platform.store.user_ids()[0]
        slow_view = twin.user_timeline(user)
        charged = twin.meter.by_kind()["timeline"]
        assert charged > 0

        client.prepay_timeline(user, sim, charged)
        assert client.meter.by_kind() == twin.meter.by_kind()
        assert (client.hits, client.misses) == (0, 1)

        client.prepay_timeline(user, sim, charged)  # second prepay: pure hit
        assert client.meter.by_kind()["timeline"] == charged
        assert (client.hits, client.misses) == (1, 1)

        view = client.user_timeline(user)  # materialisation: hit, uncharged
        assert view == slow_view
        assert client.meter.by_kind()["timeline"] == charged
        assert (client.hits, client.misses) == (2, 1)


class CountingSim(SimulatedMicroblogClient):
    """Counts per-user timeline fetch charges through both serving paths."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.timeline_fetches = Counter()

    def user_timeline(self, user_id):
        self.timeline_fetches[user_id] += 1
        return super().user_timeline(user_id)

    def charge_timeline(self, user_id, calls):
        self.timeline_fetches[user_id] += 1
        super().charge_timeline(user_id, calls)


class TestCrossIntervalReuse:
    @pytest.mark.parametrize("fast", [False, True])
    def test_timeline_classified_at_most_once(self, tiny_platform, fast):
        """The regression pin for §4.2.3 pilot reuse: across *all*
        candidate intervals plus the final oracle, no user's timeline is
        fetched (charged) more than once per (client, keyword)."""
        with fast_path(fast):
            client, context = _stack(tiny_platform, sim_cls=CountingSim)
            assert (context.fast is not None) == fast
            selection = select_time_interval(context, pilot_repeats=2, seed=5)
            oracle = LevelByLevelOracle(
                context, LevelIndex(interval=selection.interval)
            )
            estimator = MATARWEstimator(context, oracle, config=SMALL_TARW, seed=7)
            estimator.estimate()
        sim = client.inner
        assert sim.timeline_fetches  # the run did classify users
        assert max(sim.timeline_fetches.values()) == 1


class UngatedTARW(MATARWEstimator):
    """Forgets the DP input fingerprint: every dirty check recomputes."""

    def _run_dp_if_dirty(self):
        self._dp_key = None
        super()._run_dp_if_dirty()


class TestDPEpochKey:
    def test_gated_run_matches_ungated_with_fewer_recomputes(self, tiny_platform):
        def run(cls):
            client, context = _stack(tiny_platform, budget=1_500)
            oracle = LevelByLevelOracle(context, LevelIndex(interval=DAY))
            estimator = cls(context, oracle, config=SMALL_TARW, seed=3)
            return estimator.estimate(), estimator

        gated_result, gated = run(MATARWEstimator)
        ungated_result, ungated = run(UngatedTARW)
        assert gated_result.value == ungated_result.value
        assert gated_result.cost_total == ungated_result.cost_total
        assert 1 <= gated._dp_recomputes <= ungated._dp_recomputes

    def test_unchanged_key_skips_recompute(self, tiny_platform):
        client, context = _stack(tiny_platform, budget=1_000)
        oracle = LevelByLevelOracle(context, LevelIndex(interval=DAY))
        estimator = MATARWEstimator(context, oracle, config=SMALL_TARW, seed=3)
        result = estimator.estimate()
        before = estimator._dp_recomputes
        estimator._dp_dirty = True  # dirty, but epoch and seeds unchanged
        assert estimator._recompute_value() == result.value
        assert estimator._dp_recomputes == before


class TestVectorisedLevels:
    @pytest.mark.property
    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
            min_size=1, max_size=40,
        ),
        interval=st.floats(min_value=1e-3, max_value=1e8),
        origin=st.floats(min_value=-1e9, max_value=1e9),
    )
    def test_fixed_width_matches_scalar(self, times, interval, origin):
        index = LevelIndex(interval=interval, origin=origin)
        batch = index.levels_of_array(np.array(times, dtype=np.float64)).tolist()
        assert batch == [index.level_of(t) for t in times]

    @pytest.mark.property
    @settings(max_examples=60, deadline=None)
    @given(
        boundaries=st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=1, max_size=10, unique=True,
        ),
        times=st.lists(
            st.floats(min_value=-2e9, max_value=2e9, allow_nan=False),
            min_size=1, max_size=40,
        ),
    )
    def test_quantile_matches_scalar(self, boundaries, times):
        index = QuantileLevelIndex(boundaries=tuple(sorted(boundaries)))
        batch = index.levels_of_array(np.array(times, dtype=np.float64)).tolist()
        assert batch == [index.level_of(t) for t in times]
