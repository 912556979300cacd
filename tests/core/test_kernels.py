"""Compiled-kernel tier: the kernel must be invisible except in speed.

Pins the :mod:`repro.core.kernels` contract:

* **Golden-matrix bit-identity** — kernel-on vs kernel-off (the fully
  layered path) runs produce byte-equal canonical traces (and equal
  values / CostMeter columns) across walker (MA-TARW / MA-SRW /
  Walk-Not-Wait) × workers (serial / 3) × fault profile (clean /
  hostile) × data plane (frozen / mmap).  Hostile stacks resolve the
  kernel too, reading row pages through the fault and resilient layers.
* **Resolution rules** — clean caching stacks and the recognised
  fault/resilient stacks resolve (with counters); unrecognised stacks
  and either process-wide switch fall back to the fully layered path
  with the documented reason labels.
* **One walk engine** — traced and dark runs execute the same instance
  runner, and the configs that once forced the interpreted instance
  loop (intra-edge retention, the paper combine, ESTIMATE-p) stay
  bit-identical kernel-on vs kernel-off.
* **Eq. 6 DP equivalence** — the incremental evaluator, fed in any
  classification order, reproduces the interpreted dict recursion bit
  for bit on hypothesis-generated level DAGs (never-classified and
  level-less partners, zero-mass nodes, empty seed sets included).
* **Dead-end memo** — budget-exhausting MA-TARW runs whose aborts replay
  from the memo equal a memo-free runner in value, the whole bill
  (``retries`` included), diagnostics, cache counters, metrics and trace
  bytes, on both configurations and behind the ``hostile`` and
  ``unstable`` fault profiles and a retry policy too weak to heal.
* **Capped first-mention** — the columnar capped-window resolution
  matches the slow per-view answer over random columns (ties, empty
  timelines, absent keywords, multi-keyword extras) and end-to-end on a
  capped platform, charges and cache counters included.
"""

from __future__ import annotations

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.api.client import CachingClient, SimulatedMicroblogClient
from repro.api.fastpath import set_fast_path_enabled
from repro.api.faults import FAULT_PROFILES, FaultInjectingClient, FaultPlan
from repro.api.resilient import ResilientClient, RetryPolicy
from repro.core.analyzer import MicroblogAnalyzer
from repro.core.graph_builder import LevelByLevelOracle, QueryContext
from repro.core.kernels import (
    first_mention_from_columns,
    kernel_enabled,
    set_kernel_enabled,
)
from repro.core.levels import LevelIndex
from repro.core.query import count_users
from repro.core.tarw import MATARWEstimator, TARWConfig, _DPGraphState
from repro.errors import BudgetExhaustedError
from repro.obs import Observability
from repro.obs.export import trace_lines
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RecordingSink
from repro.platform.clock import DAY
from repro.platform.profiles import PlatformProfile
from repro.platform.simulator import PlatformConfig, build_platform
from tests.conftest import tiny_keywords
from tests.obs.conftest import (
    GOLDEN_PLATFORM,
    GOLDEN_WALK_SEED,
    golden_estimator_config,
    golden_query,
    golden_run,
)

try:  # property tests degrade gracefully without hypothesis
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI always has hypothesis
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.kernels

KEYWORD = "privacy"


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
    # Small chunk size: the streaming build crosses many chunk boundaries
    # even on this small platform (same recipe as the outofcore tier).
    return build_platform(_config(data_plane="mmap", build_chunk_rows=911))


def _stack(platform, budget=None):
    client = CachingClient(SimulatedMicroblogClient(platform, budget=budget))
    return client, QueryContext(client, count_users(KEYWORD))


# ----------------------------------------------------------------------
# golden-matrix bit-identity: workers × faults × data planes
# ----------------------------------------------------------------------
def _traced_run(platform, algorithm, n_workers, fault_plan, enabled):
    with kernel_switch(enabled):
        obs = Observability(trace_sink=RecordingSink())
        result = golden_run(
            platform, algorithm, n_workers=n_workers, obs=obs, fault_plan=fault_plan
        )
    return result, "\n".join(trace_lines(obs.trace_records())) + "\n"


@pytest.mark.parametrize("algorithm", ["ma-tarw", "ma-srw", "wnw"])
@pytest.mark.parametrize("plane", ["frozen", "mmap"])
@pytest.mark.parametrize("n_workers", [None, 3], ids=["serial", "workers3"])
@pytest.mark.parametrize("faults", [None, "hostile"], ids=["clean", "hostile"])
def test_kernel_traces_bit_identical(
    request, algorithm, plane, n_workers, faults
):
    platform = request.getfixturevalue(f"{plane}_platform")
    fault_plan = FAULT_PROFILES[faults] if faults else None
    off_result, off_text = _traced_run(
        platform, algorithm, n_workers, fault_plan, enabled=False
    )
    on_result, on_text = _traced_run(
        platform, algorithm, n_workers, fault_plan, enabled=True
    )
    assert on_result.value == off_result.value
    assert on_result.cost_total == off_result.cost_total
    assert on_result.cost_by_kind == off_result.cost_by_kind
    assert on_text == off_text


@pytest.mark.parametrize("algorithm", ["ma-tarw", "ma-srw"])
@pytest.mark.parametrize("plane", ["frozen", "mmap"])
def test_untraced_kernel_run_matches_interpreted(request, algorithm, plane):
    """Observability-off identity: the golden-trace matrix above runs
    traced, so this pins the same runner with every telemetry hook off.
    """
    platform = request.getfixturevalue(f"{plane}_platform")
    with kernel_switch(False):
        off = golden_run(platform, algorithm)
    with kernel_switch(True):
        on = golden_run(platform, algorithm)
    assert on.value == off.value
    assert on.cost_total == off.cost_total
    assert on.cost_by_kind == off.cost_by_kind
    assert on.trace == off.trace


@pytest.mark.parametrize(
    "switch", [set_kernel_enabled, set_fast_path_enabled], ids=["kernel", "fastpath"]
)
def test_wnw_probes_reuse_prepaid_timelines(tiny_platform, switch):
    """Interval pilots on the clean stack pay for timelines without
    materialising them; Walk-Not-Wait's probes must treat those as
    cached, like the layered path's materialised views, so neither
    switch moves the bill."""

    def run(enabled):
        previous = switch(enabled)
        try:
            analyzer = MicroblogAnalyzer(
                tiny_platform, algorithm="wnw", interval="auto", seed=GOLDEN_WALK_SEED
            )
            return analyzer.estimate(count_users(KEYWORD), budget=3_000)
        finally:
            switch(previous)

    layered, clean = run(False), run(True)
    assert clean.value is not None
    assert clean.value == layered.value
    assert clean.cost_by_kind == layered.cost_by_kind
    assert clean.diagnostics == layered.diagnostics


def test_traced_and_untraced_runs_share_one_runner(frozen_platform, monkeypatch):
    """Attaching telemetry binds hooks, not a different loop: every run —
    dark or traced, clean or fault stack — builds its discovery, walk
    and recount runners from the same closure code, and the traced answer
    equals the dark one.  The fault stack resolves a kernel too, but
    keeps the step-retry wrapper (not faultless)."""
    built = []
    build = MATARWEstimator._instance_runner

    def spy(self, phase):
        runner = build(self, phase)
        built.append((self.obs.enabled, self._faultless, phase, runner.__code__))
        return runner

    monkeypatch.setattr(MATARWEstimator, "_instance_runner", spy)
    dark = golden_run(frozen_platform, "ma-tarw")
    traced = golden_run(
        frozen_platform, "ma-tarw", obs=Observability(trace_sink=RecordingSink())
    )
    golden_run(
        frozen_platform, "ma-tarw", obs=Observability(trace_sink=RecordingSink()),
        fault_plan=FAULT_PROFILES["hostile"],
    )
    assert {entry[:3] for entry in built} == {
        (traced_, faultless, phase)
        for traced_, faultless in ((False, True), (True, True), (True, False))
        for phase in ("discovery", "walk", "recount")
    }
    assert len({entry[3] for entry in built}) == 1
    assert traced.value == dark.value
    assert traced.cost_by_kind == dark.cost_by_kind
    assert traced.trace == dark.trace


SHARED_LOOP_CONFIGS = {
    # Figure 4's partial intra-edge retention
    "keep-intra": dict(keep_intra_fraction=0.5),
    # Algorithm 3's printed combine (per-instance path capture)
    "paper-combine": dict(
        tarw_config=dataclasses.replace(
            golden_estimator_config("ma-tarw"), combine="paper"
        )
    ),
    # Algorithm 2's sampled probabilities (per-visit pool refresh)
    "estimate-p": dict(
        tarw_config=dataclasses.replace(
            golden_estimator_config("ma-tarw"), p_method="estimate", pool_min_samples=16
        )
    ),
}


@pytest.mark.parametrize("name", sorted(SHARED_LOOP_CONFIGS))
def test_shared_loop_configs_bit_identical(frozen_platform, name):
    """Configs whose hooks (intra-edge retention, path capture, pool
    refresh) ride the one runner: kernel-on ≡ kernel-off in value, bill
    and trace bytes."""

    def run(enabled):
        kwargs = dict(SHARED_LOOP_CONFIGS[name])
        kwargs.setdefault("tarw_config", golden_estimator_config("ma-tarw"))
        metrics = MetricsRegistry()
        obs = Observability(trace_sink=RecordingSink(), metrics=metrics)
        with kernel_switch(enabled):
            analyzer = MicroblogAnalyzer(
                frozen_platform, algorithm="ma-tarw", interval=DAY,
                seed=GOLDEN_WALK_SEED, obs=obs, **kwargs,
            )
            result = analyzer.estimate(golden_query(), budget=800)
        text = "\n".join(trace_lines(obs.trace_records())) + "\n"
        return result, text, metrics.snapshot()["counters"]

    off, off_text, off_counters = run(False)
    on, on_text, on_counters = run(True)
    assert on_counters.get("kernel.resolved", 0) >= 1
    assert "kernel.resolved" not in off_counters
    assert on.value is not None
    assert on.value == off.value
    assert on.cost_by_kind == off.cost_by_kind
    assert on_text == off_text


# ----------------------------------------------------------------------
# resolution rules + guard counters
# ----------------------------------------------------------------------
class TestResolution:
    def test_clean_stack_resolves_with_counters(self, tiny_platform):
        metrics = MetricsRegistry()
        client = CachingClient(SimulatedMicroblogClient(tiny_platform))
        context = QueryContext(
            client, count_users(KEYWORD), obs=Observability(metrics=metrics)
        )
        assert context.kernel is not None
        counters = metrics.snapshot()["counters"]
        assert counters["kernel.resolved"] == 1
        assert not any(key.startswith("kernel.fallback") for key in counters)

    @pytest.mark.parametrize(
        "switch, reason",
        [(set_kernel_enabled, "disabled"), (set_fast_path_enabled, "no-fastpath")],
        ids=["kernel", "fastpath"],
    )
    def test_switch_disables_resolution(self, tiny_platform, switch, reason):
        """Either switch alone puts the context on the fully layered path."""
        metrics = MetricsRegistry()
        previous = switch(False)
        try:
            client = CachingClient(SimulatedMicroblogClient(tiny_platform))
            context = QueryContext(
                client, count_users(KEYWORD), obs=Observability(metrics=metrics)
            )
        finally:
            switch(previous)
        assert context.fast is None and context.kernel is None
        counters = metrics.snapshot()["counters"]
        assert counters[f"kernel.fallback{{reason={reason}}}"] == 1

    def test_env_switch_disables(self, tiny_platform, monkeypatch):
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        assert not kernel_enabled()
        _, context = _stack(tiny_platform)
        assert context.kernel is None

    @pytest.mark.chaos
    def test_fault_stack_resolves(self, tiny_platform):
        metrics = MetricsRegistry()
        sim = SimulatedMicroblogClient(tiny_platform)
        client = CachingClient(
            ResilientClient(FaultInjectingClient(sim, FaultPlan(seed=5)))
        )
        context = QueryContext(
            client, count_users(KEYWORD), obs=Observability(metrics=metrics)
        )
        assert context.fast is not None and context.kernel is not None
        assert not context.kernel.faultless
        counters = metrics.snapshot()["counters"]
        assert counters["kernel.resolved"] == 1
        assert not any(key.startswith("kernel.fallback") for key in counters)

    @pytest.mark.chaos
    def test_unrecognised_stack_falls_back(self, tiny_platform):
        metrics = MetricsRegistry()
        sim = SimulatedMicroblogClient(tiny_platform)
        client = CachingClient(FaultInjectingClient(sim, FaultPlan(seed=5)))
        context = QueryContext(
            client, count_users(KEYWORD), obs=Observability(metrics=metrics)
        )
        assert context.fast is None and context.kernel is None
        counters = metrics.snapshot()["counters"]
        assert counters["kernel.fallback{reason=no-fastpath}"] == 1
        assert counters["fastpath.fallback{reason=layered-stack}"] == 1

    def test_mmap_plane_gets_prefetcher(self, mmap_platform, tiny_platform):
        _, mmap_ctx = _stack(mmap_platform)
        _, ram_ctx = _stack(tiny_platform)
        assert mmap_ctx.kernel is not None and mmap_ctx.kernel.prefetcher is not None
        assert ram_ctx.kernel is not None and ram_ctx.kernel.prefetcher is None


# ----------------------------------------------------------------------
# capped timelines: columnar window resolution ≡ layered fetch
# ----------------------------------------------------------------------
SMALL_TARW = TARWConfig(
    discovery_instances=100, final_recount_instances=300, max_instances=400,
    stall_instances=50,
)


def _estimate(platform, enabled, budget=1_500):
    with kernel_switch(enabled):
        client, context = _stack(platform, budget=budget)
        oracle = LevelByLevelOracle(context, LevelIndex(interval=DAY))
        estimator = MATARWEstimator(context, oracle, config=SMALL_TARW, seed=3)
        result = estimator.estimate()
    return result, client, context


class TestCappedTimelines:
    def test_capped_run_bit_identical_with_detours(self, tiny_platform):
        capped = tiny_platform.with_profile(
            dataclasses.replace(tiny_platform.profile, timeline_cap=2)
        )
        store = capped.store
        assert any(store.timeline_length(u) > 2 for u in store.user_ids()[:500])
        off, off_client, off_ctx = _estimate(capped, enabled=False)
        on, on_client, on_ctx = _estimate(capped, enabled=True)
        assert off_ctx.kernel is None and on_ctx.kernel is not None
        assert on.value == off.value
        assert on.cost_total == off.cost_total
        assert on.cost_by_kind == off.cost_by_kind
        assert on.trace == off.trace
        assert (on_client.hits, on_client.misses) == (
            off_client.hits, off_client.misses
        )

    def test_columns_match_view_answers(self, tiny_platform):
        """Sweep: column resolution == the capped TimelineView answer for
        every user × keyword (present, other, absent) × cap."""
        for cap in (None, 1, 3):
            profile = dataclasses.replace(tiny_platform.profile, timeline_cap=cap)
            platform = tiny_platform.with_profile(profile)
            store = platform.store
            client = SimulatedMicroblogClient(platform)
            for keyword in ("privacy", "boston", "absentword"):
                codes = store.matching_keyword_codes(keyword)
                extras = store.matching_extra_post_ids(keyword)
                for user_id in store.user_ids()[:120]:
                    expected = client.user_timeline(user_id).first_mention_time(keyword)
                    got = first_mention_from_columns(store, codes, extras, user_id, cap)
                    assert got == expected, (keyword, user_id, cap)


# ----------------------------------------------------------------------
# budget exhaustion: dead-end replays ≡ re-running the classifier
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class FreeConnectionsProfile(PlatformProfile):
    """Connections pages cost zero calls, so a connections miss succeeds
    at any spend: a budget-rejected classification still fills the
    connections cache (and traces a zero-call ``api.call``)."""

    def calls_for_items(self, items: int, page_size: int) -> int:
        if page_size == self.connections_page_size:
            return 0
        return super().calls_for_items(items, page_size)


def memo_free_fetch(self, lookup):
    """The memo-free runner: a ``_dead_end_fetch`` stand-in that re-runs
    every classification and only maps the budget rejection to None."""

    def fetch(node):
        try:
            return lookup(node)
        except BudgetExhaustedError:
            return None

    return fetch


def _exhausting_run(
    platform, enabled, traced, budget, memo=True, seed=3, prewarm=(),
    faults=None, retry_policy=None,
):
    """Default-config MA-TARW on a budget it runs out of, with the
    dead-end memo on or replaced by :func:`memo_free_fetch`.

    Returns what the memo must not change (value, the whole bill with its
    ``retries`` column, trace points, diagnostics, the caching client's
    hits, misses and uncacheable count, metrics counters minus the
    ``kernel.*`` resolution guards, trace bytes), the budget the final
    recount spent, and the ``(query total, deltas)`` of every replayed
    dead end.  *prewarm* timelines are fetched through the caching client
    first, so classification batches find them as cache hits.  *faults*
    names a fault profile (seed 5) behind a resilient layer."""
    obs = (
        Observability(trace_sink=RecordingSink(), metrics=MetricsRegistry())
        if traced
        else Observability()
    )
    replayed = []
    recount_spend = []
    replay = CachingClient.replay_failure
    recount = MATARWEstimator._final_recount

    def spy_replay(self, deltas):
        replayed.append((self.meter.query_total, deltas))
        replay(self, deltas)

    def spy_recount(self):
        before = self._cost()
        recounted = recount(self)
        recount_spend.append(self._cost() - before)
        return recounted

    with contextlib.ExitStack() as stack:
        stack.enter_context(kernel_switch(enabled))
        stack.enter_context(mock.patch.object(CachingClient, "replay_failure", spy_replay))
        stack.enter_context(
            mock.patch.object(MATARWEstimator, "_final_recount", spy_recount)
        )
        if not memo:
            stack.enter_context(
                mock.patch.object(MATARWEstimator, "_dead_end_fetch", memo_free_fetch)
            )
        sim = SimulatedMicroblogClient(platform, budget=budget, obs=obs)
        obs.bind_clock(sim.clock)
        inner = sim
        if faults is not None:
            plan = dataclasses.replace(FAULT_PROFILES[faults], seed=5)
            inner = ResilientClient(FaultInjectingClient(sim, plan, obs=obs), retry_policy, obs=obs)
        client = CachingClient(inner, obs=obs)
        for user_id in prewarm:
            client.user_timeline(user_id)
        context = QueryContext(client, count_users(KEYWORD), obs=obs)
        oracle = LevelByLevelOracle(context, LevelIndex(interval=DAY))
        result = MATARWEstimator(context, oracle, seed=seed).estimate()
    assert (context.kernel is not None) == enabled
    observed = dict(
        value=result.value,
        cost_total=result.cost_total,
        cost_by_kind=result.cost_by_kind,
        trace_points=result.trace,
        diagnostics=result.diagnostics,
        cache=(client.hits, client.misses, client.uncacheable),
    )
    if traced:
        observed["counters"] = {
            key: value
            for key, value in obs.metrics.snapshot()["counters"].items()
            if not key.startswith("kernel.")
        }
        observed["trace"] = "\n".join(trace_lines(obs.trace_records())) + "\n"
    return observed, recount_spend[0], replayed


EXHAUSTION_CASES = {
    # the walk spends the budget to exactly 0
    "spent-to-zero": dict(budget=1_000),
    # two-user connection pages make some classifications cost more than
    # the calls left: dead ends replay while cheaper nodes (in the recount
    # too) still charge, so the query total moves past confirmed entries
    "budget-left-over": dict(budget=3_500, seed=1, profile=dict(connections_page_size=2)),
    # capped users fail through the kernel's capped-window resolution
    "capped-timelines": dict(budget=600, profile=dict(timeline_cap=2)),
    # refused requests stop before the fault dice, so a faulted stack's
    # dead ends are pure cache walks too (and replay)
    "hostile": dict(budget=1_000, faults="hostile"),
    "unstable": dict(budget=1_500, seed=1, faults="unstable"),
    # too few attempts to heal every fault, and a breaker that trips (with
    # no cooldown, so the walk goes on): the failures that burn retries or
    # serve degraded pages are never replayed, the others still are
    "weak-retries": dict(
        budget=1_000,
        faults="hostile",
        retry_policy=RetryPolicy(max_attempts=3, breaker_threshold=3, breaker_cooldown=0.0),
    ),
}


@pytest.mark.parametrize("traced", [False, True], ids=["dark", "traced"])
@pytest.mark.parametrize("case", sorted(EXHAUSTION_CASES))
def test_dead_end_replays_match_interpreted(tiny_platform, case, traced):
    """Memo-on ≡ the memo-free runner, which re-runs (interprets) every
    classification, on both configurations (layered, fast path + kernel)."""
    spec = dict(EXHAUSTION_CASES[case])
    platform = tiny_platform
    profile = spec.pop("profile", None)
    if profile is not None:
        platform = platform.with_profile(dataclasses.replace(platform.profile, **profile))
    budget = spec["budget"]
    for enabled in (False, True):
        free, free_spend, free_replayed = _exhausting_run(
            platform, enabled, traced, memo=False, **spec
        )
        on, on_spend, on_replayed = _exhausting_run(platform, enabled, traced, **spec)
        assert free_replayed == []  # the memo-free runner classifies every attempt
        assert on_replayed, "no dead end replayed: the case no longer exercises the memo"
        assert on == free
        assert on_spend == free_spend
        if case == "spent-to-zero":
            assert on["cost_total"] == budget
        elif case == "budget-left-over":
            assert on["cost_total"] < budget
            assert on_spend > 0
            assert min(spent for spent, _ in on_replayed) < on["cost_total"]
        elif case == "capped-timelines":
            assert any(misses for _, (_, misses) in on_replayed)
        elif case == "weak-retries":
            assert on["cache"][2] > 0  # degraded pages were served uncached


@pytest.mark.parametrize("traced", [False, True], ids=["dark", "traced"])
def test_first_failure_with_side_effects_is_not_replayed(tiny_platform, traced):
    """A first failure that memoises cache-hit prefix users and fills the
    connections cache through a zero-call charge changes the next
    attempt's footprint (hits and misses move), so only the later,
    identical failures may replay — on both configurations."""
    profile = FreeConnectionsProfile(**dataclasses.asdict(tiny_platform.profile))
    platform = tiny_platform.with_profile(profile)
    users, _ = platform.store.first_mention_arrays(KEYWORD)
    prewarm = users.tolist()[::2]
    spec = dict(budget=len(prewarm) + 300, prewarm=prewarm)
    for enabled in (False, True):
        free, _, _ = _exhausting_run(platform, enabled, traced, memo=False, **spec)
        on, _, on_replayed = _exhausting_run(platform, enabled, traced, **spec)
        assert on_replayed
        assert on == free
        if traced:
            assert '"calls":0' in on["trace"]


# ----------------------------------------------------------------------
# Eq. 6 DP: incremental evaluator ≡ interpreted dict recursion
# ----------------------------------------------------------------------
class FakeDPOracle:
    """Just enough oracle surface for :func:`interpreted_dp`."""

    def __init__(self, levels, up, down):
        self._levels = levels
        self._up = up
        self._down = down

    def classified_nodes(self):
        return list(self._levels)

    def level_of(self, user_id):
        return self._levels.get(user_id)

    def up_neighbors(self, user_id):
        return self._up[user_id]

    def down_neighbors(self, user_id):
        return self._down[user_id]


def interpreted_dp(oracle, seed_set, seed_count):
    """Eq. 6 as a level-sorted dict recursion over the classified nodes:
    the reference the incremental evaluator must reproduce bit for bit."""
    nodes = [u for u in oracle.classified_nodes() if oracle.level_of(u) is not None]
    classified = set(nodes)
    level = {u: oracle.level_of(u) for u in nodes}
    start = 1.0 / seed_count if seed_count else 0.0
    p_up = {}
    for u in sorted(nodes, key=lambda n: -level[n]):
        value = start if u in seed_set else 0.0
        for v in oracle.down_neighbors(u):
            if v in classified and p_up.get(v, 0.0) > 0.0:
                value += p_up[v] / len(oracle.up_neighbors(v))
        p_up[u] = value
    p_down = {}
    for u in sorted(nodes, key=lambda n: level[n]):
        ups = oracle.up_neighbors(u)
        if not ups:
            p_down[u] = p_up[u]
            continue
        value = 0.0
        for v in ups:
            if v in classified and p_down.get(v, 0.0) > 0.0:
                value += p_down[v] / len(oracle.down_neighbors(v))
        p_down[u] = value
    return p_up, p_down


if HAVE_HYPOTHESIS:

    @st.composite
    def dp_instances(draw):
        n = draw(st.integers(1, 10))
        nodes = draw(
            st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True)
        )
        # None: classified with no level (no visible mention)
        levels = {u: draw(st.one_of(st.none(), st.integers(0, 3))) for u in nodes}
        live = [u for u in nodes if levels[u] is not None]
        dead = [u for u in nodes if levels[u] is None]
        up = {u: [] for u in nodes}
        down = {u: [] for u in nodes}
        ghost = max(nodes) + 1
        for i, u in enumerate(live):
            for v in live[i + 1 :]:
                if levels[u] == levels[v] or not draw(st.booleans()):
                    continue
                lo, hi = (u, v) if levels[u] < levels[v] else (v, u)
                down[lo].append(hi)  # hi is at a later (larger) level
                up[hi].append(lo)
            # Partners that carry no mass but inflate the degree (the DP
            # divides by *full* list lengths): one that never classifies,
            # and one that classifies with no level.
            if draw(st.booleans()):
                (up if draw(st.booleans()) else down)[u].append(ghost)
                ghost += 1
            if dead and draw(st.booleans()):
                (up if draw(st.booleans()) else down)[u].append(
                    draw(st.sampled_from(dead))
                )
        order = draw(st.permutations(nodes))  # classification order
        seeds = frozenset(u for u in nodes if draw(st.booleans()))
        return order, levels, up, down, seeds

    @pytest.mark.property
    @settings(max_examples=80, deadline=None)
    @given(instance=dp_instances())
    def test_dp_passes_match_interpreted(instance):
        """After every classification, the incremental tables equal the
        dict recursion over the nodes classified so far."""
        order, levels, up, down, seeds = instance
        state = _DPGraphState()
        for k, node in enumerate(order):
            state.note_classified(node, levels[node], up[node], down[node])
            classified = FakeDPOracle({u: levels[u] for u in order[: k + 1]}, up, down)
            expected = interpreted_dp(classified, seeds, len(seeds))
            # dict equality: exact floats, same keys
            assert state.tables(seeds, len(seeds)) == expected

    @pytest.mark.property
    @settings(max_examples=60, deadline=None)
    @given(
        timelines=st.lists(
            st.lists(
                st.tuples(
                    st.floats(0.0, 1e6, allow_nan=False),  # time (ties allowed)
                    st.integers(0, 4),  # keyword code
                ),
                max_size=12,
            ),
            min_size=1,
            max_size=6,
        ),
        match_codes=st.sets(st.integers(0, 4), max_size=3),
        extra_count=st.integers(0, 2),
        cap=st.sampled_from([None, 1, 2, 5]),
    )
    def test_first_mention_from_columns_matches_scan(
        timelines, match_codes, extra_count, cap
    ):
        times, codes, users = [], [], []
        rows_by_user = {}
        for user_id, posts in enumerate(timelines):
            start = len(times)
            for t, code in sorted(posts, key=lambda p: p[0]):
                times.append(t)
                codes.append(code)
                users.append(user_id)
            rows_by_user[user_id] = np.arange(start, len(times), dtype=np.int64)

        class FakeColumnStore:
            post_time = np.asarray(times, dtype=np.float64)
            post_keyword = np.asarray(codes, dtype=np.int64)
            post_id = np.arange(len(times), dtype=np.int64)

            def timeline_rows(self, user_id):
                return rows_by_user[user_id]

        store = FakeColumnStore()
        codes_arr = np.asarray(sorted(match_codes), dtype=np.int64)
        # first extra_count global rows get multi-keyword "extra" status
        extras = np.arange(min(extra_count, len(times)), dtype=np.int64)
        for user_id in rows_by_user:
            rows = rows_by_user[user_id]
            window = rows[-cap:] if cap is not None else rows
            expected = None
            for row in window.tolist():
                if codes[row] in match_codes or row < extra_count:
                    expected = float(times[row])
                    break
            got = first_mention_from_columns(store, codes_arr, extras, user_id, cap)
            assert got == expected, (user_id, cap)


def test_dp_empty_subgraph():
    state = _DPGraphState()
    assert state.tables(frozenset(), 0) == ({}, {})
    state.note_classified(7, None, (), ())  # classified, but no level
    assert state.tables(frozenset({7}), 1) == ({}, {})


def test_dp_one_sided_edge_passes_no_mass():
    """A degraded (partial) connections page can leave an edge in one
    endpoint's lists only.  The partner whose list in that direction is
    empty passes no mass over the edge instead of dividing by zero."""
    state = _DPGraphState()
    state.note_classified(1, 0, (), (2,))  # 1 lists 2 below it ...
    state.note_classified(2, 1, (), ())  # ... 2's page lost 1
    state.note_classified(3, 0, (), ())  # 3's page lost 4 ...
    state.note_classified(4, 1, (3,), ())  # ... 4 lists 3 above it
    p_up, p_down = state.tables(frozenset({2, 3}), 2)
    assert p_up == {1: 0.0, 2: 0.5, 3: 0.5, 4: 0.0}
    assert p_down == {1: 0.0, 2: 0.5, 3: 0.5, 4: 0.0}
