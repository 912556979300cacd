"""Chaos suite for the fault-injection + resilient client layers.

Pins the contracts that make injected faults *healable*: deterministic
seeded draws (memoised without moving one), exactly-once query charging,
budget-exempt retry accounting, deterministic backoff, circuit-breaker
degradation, and the poisoned-cache regression (degraded responses must
never be memoised).
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.api import faults, resilient
from repro.api.accounting import RETRIES
from repro.api.client import CachingClient, SimulatedMicroblogClient
from repro.api.faults import (
    FAULT_PROFILES,
    SEEDED_UNIFORM_CACHE,
    FaultInjectingClient,
    FaultPlan,
    seeded_uniform,
)
from repro.api.interface import MicroblogAPI, TimelineView
from repro.api.resilient import ResilientClient, RetryPolicy
from repro.errors import (
    APITimeoutError,
    BudgetExhaustedError,
    CircuitOpenError,
    ReproError,
    TransientAPIError,
    TruncatedResponseError,
)
from repro.core.analyzer import MicroblogAnalyzer
from repro.core.query import count_users
from repro.obs import MetricsRegistry, Observability
from repro.obs.export import metrics_json, trace_lines
from repro.obs.trace import RecordingSink

pytestmark = pytest.mark.chaos


def _posty_user(platform, min_posts=2):
    """First user whose timeline holds at least *min_posts* posts."""
    probe = SimulatedMicroblogClient(platform)
    for user_id in range(500):
        if len(probe.user_timeline(user_id).posts) >= min_posts:
            return user_id
    raise AssertionError("no sufficiently active user in the fixture platform")


def _stack(platform, plan=None, policy=None, budget=None):
    client = SimulatedMicroblogClient(platform, budget=budget)
    if plan is not None:
        client = FaultInjectingClient(client, plan)
    if plan is not None or policy is not None:
        client = ResilientClient(client, policy)
    return CachingClient(client)


# ----------------------------------------------------------------------
# FaultPlan: validation and determinism
# ----------------------------------------------------------------------
def test_fault_plan_validation():
    with pytest.raises(ReproError):
        FaultPlan(transient_rate=1.2)
    with pytest.raises(ReproError):
        FaultPlan(transient_rate=0.6, timeout_rate=0.3, truncate_rate=0.2)
    with pytest.raises(ReproError):
        FaultPlan(max_consecutive_faults=0)
    assert not FaultPlan().active
    assert FAULT_PROFILES["hostile"].transient_rate == 0.20
    for plan in FAULT_PROFILES.values():
        assert plan.fault_rate + plan.duplicate_rate <= 1.0


def test_fault_draws_are_order_independent(tiny_platform):
    """The same request sees the same faults regardless of what other
    requests ran before it — the property that makes shard interleaving
    and worker count irrelevant."""
    plan = FaultPlan(seed=3, transient_rate=0.4, timeout_rate=0.2)

    def fault_log(user_ids):
        client = FaultInjectingClient(SimulatedMicroblogClient(tiny_platform), plan)
        log = {}
        for user_id in user_ids:
            outcomes = []
            for _ in range(plan.max_consecutive_faults + 1):
                try:
                    client.user_connections(user_id)
                    outcomes.append("ok")
                    break
                except TransientAPIError as err:
                    outcomes.append(type(err).__name__)
            log[user_id] = tuple(outcomes)
        return log

    forward = fault_log([0, 1, 2, 3, 4])
    backward = fault_log([4, 3, 2, 1, 0])
    assert forward == backward
    assert any(o != ("ok",) for o in forward.values())  # faults actually fired


# ----------------------------------------------------------------------
# memoised draws: the same dice, read instead of re-seeded
# ----------------------------------------------------------------------
def _fresh_uniform(text: str) -> float:
    """The unmemoised draw: a new generator seeded with *text*."""
    return random.Random(text).random()


DRAW_KEYS = [
    ("timeline", 5, None),
    ("timeline", np.int64(5), None),
    ("connections", 1999, None),
    ("connections", np.int64(1999), None),
    ("search", "privacy", None),
    ("search", "boston", 100),
]


def _draw_texts():
    """Seed strings formatted as the fault and backoff draws format them."""
    return [
        text
        for seed in (0, 7, 2**32 - 1)
        for key in DRAW_KEYS
        for attempt in range(4)
        for text in (f"{seed}:{key!r}:{attempt}", f"{seed}:backoff:{key!r}:{attempt}")
    ]


def test_seeded_uniform_is_the_seeded_first_draw():
    texts = _draw_texts()
    expected = [_fresh_uniform(text) for text in texts]
    seeded_uniform.cache_clear()
    assert [seeded_uniform(text) for text in texts] == expected  # cold
    assert [seeded_uniform(text) for text in texts] == expected  # warm
    assert seeded_uniform.cache_info().hits >= len(texts)
    # An np.int64 id equals its int and hashes alike, but formats apart:
    # the memo is keyed on the string, so each keeps its own draw.
    assert np.int64(5) == 5 and hash(np.int64(5)) == hash(5)
    assert repr(DRAW_KEYS[0]) != repr(DRAW_KEYS[1])


def _fault_for(plan, u):
    """The fault a uniform *u* selects: the rates partition [0, 1)."""
    edge = 0.0
    for fault, rate in (
        ("transient", plan.transient_rate),
        ("timeout", plan.timeout_rate),
        ("truncate", plan.truncate_rate),
        ("duplicate", plan.duplicate_rate),
    ):
        edge += rate
        if u < edge:
            return fault
    return None


def test_fault_and_backoff_draws_read_the_exact_seed_string(tiny_platform):
    plan = FAULT_PROFILES["hostile"]
    policy = RetryPolicy(seed=9)
    client = FaultInjectingClient(SimulatedMicroblogClient(tiny_platform), plan)
    seeded_uniform.cache_clear()
    for _ in ("cold", "warm"):
        for key in DRAW_KEYS:
            for attempt in range(4):
                u = _fresh_uniform(f"{plan.seed}:{key!r}:{attempt}")
                assert client._draw(key, attempt) == _fault_for(plan, u)
                jitter = _fresh_uniform(f"{policy.seed}:backoff:{key!r}:{attempt}")
                base = min(policy.max_delay, policy.base_delay * policy.backoff_factor**attempt)
                assert policy.delay_for(key, attempt) == base * (
                    1.0 - policy.jitter + 2.0 * policy.jitter * jitter
                )


def test_seeded_uniform_memo_is_bounded():
    assert SEEDED_UNIFORM_CACHE == 1 << 16
    assert seeded_uniform.cache_info().maxsize == SEEDED_UNIFORM_CACHE


def _hostile_estimate(platform):
    obs = Observability(trace_sink=RecordingSink(), metrics=MetricsRegistry())
    analyzer = MicroblogAnalyzer(
        platform, algorithm="ma-tarw", seed=3, fault_plan=FAULT_PROFILES["hostile"], obs=obs
    )
    result = analyzer.estimate(count_users("privacy"), budget=1_500)
    return (
        result.value,
        result.cost_by_kind,
        metrics_json(obs.metrics),
        "\n".join(trace_lines(obs.trace_records())),
    )


def test_hostile_estimate_is_identical_cold_warm_and_unmemoised(tiny_platform, monkeypatch):
    """The memo moves no fault, retry, backoff, charge or trace event: a
    hostile MA-TARW estimate reads the same on a cold memo, a warm one,
    after ``cache_clear()`` and with every draw re-seeded afresh."""
    seeded_uniform.cache_clear()
    cold = _hostile_estimate(tiny_platform)
    warm = _hostile_estimate(tiny_platform)
    seeded_uniform.cache_clear()
    cleared = _hostile_estimate(tiny_platform)
    monkeypatch.setattr(faults, "seeded_uniform", _fresh_uniform)
    monkeypatch.setattr(resilient, "seeded_uniform", _fresh_uniform)
    unmemoised = _hostile_estimate(tiny_platform)
    assert cold == warm == cleared == unmemoised
    value, cost_by_kind, metrics, _ = cold
    assert value is not None and cost_by_kind[RETRIES] > 0
    assert '"faults.injected{fault=transient}"' in metrics


def test_max_consecutive_faults_guarantees_success(tiny_platform):
    plan = FaultPlan(seed=0, transient_rate=0.95, max_consecutive_faults=4)
    client = FaultInjectingClient(SimulatedMicroblogClient(tiny_platform), plan)
    failures = 0
    for _ in range(plan.max_consecutive_faults + 1):
        try:
            response = client.user_connections(0)
            break
        except TransientAPIError:
            failures += 1
    else:  # pragma: no cover - the cap guarantees we never get here
        pytest.fail("request never succeeded despite the consecutive-fault cap")
    assert failures <= plan.max_consecutive_faults
    assert response == tuple(SimulatedMicroblogClient(tiny_platform).user_connections(0))


def test_clean_response_charged_exactly_once(tiny_platform):
    """Failed attempts charge only the retries column; the query kinds
    see exactly one logical charge, as in a fault-free run."""
    plan = FaultPlan(seed=1, transient_rate=0.5, truncate_rate=0.3)
    client = _stack(tiny_platform, plan)
    baseline = _stack(tiny_platform)
    for user_id in range(20):
        assert client.user_connections(user_id) == baseline.user_connections(user_id)
    faulted = client.meter.by_kind()
    assert faulted.pop(RETRIES) > 0
    assert faulted == baseline.meter.by_kind()
    assert client.total_cost == baseline.total_cost  # retry-exempt cost metric


def test_timeout_and_truncation_raise_typed_errors(tiny_platform):
    timeout_plan = FaultPlan(seed=2, timeout_rate=1.0, max_consecutive_faults=1)
    client = FaultInjectingClient(SimulatedMicroblogClient(tiny_platform), timeout_plan)
    with pytest.raises(APITimeoutError):
        client.user_connections(0)

    truncate_plan = FaultPlan(seed=2, truncate_rate=1.0, max_consecutive_faults=1)
    client = FaultInjectingClient(SimulatedMicroblogClient(tiny_platform), truncate_plan)
    full = tuple(SimulatedMicroblogClient(tiny_platform).user_connections(0))
    with pytest.raises(TruncatedResponseError) as excinfo:
        client.user_connections(0)
    # The partial payload is a strict prefix of the clean response.
    assert excinfo.value.partial == full[: len(full) // 2]


def test_duplicates_leak_without_healing_and_heal_with_it(tiny_platform):
    plan = FaultPlan(seed=4, duplicate_rate=1.0)
    clean = tuple(SimulatedMicroblogClient(tiny_platform).user_connections(1))
    raw = FaultInjectingClient(SimulatedMicroblogClient(tiny_platform), plan)
    corrupted = raw.user_connections(1)
    assert len(corrupted) == len(clean) + 1  # one retransmitted row
    assert sorted(set(corrupted)) == sorted(clean)
    healed = _stack(tiny_platform, plan)
    assert healed.user_connections(1) == clean
    timeline = healed.user_timeline(1)
    baseline = _stack(tiny_platform).user_timeline(1)
    assert timeline == baseline

    # Clean pages pass healing untouched: the same timeline object, the
    # same connections tuple.
    heal = ResilientClient._heal
    view = SimulatedMicroblogClient(tiny_platform).user_timeline(_posty_user(tiny_platform, 3))
    assert heal("timeline", view) is view
    assert heal("connections", clean) == clean
    hits = tuple(SimulatedMicroblogClient(tiny_platform).search("privacy"))
    assert heal("search", hits) == hits
    # A duplicated page still dedupes stably: first occurrences, in order.
    posts = view.posts
    doubled = dataclasses.replace(view, posts=posts[1:2] + posts + posts[:1])
    assert heal("timeline", doubled).posts == posts[1:2] + posts[:1] + posts[2:]
    assert heal("connections", (clean[-1],) + clean) == clean
    assert heal("search", hits[1:2] + hits) == hits[1:2] + hits[:1] + hits[2:]


def test_budget_refused_request_stops_before_the_fault_dice(tiny_platform):
    """A request the budget refuses is refused before any fault is drawn:
    however often it is re-asked, no fault fires, no retry is charged, no
    backoff advances the clock and nothing is traced."""
    user_id = _posty_user(tiny_platform)
    others = range(20)
    probe = SimulatedMicroblogClient(tiny_platform)
    for other in others:
        probe.user_connections(other)
    spent = probe.meter.query_total
    probe.user_timeline(user_id)
    price = probe.meter.query_total - spent
    obs = Observability(trace_sink=RecordingSink(), metrics=MetricsRegistry())
    sim = SimulatedMicroblogClient(tiny_platform, budget=spent + price - 1, obs=obs)
    obs.bind_clock(sim.clock)
    faults = FaultInjectingClient(sim, FAULT_PROFILES["hostile"], obs=obs)
    resilient = ResilientClient(faults, obs=obs)
    for other in others:  # affordable requests meet the dice
        resilient.user_connections(other)
    assert sim.meter.query_total == spent
    retries = sim.meter.by_kind()[RETRIES]
    assert sum(faults.injected.values()) > 0 and retries > 0

    injected = dict(faults.injected)
    wait = resilient.backoff_wait
    now = resilient.clock.now()
    traced = len(obs.trace_records())
    for _ in range(40):
        with pytest.raises(BudgetExhaustedError):
            resilient.user_timeline(user_id)
    assert faults.injected == injected
    assert sim.meter.by_kind()[RETRIES] == retries == resilient.retries
    assert resilient.backoff_wait == wait
    assert resilient.clock.now() == now
    assert len(obs.trace_records()) == traced


def test_failure_key_moves_with_waste_on_a_retrying_stack(tiny_platform):
    """The dead-end memo's key: the query total on a bare stack; under a
    resilient layer also the retries column and the uncacheable count, so
    a retry or a degraded serve makes a recorded dead end stale.  A stack
    the caching client does not recognise gets no memo at all."""
    bare = _stack(tiny_platform, budget=500)
    assert bare.replays_failures
    assert bare.failure_key() == 0
    plan = FaultPlan(seed=1, transient_rate=0.5)
    faulted = _stack(tiny_platform, plan, budget=500)
    assert faulted.replays_failures
    assert faulted.failure_key() == (0, 0, 0)
    for user_id in range(10):
        faulted.user_connections(user_id)
    total, retries, uncacheable = faulted.failure_key()
    assert total == faulted.meter.query_total > 0
    assert retries == faulted.meter.by_kind()[RETRIES] > 0
    assert uncacheable == faulted.uncacheable == 0
    unretried = CachingClient(FaultInjectingClient(SimulatedMicroblogClient(tiny_platform), plan))
    assert not unretried.replays_failures


def test_backoff_is_deterministic_and_simulated_only(tiny_platform):
    plan = FaultPlan(seed=5, transient_rate=0.6)
    policy = RetryPolicy(seed=9)
    waits = []
    for _ in range(2):
        client = _stack(tiny_platform, plan, policy)
        for user_id in range(10):
            client.user_timeline(user_id)
        waits.append(client.inner.backoff_wait)
    assert waits[0] == waits[1]
    assert waits[0] > 0.0
    # Backoff advanced the client's private simulated clock, not wall time.
    caching = _stack(tiny_platform, plan, policy)
    resilient = caching.inner
    before = resilient.clock.now()
    for user_id in range(10):
        caching.user_timeline(user_id)
    assert resilient.backoff_wait > 0.0
    assert resilient.clock.now() >= before + resilient.backoff_wait


def test_retry_policy_validation():
    with pytest.raises(ReproError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ReproError):
        RetryPolicy(base_delay=10.0, max_delay=1.0)
    with pytest.raises(ReproError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ReproError):
        RetryPolicy(backoff_factor=0.5)


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class _ScriptedClient(MicroblogAPI):
    """Fails until ``fail_for`` calls have been made, then succeeds."""

    def __init__(self, inner: MicroblogAPI, fail_for: int) -> None:
        self.inner = inner
        self.fail_for = fail_for
        self.calls = 0

    def _maybe_fail(self):
        self.calls += 1
        if self.calls <= self.fail_for:
            raise TransientAPIError(f"scripted failure {self.calls}")

    def search(self, keyword, max_results=None):
        self._maybe_fail()
        return self.inner.search(keyword, max_results)

    def user_connections(self, user_id):
        self._maybe_fail()
        return self.inner.user_connections(user_id)

    def user_timeline(self, user_id) -> TimelineView:
        self._maybe_fail()
        return self.inner.user_timeline(user_id)

    @property
    def meter(self):
        return self.inner.meter

    @property
    def clock(self):
        return self.inner.clock


def test_breaker_opens_and_serves_last_good(tiny_platform):
    policy = RetryPolicy(max_attempts=2, breaker_threshold=4, breaker_cooldown=600.0)
    scripted = _ScriptedClient(SimulatedMicroblogClient(tiny_platform), fail_for=0)
    client = ResilientClient(scripted, policy)
    good = client.user_connections(0)
    assert not client.last_response_degraded
    # Now the platform melts down: enough consecutive failures trip the
    # breaker, and the known response degrades to the cached copy.
    scripted.fail_for = 10**9
    for _ in range(2):  # 2 attempts per call x 2 calls = the threshold
        degraded = client.user_connections(0)
        assert degraded == good
        assert client.last_response_degraded
    assert client.circuit_open
    calls_when_open = scripted.calls
    # While open, unknown requests fail fast without touching the API.
    with pytest.raises(CircuitOpenError):
        client.user_connections(1)
    assert scripted.calls == calls_when_open


def test_breaker_half_opens_after_cooldown(tiny_platform):
    policy = RetryPolicy(max_attempts=1, breaker_threshold=2, breaker_cooldown=60.0)
    scripted = _ScriptedClient(SimulatedMicroblogClient(tiny_platform), fail_for=2)
    client = ResilientClient(scripted, policy)
    for _ in range(2):
        with pytest.raises(TransientAPIError):
            client.user_connections(0)
    assert client.circuit_open
    client.clock.advance(policy.breaker_cooldown + 1.0)
    assert not client.circuit_open
    # The half-open probe goes through to the (recovered) platform.
    assert client.user_connections(0) == tuple(
        SimulatedMicroblogClient(tiny_platform).user_connections(0)
    )
    assert not client.circuit_open


def test_turned_away_requests_wait_out_the_cooldown(tiny_platform):
    """A request the open circuit turns away waits one base delay on the
    simulated clock, booked as backoff, so the cooldown elapses within a
    run and a later request half-opens the circuit."""
    policy = RetryPolicy(
        max_attempts=1, base_delay=5.0, breaker_threshold=2, breaker_cooldown=60.0
    )
    scripted = _ScriptedClient(SimulatedMicroblogClient(tiny_platform), fail_for=2)
    client = ResilientClient(scripted, policy)
    for _ in range(2):
        with pytest.raises(TransientAPIError):
            client.user_connections(0)
    assert client.circuit_open
    calls, wait, now = scripted.calls, client.backoff_wait, client.clock.now()
    for turned_away in range(1, 100):
        with pytest.raises(CircuitOpenError):
            client.user_connections(0)
        if not client.circuit_open:
            break
    assert turned_away == 12  # a 60 s cooldown at 5 s per turned-away request
    assert scripted.calls == calls  # none of them reached the platform
    assert client.backoff_wait == wait + turned_away * policy.base_delay
    assert client.clock.now() == now + turned_away * policy.base_delay
    # The half-open probe goes through to the (recovered) platform.
    assert client.user_connections(0) == tuple(
        SimulatedMicroblogClient(tiny_platform).user_connections(0)
    )
    assert not client.circuit_open


def test_truncated_partial_serves_as_degraded_fallback(tiny_platform):
    plan = FaultPlan(seed=6, truncate_rate=1.0, max_consecutive_faults=10)
    policy = RetryPolicy(max_attempts=2, breaker_threshold=50)
    client = _stack(tiny_platform, plan, policy)
    resilient = client.inner
    user_id = _posty_user(tiny_platform)
    full = SimulatedMicroblogClient(tiny_platform).user_timeline(user_id)
    view = client.user_timeline(user_id)
    assert len(view.posts) == len(full.posts) // 2  # the delivered prefix
    assert resilient.degraded_serves == 1


# ----------------------------------------------------------------------
# poisoned-cache regression (satellite bugfix)
# ----------------------------------------------------------------------
def test_cache_never_memoises_degraded_responses(tiny_platform):
    """A response recovered from a truncated transfer must not poison the
    cache: once the platform heals, callers must see the full data."""
    plan = FaultPlan(seed=6, truncate_rate=1.0, max_consecutive_faults=4)
    policy = RetryPolicy(max_attempts=2, breaker_threshold=50)
    client = _stack(tiny_platform, plan, policy)
    user_id = _posty_user(tiny_platform)
    full = SimulatedMicroblogClient(tiny_platform).user_timeline(user_id)

    degraded = client.user_timeline(user_id)  # attempts 0+1 truncate -> partial
    assert len(degraded.posts) < len(full.posts)
    assert client.uncacheable == 1
    assert client.hits == 0

    # Keep asking until the consecutive-fault cap forces a clean transfer;
    # a poisoned cache would pin the partial response forever instead.
    for _ in range(4):
        healed = client.user_timeline(user_id)
        if healed == full:
            break
    assert healed == full  # NOT the poisoned partial
    assert client.user_timeline(user_id) == full  # now served from the cache
    assert client.hits == 1

    # Control: the memoised clean response keeps serving from the cache.
    assert client.user_timeline(user_id) == full
    assert client.hits == 2
