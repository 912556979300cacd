"""Chaos suite at the estimator level: faults must not move the numbers.

The headline contract of the fault-injection work (see docs/TESTING.md):
running MA-TARW or MA-SRW against a platform that injects transient
errors, timeouts, truncated pages and duplicate rows produces an
estimate *bit-identical* to the fault-free run with the same estimator
seed — same value, same trace, same budget spend — with every retry
visible in the meter's budget-exempt ``retries`` column.  Faults heal
below the walk; the walk never notices.

Runs here share module-scoped fixtures because each estimation is a
full budgeted walk; the assertions slice the same handful of runs.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.api.accounting import RETRIES, TIMELINE
from repro.api.faults import FAULT_PROFILES, FaultPlan
from repro.api.resilient import RetryPolicy
from repro.core.analyzer import MicroblogAnalyzer
from repro.core.query import FOLLOWERS, avg_of
from repro.obs import MetricsRegistry, Observability
from repro.obs.trace import RecordingSink

pytestmark = pytest.mark.chaos

SERIAL_BUDGET = 6_000
PARALLEL_BUDGET = 9_000
WALK_SEED = 7
QUERY = avg_of("privacy", FOLLOWERS)
ALGORITHMS = ("ma-tarw", "ma-srw")


def _run(platform, algorithm, budget, fault_plan=None, retry_policy=None,
         n_workers=None):
    analyzer = MicroblogAnalyzer(
        platform,
        algorithm=algorithm,
        seed=WALK_SEED,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        n_workers=n_workers,
        n_shards=None if n_workers is None else 3,
        executor="auto" if n_workers is None else "thread",
    )
    return analyzer.estimate(QUERY, budget=budget)


def _clean_kinds(result):
    """Cost by kind with the retry column stripped — what a fault-free
    meter would have recorded."""
    kinds = dict(result.cost_by_kind)
    kinds.pop(RETRIES, None)
    return kinds


@pytest.fixture(scope="module")
def serial_runs(tiny_platform):
    hostile = FAULT_PROFILES["hostile"]
    return {
        (algorithm, profile): _run(
            tiny_platform, algorithm, SERIAL_BUDGET,
            fault_plan=hostile if profile else None,
        )
        for algorithm in ALGORITHMS
        for profile in (None, "hostile")
    }


@pytest.fixture(scope="module")
def parallel_runs(tiny_platform):
    hostile = FAULT_PROFILES["hostile"]
    return {
        "clean-w3": _run(tiny_platform, "ma-tarw", PARALLEL_BUDGET, n_workers=3),
        "hostile-w1": _run(tiny_platform, "ma-tarw", PARALLEL_BUDGET,
                           fault_plan=hostile, n_workers=1),
        "hostile-w3": _run(tiny_platform, "ma-tarw", PARALLEL_BUDGET,
                           fault_plan=hostile, n_workers=3),
    }


# ----------------------------------------------------------------------
# serial bit-identity under the hostile profile (20% transient errors)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_serial_estimate_bit_identical_under_faults(serial_runs, algorithm):
    clean = serial_runs[(algorithm, None)]
    faulted = serial_runs[(algorithm, "hostile")]
    assert clean.value is not None
    assert faulted.value == clean.value  # bit-identical, not approx
    assert faulted.cost_total == clean.cost_total


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_serial_trace_identical_under_faults(serial_runs, algorithm):
    """Not just the endpoint: every intermediate (cost, estimate) trace
    point matches, so convergence plots overlay exactly."""
    clean = serial_runs[(algorithm, None)]
    faulted = serial_runs[(algorithm, "hostile")]
    assert [(t.cost, t.estimate) for t in faulted.trace] == [
        (t.cost, t.estimate) for t in clean.trace
    ]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_serial_retries_fully_accounted(serial_runs, algorithm):
    clean = serial_runs[(algorithm, None)]
    faulted = serial_runs[(algorithm, "hostile")]
    # Query spend matches the fault-free run kind for kind; the waste
    # shows up only in the budget-exempt retries column.
    assert _clean_kinds(faulted) == _clean_kinds(clean)
    assert faulted.cost_by_kind[RETRIES] > 0
    assert RETRIES not in clean.cost_by_kind
    assert faulted.cost_total <= SERIAL_BUDGET


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_serial_resilience_diagnostics_surface(serial_runs, algorithm):
    faulted = serial_runs[(algorithm, "hostile")]
    diagnostics = faulted.diagnostics
    assert "degraded_serves" in diagnostics
    assert "backoff_wait_seconds" in diagnostics
    # All faults healed at the client layer: the walk itself never had
    # to retry a step, abort an instance or restart a chain.
    assert diagnostics.get("fault_step_retries", 0.0) == 0.0
    assert diagnostics.get("fault_aborted_instances", 0.0) == 0.0
    assert diagnostics.get("fault_restarts", 0.0) == 0.0


# ----------------------------------------------------------------------
# parallel: worker-count invariance survives fault injection
# ----------------------------------------------------------------------
def test_parallel_faulted_matches_clean_parallel(parallel_runs):
    clean = parallel_runs["clean-w3"]
    faulted = parallel_runs["hostile-w3"]
    assert clean.value is not None
    assert faulted.value == clean.value
    assert faulted.cost_total == clean.cost_total
    assert _clean_kinds(faulted) == _clean_kinds(clean)
    assert faulted.cost_by_kind[RETRIES] > 0


def test_parallel_worker_count_invariant_under_faults(parallel_runs):
    """Per-shard fault replay is a function of the request key and the
    attempt ordinal, never the worker interleaving."""
    one = parallel_runs["hostile-w1"]
    three = parallel_runs["hostile-w3"]
    assert one.value == three.value
    assert one.cost_total == three.cost_total
    assert one.cost_by_kind == three.cost_by_kind
    assert [(t.cost, t.estimate) for t in one.trace] == [
        (t.cost, t.estimate) for t in three.trace
    ]
    assert one.walk_stats is not None and three.walk_stats is not None


# ----------------------------------------------------------------------
# unhealable faults: the walk degrades gracefully instead of crashing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_walk_survives_unhealable_faults(tiny_platform, algorithm):
    """When the retry budget is too small for the fault streaks, typed
    transient errors reach the walk itself — which retries the step,
    then abandons the instance/chain, and still returns a result with
    the damage fully visible in the diagnostics."""
    plan = FaultPlan(seed=11, transient_rate=0.85, max_consecutive_faults=50)
    policy = RetryPolicy(max_attempts=2, breaker_threshold=10**6)
    result = _run(tiny_platform, algorithm, 3_000,
                  fault_plan=plan, retry_policy=policy)
    assert result.cost_total <= 3_000
    diagnostics = result.diagnostics
    assert diagnostics.get("fault_step_retries", 0.0) > 0
    if algorithm == "ma-tarw":
        assert diagnostics.get("fault_aborted_instances", 0.0) > 0
    else:
        assert diagnostics.get("fault_restarts", 0.0) > 0
    assert result.cost_by_kind.get(RETRIES, 0) > 0


# ----------------------------------------------------------------------
# an opened breaker half-opens within the run
# ----------------------------------------------------------------------
def test_open_breaker_half_opens_within_a_walk(tiny_platform):
    """A breaker tight enough to open under ``hostile`` must not starve the
    walk: requests the open circuit turns away wait out the cooldown on
    the simulated clock, a probe half-opens the circuit and the walk goes
    on spending its budget (it used to stop after one timeline call)."""
    policy = RetryPolicy(max_attempts=3, breaker_threshold=3, breaker_cooldown=60.0)
    obs = Observability(trace_sink=RecordingSink(), metrics=MetricsRegistry())
    analyzer = MicroblogAnalyzer(
        tiny_platform,
        algorithm="ma-tarw",
        seed=0,
        fault_plan=FAULT_PROFILES["hostile"],
        retry_policy=policy,
        obs=obs,
    )
    result = analyzer.estimate(QUERY, budget=1_000)
    events = Counter(
        record["name"] for record in obs.trace_records() if record["kind"] == "event"
    )
    assert events["api.circuit_open"] > 0
    assert events["api.circuit_close"] > 0  # a half-open probe succeeded
    assert result.cost_by_kind[TIMELINE] > 1
    assert result.cost_total <= 1_000
    assert result.value is not None
