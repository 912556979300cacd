"""Hypothesis stress: random tenant/keyword/cancel interleavings.

For any generated workload the service must (a) come back at all — no
deadlock between the reuse locks, result-cache lock and engine pool;
(b) keep every tenant's reservations within its allowance; (c) keep
per-tenant meters free of cross-contamination; and (d) answer the same
whether it ran serially or on four threads — run inline at zero API
latency, and on a real thread pool at :data:`POOL_LATENCY`.

Budgets are deliberately small (some queries legitimately fail with
budget exhaustion) so the failure paths get interleaved too.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.query import FOLLOWERS, avg_of, count_users
from repro.service import EstimationService, QueryRequest, TenantConfig

from tests.service.conftest import POOL_LATENCY, snapshot

pytestmark = [pytest.mark.service, pytest.mark.statistical]

KEYWORDS = ("privacy", "boston")
TENANTS = ("alpha", "beta", "gamma")

query_specs = st.lists(
    st.tuples(
        st.sampled_from(TENANTS),
        st.sampled_from(KEYWORDS),
        st.booleans(),  # count_users vs avg_of(FOLLOWERS)
        st.integers(min_value=300, max_value=800),
        st.booleans(),  # cancel this one if it lands in a queue
    ),
    min_size=1,
    max_size=8,
)


def _tenants():
    return [
        TenantConfig("alpha", budget=2_000, admission="queue"),
        TenantConfig("beta", budget=1_500),
        TenantConfig("gamma"),  # unlimited
    ]


def _requests(specs):
    return [
        QueryRequest(
            tenant,
            count_users(keyword) if is_count else avg_of(keyword, FOLLOWERS),
            budget,
            tag=f"q{i}",
        )
        for i, (tenant, keyword, is_count, budget, _cancel) in enumerate(specs)
    ]


stress_settings = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _drive(platform, specs, n_threads, api_latency):
    """One full service lifetime: submit (cancelling some queued ones),
    top up alpha mid-stream, execute, and return everything observable."""
    service = EstimationService(platform, _tenants(), seed=29, api_latency=api_latency)
    tickets = []
    for spec, request in zip(specs, _requests(specs)):
        ticket = service.submit(request)
        if spec[4] and ticket.status == "queued":
            service.cancel(ticket.request_id)
        tickets.append(ticket)
    service.top_up("alpha", 1_000)
    service.execute_pending(n_threads=n_threads)
    outcomes = [service.outcome(t.request_id) for t in tickets]
    bills = {name: service.tenant_bill(name) for name in TENANTS}
    return service, outcomes, bills


@stress_settings
@given(specs=query_specs)
def test_interleavings_safe_and_thread_invariant(tiny_platform, specs):
    _check_interleavings(tiny_platform, specs, api_latency=0.0)


@stress_settings
@given(specs=query_specs)
def test_interleavings_thread_invariant_on_a_pool(tiny_platform, specs):
    _check_interleavings(tiny_platform, specs, api_latency=POOL_LATENCY)


def _check_interleavings(platform, specs, api_latency):
    serial_service, serial, serial_bills = _drive(
        platform, specs, n_threads=1, api_latency=api_latency
    )
    threaded_service, threaded, threaded_bills = _drive(
        platform, specs, n_threads=4, api_latency=api_latency
    )

    # (a) It returned — and every submission has a terminal-or-parked status.
    assert len(serial) == len(specs)
    for outcome in serial:
        assert outcome.status in ("ok", "failed", "rejected", "queued", "cancelled")

    # (b) Reservations never exceed any allowance, and a tenant's billed
    # budgeted spend never exceeds what it reserved.
    for name in TENANTS:
        tenant = serial_service.tenants[name]
        if tenant.allowance is not None:
            assert tenant.reserved <= tenant.allowance
        budgeted = sum(
            calls
            for kind, calls in serial_bills[name].items()
            if kind != "retries"
        )
        assert budgeted <= tenant.reserved or tenant.allowance is None

    # (c) No meter cross-contamination: the global fold of per-tenant
    # bills equals the fold of per-outcome costs — nothing double-billed,
    # nothing leaked across tenants.
    per_outcome: dict = {}
    for outcome in serial:
        if outcome.result is not None:
            fold = per_outcome.setdefault(outcome.request.tenant, {})
            for kind, calls in outcome.result.cost_by_kind.items():
                if calls:
                    fold[kind] = fold.get(kind, 0) + calls
    for name in TENANTS:
        bill = {k: v for k, v in serial_bills[name].items() if v}
        assert bill == per_outcome.get(name, {})

    # (d) Thread-count invariance, down to the trace bytes.
    assert snapshot(threaded) == snapshot(serial)
    assert threaded_bills == serial_bills
    assert threaded_service.stats() == serial_service.stats()
