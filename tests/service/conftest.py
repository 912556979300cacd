"""Shared fixtures for the service tier.

One fixed workload — 8 queries across 3 tenants, two keywords, mixed
aggregates, with deliberate exact duplicates — drives every identity
test, so a determinism break shows up consistently across the tier.
The acceptance bar this encodes: estimates, per-tenant CostMeter
columns and exported trace bytes identical at every thread count, and
reuse-cache hits bit-identical to recomputation.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.core.query import FOLLOWERS, MATCHING_POST_COUNT, avg_of, count_users, sum_of
from repro.service import EstimationService, QueryOutcome, QueryRequest, TenantConfig

BUDGET = 4_000
"""One budget tier for the whole workload: the keyword→interval cache is
keyed on (keyword, budget), so a shared tier is what lets overlapping
queries share pilots — the realistic serving shape."""


POOL_LATENCY = 1e-5
"""Emulated seconds per API call at which the service fans a batch out to
its worker threads; at zero latency every batch runs inline."""


@pytest.fixture(scope="module")
def api_latency() -> float:
    """Emulated per-call API latency of the thread-count pins' services.

    At 0 the service runs every batch inline, so those pins compare two
    inline runs; ``test_service_pool`` overrides this fixture with
    :data:`POOL_LATENCY` to run the same pins on a real thread pool.
    """
    return 0.0


def service_tenants() -> List[TenantConfig]:
    return [
        TenantConfig("growth", budget=64_000),
        TenantConfig("ads", budget=64_000),
        TenantConfig("research"),  # unlimited
    ]


def service_workload() -> List[QueryRequest]:
    """8 queries / 3 tenants / 2 keywords, with exact duplicates.

    Requests 6 and 7 duplicate requests 1 and 2 (same fingerprint from a
    different tenant), so even a cold batch exercises in-batch result
    sharing; the aggregate/measure variety exercises the interval cache
    (same keyword + budget, different query).
    """
    return [
        QueryRequest("growth", count_users("privacy"), BUDGET, tag="q1"),
        QueryRequest("ads", count_users("boston"), BUDGET, tag="q2"),
        QueryRequest("research", avg_of("privacy", FOLLOWERS), BUDGET, tag="q3"),
        QueryRequest("growth", sum_of("boston", MATCHING_POST_COUNT), BUDGET, tag="q4"),
        QueryRequest("ads", avg_of("privacy", MATCHING_POST_COUNT), BUDGET, tag="q5"),
        QueryRequest("research", count_users("privacy"), BUDGET, tag="q6"),
        QueryRequest("ads", count_users("boston"), BUDGET, tag="q7"),
        QueryRequest("research", sum_of("privacy", FOLLOWERS), BUDGET, tag="q8"),
    ]


def make_service(platform, **overrides) -> EstimationService:
    kwargs = dict(tenants=service_tenants(), seed=7)
    kwargs.update(overrides)
    tenants = kwargs.pop("tenants")
    return EstimationService(platform, tenants, **kwargs)


def snapshot(outcomes: List[QueryOutcome]) -> List[Tuple]:
    """Everything the bit-identity contract covers, per outcome."""
    rows = []
    for outcome in outcomes:
        result = outcome.result
        rows.append(
            (
                outcome.status,
                outcome.reason,
                outcome.error,
                None if result is None else result.value,
                None if result is None else result.cost_total,
                None if result is None else tuple(sorted(result.cost_by_kind.items())),
                None if result is None else result.num_samples,
                outcome.trace_bytes(),
            )
        )
    return rows


def bills(service: EstimationService) -> dict:
    return {name: service.tenant_bill(name) for name in sorted(service.tenants)}
