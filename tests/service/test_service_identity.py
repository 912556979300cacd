"""Concurrency/determinism pins: concurrent submission ≡ serial.

The acceptance bar: for the fixed workload (8 queries, 3 tenants), the
estimates, per-tenant CostMeter columns and exported per-query trace
bytes are identical at ``n_threads ∈ {1, 4}`` — and the service-level
telemetry stream is too.  The services take the ``api_latency`` fixture:
0 here (batches run inline), a real thread pool in ``test_service_pool``.
"""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, Observability, RecordingSink
from repro.obs.export import metrics_json, trace_lines

from tests.service.conftest import bills, make_service, service_workload, snapshot

pytestmark = pytest.mark.service


@pytest.fixture(scope="module")
def serial_run(tiny_platform, api_latency):
    service = make_service(tiny_platform, api_latency=api_latency)
    outcomes = service.run_workload(service_workload(), n_threads=1)
    return service, outcomes


@pytest.fixture(scope="module")
def threaded_run(tiny_platform, api_latency):
    service = make_service(tiny_platform, api_latency=api_latency)
    outcomes = service.run_workload(service_workload(), n_threads=4)
    return service, outcomes


def test_workload_completes(serial_run):
    service, outcomes = serial_run
    assert len(outcomes) == 8
    assert [o.status for o in outcomes] == ["ok"] * 8
    assert {o.request.tenant for o in outcomes} == {"growth", "ads", "research"}


def test_concurrent_outcomes_identical_to_serial(serial_run, threaded_run):
    _, serial = serial_run
    _, threaded = threaded_run
    assert snapshot(threaded) == snapshot(serial)


def test_per_tenant_meter_columns_identical(serial_run, threaded_run):
    serial_service, serial = serial_run
    threaded_service, _ = threaded_run
    assert bills(threaded_service) == bills(serial_service)
    # ... and the bill reconciles exactly against the tenant's own outcomes.
    for name in serial_service.tenants:
        folded: dict = {}
        for outcome in serial:
            if outcome.request.tenant == name and outcome.result is not None:
                for kind, calls in outcome.result.cost_by_kind.items():
                    folded[kind] = folded.get(kind, 0) + calls
        bill = serial_service.tenant_bill(name)
        assert {k: v for k, v in bill.items() if v} == {
            k: v for k, v in folded.items() if v
        }


def test_reuse_counters_thread_count_invariant(serial_run, threaded_run):
    serial_service, _ = serial_run
    threaded_service, _ = threaded_run
    assert threaded_service.stats() == serial_service.stats()
    # The duplicate submissions in the fixed workload must have shared.
    assert serial_service.stats()["result_hits"] > 0
    assert serial_service.stats()["reuse_interval_hits"] > 0


@pytest.mark.parametrize("threads", [2, 8])
def test_other_thread_counts_match(tiny_platform, api_latency, serial_run, threads):
    _, serial = serial_run
    service = make_service(tiny_platform, api_latency=api_latency)
    outcomes = service.run_workload(service_workload(), n_threads=threads)
    assert snapshot(outcomes) == snapshot(serial)


def test_warm_pass_bit_identical_with_cache_hits(serial_run):
    """Re-running the workload on the warm service changes nothing but
    the hit counters — the reuse-cache acceptance criterion."""
    service, cold = serial_run
    before = service.stats()
    warm = service.run_workload(service_workload(), n_threads=4)
    assert snapshot(warm) == snapshot(cold)
    assert all(outcome.cached for outcome in warm)
    after = service.stats()
    assert after["result_hits"] >= before["result_hits"] + len(warm)
    assert after["reuse_pilot_runs"] == before["reuse_pilot_runs"]  # no new pilots


def test_service_telemetry_stream_deterministic(tiny_platform, api_latency):
    """The service's own obs plane (admission + query events, per-tenant
    metrics, queue gauges) is emitted from serial phases only, so its
    exported bytes are thread-count-invariant too."""

    def run(threads):
        sink = RecordingSink()
        obs = Observability(trace_sink=sink, metrics=MetricsRegistry())
        service = make_service(tiny_platform, obs=obs, api_latency=api_latency)
        service.run_workload(service_workload(), n_threads=threads)
        return "\n".join(trace_lines(sink.records)), metrics_json(obs.metrics)

    assert run(1) == run(4)


def test_service_trace_has_service_spans(tiny_platform):
    sink = RecordingSink()
    obs = Observability(trace_sink=sink)
    service = make_service(tiny_platform, obs=obs)
    service.run_workload(service_workload(), n_threads=2)
    names = [record["name"] for record in sink.records]
    assert names.count("service.admit") == 8
    assert names.count("service.query") == 8
    assert "service.batch" in names
    batch = next(r for r in sink.records if r["name"] == "service.batch")
    assert batch["kind"] == "span"
    assert batch["queries"] == 8 and batch["completed"] == 8
