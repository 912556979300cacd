"""Where a batch runs: inline at zero API latency, on a pool otherwise.

Threads overlap API waits and nothing else, so a service whose client
stack never waits runs each batch inline on the caller's thread, and the
thread-count pins in ``test_service_identity`` compare two inline runs.
This module re-collects those pins with the ``api_latency`` fixture
overridden to :data:`POOL_LATENCY`, where the batch fans out to real
worker threads, and pins where the tasks actually run.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ReproError
from repro.service import EstimationService

from tests.service import test_service_identity as identity
from tests.service.conftest import POOL_LATENCY, make_service, service_workload

pytestmark = pytest.mark.service


@pytest.fixture(scope="module")
def api_latency() -> float:
    return POOL_LATENCY


# The identity pins and their fixtures, collected again under this
# module's ``api_latency``.
serial_run = identity.serial_run
threaded_run = identity.threaded_run
test_workload_completes = identity.test_workload_completes
test_concurrent_outcomes_identical_to_serial = identity.test_concurrent_outcomes_identical_to_serial
test_per_tenant_meter_columns_identical = identity.test_per_tenant_meter_columns_identical
test_reuse_counters_thread_count_invariant = identity.test_reuse_counters_thread_count_invariant
test_other_thread_counts_match = identity.test_other_thread_counts_match
test_service_telemetry_stream_deterministic = identity.test_service_telemetry_stream_deterministic


def _task_threads(platform, latency: float) -> list:
    """Thread idents of every estimation task in one 4-thread batch."""
    service = make_service(platform, api_latency=latency, n_threads=4)
    threads = []
    execute_one = service._execute_one

    def recording(*args):
        threads.append(threading.get_ident())
        return execute_one(*args)

    service._execute_one = recording
    service.run_workload(service_workload())
    return threads


def test_zero_latency_batch_runs_on_the_callers_thread(tiny_platform):
    threads = _task_threads(tiny_platform, 0.0)
    assert len(threads) > 1
    assert set(threads) == {threading.get_ident()}


def test_latency_batch_runs_on_worker_threads(tiny_platform):
    threads = _task_threads(tiny_platform, POOL_LATENCY)
    assert threading.get_ident() not in threads
    assert len(set(threads)) >= 2


def test_threads_still_validated_at_zero_latency(tiny_platform):
    with pytest.raises(ReproError, match="n_threads"):
        EstimationService(tiny_platform, [], n_threads=0)
    service = make_service(tiny_platform)
    with pytest.raises(ReproError, match="n_threads"):
        service.execute_pending(n_threads=0)
