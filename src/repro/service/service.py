"""The long-lived multi-tenant estimation service.

:class:`EstimationService` is a thread-pool front end over the existing
:class:`~repro.parallel.engine.ExecutionEngine`: many tenants submit
aggregate queries against one shared frozen (or mmap) platform, and the
service answers them — concurrently, when its client stack waits on API
latency — while reusing everything reusable
across queries — the keyword → chosen-interval cache with its replayable
pilot ledger, the shared first-mention columns (both via
:class:`~repro.core.reuse.SharedQueryState`), and a whole-result cache
for exact repeats.

The contract the ``service`` test tier pins, and how it is met:

* **Concurrent ≡ serial.**  A workload produces the same estimates,
  per-tenant :class:`~repro.api.accounting.CostMeter` columns, and
  exported trace bytes at every thread count.  Admission runs serially
  in submission order (reservation-based, refund-free — see
  :mod:`repro.service.tenants`); execution fans out through the engine,
  which returns results in task order, when the client stack waits on
  API latency, and runs inline in plan order when it does not;
  collection folds tenant bills and emits ``service.*`` telemetry
  serially in request order.  Each query's
  seed derives statelessly from the service seed and the query's own
  fingerprint, so no thread interleaving can reach any query's RNG.
* **Warm ≡ cold.**  A reuse-cache hit is bit-identical to the cache-miss
  recomputation it replaces: interval hits replay the recorded pilot
  ledger through the query's own fresh client stack (identical charges,
  rate-limit waits and trace bytes — see :mod:`repro.core.reuse`), and
  whole-result hits replay the stored trace records and return a copy of
  the stored result — valid because a recomputation is deterministic in
  the (seed, fingerprint) pair the cache key covers.
* **Admission is exact.**  A tenant allowance admits reservations up to
  the boundary inclusive and nothing past it, at any thread count,
  because admission never leaves the serial phase.

Failure isolation: one query's failure (budget too small to seed a walk,
say) becomes a ``"failed"`` outcome with the error message; it never
takes down the batch and never bills the tenant for calls it didn't
make (the bill folds the *actual* ``cost_by_kind``, which for an early
failure is whatever the run spent before raising — exactly what a real
crawl would have burned).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.faults import FaultPlan
from repro.api.resilient import RetryPolicy
from repro.core.query import _MEASURE_REGISTRY, AggregateQuery
from repro.core.results import EstimateResult
from repro.core.reuse import SharedQueryState
from repro.errors import (
    APIError,
    EstimationError,
    RateLimitError,
    ReproError,
)
from repro.obs import NULL_OBS, Observability, RecordingSink
from repro.obs.drift import DriftTracker
from repro.obs.export import trace_lines
from repro.service.tenants import TenantConfig, TenantState

STATUSES = ("admitted", "queued", "rejected", "cancelled", "ok", "failed")


@dataclass(frozen=True)
class QueryRequest:
    """One tenant's submission: a query plus its requested call budget."""

    tenant: str
    query: AggregateQuery
    budget: int
    tag: str = ""
    """Free-form correlation label, echoed on the outcome and in
    ``service.*`` trace events."""


@dataclass
class QueryOutcome:
    """What the service returns for one submission."""

    request_id: int
    request: QueryRequest
    status: str
    reason: str = ""
    """Why a submission did not run (``rejected``/``queued``/``cancelled``)."""
    result: Optional[EstimateResult] = None
    error: str = ""
    cached: bool = False
    """True when the whole result came from the cross-query result cache
    (bit-identical to recomputation — the service tier pins this)."""
    trace_records: List[dict] = field(default_factory=list)

    def trace_bytes(self) -> bytes:
        """The query's exported canonical trace (the pinned byte form)."""
        return ("\n".join(trace_lines(self.trace_records))).encode("ascii")


@dataclass
class _Ticket:
    """Internal per-submission state."""

    request_id: int
    request: QueryRequest
    status: str
    reason: str = ""
    outcome: Optional[QueryOutcome] = None


class EstimationService:
    """Concurrent aggregate estimation over one shared platform.

    Construction fixes the estimation stack (algorithm, graph design,
    interval policy, fault/retry layers) for every query the service
    answers — one service is one serving configuration, which is what
    makes the result cache sound with keys over query fingerprints only.

    ``obs`` is the *service's* telemetry plane (per-tenant metrics,
    ``service.*`` spans, queue-depth gauges).  Each query additionally
    records its own private trace, returned on the outcome, whose bytes
    are the object of the bit-identity guarantees.
    """

    def __init__(
        self,
        platform,
        tenants: Iterable[TenantConfig],
        *,
        algorithm: str = "ma-tarw",
        graph_design: str = "level-by-level",
        interval="auto",
        seed: int = 0,
        n_threads: int = 1,
        keep_intra_fraction: float = 0.0,
        api_latency: float = 0.0,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if n_threads < 1:
            raise ReproError("n_threads must be >= 1")
        self.platform = platform
        self.tenants: Dict[str, TenantState] = {}
        for config in tenants:
            if config.name in self.tenants:
                raise ReproError(f"duplicate tenant {config.name!r}")
            self.tenants[config.name] = TenantState(config)
        self.algorithm = algorithm
        self.graph_design = graph_design
        self.interval = interval
        self.keep_intra_fraction = keep_intra_fraction
        self.api_latency = api_latency
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.n_threads = n_threads
        self.obs = obs if obs is not None else NULL_OBS
        self.reuse = SharedQueryState(seed=seed)
        """The cross-query reuse cache every per-query analyzer shares."""
        self.drift = DriftTracker()
        """Estimate streams per query identity across platform epochs
        (diagnostics only — never touches query traces or results)."""
        self._entropy = random.Random(seed).getrandbits(64)
        self._lock = threading.Lock()
        self._next_id = 1
        self._tickets: Dict[int, _Ticket] = {}
        self._queues: Dict[str, List[int]] = {name: [] for name in self.tenants}
        self._results: Dict[Tuple, Tuple[EstimateResult, Tuple[dict, ...]]] = {}
        self._stats: Dict[str, int] = {
            "submitted": 0,
            "admitted": 0,
            "rejected": 0,
            "queued": 0,
            "cancelled": 0,
            "completed": 0,
            "failed": 0,
            "result_hits": 0,
            "result_misses": 0,
            "uncacheable": 0,
        }

    # ------------------------------------------------------------------
    # admission (always on the caller's thread — serial by construction)
    # ------------------------------------------------------------------
    def submit(self, request: QueryRequest) -> _Ticket:
        """Admit, queue or reject one submission.

        Never executes anything; call :meth:`execute_pending` (or use
        :meth:`run_workload`) to run what was admitted.  Decisions are a
        pure function of the submission sequence so far.
        """
        ticket = _Ticket(self._next_id, request, status="rejected")
        self._next_id += 1
        self._tickets[ticket.request_id] = ticket
        self._count("submitted")
        tenant = self.tenants.get(request.tenant)
        if tenant is None:
            ticket.reason = "unknown-tenant"
        elif request.budget < 1:
            ticket.reason = "invalid-budget"
        else:
            waited = self._acquire_rate(tenant)
            if waited is None:
                ticket.reason = "rate-limited"
            elif tenant.can_reserve(request.budget):
                tenant.reserve(request.budget)
                ticket.status = "admitted"
            elif tenant.config.admission == "queue":
                ticket.status = "queued"
                self._queues[request.tenant].append(ticket.request_id)
            else:
                ticket.reason = "over-budget"
        self._count(ticket.status if ticket.status != "admitted" else "admitted")
        self._note_admission(ticket)
        return ticket

    def _acquire_rate(self, tenant: TenantState) -> Optional[float]:
        """Consume one submission token; None means the limiter refused."""
        limiter = tenant.limiter
        if limiter is None:
            return 0.0
        before = limiter.total_wait
        try:
            limiter.acquire(1)
        except RateLimitError:
            return None
        waited = limiter.total_wait - before
        tenant.wait += waited
        return waited

    def cancel(self, request_id: int) -> bool:
        """Withdraw a *queued* submission (running/finished ones stand)."""
        ticket = self._tickets.get(request_id)
        if ticket is None or ticket.status != "queued":
            return False
        ticket.status = "cancelled"
        ticket.reason = "cancelled"
        self._queues[ticket.request.tenant].remove(request_id)
        self._count("cancelled")
        self._stats["queued"] -= 1
        self._note_admission(ticket)
        return True

    def top_up(self, tenant_name: str, calls: int) -> List[int]:
        """Grow a tenant's allowance and drain its queue FIFO.

        Returns the request ids the top-up admitted.  Draining stops at
        the first queued request that still does not fit — FIFO order is
        part of the admission determinism contract, so a later small
        request never overtakes an earlier large one.
        """
        tenant = self.tenants.get(tenant_name)
        if tenant is None:
            raise ReproError(f"unknown tenant {tenant_name!r}")
        tenant.top_up(calls)
        admitted: List[int] = []
        queue = self._queues[tenant_name]
        while queue:
            ticket = self._tickets[queue[0]]
            if not tenant.can_reserve(ticket.request.budget):
                break
            queue.pop(0)
            tenant.reserve(ticket.request.budget)
            ticket.status = "admitted"
            ticket.reason = ""
            admitted.append(ticket.request_id)
            self._count("admitted")
            self._stats["queued"] -= 1
            self._note_admission(ticket)
        return admitted

    def queue_depth(self, tenant_name: str) -> int:
        return len(self._queues[tenant_name])

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute_pending(self, n_threads: Optional[int] = None) -> List[QueryOutcome]:
        """Run every admitted-but-unexecuted submission; ordered outcomes.

        Planning (which requests replay the result cache, which compute,
        which follow an identical request earlier in the same batch) and
        collection (tenant bills, ``service.*`` telemetry) are serial in
        request order; only the estimation work itself fans out, so the
        thread count is invisible in every output.

        Threads overlap API waits and nothing else ("Walk, Not Wait"):
        with zero ``api_latency`` every estimate is CPU-bound Python, and
        a pool would only hand the GIL back and forth between its workers,
        making every task slower than on one thread (measured in
        docs/BENCHMARKS.md).  Such batches run
        inline on the caller's thread, in plan order; *n_threads* is still
        validated and takes effect as soon as calls wait.
        """
        threads = self.n_threads if n_threads is None else n_threads
        if threads < 1:
            raise ReproError("n_threads must be >= 1")
        pending = [
            t
            for t in self._tickets.values()
            if t.status == "admitted" and t.outcome is None
        ]
        pending.sort(key=lambda t: t.request_id)
        if not pending:
            return []

        # Plan serially: reuse decisions (and their counters) must not
        # depend on execution interleaving.
        plan: List[Tuple[_Ticket, str, Optional[Tuple], Optional[int]]] = []
        batch_first: Dict[Tuple, int] = {}
        for ticket in pending:
            key = self._fingerprint(ticket.request)
            if key is None:
                self._count("uncacheable")
                plan.append((ticket, "compute", None, None))
            elif key in self._results:
                self._count("result_hits")
                plan.append((ticket, "replay", key, None))
            elif key in batch_first:
                self._count("result_hits")
                plan.append((ticket, "follow", key, batch_first[key]))
            else:
                self._count("result_misses")
                batch_first[key] = ticket.request_id
                plan.append((ticket, "compute", key, None))

        tracer = self.obs.trace
        # The thread count is deliberately absent from the span: the
        # service's whole telemetry stream is pinned byte-identical
        # across thread counts, configuration included.
        span = (
            tracer.span("service.batch", queries=len(pending))
            if tracer is not None
            else None
        )
        from repro.parallel.engine import ExecutionEngine

        engine = ExecutionEngine(
            n_workers=threads if self.api_latency > 0 else 1, executor="thread"
        )
        tasks = [
            (ticket, mode, key)
            for ticket, mode, key, leader in plan
            if mode != "follow"
        ]
        ran = engine.run(self._execute_one, tasks)
        by_id = {outcome.request_id: outcome for outcome in ran}

        # Resolve followers from their leader's outcome — a recomputation
        # would be deterministic, so sharing it is exact.
        outcomes: List[QueryOutcome] = []
        for ticket, mode, key, leader in plan:
            if mode == "follow":
                source = by_id[leader]  # type: ignore[index]
                outcome = QueryOutcome(
                    request_id=ticket.request_id,
                    request=ticket.request,
                    status=source.status,
                    result=self._copy_result(source.result),
                    error=source.error,
                    cached=True,
                    trace_records=[dict(r) for r in source.trace_records],
                )
            else:
                outcome = by_id[ticket.request_id]
            outcomes.append(outcome)

        for outcome in outcomes:  # serial collection, request order
            self._collect(outcome)
        if span is not None:
            span.add(completed=len(outcomes)).close()
        return outcomes

    def run_workload(
        self, requests: Sequence[QueryRequest], n_threads: Optional[int] = None
    ) -> List[QueryOutcome]:
        """Submit *requests* in order, run what was admitted, and return
        one outcome per request (rejected/queued submissions included)."""
        tickets = [self.submit(request) for request in requests]
        self.execute_pending(n_threads=n_threads)
        return [self._outcome_of(ticket) for ticket in tickets]

    def outcome(self, request_id: int) -> QueryOutcome:
        """The current outcome of any submission (by request id)."""
        ticket = self._tickets.get(request_id)
        if ticket is None:
            raise ReproError(f"unknown request id {request_id}")
        return self._outcome_of(ticket)

    def _outcome_of(self, ticket: _Ticket) -> QueryOutcome:
        if ticket.outcome is not None:
            return ticket.outcome
        return QueryOutcome(
            request_id=ticket.request_id,
            request=ticket.request,
            status=ticket.status,
            reason=ticket.reason,
        )

    # ------------------------------------------------------------------
    def _execute_one(self, ticket: _Ticket, mode: str, key: Optional[Tuple]) -> QueryOutcome:
        request = ticket.request
        if mode == "replay":
            result, records = self._results[key]  # type: ignore[index]
            return QueryOutcome(
                request_id=ticket.request_id,
                request=request,
                status="ok",
                result=self._copy_result(result),
                cached=True,
                trace_records=[dict(r) for r in records],
            )
        sink = RecordingSink()
        analyzer = self._analyzer(request, Observability(trace_sink=sink))
        try:
            result = analyzer.estimate(request.query, request.budget)
            status, error = "ok", ""
        except (EstimationError, APIError, ReproError) as exc:
            result, status, error = None, "failed", str(exc)
        if status == "ok" and key is not None:
            with self._lock:
                self._results[key] = (
                    self._copy_result(result),  # type: ignore[arg-type]
                    tuple(dict(r) for r in sink.records),
                )
        return QueryOutcome(
            request_id=ticket.request_id,
            request=request,
            status=status,
            result=result,
            error=error,
            trace_records=list(sink.records),
        )

    def _analyzer(self, request: QueryRequest, obs: Observability):
        from repro.core.analyzer import MicroblogAnalyzer

        return MicroblogAnalyzer(
            self.platform,
            algorithm=self.algorithm,
            graph_design=self.graph_design,
            interval=self.interval,
            keep_intra_fraction=self.keep_intra_fraction,
            seed=self._request_rng(request),
            api_latency=self.api_latency,
            fault_plan=self.fault_plan,
            retry_policy=self.retry_policy,
            obs=obs,
            reuse=self.reuse,
        )

    def _request_rng(self, request: QueryRequest) -> random.Random:
        """The query's private RNG, derived statelessly from its identity.

        Identical submissions — any tenant, any order, any thread count —
        therefore walk identically, which is both the determinism
        guarantee and what makes whole-result reuse exact.
        """
        query = request.query
        identity = (
            query.keyword,
            query.aggregate.value,
            query.measure.name,
            query.window,
            query.predicate is not None,
            request.budget,
        )
        return random.Random(f"{self._entropy}:query:{identity}")

    def _fingerprint(self, request: QueryRequest) -> Optional[Tuple]:
        """Result-cache key, or None when the query is not cacheable.

        Ad-hoc measures (not pickle-by-name registered) and profile
        predicates are opaque callables — two distinct ones could share a
        name — so such queries always recompute.
        """
        query = request.query
        if query.predicate is not None:
            return None
        if _MEASURE_REGISTRY.get(query.measure.name) is not query.measure:
            return None
        return (
            query.keyword,
            query.aggregate.value,
            query.measure.name,
            query.window,
            request.budget,
        )

    @staticmethod
    def _copy_result(result: Optional[EstimateResult]) -> Optional[EstimateResult]:
        if result is None:
            return None
        return replace(
            result,
            cost_by_kind=dict(result.cost_by_kind),
            trace=list(result.trace),
            diagnostics=dict(result.diagnostics),
        )

    # ------------------------------------------------------------------
    # telemetry + stats
    # ------------------------------------------------------------------
    def _collect(self, outcome: QueryOutcome) -> None:
        ticket = self._tickets[outcome.request_id]
        ticket.status = outcome.status
        ticket.outcome = outcome
        request = outcome.request
        tenant = self.tenants[request.tenant]
        self._count("completed" if outcome.status == "ok" else "failed")
        if outcome.result is not None:
            tenant.record_spend(outcome.result.cost_by_kind)
        if outcome.status == "ok" and not outcome.cached and outcome.result is not None:
            # Serial, so streams are worker-count-invariant.  Cached hits
            # are skipped: a replay re-states an old epoch's estimate and
            # would dilute the drift signal with duplicates.
            query = request.query
            self.drift.observe(
                f"{query.keyword}/{query.aggregate.value}/{query.measure.name}",
                outcome.result.value,
            )
        metrics = self.obs.metrics
        if metrics is not None:
            metrics.counter(
                "service.queries", tenant=request.tenant, status=outcome.status
            ).inc()
            if outcome.cached:
                metrics.counter("service.result_cache_hits", tenant=request.tenant).inc()
            if outcome.result is not None:
                for kind, calls in sorted(outcome.result.cost_by_kind.items()):
                    if calls:
                        metrics.counter(
                            "service.calls", tenant=request.tenant, kind=kind
                        ).inc(calls)
        tracer = self.obs.trace
        if tracer is not None:
            tracer.event(
                "service.query",
                request=outcome.request_id,
                tenant=request.tenant,
                tag=request.tag,
                keyword=request.query.keyword,
                status=outcome.status,
                cached=outcome.cached,
                value=outcome.result.value if outcome.result else None,
                cost=outcome.result.cost_total if outcome.result else 0,
            )

    def _note_admission(self, ticket: _Ticket) -> None:
        request = ticket.request
        metrics = self.obs.metrics
        if metrics is not None:
            metrics.counter(
                "service.admissions", tenant=request.tenant, status=ticket.status
            ).inc()
            if request.tenant in self._queues:
                metrics.gauge("service.queue_depth", tenant=request.tenant).set(
                    len(self._queues[request.tenant])
                )
        tracer = self.obs.trace
        if tracer is not None:
            tracer.event(
                "service.admit",
                request=ticket.request_id,
                tenant=request.tenant,
                tag=request.tag,
                status=ticket.status,
                reason=ticket.reason,
                budget=request.budget,
            )

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._stats[name] = self._stats.get(name, 0) + amount

    def stats(self) -> Dict[str, int]:
        """Service counters plus the shared reuse cache's counters."""
        with self._lock:
            merged = dict(self._stats)
        for name, value in self.reuse.stats().items():
            merged[f"reuse_{name}"] = value
        return merged

    def tenant_bill(self, tenant_name: str) -> Dict[str, int]:
        """A tenant's per-kind spend columns (the reconciled bill)."""
        tenant = self.tenants.get(tenant_name)
        if tenant is None:
            raise ReproError(f"unknown tenant {tenant_name!r}")
        return tenant.spend.by_kind()

    def invalidate(self, keyword: Optional[str] = None) -> None:
        """Drop cross-query caches (for one keyword, or everything).

        The hook platform evolution needs: after the frozen columns
        change, cached intervals / columns / results are stale.
        """
        self.reuse.invalidate(keyword)
        with self._lock:
            if keyword is None:
                self._results.clear()
            else:
                name = keyword
                for key in [k for k in self._results if k[0] == name]:
                    del self._results[key]

    # ------------------------------------------------------------------
    # platform evolution
    # ------------------------------------------------------------------
    def advance(self, delta):
        """Ingest one :class:`~repro.platform.evolve.DeltaBatch` and
        re-key every cache against the new platform epoch.

        The store stitches the delta in (see
        :meth:`~repro.platform.evolve.OverlayStore.append`), the clock
        advances to the delta's latest timestamp so search windows cover
        the new posts, and *every* cross-query cache is dropped — the
        result cache's keys carry no platform component, and the reuse
        caches' fingerprint keys, while now epoch-tagged, hold memory
        that can never hit again.  Returns the
        :class:`~repro.platform.evolve.DeltaStats`.
        """
        from repro.platform.evolve import OverlayStore

        store = self.platform.store
        if not isinstance(store, OverlayStore):
            raise ReproError(
                "advance() needs an evolving platform — wrap it with "
                "repro.platform.evolve.evolve_platform first"
            )
        stats = store.append(delta)
        if stats.max_time is not None:
            self.platform.clock.sleep_until(stats.max_time)
        self.invalidate()
        self.drift.advance(stats.epoch)
        metrics = self.obs.metrics
        if metrics is not None:
            metrics.counter("service.deltas").inc()
            metrics.counter("service.delta_posts").inc(stats.posts)
            metrics.counter("service.delta_users").inc(stats.users)
            metrics.counter("service.delta_edges").inc(stats.edges)
            metrics.gauge("service.delta_epoch").set(stats.epoch)
        tracer = self.obs.trace
        if tracer is not None:
            tracer.event(
                "service.advance",
                epoch=stats.epoch,
                posts=stats.posts,
                users=stats.users,
                edges=stats.edges,
            )
        return stats

    def compact(self, directory: Optional[str] = None):
        """Re-freeze the overlay's frozen+tail state and serve from it.

        Content (and ``delta_epoch``) are carried over bit-identically —
        see :meth:`~repro.platform.evolve.OverlayStore.compact` — so warm
        caches stay valid across compaction; the service deliberately
        does **not** invalidate here, and the evolve tier pins that a
        warm post-compaction service answers byte-identically to a cold
        one.  The service keeps serving through a fresh (empty) overlay
        over the compacted store so later :meth:`advance` calls keep
        working; the compacted :class:`FrozenStore` itself is returned.
        """
        from repro.platform.evolve import OverlayStore

        store = self.platform.store
        if not isinstance(store, OverlayStore):
            raise ReproError("compact() needs an evolving platform")
        compacted = store.compact(directory)
        self.platform.store = OverlayStore(compacted)
        return compacted

    def drift_report(self) -> Dict[str, Dict[str, float]]:
        """Per-query drift summaries (and ``drift.*`` metrics export)."""
        if self.obs.metrics is not None:
            self.drift.export_metrics(self.obs.metrics)
        return self.drift.report()
