"""Retry, backoff and circuit-breaking for the microblog API.

:class:`ResilientClient` wraps any :class:`MicroblogAPI` and absorbs the
transient-fault family (:class:`TransientAPIError` and subclasses):

* **Retries with capped exponential backoff.**  Failed attempts retry up
  to :attr:`RetryPolicy.max_attempts` times.  Backoff delays grow
  geometrically, are capped, carry *deterministic* jitter (a pure hash
  of policy seed, request key and attempt number — no shared RNG
  stream — memoised like the fault draws by
  :func:`~repro.api.faults.seeded_uniform`), and advance only the
  wrapped client's :class:`SimulatedClock` so wall time and estimator
  randomness are untouched.
* **Retry accounting.**  Every failed attempt charges one call to the
  :class:`~repro.api.accounting.CostMeter` under the budget-exempt
  ``retries`` kind, so the waste a crawl pays is fully visible without
  distorting the paper's query-cost metric.
* **Circuit breaker.**  After ``breaker_threshold`` *consecutive*
  failures the circuit opens for ``breaker_cooldown`` simulated seconds:
  requests stop hitting the platform and are served from the last good
  response for the same request, flagged as degraded, or fail fast with
  :class:`CircuitOpenError`.  Each request the open circuit turns away
  waits ``base_delay`` on the simulated clock (booked in
  :attr:`ResilientClient.backoff_wait`), so the cooldown elapses within
  a run; after it a single probe request half-opens the circuit.
* **Degraded fallbacks.**  When retries are exhausted the client falls
  back — in order — to the last good response for the key, then to the
  ``.partial`` payload of a truncated transfer.  Served fallbacks set
  :attr:`last_response_degraded` so an outer
  :class:`~repro.api.client.CachingClient` knows not to memoise them
  (the poisoned-cache scenario).  Only when no fallback exists does the
  error propagate to walk-level recovery in the estimators.
* **Duplicate healing.**  Every response is checked for duplicates with
  one set of ids (connections: neighbour ids; timelines: post ids, or the
  column rows of a :class:`~repro.api.interface.RowTimelineView` — one
  row per post; search pages: ``(user_id, post_id)``); only a page that
  has one is rebuilt (connections: sorted-unique; timelines and search
  pages: stable-unique, a row page on its rows).  A clean response comes
  back as is, so a healed faulty run returns bit-identical data to a
  fault-free one; a row page stays a row page, so healing materialises
  no ``Post``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.api import accounting
from repro.api.faults import seeded_uniform
from repro.api.interface import MicroblogAPI, RowTimelineView, SearchHit, TimelineView
from repro.errors import (
    BudgetExhaustedError,
    CircuitOpenError,
    ReproError,
    TransientAPIError,
    TruncatedResponseError,
)
from repro.obs import NULL_OBS, Observability
from repro.platform.clock import SimulatedClock

RequestKey = Tuple[str, object, object]


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff, retry-budget and breaker configuration.

    The defaults out-retry the default :class:`~repro.api.faults.FaultPlan`
    (``max_attempts`` exceeds ``max_consecutive_faults``) so every
    injected fault heals, and keep the breaker threshold above the
    longest healable failure streak so the circuit never opens during a
    healable run — two invariants the chaos suite pins.
    """

    max_attempts: int = 8
    base_delay: float = 2.0
    max_delay: float = 120.0
    backoff_factor: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    breaker_threshold: int = 12
    breaker_cooldown: float = 900.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError("max_attempts must be positive")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ReproError("delays must satisfy 0 <= base_delay <= max_delay")
        if self.backoff_factor < 1.0:
            raise ReproError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ReproError("jitter must be in [0, 1)")
        if self.breaker_threshold < 1:
            raise ReproError("breaker_threshold must be positive")
        if self.breaker_cooldown < 0:
            raise ReproError("breaker_cooldown must be non-negative")

    def delay_for(self, key: RequestKey, attempt: int) -> float:
        """Backoff before retry *attempt* of *key* (simulated seconds).

        Deterministic jitter: a pure function of (seed, key, attempt),
        so retry timing cannot depend on request interleaving; memoised
        on its seed string by :func:`~repro.api.faults.seeded_uniform`.
        """
        base = min(self.max_delay, self.base_delay * self.backoff_factor**attempt)
        if self.jitter == 0.0:
            return base
        u = seeded_uniform(f"{self.seed}:backoff:{key!r}:{attempt}")
        return base * (1.0 - self.jitter + 2.0 * self.jitter * u)


_post_id = attrgetter("post_id")
_hit_marker = attrgetter("user_id", "post_id")


def _rows_unique(rows: np.ndarray) -> bool:
    """True when no column row repeats (sort, then compare neighbours)."""
    ordered = np.sort(rows)
    return not (ordered[1:] == ordered[:-1]).any()


def _dedupe(items: Sequence, marker) -> Tuple:
    """Stable-unique *items* by ``marker(item)``: first occurrence wins."""
    seen = set()
    out = []
    for item in items:
        mark = marker(item)
        if mark not in seen:
            seen.add(mark)
            out.append(item)
    return tuple(out)


class ResilientClient(MicroblogAPI):
    """Fault-absorbing wrapper: retries, heals, degrades, then raises."""

    def __init__(
        self,
        inner: MicroblogAPI,
        policy: Optional[RetryPolicy] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self.obs = obs if obs is not None else NULL_OBS
        # Backoff advances the wrapped client's private simulated clock
        # when it has one (keeping one notion of elapsed crawl time);
        # otherwise a standalone clock tracks backoff on its own.
        self._clock: SimulatedClock = getattr(inner, "clock", None) or SimulatedClock(0.0)
        self._last_good: Dict[RequestKey, object] = {}
        self._consecutive_failures = 0
        self._open_until: Optional[float] = None
        self.retries = 0
        """Failed attempts absorbed (mirrors the meter's ``retries`` column)."""
        self.degraded_serves = 0
        """Responses served from a fallback instead of the platform."""
        self.backoff_wait = 0.0
        """Simulated seconds spent backing off between attempts."""
        self.last_response_degraded = False
        """True iff the most recent response was a fallback (stale or
        partial).  An outer cache must not memoise such responses."""

    # ------------------------------------------------------------------
    # breaker
    # ------------------------------------------------------------------
    @property
    def circuit_open(self) -> bool:
        return self._open_until is not None and self._clock.now() < self._open_until

    def _record_failure(self) -> None:
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.policy.breaker_threshold:
            was_open = self._open_until is not None
            self._open_until = self._clock.now() + self.policy.breaker_cooldown
            if not was_open and self.obs.trace is not None:
                self.obs.trace.event(
                    "api.circuit_open",
                    failures=self._consecutive_failures,
                    until=round(self._open_until, 6),
                )

    def _record_success(self) -> None:
        self._consecutive_failures = 0
        if self._open_until is not None:
            self._open_until = None
            if self.obs.trace is not None:
                self.obs.trace.event("api.circuit_close")

    # ------------------------------------------------------------------
    # retry loop
    # ------------------------------------------------------------------
    def _charge_retry(self, key: RequestKey, attempt: int, err: TransientAPIError) -> None:
        self.retries += 1
        meter = getattr(self.inner, "meter", None)
        if meter is not None:
            meter.charge(accounting.RETRIES, 1)
        obs = self.obs
        if obs.enabled:
            # One telemetry unit per failed attempt, the same grain as the
            # meter's budget-exempt ``retries`` column — the obs test tier
            # reconciles the two exactly.
            if obs.metrics is not None:
                obs.metrics.counter("api.calls", kind=accounting.RETRIES).inc()
            if obs.trace is not None:
                obs.trace.event(
                    "api.retry", api=key[0], attempt=attempt, error=type(err).__name__
                )

    def _degrade(self, key: RequestKey, err: TransientAPIError):
        """Last-resort fallback once retries are exhausted (or skipped)."""
        if key in self._last_good:
            self.degraded_serves += 1
            self.last_response_degraded = True
            self._note_degraded(key, "last_good")
            return self._last_good[key]
        if isinstance(err, TruncatedResponseError) and err.partial is not None:
            self.degraded_serves += 1
            self.last_response_degraded = True
            self._note_degraded(key, "partial")
            return self._heal(key[0], err.partial)
        raise err

    def _note_degraded(self, key: RequestKey, source: str) -> None:
        obs = self.obs
        if obs.enabled:
            if obs.metrics is not None:
                obs.metrics.counter("api.degraded", source=source).inc()
            if obs.trace is not None:
                obs.trace.event("api.degraded", api=key[0], source=source)

    def _call(self, key: RequestKey, fetch):
        self.last_response_degraded = False
        if self.circuit_open:
            # While open, don't touch the platform at all: serve stale
            # or fail fast so a melting-down API gets room to recover.
            # The turned-away request still waits one base delay, so the
            # cooldown elapses on the simulated clock and a later request
            # can half-open the circuit.
            delay = self.policy.base_delay
            self.backoff_wait += delay
            self._clock.advance(delay)
            return self._degrade(key, CircuitOpenError(f"circuit open for {key}"))
        last_err: Optional[TransientAPIError] = None
        for attempt in range(self.policy.max_attempts):
            if attempt > 0:
                delay = self.policy.delay_for(key, attempt - 1)
                self.backoff_wait += delay
                self._clock.advance(delay)
            try:
                response = fetch()
            except BudgetExhaustedError:
                # The platform is healthy — the caller's own budget
                # refused the call.  Over a FaultInjectingClient, admission
                # refuses such a request before any fault is drawn, so this
                # is reached on a first attempt; a refusal after injected
                # failures needs concurrent pilot spend to win a race with
                # admission.  Those failures must not poison the breaker:
                # walkers that end by exhaustion (not plateau) would
                # otherwise see CircuitOpenError where the clean run sees
                # budget exhaustion, breaking fault bit-identity.
                self._record_success()
                raise
            except TransientAPIError as err:
                last_err = err
                self._charge_retry(key, attempt, err)
                self._record_failure()
                if self.circuit_open:
                    break  # the breaker tripped mid-request: stop hammering
            else:
                self._record_success()
                healed = self._heal(key[0], response)
                self._last_good[key] = healed
                return healed
        return self._degrade(key, last_err)

    # ------------------------------------------------------------------
    # duplicate healing
    # ------------------------------------------------------------------
    @staticmethod
    def _heal(kind: str, response):
        """Deduplicate corrupted pages; a clean response comes back as is.

        Uniqueness is checked at C speed (a set of ids, or a sort of a
        row page's rows); the per-row dedupe runs only on a page that
        holds a duplicate."""
        if kind == "connections":
            unique = set(response)
            if len(unique) == len(response):
                return tuple(response)
            return tuple(sorted(unique))
        if kind == "timeline":
            if isinstance(response, RowTimelineView):
                rows = response.rows
                if _rows_unique(rows):
                    return response
                _, first = np.unique(rows, return_index=True)
                return response.with_rows(rows[np.sort(first)])
            posts = response.posts
            if len(set(map(_post_id, posts))) == len(posts):
                return response
            return replace(response, posts=_dedupe(posts, _post_id))
        if len(set(map(_hit_marker, response))) == len(response):
            return tuple(response)
        return _dedupe(response, _hit_marker)

    # ------------------------------------------------------------------
    # MicroblogAPI
    # ------------------------------------------------------------------
    def search(self, keyword: str, max_results: Optional[int] = None) -> Sequence[SearchHit]:
        key: RequestKey = ("search", keyword.lower(), max_results)
        return self._call(key, lambda: tuple(self.inner.search(keyword, max_results)))

    def user_connections(self, user_id: int) -> Sequence[int]:
        key: RequestKey = ("connections", user_id, None)
        return self._call(key, lambda: tuple(self.inner.user_connections(user_id)))

    def user_timeline(self, user_id: int) -> TimelineView:
        key: RequestKey = ("timeline", user_id, None)
        return self._call(key, lambda: self.inner.user_timeline(user_id))

    # ------------------------------------------------------------------
    # passthroughs
    # ------------------------------------------------------------------
    @property
    def meter(self):
        return self.inner.meter

    @property
    def platform(self):
        return self.inner.platform

    @property
    def limiter(self):
        return self.inner.limiter

    @property
    def latency(self):
        return self.inner.latency

    @property
    def clock(self):
        return self._clock

    @property
    def total_cost(self) -> int:
        return self.inner.total_cost

    @property
    def simulated_wait(self) -> float:
        return self.inner.simulated_wait
