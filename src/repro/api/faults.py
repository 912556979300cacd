"""Deterministic fault injection for the microblog API.

Real crawls against a live platform hit transient 5xx errors, timeouts,
truncated transfers and duplicated pages — the operational frictions that
motivate "Walk, Not Wait" (Nazi et al.) and that the paper's estimators
must survive without losing their statistical guarantees.
:class:`FaultInjectingClient` wraps any :class:`MicroblogAPI` and injects
those faults from a seeded :class:`FaultPlan`.

The injector is built so that a resilient caller can heal *every* fault
and end up bit-identical to a fault-free run:

* Fault draws are keyed by ``(plan seed, request key, attempt number)``
  rather than by a shared stream, so the outcome of a request does not
  depend on which other requests happened before it.  Per-shard clients
  in the parallel engine therefore inject the *same* faults for the same
  request regardless of worker count or interleaving.  Each draw is the
  first uniform of a ``random.Random`` seeded with a string formatted
  from that triple; as a pure function of that string it is memoised
  process-wide (:func:`seeded_uniform`), so a request re-asked in a
  later walk or query re-reads its dice instead of re-seeding a
  Mersenne Twister.
* The clean inner response for each logical request is fetched (and its
  query cost charged) exactly **once**, no matter how many injected
  failures precede the successful attempt — so the budgeted query
  trajectory of a healed run matches the fault-free run exactly.
* ``max_consecutive_faults`` caps the number of back-to-back failures
  per request, guaranteeing a retrying caller with a larger attempt
  budget always eventually receives the clean response.
* A request the budget refuses is refused *before* any draw.  When the
  inner client can price requests
  (:meth:`~repro.api.client.SimulatedMicroblogClient.admit`), an unpaid
  request it cannot afford raises :class:`BudgetExhaustedError` before
  an attempt is counted or a fault drawn — so no retry, backoff or trace
  event is spent on traffic a budgeted client never sends, and
  re-asking a refused request is free of side effects.  Retries of an
  already-paid truncated response (no further charge) and requests for
  unknown users (which fail with :class:`APIError` when sent) skip the
  check.  Admission is gated on headroom: while the budget left covers
  the dearest timeline, a timeline request is admitted without being
  priced.

Fault kinds, in draw order:

``transient``
    The request fails outright (:class:`TransientAPIError`), e.g. a 503.
``timeout``
    The request times out (:class:`APITimeoutError`).
``truncate``
    The transfer is cut short: :class:`TruncatedResponseError` carrying
    the delivered prefix in ``.partial``.  The clean response *was*
    produced server-side, so this attempt is the one that pays the
    normal query cost.
``duplicate``
    The request *succeeds* but the page contains duplicated entries
    (retransmitted rows) — corruption a resilient caller must detect
    and heal by deduplication.

Pages keep the shape the inner client served.  A timeline page held as
column rows (:class:`~repro.api.interface.RowTimelineView`, the
simulator over a frozen store) is truncated to the first half of its row
range and corrupted by repeating its middle row index — the positions
:func:`_duplicate_sequence` uses for ``Post`` tuples and id sequences —
so no ``Post`` is materialised on the way.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.api.interface import MicroblogAPI, RowTimelineView, SearchHit, TimelineView
from repro.errors import (
    APITimeoutError,
    ReproError,
    TransientAPIError,
    TruncatedResponseError,
)
from repro.obs import NULL_OBS, Observability

TRANSIENT = "transient"
TIMEOUT = "timeout"
TRUNCATE = "truncate"
DUPLICATE = "duplicate"

RequestKey = Tuple[str, object, object]

SEEDED_UNIFORM_CACHE = 1 << 16
"""Bound on the memo of :func:`seeded_uniform` (least recently used
seed strings are dropped beyond it)."""


@functools.lru_cache(maxsize=SEEDED_UNIFORM_CACHE)
def seeded_uniform(text: str) -> float:
    """``random.Random(text).random()``: the first uniform of a generator
    seeded with *text*, memoised.

    Fault draws and backoff jitter are pure functions of a seed string,
    and a hostile run asks for the same strings again and again (every
    re-walk of a node re-asks its requests), while seeding one Mersenne
    Twister costs far more than the draw.  The memo is keyed on the exact
    string, not on the values it was formatted from: values that compare
    equal can format differently (``np.int64(5) == 5``, yet their reprs
    differ), and the string is what seeds the draw.
    """
    return random.Random(text).random()


@dataclass(frozen=True)
class FaultPlan:
    """Seeded fault configuration for a :class:`FaultInjectingClient`.

    Rates are independent probabilities partitioning a single uniform
    draw per attempt, so their sum must stay at or below 1.  A plan is a
    frozen value object: the same plan injected into two clients (e.g.
    per-shard rebuilds in the parallel engine) produces the same faults
    for the same requests.
    """

    seed: int = 0
    transient_rate: float = 0.0
    timeout_rate: float = 0.0
    truncate_rate: float = 0.0
    duplicate_rate: float = 0.0
    max_consecutive_faults: int = 6
    """Hard cap on back-to-back injected failures for one request key.
    Keeping this *below* the resilient client's attempt budget is what
    makes every fault healable — and healed runs bit-identical."""

    def __post_init__(self) -> None:
        for name in ("transient_rate", "timeout_rate", "truncate_rate", "duplicate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ReproError(f"{name} must be in [0, 1], got {rate}")
        if self.fault_rate + self.duplicate_rate > 1.0:
            raise ReproError("fault rates must sum to at most 1")
        if self.max_consecutive_faults < 1:
            raise ReproError("max_consecutive_faults must be positive")

    @property
    def fault_rate(self) -> float:
        """Probability an attempt fails outright (excludes duplicates,
        which corrupt a successful response instead of failing it)."""
        return self.transient_rate + self.timeout_rate + self.truncate_rate

    @property
    def active(self) -> bool:
        return self.fault_rate > 0.0 or self.duplicate_rate > 0.0


FAULT_PROFILES: Dict[str, FaultPlan] = {
    "none": FaultPlan(),
    "flaky": FaultPlan(transient_rate=0.05, timeout_rate=0.02, duplicate_rate=0.02),
    "unstable": FaultPlan(
        transient_rate=0.10, timeout_rate=0.05, truncate_rate=0.03, duplicate_rate=0.03
    ),
    "hostile": FaultPlan(
        transient_rate=0.20, timeout_rate=0.10, truncate_rate=0.05, duplicate_rate=0.05
    ),
}
"""Named plans for the CLI ``--fault-profile`` flag and the chaos suite.
``hostile`` is the acceptance-criteria profile: 20% transient errors on
top of timeouts, truncation and duplication."""


def _duplicate_sequence(items: Sequence) -> tuple:
    """Corrupt a page by retransmitting one row (sortedness preserved)."""
    if not items:
        return tuple(items)
    mid = len(items) // 2
    out = list(items)
    out.insert(mid, out[mid])
    return tuple(out)


class FaultInjectingClient(MicroblogAPI):
    """Injects seeded faults between a caller and an inner API client.

    Thread-compatible in the same sense as the inner simulated client:
    per-shard instances in the parallel engine are single-threaded, and
    the shared-client path (pilot walks) serialises through the outer
    :class:`~repro.api.client.CachingClient` lock.
    """

    def __init__(
        self, inner: MicroblogAPI, plan: FaultPlan, obs: Optional["Observability"] = None
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.obs = obs if obs is not None else NULL_OBS
        self._attempts: Dict[RequestKey, int] = {}
        self._consecutive: Dict[RequestKey, int] = {}
        self._clean: Dict[RequestKey, object] = {}
        self._admit = getattr(inner, "admit", None)
        """The inner client's budget admission check, when it has one."""
        self.injected: Dict[str, int] = {TRANSIENT: 0, TIMEOUT: 0, TRUNCATE: 0, DUPLICATE: 0}

    def _note_injected(self, fault: str) -> None:
        if self.obs.metrics is not None:
            self.obs.metrics.counter("faults.injected", fault=fault).inc()

    # ------------------------------------------------------------------
    # fault machinery
    # ------------------------------------------------------------------
    def _draw(self, key: RequestKey, attempt: int) -> Optional[str]:
        """The fault (or None) injected for *attempt* of request *key*.

        The draw is a pure function of (plan seed, key, attempt): no
        shared RNG stream, so request interleaving across walkers,
        shards or workers cannot change any individual outcome — and a
        memoised one (:func:`seeded_uniform`).
        """
        if self._consecutive.get(key, 0) >= self.plan.max_consecutive_faults:
            return None
        plan = self.plan
        u = seeded_uniform(f"{plan.seed}:{key!r}:{attempt}")
        edge = plan.transient_rate
        if u < edge:
            return TRANSIENT
        edge += plan.timeout_rate
        if u < edge:
            return TIMEOUT
        edge += plan.truncate_rate
        if u < edge:
            return TRUNCATE
        edge += plan.duplicate_rate
        if u < edge:
            return DUPLICATE
        return None

    def _fetch_clean(self, key: RequestKey, fetch):
        """The inner response for *key*, charged exactly once.

        Memoised so that a request which fails (truncates) after the
        server produced the page, then succeeds on retry, pays its
        normal query cost a single time — keeping the budget trajectory
        identical to a fault-free run.
        """
        if key not in self._clean:
            self._clean[key] = fetch()
        return self._clean[key]

    def _attempt(self, key: RequestKey, fetch):
        admit = self._admit
        if admit is not None and key not in self._clean:
            admit(key)  # a refused request draws nothing
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        fault = self._draw(key, attempt)
        if fault in (TRANSIENT, TIMEOUT):
            self._consecutive[key] = self._consecutive.get(key, 0) + 1
            self.injected[fault] += 1
            self._note_injected(fault)
            if fault == TRANSIENT:
                raise TransientAPIError(f"injected transient failure for {key}")
            raise APITimeoutError(f"injected timeout for {key}")
        # Truncation and success both need the clean response (the server
        # did the work; only delivery differs).
        response = self._fetch_clean(key, fetch)
        if fault == TRUNCATE:
            self._consecutive[key] = self._consecutive.get(key, 0) + 1
            self.injected[TRUNCATE] += 1
            self._note_injected(TRUNCATE)
            raise TruncatedResponseError(
                f"injected truncated transfer for {key}",
                partial=self._truncate(response),
            )
        self._consecutive[key] = 0
        if fault == DUPLICATE:
            self.injected[DUPLICATE] += 1
            self._note_injected(DUPLICATE)
            return self._corrupt(response)
        return response

    @staticmethod
    def _truncate(response):
        """The delivered prefix of a cut-short transfer."""
        if isinstance(response, TimelineView):
            return response.head(response.post_count // 2)
        cut = len(response) // 2
        return tuple(response[:cut])

    @staticmethod
    def _corrupt(response):
        """A successful page with one retransmitted row."""
        if isinstance(response, RowTimelineView):
            rows = response.rows
            if rows.shape[0] == 0:
                return response
            mid = rows.shape[0] // 2
            return response.with_rows(np.insert(rows, mid, rows[mid]))
        if isinstance(response, TimelineView):
            return replace(response, posts=_duplicate_sequence(response.posts))
        return _duplicate_sequence(response)

    # ------------------------------------------------------------------
    # MicroblogAPI
    # ------------------------------------------------------------------
    def search(self, keyword: str, max_results: Optional[int] = None) -> Sequence[SearchHit]:
        key: RequestKey = ("search", keyword.lower(), max_results)
        return self._attempt(key, lambda: tuple(self.inner.search(keyword, max_results)))

    def user_connections(self, user_id: int) -> Sequence[int]:
        key: RequestKey = ("connections", user_id, None)
        return self._attempt(key, lambda: tuple(self.inner.user_connections(user_id)))

    def user_timeline(self, user_id: int) -> TimelineView:
        key: RequestKey = ("timeline", user_id, None)
        return self._attempt(key, lambda: self.inner.user_timeline(user_id))

    # ------------------------------------------------------------------
    # passthroughs (estimators and wrappers reach these by attribute)
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
        return self.inner.clock

    @property
    def total_cost(self) -> int:
        return self.inner.total_cost

    @property
    def simulated_wait(self) -> float:
        return self.inner.simulated_wait
