"""The simulated rate-limited microblog client.

:class:`SimulatedMicroblogClient` implements :class:`MicroblogAPI` over the
authoritative store while enforcing the platform profile's restrictions:

* SEARCH sees only posts newer than ``now - search_window`` (Twitter's
  one-week search horizon, §2) and pays one call per result page;
* USER TIMELINE returns only the most recent ``timeline_cap`` posts and
  pays one call per ``timeline_page_size`` posts; over a frozen columnar
  store the page is a :class:`~repro.api.interface.RowTimelineView` (the
  capped window of the user's column rows, materialised only if read);
* USER CONNECTIONS pays one call per ``connections_page_size`` neighbors;
* every call passes through the rate limiter and the cost meter.

:class:`CachingClient` adds a client-side cache: repeated fetches of the
same timeline or connection list are free, exactly as a real crawler would
memoise responses.  Estimators always run behind a caching client.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import accounting
from repro.api.accounting import CostMeter
from repro.api.interface import (
    ConnectionsPage,
    MicroblogAPI,
    ProfileView,
    RowTimelineView,
    SearchHit,
    TimelineView,
)
from repro.api.faults import FaultInjectingClient
from repro.api.ratelimit import RateLimiter
from repro.api.resilient import ResilientClient
from repro.errors import APIError
from repro.obs import NULL_OBS, Observability
from repro.platform.clock import SimulatedClock
from repro.platform.frozen import FrozenStore
from repro.platform.simulator import SimulatedPlatform


class SimulatedMicroblogClient(MicroblogAPI):
    """Rate-limited, cost-metered API access to a simulated platform."""

    def __init__(
        self,
        platform: SimulatedPlatform,
        budget: Optional[int] = None,
        rate_limit_policy: str = "sleep",
        latency: float = 0.0,
        obs: Optional[Observability] = None,
    ) -> None:
        self.platform = platform
        self.latency = latency
        """Real (wall-clock) seconds slept per charged API call, emulating
        network round-trip time.  0 (the default) keeps runs pure-CPU;
        benchmarks set a small value to study how the parallel engine
        overlaps per-call latency across concurrent walkers ("Walk, Not
        Wait").  Distinct from the rate limiter, whose waits advance only
        the *simulated* clock."""
        self.obs = obs if obs is not None else NULL_OBS
        self.meter = CostMeter(budget=budget)
        # Each client gets a private clock forked from the platform's:
        # rate-limit sleeps advance only this client's view of time, so one
        # estimation run cannot shift another's search-recency window.
        self.clock = SimulatedClock(platform.clock.now())
        self.limiter = RateLimiter(platform.profile, self.clock, policy=rate_limit_policy)
        cap = platform.profile.timeline_cap
        self._timeline_ceiling: Optional[int] = (
            None if cap is None else self._timeline_calls(cap)
        )
        """The most any timeline request can cost (None when timelines are
        uncapped): while the budget's headroom covers it, :meth:`admit`
        lets a timeline request through without pricing it."""

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _charge(self, kind: str, calls: int) -> None:
        # Budget check happens first: a client that cannot afford the
        # request must not consume rate-limit quota for it.
        self.meter.charge(kind, calls)
        self.limiter.acquire(calls)
        obs = self.obs
        if obs.enabled:
            # Telemetry mirrors the meter exactly: emitted only after the
            # charge succeeded, so budget-rejected requests never count.
            if obs.metrics is not None:
                obs.metrics.counter("api.calls", kind=kind).inc(calls)
            if obs.trace is not None:
                obs.trace.event("api.call", api=kind, calls=calls)
        if self.latency > 0.0 and calls > 0:
            time.sleep(self.latency * calls)

    def _profile_view(self, user_id: int) -> ProfileView:
        profile = self.platform.store.profile(user_id)
        exposes_gender = self.platform.profile.exposes_gender
        return ProfileView(
            user_id=profile.user_id,
            display_name=profile.display_name,
            followers=profile.followers,
            gender=profile.gender if exposes_gender else None,
            age=profile.age if exposes_gender else None,
        )

    def profile_view(self, user_id: int) -> ProfileView:
        """The profile header a timeline view would carry, uncharged.

        Kernel support (see :mod:`repro.core.kernels`): a columnar
        condition view for a prepaid user needs exactly the header that
        materialising the timeline would have attached — same privacy
        masking, same field values."""
        return self._profile_view(user_id)

    # ------------------------------------------------------------------
    # MicroblogAPI
    # ------------------------------------------------------------------
    def search(self, keyword: str, max_results: Optional[int] = None) -> Sequence[SearchHit]:
        """Posts mentioning *keyword* within the platform's search window.

        Results are newest-first, as real search APIs return them, and
        capped at *max_results* — callers pay only for the pages they pull.
        """
        hits = self._search_hits(keyword, max_results)
        self._charge(accounting.SEARCH, self._search_calls(len(hits)))
        return hits

    def user_connections(self, user_id: int) -> Sequence[int]:
        store = self.platform.store
        if not store.has_user(user_id):
            raise APIError(f"unknown user {user_id}")
        graph = store.graph
        if hasattr(graph, "sorted_neighbors"):
            # CSR graphs keep adjacency pre-sorted: serve the compiled
            # tuple without re-sorting (or allocating) per request.
            neighbors: Sequence[int] = graph.sorted_neighbors(user_id)
        else:
            neighbors = sorted(graph.neighbors_unsafe(user_id))
        self._charge(accounting.CONNECTIONS, self._connections_calls(len(neighbors)))
        return neighbors

    def _timeline_posts(self, user_id: int):
        """``(posts, truncated)``: the capped timeline, oldest first —
        column rows over a frozen store, ``Post`` objects otherwise."""
        store = self.platform.store
        if not store.has_user(user_id):
            raise APIError(f"unknown user {user_id}")
        if isinstance(store, FrozenStore):
            posts = store.timeline_rows(user_id)
        else:
            posts = store.timeline(user_id)  # oldest first
        cap = self.platform.profile.timeline_cap
        truncated = cap is not None and len(posts) > cap
        if truncated:
            posts = posts[-cap:]  # most recent `cap` posts survive
        return posts, truncated

    def _page(self, user_id: int, posts, truncated: bool) -> TimelineView:
        """The served page for :meth:`_timeline_posts`' answer (a row
        page builds its profile header when first read)."""
        store = self.platform.store
        if isinstance(store, FrozenStore):
            profile = functools.partial(self._profile_view, user_id)
            return RowTimelineView(profile, store, posts, truncated)
        profile = self._profile_view(user_id)
        return TimelineView(profile=profile, posts=tuple(posts), truncated=truncated)

    def user_timeline(self, user_id: int) -> TimelineView:
        posts, truncated = self._timeline_posts(user_id)
        self._charge(accounting.TIMELINE, self._timeline_calls(len(posts)))
        return self._page(user_id, posts, truncated)

    # ------------------------------------------------------------------
    # pricing: one function per request kind, shared by the charge and
    # by admission
    # ------------------------------------------------------------------
    def _search_hits(self, keyword: str, max_results: Optional[int]) -> List[SearchHit]:
        profile = self.platform.profile
        # Recency is measured from the platform's frozen "now" (the end of
        # the simulated horizon); the client's private clock only tracks
        # rate-limit waiting.
        now = self.platform.clock.now()
        window_start = now - profile.search_window
        hits = [
            SearchHit(user_id=user_id, post_id=post_id, timestamp=timestamp)
            for timestamp, user_id, post_id in self.platform.store.keyword_posts(
                keyword, start=window_start, end=now
            )
        ]
        hits.reverse()  # newest first
        if profile.search_results_cap is not None:
            hits = hits[: profile.search_results_cap]  # top-k microblogs (§2)
        if max_results is not None:
            hits = hits[:max_results]
        return hits

    def _search_calls(self, hits: int) -> int:
        profile = self.platform.profile
        return profile.calls_for_items(hits, profile.search_page_size)

    def _connections_calls(self, neighbors: int) -> int:
        profile = self.platform.profile
        return profile.calls_for_items(neighbors, profile.connections_page_size)

    def _timeline_calls(self, posts: int) -> int:
        """Calls a timeline of *posts* posts costs: only the most recent
        ``timeline_cap`` are served."""
        profile = self.platform.profile
        cap = profile.timeline_cap
        if cap is not None and posts > cap:
            posts = cap
        return profile.calls_for_items(posts, profile.timeline_page_size)

    def admit(self, key: Tuple[str, object, object]) -> None:
        """Refuse, before it is sent, a request the budget cannot afford.

        *key* is the ``(kind, subject, extra)`` request key of the fault
        and resilient layers: ``("timeline", user_id, None)``,
        ``("connections", user_id, None)`` or ``("search", keyword,
        max_results)``.  Raises the :class:`BudgetExhaustedError` the
        charge would raise, recording nothing; prices from lengths, so
        nothing is materialised.  A timeline request is not priced at all
        while the budget's headroom covers the dearest timeline (the
        ``timeline_cap`` price).  An unknown user is admitted: its request
        fails with :class:`APIError` when sent.
        """
        meter = self.meter
        budget = meter.budget
        if budget is None:
            return
        kind, subject, extra = key
        ceiling = self._timeline_ceiling
        if (
            kind == accounting.TIMELINE
            and ceiling is not None
            and budget - meter.query_total >= ceiling
        ):
            return
        store = self.platform.store
        if kind == accounting.SEARCH:
            calls = self._search_calls(len(self._search_hits(subject, extra)))
        elif not store.has_user(subject):
            return
        elif kind == accounting.TIMELINE:
            calls = self._timeline_calls(store.timeline_length(subject))
        else:
            calls = self._connections_calls(store.graph.degree(subject))
        meter.admit(calls)

    def timeline_view(self, user_id: int) -> TimelineView:
        """Assemble a timeline view *without* charging for it.

        Fast-path support (see :mod:`repro.api.fastpath`): when a
        timeline was prepaid via :meth:`charge_timeline`, the caching
        client builds the identical view through this method.
        """
        posts, truncated = self._timeline_posts(user_id)
        return self._page(user_id, posts, truncated)

    def charge_timeline(self, user_id: int, calls: int) -> None:
        """Charge a timeline fetch without serving it (fast-path prepay).

        *user_id* is not needed for the charge itself; it is the seam
        through which tests attribute per-user fetch accounting.
        """
        self._charge(accounting.TIMELINE, calls)

    def charge_connections(self, user_id: int, calls: int) -> None:
        """Charge a connections fetch (flattened fast-path serving)."""
        self._charge(accounting.CONNECTIONS, calls)

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------
    @property
    def total_cost(self) -> int:
        """Budgeted query spend (the paper's cost metric, retry-free).

        Estimators read this for stall detection and cost traces;
        keeping retry waste out of it is what lets a faulted run follow
        the exact budget trajectory of its fault-free twin."""
        return self.meter.query_total

    @property
    def simulated_wait(self) -> float:
        """Seconds of simulated sleeping imposed by the rate limiter."""
        return self.limiter.total_wait


class CachingClient(MicroblogAPI):
    """Memoising wrapper: repeated identical requests are free.

    Mirrors a real crawler's local cache.  Cache hits do not touch the
    meter or the rate limiter; the underlying client is only consulted on
    misses.  Search results are cached per (keyword, max_results) because
    the simulated "now" is frozen during an estimation run.

    Responses are cached — and served — as immutable tuples, so a cache hit
    is allocation-free: random walks revisiting a node get the exact cached
    object back instead of a defensive copy per request.

    A lock serialises fill-on-miss so a client shared by concurrently
    executing pilot walks (see ``select_time_interval(n_workers=...)``)
    never double-pays for the same response.  Per-shard clients in the
    parallel walk engine are single-threaded and pay no contention.
    """

    def __init__(self, inner: MicroblogAPI, obs: Optional[Observability] = None) -> None:
        self.inner = inner
        self.obs = obs if obs is not None else NULL_OBS
        self._timelines: Dict[int, TimelineView] = {}
        self._prepaid_timelines: set = set()
        """Users whose timeline fetch the fast path already charged but
        whose view has not been materialised (see ``prepay_timeline``)."""
        self._connections: Dict[int, Tuple[int, ...]] = {}
        self._searches: Dict[Tuple[str, Optional[int]], Tuple[SearchHit, ...]] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0
        """Responses served but deliberately *not* memoised because the
        inner client flagged them as degraded (a circuit-breaker fallback
        or a partial page recovered from a truncated transfer).  Caching
        one would poison every later request for the same key with stale
        or incomplete data even after the platform recovers."""
        self._retrying = isinstance(inner, ResilientClient)
        below = inner.inner if self._retrying else inner
        if self._retrying and isinstance(below, FaultInjectingClient):
            below = below.inner
        self.simulator: Optional[SimulatedMicroblogClient] = (
            below if isinstance(below, SimulatedMicroblogClient) else None
        )
        """The simulator at the bottom of a recognised stack — the bare
        simulator, or a :class:`ResilientClient` over it, with or without
        a :class:`FaultInjectingClient` between — else None.  These are
        the stacks the walk kernel resolves on (:mod:`repro.api.fastpath`)."""
        self.faultless = self.simulator is not None and not self._retrying
        """True when the recognised stack is the bare simulator: no layer
        beneath can raise :class:`~repro.errors.TransientAPIError`."""
        self.replays_failures = self.simulator is not None
        """True when the stack beneath is one whose budget refusals are
        pure (see :meth:`failure_key`): the recognised stacks above."""
        self._meter: Optional[CostMeter] = getattr(inner, "meter", None)

    # ------------------------------------------------------------------
    # budget-rejected requests (MA-TARW's dead-end memo)
    # ------------------------------------------------------------------
    def failure_key(self) -> object:
        """The spend a budget-rejected classification is replayable at.

        The query total; under a retrying layer also the ``retries``
        column and :attr:`uncacheable`.  A failure that moved either was
        not a pure cache walk, and a retry or a degraded serve since a
        failure was recorded may have changed the breaker state it saw.
        """
        meter = self._meter
        if self._retrying:
            return meter.query_total, meter.retries, self.uncacheable
        return meter.query_total

    def failure_counters(self) -> Tuple[int, int]:
        """The counters a budget-rejected classification moves at an
        unchanged :meth:`failure_key`: cache hits and cache misses.
        Charges, trace events and (over a fault layer, which admits
        before it draws) fault draws happen only for requests that are
        sent, so once the neighbourhood prefix before the rejected user
        is memoised these two are the failure's whole footprint."""
        return self.hits, self.misses

    def replay_failure(self, deltas: Tuple[int, int]) -> None:
        """Add one failed classification's :meth:`failure_counters` deltas
        (and their ``cache.*`` metrics) without re-running it."""
        hits, misses = deltas
        with self._lock:
            self.hits += hits
            self.misses += misses
        metrics = self.obs.metrics
        if metrics is not None:
            if hits:
                metrics.counter("cache.hits").inc(hits)
            if misses:
                metrics.counter("cache.misses").inc(misses)

    def _cacheable(self) -> bool:
        # Read under the cache lock, immediately after the inner call
        # returned, so the flag cannot belong to another request.
        return not getattr(self.inner, "last_response_degraded", False)

    def _count(self, outcome: str) -> None:
        if self.obs.metrics is not None:
            self.obs.metrics.counter("cache." + outcome).inc()

    def search(self, keyword: str, max_results: Optional[int] = None) -> Tuple[SearchHit, ...]:
        key = (keyword.lower(), max_results)
        with self._lock:
            if key not in self._searches:
                self.misses += 1
                self._count("misses")
                response = tuple(self.inner.search(keyword, max_results))
                if not self._cacheable():
                    self.uncacheable += 1
                    self._count("uncacheable")
                    return response
                self._searches[key] = response
            else:
                self.hits += 1
                self._count("hits")
            return self._searches[key]

    def user_connections(self, user_id: int) -> Tuple[int, ...]:
        with self._lock:
            if user_id not in self._connections:
                self.misses += 1
                self._count("misses")
                response = tuple(self.inner.user_connections(user_id))
                if not self._cacheable():
                    self.uncacheable += 1
                    self._count("uncacheable")
                    return response
                self._connections[user_id] = response
            else:
                self.hits += 1
                self._count("hits")
            return self._connections[user_id]

    def user_timeline(self, user_id: int) -> TimelineView:
        with self._lock:
            if user_id not in self._timelines:
                if user_id in self._prepaid_timelines:
                    # The fast path already paid for this timeline when it
                    # resolved the user's first mention from the frozen
                    # columns; materialise the identical view now,
                    # uncharged, and count the ordinary cache hit.
                    self.hits += 1
                    self._count("hits")
                    view = self.inner.timeline_view(user_id)  # type: ignore[attr-defined]
                    self._timelines[user_id] = view
                    self._prepaid_timelines.discard(user_id)
                    return view
                self.misses += 1
                self._count("misses")
                response = self.inner.user_timeline(user_id)
                if not self._cacheable():
                    self.uncacheable += 1
                    self._count("uncacheable")
                    return response
                self._timelines[user_id] = response
            else:
                self.hits += 1
                self._count("hits")
            return self._timelines[user_id]

    # ------------------------------------------------------------------
    # fast-path support (see repro.api.fastpath)
    # ------------------------------------------------------------------
    def prepay_timeline(
        self, user_id: int, inner: SimulatedMicroblogClient, calls: int
    ) -> None:
        """Charge a timeline fetch now, defer materialisation.

        Counter and charge behaviour is identical to an ordinary
        :meth:`user_timeline` miss/hit — a cached or already-prepaid user
        counts a hit and charges nothing; otherwise a miss is counted and
        *calls* charged before the user enters the prepaid set (so a
        budget rejection leaves exactly the slow-path state).
        """
        with self._lock:
            if user_id in self._timelines or user_id in self._prepaid_timelines:
                self.hits += 1
                self._count("hits")
                return
            self.misses += 1
            self._count("misses")
            inner.charge_timeline(user_id, calls)
            self._prepaid_timelines.add(user_id)

    def note_timeline_hit(self, user_id: int) -> Optional[TimelineView]:
        """Count a cache hit for a paid-for timeline without materialising.

        Kernel support (see :mod:`repro.core.kernels`): returns the cached
        view when one exists, or ``None`` for a *prepaid* user — counting
        the same hit :meth:`user_timeline` would, but leaving the user
        prepaid so the columns can serve the read.  Raises ``KeyError``
        (no counters touched) when the timeline was never paid for: the
        caller must take the ordinary charging path.
        """
        with self._lock:
            view = self._timelines.get(user_id)
            if view is not None:
                self.hits += 1
                self._count("hits")
                return view
            if user_id in self._prepaid_timelines:
                self.hits += 1
                self._count("hits")
                return None
            raise KeyError(user_id)

    def connections_via(
        self, user_id: int, inner: SimulatedMicroblogClient
    ) -> Tuple[int, ...]:
        """Flattened connections serving: cache probe, CSR adjacency and
        charge under a single lock acquisition, skipping the delegation
        hops of the layered path.  Identical counters, charges, errors
        and (object-identical) responses."""
        with self._lock:
            cached = self._connections.get(user_id)
            if cached is not None:
                self.hits += 1
                self._count("hits")
                return cached
            self.misses += 1
            self._count("misses")
            store = inner.platform.store
            if not store.has_user(user_id):
                raise APIError(f"unknown user {user_id}")
            neighbors = store.graph.sorted_neighbors(user_id)
            profile = inner.platform.profile
            inner.charge_connections(
                user_id,
                profile.calls_for_items(len(neighbors), profile.connections_page_size),
            )
            self._connections[user_id] = neighbors
            return neighbors

    @property
    def meter(self) -> CostMeter:
        """Expose the underlying meter (for cost reporting)."""
        return self.inner.meter  # type: ignore[attr-defined]

    @property
    def total_cost(self) -> int:
        return self.meter.query_total
