"""Flattened client fast path for the estimate-time hot loop.

A clean estimation stack is always the same four layers::

    QueryContext -> CachingClient -> SimulatedMicroblogClient -> FrozenStore

and the walk's dominant operation — classify every neighbor of a visited
node — funnels each user through all of them one at a time: a cache-dict
probe, a delegation call, a budget charge, then a full timeline
materialisation (thousands of :class:`~repro.platform.posts.Post`
objects) just to read *one* timestamp out of it.

:func:`resolve_fast_path` inspects a client stack once per query and,
when every layer is the plain clean-path object (caching client directly
over the simulator, frozen columnar store, no fault or resilient layers),
returns a :class:`FastPathOps` whose operations are pre-resolved
closures over the store's columns:

* **first-mention resolution** reads the per-keyword first-mention
  columns compiled at freeze time (``searchsorted`` on the sorted user
  column) instead of materialising the timeline, and batches all
  neighbors of a node into one vectorised lookup;
* **connections** serve the CSR adjacency tuple with a single lock
  acquisition instead of three delegation hops.

Accounting is *identical* to the slow path by construction: each
logical fetch still performs the same ``CostMeter`` charge (same kind,
same call count, same order), the same rate-limiter acquisition, the
same ``api.call`` trace event and cache hit/miss counters — a traced
fast-path run emits byte-identical records to a slow-path run.  The
cache is kept honest through *prepaid* timelines
(:meth:`CachingClient.prepay_timeline`): the fast path pays for the
timeline now, and if a later operation (a condition check) needs the
materialised view, the caching client builds it uncharged.

The slow path is taken whenever any resolution rule fails:

* a fault-injection or resilient layer sits in the stack (chaos runs
  must exercise the layered clients they are testing);
* the store is not a :class:`FrozenStore` (legacy mutable planes);
* the client is not a :class:`CachingClient` over a
  :class:`SimulatedMicroblogClient`;
* per user: the timeline exceeds the profile's cap — the store's global
  first mention may be invisible in the capped window, so truncated
  users take the ordinary per-user fetch (identical accounting either
  way).

``set_fast_path_enabled(False)`` disables resolution process-wide; the
hot-path bench uses it to time the before/after pair on identical
inputs, and the regression tests to prove bit-identity.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.client import CachingClient, SimulatedMicroblogClient
from repro.errors import PlatformError
from repro.obs import NULL_OBS, Observability
from repro.platform.frozen import FrozenStore

_ENABLED = True
_ENABLED_LOCK = threading.Lock()


def set_fast_path_enabled(enabled: bool) -> bool:
    """Process-wide fast-path switch; returns the previous setting.

    Exists for the hot-path bench (before/after timing on identical
    inputs) and the bit-identity regression tests.  Contexts resolve the
    switch at construction time, so flipping it mid-run has no effect on
    runs already started.
    """
    global _ENABLED
    with _ENABLED_LOCK:
        previous = _ENABLED
        _ENABLED = bool(enabled)
    return previous


def fast_path_enabled() -> bool:
    return _ENABLED


class FastPathOps:
    """Pre-resolved per-API-kind operations over a clean client stack.

    One instance is scoped to one ``(client, keyword)`` pair — exactly
    the scope of a :class:`~repro.core.graph_builder.QueryContext` — so
    the keyword's first-mention columns are bound once.  All methods are
    thread-safe: mutation of the shared cache happens under the caching
    client's own lock, as on the slow path.
    """

    __slots__ = (
        "cache",
        "sim",
        "store",
        "keyword",
        "kw_users",
        "kw_times",
        "timeline_cap",
        "timeline_page",
        "calls_for_items",
        "slow_timeline_detours",
        "_metrics",
    )

    def __init__(
        self,
        cache: CachingClient,
        sim: SimulatedMicroblogClient,
        store: FrozenStore,
        keyword: str,
        metrics=None,
    ) -> None:
        self.cache = cache
        self.sim = sim
        self.store = store
        self.keyword = keyword
        self.kw_users, self.kw_times = store.first_mention_arrays(keyword)
        profile = sim.platform.profile
        self.timeline_cap = profile.timeline_cap
        self.timeline_page = profile.timeline_page_size
        self.calls_for_items = profile.calls_for_items
        self.slow_timeline_detours = 0
        """Per-user fallbacks to the layered timeline fetch (capped
        timelines / unknown users).  These are *correct* slow-path trips,
        charged identically; the counter exists so benches can report how
        often the batch resolution actually applied."""
        self._metrics = metrics

    # ------------------------------------------------------------------
    # timelines / first mentions
    # ------------------------------------------------------------------
    def note_slow_detour(self, count: int = 1) -> None:
        """Count *count* per-user fallbacks to the layered timeline fetch.

        Shared with the compiled kernel's capped-window resolution
        (:mod:`repro.core.kernels`), which replaces the detour's *work*
        but deliberately replays its counter and metric so kernel-on and
        kernel-off runs report identical telemetry."""
        self.slow_timeline_detours += count
        if self._metrics is not None:
            self._metrics.counter("fastpath.slow_detour", api="timeline").inc(count)

    def _slow_first_mention(self, user_id: int) -> Optional[float]:
        """Ordinary layered fetch — identical charges, trace and cache
        effects; used for users the columns cannot answer exactly."""
        self.note_slow_detour()
        view = self.cache.user_timeline(user_id)
        return view.first_mention_time(self.keyword)

    def first_mention_into(
        self, user_id: int, memo: Dict[int, Optional[float]]
    ) -> None:
        """Resolve one user's first mention into *memo* (scalar path)."""
        store = self.store
        try:
            length = store.timeline_length(user_id)
        except PlatformError:
            # Unknown user: route through the layered path so the caller
            # sees the exact same APIError as without the fast path.
            memo[user_id] = self._slow_first_mention(user_id)
            return
        cap = self.timeline_cap
        if cap is not None and length > cap:
            memo[user_id] = self._slow_first_mention(user_id)
            return
        self.cache.prepay_timeline(
            user_id, self.sim, self.calls_for_items(length, self.timeline_page)
        )
        memo[user_id] = store.first_mention_time(self.keyword, user_id)

    def first_mentions_into(
        self, user_ids: Sequence[int], memo: Dict[int, Optional[float]]
    ) -> None:
        """Batched :meth:`first_mention_into` over *user_ids*.

        Lengths, call counts and first-mention timestamps are resolved
        for the whole batch in vectorised ``searchsorted`` lookups; the
        *charges* then replay in sequence order, one per uncached user —
        the same charges, in the same order, as sequential slow-path
        calls would issue (a mid-batch ``BudgetExhaustedError`` therefore
        leaves exactly the prefix state the slow path would).
        """
        missing = [u for u in user_ids if u not in memo]
        if not missing:
            return
        arr = np.asarray(missing, dtype=np.int64)
        try:
            lengths = self.store.timeline_lengths(arr)
        except PlatformError:
            for user_id in missing:
                self.first_mention_into(user_id, memo)
            return
        kw_users = self.kw_users
        if kw_users.size:
            pos = np.minimum(
                np.searchsorted(kw_users, arr), kw_users.size - 1
            )
            mentioned = kw_users[pos] == arr
            times = self.kw_times[pos]
        else:
            mentioned = np.zeros(arr.size, dtype=bool)
            times = np.zeros(arr.size, dtype=np.float64)
        cap = self.timeline_cap
        page = self.timeline_page
        calls_for_items = self.calls_for_items
        cache = self.cache
        sim = self.sim
        lengths_list = lengths.tolist()
        mentioned_list = mentioned.tolist()
        times_list = times.tolist()
        for i, user_id in enumerate(missing):
            length = lengths_list[i]
            if cap is not None and length > cap:
                memo[user_id] = self._slow_first_mention(user_id)
                continue
            cache.prepay_timeline(user_id, sim, calls_for_items(length, page))
            memo[user_id] = times_list[i] if mentioned_list[i] else None

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    def connections(self, user_id: int) -> Tuple[int, ...]:
        """Flattened connections fetch: one lock acquisition, no
        delegation hops; identical cache counters and charges."""
        return self.cache.connections_via(user_id, self.sim)


def resolve_fast_path(
    client,
    keyword: str,
    obs: Optional[Observability] = None,
) -> Optional[FastPathOps]:
    """Resolve *client*'s stack to flattened ops, or None for slow path.

    Emits ``fastpath.resolved`` / ``fastpath.plane{plane}`` /
    ``fastpath.fallback{reason}`` counters
    when a metrics registry is attached, so CI's perf-smoke guard can
    fail a run whose stack silently stopped resolving.
    """
    obs = obs if obs is not None else NULL_OBS
    metrics = obs.metrics

    def fallback(reason: str) -> None:
        if metrics is not None:
            metrics.counter("fastpath.fallback", reason=reason).inc()

    if not _ENABLED:
        fallback("disabled")
        return None
    if not isinstance(client, CachingClient):
        fallback("no-cache")
        return None
    inner = client.inner
    if not isinstance(inner, SimulatedMicroblogClient):
        # Fault-injection / resilient layers (or a non-simulated client):
        # chaos runs must exercise the layered clients they are testing.
        fallback("layered-stack")
        return None
    store = inner.platform.store
    if not isinstance(store, FrozenStore):
        fallback("legacy-store")
        return None
    if metrics is not None:
        metrics.counter("fastpath.resolved").inc()
        metrics.counter(
            "fastpath.plane", plane=getattr(store, "storage", "ram")
        ).inc()
    return FastPathOps(client, inner, store, keyword, metrics=metrics)


__all__: List[str] = [
    "FastPathOps",
    "fast_path_enabled",
    "resolve_fast_path",
    "set_fast_path_enabled",
]
