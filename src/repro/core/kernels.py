"""Compiled walk kernels: batched column reads under the walk loop.

The fast path (:mod:`repro.api.fastpath`) binds the *client stack*;
this module flattens the per-user reads *on top of it*.
:func:`resolve_kernel` inspects a
:class:`~repro.core.graph_builder.QueryContext` once per query and, when
the fast path resolved and the store's columns are clean 1-D contiguous
int64/float64 arrays, returns a :class:`KernelOps` providing

* **batched first mentions** — ``resolve_mentions`` answers a whole
  neighborhood; ``QueryContext.first_mention`` and ``first_mentions``
  route through it, so the one classifier
  (``LevelByLevelOracle._classify``) gets the batch whenever a kernel
  resolved.  On the bare stack (``faultless``) it reads the frozen
  columns directly (batched ``timeline_lengths`` + first-mention
  ``searchsorted``) and prepays each timeline.  On a faulted stack each
  miss goes through the client stack in input order — admission, fault
  dice, retries, ``uncacheable`` and degraded serves as on the layered
  path — and the answer is read from the returned page's column rows
  (:class:`~repro.api.interface.RowTimelineView`), never from ``Post``
  objects;
* **capped-window resolution** — users whose timeline exceeds the
  platform cap would otherwise materialise the entire capped timeline
  (thousands of :class:`~repro.platform.posts.Post` objects) to read one
  timestamp.  The kernel reads the same answer from the capped row
  window of the columns (`timeline_rows[-cap:]` + keyword-code mask),
  with byte-identical charges, cache counters and trace events;
* **columnar condition views** — ``build_view`` assembles the
  :class:`~repro.core.query.UserView` for a prepaid user, or from a
  cached row page, straight from the columns (only *matching* posts are
  materialised) instead of building the full timeline tuple;
* **paged prefetch (mmap plane, bare stack)** — :class:`PagePrefetcher` batches
  ``madvise(WILLNEED)`` over the timeline pages a walk batch is about to
  touch, so classification of a 10M-row mapped store overlaps its page
  faults instead of serialising them.  The touch-ahead window is
  ``drop_caches``-aware: the store's ``cache_epoch`` invalidates the
  already-advised set.

A resolved kernel does *not* mean the stack is clean: ``faultless``
says so.  Only on a faultless kernel may the walkers classify straight
through the oracle instead of through the fault-retry wrapper
(``BaseWalker._faultless``, see ``MATARWEstimator._instance_runner``).
The dead-end memo that replays budget-rejected classifications from
their counter footprint is not kernel-specific: it reads the caching
client's ``failure_counters`` / ``replay_failure`` on every stack.

Resolution rules / fallback matrix (mirrors ``resolve_fast_path``; the
``kernel.fallback{reason}`` counter names the failing rule):

========================  =====================================================
reason                    rule
========================  =====================================================
``disabled``              :func:`set_kernel_enabled` switch off, or the
                          ``REPRO_NO_KERNEL=1`` environment override
``no-fastpath``           the context's fast path did not resolve (legacy
                          store, non-caching client, or a stack the caching
                          client does not recognise)
``non-contiguous``        any serving column is not a clean 1-D C-contiguous
                          int64/float64 array
========================  =====================================================

On success ``kernel.resolved`` fires — on the bare stack and on the
fault/resilient stacks alike.  A context whose kernel does not resolve
drops its fast path too, so there are two configurations: fast path +
kernel, or fully layered (``set_kernel_enabled(False)`` selects the
latter on every stack; it is the twin the kernel tier compares against).

Bit-identity argument, in brief: every charge, cache counter, trace event
and RNG draw happens in the same order with the same values as on the
layered path — the kernel batches *reads* (pure column lookups) and
replays *effects* per user in input order.  Floating point stays
bit-identical because the kernel only vectorises elementwise operations
(floor, division, comparison, ``searchsorted``) and keeps every
accumulation a sequential scalar loop in the interpreted operation order.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import PlatformError
from repro.obs import NULL_OBS, Observability
from repro.platform.frozen import first_mention_in, mentions_in

_ENABLED = True
_ENABLED_LOCK = threading.Lock()

_COLUMN_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))


def set_kernel_enabled(enabled: bool) -> bool:
    """Process-wide kernel switch; returns the previous setting.

    Exists for the kernel bench (kernel-off/kernel-on timing on identical
    inputs) and the bit-identity regression tests.  Contexts resolve the
    switch at construction time, so flipping it mid-run has no effect on
    runs already started.
    """
    global _ENABLED
    with _ENABLED_LOCK:
        previous = _ENABLED
        _ENABLED = bool(enabled)
    return previous


def kernel_enabled() -> bool:
    return _ENABLED and os.environ.get("REPRO_NO_KERNEL") != "1"


# ----------------------------------------------------------------------
# column primitives (module-level so property tests hit them directly;
# the row-level ones live with the store they read)
# ----------------------------------------------------------------------
def first_mention_from_columns(store, match_codes: np.ndarray,
                               extra_pids: np.ndarray, user_id: int,
                               cap: Optional[int]) -> Optional[float]:
    """First *visible* mention time read from the capped row window.

    Equivalent to ``TimelineView.first_mention_time`` over the capped
    timeline: the per-user rows are time-sorted at freeze, so the first
    masked row inside ``rows[-cap:]`` is the earliest visible mention.
    """
    rows = store.timeline_rows(user_id)
    if cap is not None and rows.shape[0] > cap:
        rows = rows[-cap:]
    return first_mention_in(store, rows, match_codes, extra_pids)


# ----------------------------------------------------------------------
# paged prefetch over the mmap plane
# ----------------------------------------------------------------------
class PagePrefetcher:
    """Batch ``madvise(WILLNEED)`` over the timeline pages a walk batch
    is about to touch.

    Scoped to one mapped store.  ``prefetch_users`` resolves the users'
    (cap-sliced) timeline row windows and advises the backing pages of
    the value columns the classification/condition gathers will read, so
    the kernel's random-access faults overlap in one readahead batch
    instead of serialising one 4 KiB fault at a time.

    The already-advised set (the touch-ahead window) is keyed on the
    store's ``cache_epoch``: ``FrozenStore.drop_caches`` bumps it, so a
    bench that cold-starts the store also cold-starts the prefetcher.
    Purely advisory — a platform without ``madvise`` (or a RAM column
    that happens to flow through) degrades to a no-op.
    """

    __slots__ = ("store", "columns", "max_runs", "batches", "pages_advised",
                 "_seen", "_epoch")

    def __init__(self, store, columns, max_runs: int = 512) -> None:
        self.store = store
        self.columns = [c for c in columns if getattr(c, "size", 0)]
        self.max_runs = max_runs
        """Cap on madvise syscalls per column per batch: page runs beyond
        it are simply not advised (they still fault on demand)."""
        self.batches = 0
        self.pages_advised = 0
        self._seen: set = set()
        self._epoch = getattr(store, "cache_epoch", 0)

    def prefetch_users(self, user_ids: Sequence[int], cap: Optional[int]) -> None:
        store = self.store
        epoch = getattr(store, "cache_epoch", 0)
        if epoch != self._epoch:
            self._seen.clear()
            self._epoch = epoch
        seen = self._seen
        todo = [u for u in user_ids if u not in seen]
        if not todo:
            return
        seen.update(todo)
        ids = store._sorted_user_ids
        if ids.size == 0:
            return
        arr = np.asarray(todo, dtype=np.int64)
        pos = np.minimum(np.searchsorted(ids, arr), ids.size - 1)
        pos = pos[ids[pos] == arr]
        if pos.size == 0:
            return
        indptr = store._tl_indptr
        starts = indptr[pos]
        stops = indptr[pos + 1]
        if cap is not None:
            starts = np.maximum(starts, stops - cap)
        order = store._tl_order
        parts = [order[s:e] for s, e in zip(starts.tolist(), stops.tolist()) if e > s]
        if not parts:
            return
        rows = np.concatenate(parts) if len(parts) > 1 else parts[0]
        self.batches += 1
        from repro.platform.outofcore import advise_value_pages

        for column in self.columns:
            self.pages_advised += advise_value_pages(column, rows, self.max_runs)


# ----------------------------------------------------------------------
# the kernel ops bundle
# ----------------------------------------------------------------------
class KernelOps:
    """Batched walk-loop operations over a resolved fast-path stack.

    One instance is scoped to one :class:`QueryContext` (client × query),
    like :class:`~repro.api.fastpath.FastPathOps` which it builds on.
    Thread-safety matches the layered path: all cache mutation happens
    under the caching client's lock (the batch loops hold it across a
    neighborhood, which only coarsens granularity — the per-user effect
    order is unchanged).
    """

    __slots__ = (
        "context", "fast", "cache", "sim", "store", "keyword", "query",
        "window", "match_codes", "extra_pids", "timeline_cap",
        "timeline_page", "calls_for_items", "prefetcher", "faultless",
        "_log_exact", "_capped_calls", "_cache_metrics",
    )

    def __init__(self, context, fast,
                 prefetcher: Optional[PagePrefetcher] = None) -> None:
        self.context = context
        self.fast = fast
        self.cache = fast.cache
        self.sim = fast.sim
        self.store = fast.store
        self.keyword = fast.keyword
        self.query = context.query
        store = fast.store
        self.window = (context.query.window_start, context.query.window_end)
        self.match_codes, self.extra_pids = store.keyword_matcher(self.keyword)
        self.timeline_cap = fast.timeline_cap
        self.timeline_page = fast.timeline_page
        self.calls_for_items = fast.calls_for_items
        self.prefetcher = prefetcher
        self.faultless = fast.faultless
        """True on the bare stack, where no fault or resilient layer can
        raise :class:`~repro.errors.TransientAPIError` (see
        :attr:`FastPathOps.faultless <repro.api.fastpath.FastPathOps.faultless>`)."""
        self._log_exact = store.has_keyword_log(self.keyword) or (
            self.match_codes.size == 0 and self.extra_pids.size == 0
        )
        """When True, absence from the keyword's first-mention columns
        proves the user has no matching post anywhere — the capped-window
        gather can be skipped for never-mentioners.  Only an unregistered
        needle that still matches multi-keyword posts breaks the
        implication; those (never produced by the builders) gather
        unconditionally."""
        cap = fast.timeline_cap
        self._capped_calls = (
            0 if cap is None else fast.calls_for_items(cap, fast.timeline_page)
        )
        self._cache_metrics = fast.cache.obs.metrics

    # ------------------------------------------------------------------
    # batched first mentions
    # ------------------------------------------------------------------
    def _count_cache(self, outcome: str) -> None:
        metrics = self._cache_metrics
        if metrics is not None:
            metrics.counter("cache." + outcome).inc()

    def _capped_first_mention(self, user_id: int, mentioned: bool) -> Optional[float]:
        """Observable twin of the layered timeline fetch for a capped
        timeline: same cache hit/miss counters, same charge (``cap``
        surviving rows ⇒ the same call count), but the answer is read
        from the capped row window of the columns instead of
        materialising the timeline.  A prepaid user stays prepaid (the
        layered path would materialise the view; every later operation
        behaves identically either way).  The caller holds the caching
        client's lock.
        """
        cache = self.cache
        view = cache._timelines.get(user_id)
        if view is not None:
            cache.hits += 1
            self._count_cache("hits")
            return view.first_mention_time(self.keyword)
        if user_id in cache._prepaid_timelines:
            cache.hits += 1
            self._count_cache("hits")
        else:
            cache.misses += 1
            self._count_cache("misses")
            self.sim.charge_timeline(user_id, self._capped_calls)
            cache._prepaid_timelines.add(user_id)
        if self._log_exact and not mentioned:
            return None
        return first_mention_from_columns(
            self.store, self.match_codes, self.extra_pids, user_id, self.timeline_cap
        )

    def resolve_mentions(self, user_ids: Sequence[int],
                         memo: Dict[int, Optional[float]]) -> None:
        """Batched first-mention resolution into *memo*.

        Reads (lengths, membership, times) resolve vectorised; effects
        (cache counters, charges, memo writes) replay per user in input
        order under one lock hold — the same charges, in the same order,
        as sequential layered fetches would issue — so a mid-batch
        ``BudgetExhaustedError`` leaves exactly the layered prefix state.
        Capped users resolve through :meth:`_capped_first_mention`
        instead of materialising their timeline.  A faulted stack
        resolves through :meth:`_resolve_through_stack` instead.
        """
        missing = [u for u in user_ids if u not in memo]
        if not missing:
            return
        if not self.faultless:
            self._resolve_through_stack(missing, memo)
            return
        fast = self.fast
        store = self.store
        if len(missing) == 1:
            # Scalar twin of the batch below (walk steps mostly miss one
            # user at a time): same reads, same charge/counter order,
            # no array construction.
            user_id = missing[0]
            try:
                length = store.timeline_length(user_id)
            except PlatformError:
                # Unknown user: the layered fetch raises the exact
                # APIError the caller would see without the kernel.
                view = self.cache.user_timeline(user_id)
                memo[user_id] = view.first_mention_time(self.keyword)
                return
            kw_users = fast.kw_users
            pos = int(np.searchsorted(kw_users, user_id))
            is_mentioned = bool(pos < kw_users.size and kw_users[pos] == user_id)
            cap = self.timeline_cap
            if cap is not None and length > cap:
                if self.prefetcher is not None:
                    self.prefetcher.prefetch_users([user_id], cap)
                cache = self.cache
                with cache._lock:
                    memo[user_id] = self._capped_first_mention(user_id, is_mentioned)
                return
            cache = self.cache
            with cache._lock:
                if user_id in cache._timelines or user_id in cache._prepaid_timelines:
                    cache.hits += 1
                    self._count_cache("hits")
                else:
                    cache.misses += 1
                    self._count_cache("misses")
                    self.sim.charge_timeline(
                        user_id, self.calls_for_items(length, self.timeline_page)
                    )
                    cache._prepaid_timelines.add(user_id)
                memo[user_id] = float(fast.kw_times[pos]) if is_mentioned else None
            return
        arr = np.asarray(missing, dtype=np.int64)
        try:
            lengths = store.timeline_lengths(arr)
        except PlatformError:
            # Unknown user in the batch: resolve one user at a time, so
            # the users before it are charged and it raises the layered
            # APIError, as sequential fetches would.
            for user_id in missing:
                self.resolve_mentions((user_id,), memo)
            return
        mentioned, times = self._first_mention_columns(arr)
        cap = self.timeline_cap
        page = self.timeline_page
        calls_for_items = self.calls_for_items
        cache = self.cache
        sim = self.sim
        lengths_list = lengths.tolist()
        mentioned_list = mentioned.tolist()
        times_list = times.tolist()
        if cap is not None and self.prefetcher is not None:
            over = arr[lengths > cap]
            if over.size:
                self.prefetcher.prefetch_users(over.tolist(), cap)
        with cache._lock:
            timelines = cache._timelines
            prepaid = cache._prepaid_timelines
            for i, user_id in enumerate(missing):
                length = lengths_list[i]
                if cap is not None and length > cap:
                    memo[user_id] = self._capped_first_mention(
                        user_id, mentioned_list[i]
                    )
                    continue
                # Inlined CachingClient.prepay_timeline (same counters,
                # same charge order) minus the per-user lock round-trip.
                if user_id in timelines or user_id in prepaid:
                    cache.hits += 1
                    self._count_cache("hits")
                else:
                    cache.misses += 1
                    self._count_cache("misses")
                    sim.charge_timeline(user_id, calls_for_items(length, page))
                    prepaid.add(user_id)
                memo[user_id] = times_list[i] if mentioned_list[i] else None

    def _resolve_through_stack(self, missing: List[int],
                               memo: Dict[int, Optional[float]]) -> None:
        """First mentions on a faulted stack, one request per miss.

        Each miss is an ordinary ``user_timeline`` request through the
        caching client and the resilient and fault layers, in input
        order, so admission, fault dice, retries, charges, cache
        counters, ``uncacheable`` and degraded serves happen exactly as
        on the layered path, and an error mid-batch leaves the layered
        prefix state.  The answer is read from the returned page's
        column rows (a degraded partial page answers from its rows, as
        the layered reader does).  A user absent from the keyword's
        first-mention column, where that proves no mention anywhere
        (``_log_exact``, as for capped timelines on the bare stack),
        answers None without reading the page: any page of theirs,
        partial or healed, holds no mention either.
        """
        mentioned, _ = self._first_mention_columns(np.asarray(missing, dtype=np.int64))
        fetch = self.cache.user_timeline
        keyword = self.keyword
        log_exact = self._log_exact
        for user_id, is_mentioned in zip(missing, mentioned.tolist()):
            if user_id in memo:
                continue  # repeated in the batch: the layered memo hit
            page = fetch(user_id)
            if log_exact and not is_mentioned:
                memo[user_id] = None
            else:
                memo[user_id] = page.first_mention_time(keyword)

    def _first_mention_columns(self, arr: np.ndarray):
        """``(mentioned, times)`` for the users in *arr*: membership in
        the keyword's first-mention column, and the first-mention time
        where it holds (meaningless elsewhere)."""
        kw_users = self.fast.kw_users
        if not kw_users.size:
            return np.zeros(arr.size, dtype=bool), np.zeros(arr.size, dtype=np.float64)
        pos = np.minimum(np.searchsorted(kw_users, arr), kw_users.size - 1)
        return kw_users[pos] == arr, self.fast.kw_times[pos]

    # ------------------------------------------------------------------
    # columnar condition views
    # ------------------------------------------------------------------
    def build_view(self, user_id: int):
        """Assemble a :class:`UserView` without materialising the full
        timeline, or return None to send the caller down the layered path.

        A cached page answers its own ``mentions`` — a row page
        (:class:`~repro.api.interface.RowTimelineView`, the only kind a
        frozen store serves) filters its rows through the columns.  A
        *prepaid* user — the common case after kernel classification on
        the bare stack — gets its matching posts gathered from the capped
        window of the columns and stays prepaid.  Either way only
        matching rows materialise.  Anyone else (never
        classified, e.g. after a budget abort, or served a degraded page
        the cache would not keep) returns None: the layered path charges
        and counts for them exactly as without the kernel.
        """
        from repro.core.query import UserView

        try:
            view = self.cache.note_timeline_hit(user_id)
        except KeyError:
            return None
        if view is None:
            matching = self._matching_posts(user_id)
            profile = self.sim.profile_view(user_id)
        else:
            matching = tuple(view.mentions(self.keyword, *self.window))
            profile = view.profile
        return UserView(
            user_id=user_id,
            display_name=profile.display_name,
            followers=profile.followers,
            gender=profile.gender,
            age=profile.age,
            matching_posts=matching,
        )

    def _matching_posts(self, user_id: int):
        """Columnar ``query.filter_matching_posts`` over the capped window."""
        rows = self.store.timeline_rows(user_id)
        cap = self.timeline_cap
        if cap is not None and rows.shape[0] > cap:
            rows = rows[-cap:]
        start, end = self.window
        return mentions_in(
            self.store, rows, self.match_codes, self.extra_pids, start, end
        )

    def prefetch_views(self, nodes: Sequence[int]) -> None:
        """Advise the timeline pages of upcoming condition checks (mmap
        plane only; a no-op otherwise)."""
        prefetcher = self.prefetcher
        if prefetcher is None:
            return
        views = self.context._views
        todo = [u for u in nodes if u not in views]
        if todo:
            prefetcher.prefetch_users(todo, self.timeline_cap)


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
def resolve_kernel(context, obs: Optional[Observability] = None) -> Optional[KernelOps]:
    """Resolve *context* to kernel ops, or None for the interpreted path.

    Emits ``kernel.resolved`` / ``kernel.fallback{reason}`` counters when a metrics registry is
    attached, so CI's perf-smoke guard can fail a run whose stack
    silently stopped resolving (mirrors :func:`resolve_fast_path`).
    """
    obs = obs if obs is not None else NULL_OBS
    metrics = obs.metrics

    def fallback(reason: str) -> None:
        if metrics is not None:
            metrics.counter("kernel.fallback", reason=reason).inc()

    if not kernel_enabled():
        fallback("disabled")
        return None
    fast = getattr(context, "fast", None)
    if fast is None:
        fallback("no-fastpath")
        return None
    store = fast.store
    for column in (
        store.post_user, store.post_time, store.post_id, store.post_keyword,
        fast.kw_users, fast.kw_times,
        store._sorted_user_ids, store._tl_order, store._tl_indptr,
    ):
        arr = np.asarray(column)
        if (
            arr.ndim != 1
            or not arr.flags.c_contiguous
            or arr.dtype not in _COLUMN_DTYPES
        ):
            fallback("non-contiguous")
            return None
    if metrics is not None:
        metrics.counter("kernel.resolved").inc()
    prefetcher = None
    if fast.faultless and getattr(store, "storage", "ram") == "mmap":
        # A faulted stack reads one page per request, each behind the
        # fault and resilient layers' own work: batched advice would
        # only add syscalls to it.
        prefetcher = PagePrefetcher(store, [store.post_keyword, store.post_time])
    return KernelOps(context, fast, prefetcher=prefetcher)


__all__: List[str] = [
    "KernelOps",
    "PagePrefetcher",
    "first_mention_from_columns",
    "kernel_enabled",
    "resolve_kernel",
    "set_kernel_enabled",
]
