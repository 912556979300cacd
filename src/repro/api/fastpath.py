"""Flattened client fast path: the client stack's binding for the walk kernel.

A clean estimation stack is always the same four layers::

    QueryContext -> CachingClient -> SimulatedMicroblogClient -> FrozenStore

and the walk's dominant operation — classify every neighbor of a visited
node — would funnel each user through all of them one at a time: a
cache-dict probe, a delegation call, a budget charge, then a full
timeline materialisation (thousands of
:class:`~repro.platform.posts.Post` objects) just to read *one*
timestamp out of it.

:func:`resolve_fast_path` inspects a client stack once per query and,
when the stack is one the caching client recognises
(:attr:`CachingClient.simulator <repro.api.client.CachingClient.simulator>`)
over a frozen columnar store, returns a :class:`FastPathOps` binding the
stack's pieces — the caching client, the simulator, the store, the
keyword's first-mention columns and the profile's page/cap constants.
The recognised stacks are the bare simulator and a resilient layer over
it, with or without a fault-injection layer between::

    CachingClient -> SimulatedMicroblogClient
    CachingClient -> ResilientClient -> SimulatedMicroblogClient
    CachingClient -> ResilientClient -> FaultInjectingClient -> SimulatedMicroblogClient

The compiled walk kernel (:mod:`repro.core.kernels`) builds on that
binding.  On the bare stack (``faultless``) it is the only reader of
first mentions from the columns and the binding serves connections as
the CSR adjacency tuple with a single lock acquisition instead of three
delegation hops.  On a faulted stack every request still travels the
whole stack — admission, fault dice, retries, healing and degraded
serves happen exactly as on the layered path — and what the kernel
saves is the page shape: timeline pages arrive as column row ranges
(:class:`~repro.api.interface.RowTimelineView`) and are read through the
columns.

A :class:`~repro.core.graph_builder.QueryContext` keeps the binding only
when the kernel resolves over it, so a context is either on the kernel
path (fast path + kernel) or fully layered.  Accounting is *identical*
to the layered path by construction: each logical fetch still performs
the same ``CostMeter`` charge (same kind, same call count, same order),
the same rate-limiter acquisition, the same ``api.call`` trace event and
cache hit/miss counters.  On the bare stack the cache is kept honest
through *prepaid* timelines (:meth:`CachingClient.prepay_timeline`): the
kernel pays for the timeline now, and if a later operation (a condition
check) needs the view, the caching client builds it uncharged.

The layered path is taken whenever any resolution rule fails:

* the client is not a :class:`CachingClient` (``no-cache``);
* the stack under the cache is not one of the three above — say a
  resilient layer over some other client (``layered-stack``);
* the store is not a :class:`FrozenStore` (legacy mutable planes,
  ``legacy-store``).

``set_fast_path_enabled(False)`` disables resolution process-wide; the
hot-path bench uses it to time the before/after pair on identical
inputs, and the regression tests to prove bit-identity.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from repro.api.client import CachingClient, SimulatedMicroblogClient
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
    """The resolved pieces of a recognised client stack (bare or faulted).

    One instance is scoped to one ``(client, keyword)`` pair — exactly
    the scope of a :class:`~repro.core.graph_builder.QueryContext` — so
    the keyword's first-mention columns are bound once (the service's
    cross-query reuse may rebind them to shared copies).
    :meth:`connections` is thread-safe: mutation of the shared cache
    happens under the caching client's own lock, as on the layered path.
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
        "faultless",
    )

    def __init__(
        self,
        cache: CachingClient,
        sim: SimulatedMicroblogClient,
        store: FrozenStore,
        keyword: str,
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
        self.faultless = cache.faultless
        """True on the bare stack: nothing beneath the cache can raise
        :class:`~repro.errors.TransientAPIError`, and the binding may
        charge the simulator directly."""

    def connections(self, user_id: int) -> Tuple[int, ...]:
        """Connections fetch.  On the bare stack it is flattened — one
        lock acquisition, no delegation hops — with identical cache
        counters and charges; on a faulted stack it is the caching
        client's ordinary request through the fault and resilient
        layers."""
        if self.faultless:
            return self.cache.connections_via(user_id, self.sim)
        return self.cache.user_connections(user_id)


def resolve_fast_path(
    client,
    keyword: str,
    obs: Optional[Observability] = None,
) -> Optional[FastPathOps]:
    """Resolve *client*'s stack to flattened ops, or None for the layered path.

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
    inner = client.simulator
    if inner is None:
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
    return FastPathOps(client, inner, store, keyword)


__all__: List[str] = [
    "FastPathOps",
    "fast_path_enabled",
    "resolve_fast_path",
    "set_fast_path_enabled",
]
