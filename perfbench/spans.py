"""Per-layer spans, recorded from the benchmark around calls into each layer.

A ``--trace 1`` run installs one timing wrapper per layer entry point
listed in :data:`LAYERS`.  Each wrapper records, per layer, how many times
the layer was entered and its *self* time: the span's duration minus the
part covered by spans opened beneath it on the same thread.  Self times therefore add up to the traced wall time without
double counting; ``classify``, for one, excludes the ``api`` calls it makes.

Each budgeted API call is also attributed to a layer: the innermost open
span that is not a :data:`TRANSPORT` layer (those only carry a call on
its way to the platform), so pilot calls, seed searches, discovery,
classification and stepping are told apart.  The calls attributed to
layers sum to the calls billed to the queries.

The wrappers replace class attributes for the rest of the process, so
``--trace 0`` runs never import this module.  End-to-end figures come from
those untraced runs; a traced run only attributes time to layers.  The
recorder counts only while :attr:`SpanRecorder.active` is set, so the
benchmark's own correctness re-runs stay out of the figures.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Dict, List, Tuple

LAYERS: Dict[str, List[Tuple[str, str, str]]] = {
    # layer -> [(module, class, method)]
    "service_admit": [("repro.service.service", "EstimationService", "submit")],
    "service_execute": [("repro.service.service", "EstimationService", "_execute_one")],
    "service_collect": [("repro.service.service", "EstimationService", "_collect")],
    "delta_ingest": [("repro.platform.evolve", "OverlayStore", "append")],
    "compact": [("repro.platform.evolve", "OverlayStore", "compact")],
    # MicroblogAnalyzer.estimate's self time is what no inner layer claims:
    # client-stack assembly, stepping, visit bookkeeping, value assembly.
    "walk": [("repro.core.analyzer", "MicroblogAnalyzer", "estimate")],
    "pilot": [("repro.core.analyzer", "MicroblogAnalyzer", "_resolve_interval")],
    "seeds": [("repro.core.graph_builder", "QueryContext", "seeds")],
    "discovery": [("repro.core.tarw", "MATARWEstimator", "_discover_bottom_nodes")],
    "classify": [("repro.core.graph_builder", "LevelByLevelOracle", "_classify")],
    "dp": [("repro.core.tarw", "MATARWEstimator", "_run_dp_if_dirty")],
    "prefetch": [("repro.core.kernels", "PagePrefetcher", "prefetch_users")],
    "recount": [("repro.core.tarw", "MATARWEstimator", "_final_recount")],
    "resilience": [
        ("repro.api.resilient", "ResilientClient", "_call"),
        ("repro.api.faults", "FaultInjectingClient", "_attempt"),
    ],
    "api": [
        ("repro.api.client", "SimulatedMicroblogClient", name)
        for name in (
            "search",
            "user_connections",
            "user_timeline",
            "timeline_view",
            "charge_timeline",
            "charge_connections",
        )
    ],
}

TRANSPORT = ("api", "resilience")
UNATTRIBUTED = "none"
"""Where a call made outside every non-transport span is attributed."""

CHARGE = ("repro.api.client", "SimulatedMicroblogClient", "_charge")
"""Every budgeted call passes here once, with its kind and count."""

RESOLVERS: Dict[str, Tuple[str, str]] = {
    # counter -> (module, function); counts the calls that resolved (not
    # None).  QueryContext binds both names at import, so they are patched
    # where it looks them up.
    "fastpath_resolved": ("repro.core.graph_builder", "resolve_fast_path"),
    "kernel_resolved": ("repro.core.graph_builder", "resolve_kernel"),
}


class SpanRecorder:
    """Calls, self nanoseconds and attributed API calls per layer, plus
    resolver hits."""

    def __init__(self) -> None:
        self.active = False
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        self.self_ns: Dict[str, int] = {name: 0 for name in LAYERS}
        self.api_calls: Dict[str, int] = {name: 0 for name in LAYERS}
        self.api_calls[UNATTRIBUTED] = 0
        self.resolved: Dict[str, int] = {name: 0 for name in RESOLVERS}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            frame = [layer, 0]  # the layer, and the time of spans opened under it
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with self._lock:
                    self.calls[layer] += 1
                    self.self_ns[layer] += elapsed - frame[1]

        return wrapper

    def _wrap_charge(self, fn):
        @functools.wraps(fn)
        def wrapper(client, kind, calls):
            fn(client, kind, calls)  # raises, uncharged, past the budget
            if self.active:
                layer = next(
                    (frame[0] for frame in reversed(self._stack()) if frame[0] not in TRANSPORT),
                    UNATTRIBUTED,
                )
                with self._lock:
                    self.api_calls[layer] += calls

        return wrapper

    def _count_resolved(self, counter: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            resolved = fn(*args, **kwargs)
            if self.active and resolved is not None:
                with self._lock:
                    self.resolved[counter] += 1
            return resolved

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point for the rest of the process."""
        for layer, targets in LAYERS.items():
            for module_name, class_name, attribute in targets:
                cls = getattr(importlib.import_module(module_name), class_name)
                setattr(cls, attribute, self._wrap(layer, cls.__dict__[attribute]))
        module_name, class_name, attribute = CHARGE
        cls = getattr(importlib.import_module(module_name), class_name)
        setattr(cls, attribute, self._wrap_charge(cls.__dict__[attribute]))
        for counter, (module_name, attribute) in RESOLVERS.items():
            module = importlib.import_module(module_name)
            setattr(module, attribute, self._count_resolved(counter, getattr(module, attribute)))
