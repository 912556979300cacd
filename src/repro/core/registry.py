"""The walker registry: one catalog of every estimation algorithm.

Each :class:`WalkerSpec` binds a CLI/analyzer name to an estimator class
satisfying the :class:`~repro.core.walker.Walker` protocol, the graph
designs it supports, and a one-line summary.  The summary is the *same
string* that opens the estimator's class docstring and appears in
``docs/ALGORITHMS.md`` — the conformance tests assert all three places
agree, so the catalog cannot drift from the code.

:class:`~repro.core.analyzer.MicroblogAnalyzer` and the CLI resolve
``--algorithm`` values through :func:`get_walker`; adding a walker here
is all it takes to expose it end to end (construction is uniform:
``spec.estimator(context, oracle, config, seed=..., parallel=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.frontier import FrontierEstimator
from repro.core.mr import MarkRecaptureEstimator
from repro.core.rewired import RewiredSRWEstimator
from repro.core.srw import MASRWEstimator
from repro.core.tarw import MATARWEstimator
from repro.core.wnw import WNWEstimator
from repro.errors import EstimationError

GRAPH_DESIGNS = ("level-by-level", "term-induced", "social")


@dataclass(frozen=True)
class WalkerSpec:
    """Registry entry for one estimation algorithm."""

    name: str
    """The ``--algorithm`` value (also ``estimator.algorithm``)."""
    estimator: type
    """Class satisfying the Walker protocol (see ``core/walker.py``)."""
    summary: str
    """One line, verbatim in the class docstring and docs/ALGORITHMS.md."""
    designs: Tuple[str, ...]
    """Graph designs the walker accepts (subset of ``GRAPH_DESIGNS``)."""

    @property
    def config_cls(self) -> type:
        return self.estimator.config_cls

    @property
    def parallel_kind(self):
        return self.estimator.parallel_kind


_REGISTRY: Dict[str, WalkerSpec] = {}


def register_walker(spec: WalkerSpec) -> WalkerSpec:
    if spec.name in _REGISTRY:
        raise EstimationError(f"walker {spec.name!r} is already registered")
    unknown = [d for d in spec.designs if d not in GRAPH_DESIGNS]
    if unknown:
        raise EstimationError(f"walker {spec.name!r} names unknown designs {unknown}")
    _REGISTRY[spec.name] = spec
    return spec


def get_walker(name: str) -> WalkerSpec:
    spec = _REGISTRY.get(name)
    if spec is None:
        raise EstimationError(
            f"unknown algorithm {name!r}; choose from {walker_names()}"
        )
    return spec


def walker_names() -> Tuple[str, ...]:
    """Registration order — the order docs and ``--help`` present."""
    return tuple(_REGISTRY)


def walker_specs() -> Tuple[WalkerSpec, ...]:
    return tuple(_REGISTRY.values())


register_walker(
    WalkerSpec(
        name="ma-tarw",
        estimator=MATARWEstimator,
        summary=(
            "Topology-aware random walk over the level-by-level subgraph "
            "(paper §5, Algorithms 2–3)."
        ),
        designs=("level-by-level",),
    )
)
register_walker(
    WalkerSpec(
        name="ma-srw",
        estimator=MASRWEstimator,
        summary=(
            "Simple random walk with Geweke burn-in and degree reweighting "
            "(paper §4, Algorithm 1)."
        ),
        designs=GRAPH_DESIGNS,
    )
)
register_walker(
    WalkerSpec(
        name="rewired-srw",
        estimator=RewiredSRWEstimator,
        summary=(
            "SRW over a graph rewired on the fly: virtual edges among visited "
            "nodes speed mixing (arXiv:1211.5184)."
        ),
        designs=GRAPH_DESIGNS,
    )
)
register_walker(
    WalkerSpec(
        name="wnw",
        estimator=WNWEstimator,
        summary=(
            "Walk-Not-Wait SRW: partial-page timeline probes replace blocking "
            "full fetches (arXiv:1410.7833)."
        ),
        designs=GRAPH_DESIGNS,
    )
)
register_walker(
    WalkerSpec(
        name="frontier",
        estimator=FrontierEstimator,
        summary=(
            "Multi-seed frontier sampler: dependent walkers scheduled "
            "proportional to degree (Ribeiro–Towsley)."
        ),
        designs=GRAPH_DESIGNS,
    )
)
register_walker(
    WalkerSpec(
        name="m&r",
        estimator=MarkRecaptureEstimator,
        summary=(
            "Mark-and-recapture COUNT baseline from walk collisions "
            "(Katzir et al., paper §6)."
        ),
        designs=GRAPH_DESIGNS,
    )
)
