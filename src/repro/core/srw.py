"""MA-SRW: simple random walk over the level-by-level subgraph (Algorithm 1).

The estimator also runs unchanged over the social-graph and term-induced
oracles, which is how the Figure 2/3 baselines are produced — the only
difference between "Social Graph", "Term Induced Subgraph" and "Level By
Level Subgraph" curves is the neighbor oracle plugged in.

Aggregation from SRW samples (stationary probability ∝ subgraph degree):

* AVG — self-normalising ratio  Σ f/d / Σ 1/d  over condition-matching
  samples [20];
* COUNT — Katzir collision estimate of the sampled graph's population,
  multiplied by the degree-debiased fraction of samples matching the full
  condition (window + profile predicates);
* SUM — COUNT × AVG.

Burn-in is detected with the Geweke diagnostic on the walk's degree
series (§4.1 measures burn-in with Geweke Z ≤ 0.1), so slow-mixing graph
designs automatically pay their longer burn-in in samples discarded —
which is precisely the mechanism behind the paper's query-cost gaps.

The chain loop, sample filtering and estimate assembly all live in
:class:`repro.core.walker.ChainSampleWalker`; this module contributes the
config and the registry identity.

When the query context resolved a compiled kernel
(:func:`repro.core.kernels.resolve_kernel`) over the bare clean stack
(``KernelOps.faultless``), the shared chain loop steps the oracle
*directly* instead of through the ``step_retries`` wrapper: there
``TransientAPIError`` cannot occur, so the retry wrapper is a guaranteed
no-op and skipping it is bit-identical (budget exhaustion propagates the
same either way).  A kernel over a fault or resilient stack keeps the
wrapper.  The Geweke diagnostic, thinning and Katzir/ratio
accumulators stay scalar on purpose — reordering those float reductions
would break bit-identity with the interpreted path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Protocol

from repro.core.walker import ChainSampleWalker
from repro.errors import EstimationError


class NeighborOracle(Protocol):
    name: str

    def neighbors(self, user_id: int) -> List[int]: ...

    def degree(self, user_id: int) -> int: ...


@dataclass(frozen=True)
class SRWConfig:
    """Knobs for MA-SRW."""

    thinning: int = 3
    """Keep every k-th post-burn-in step as a sample (decorrelation)."""
    chains: int = 1
    """Independent chains stepped round-robin, samples pooled ([13]'s
    parallel walks).  Each chain pays its own burn-in, so more chains
    trade variance for bias removal only when steps are plentiful."""
    geweke_threshold: float = 0.1
    min_burn_in: int = 20
    trace_every: int = 10
    """Recompute the running estimate every this many raw steps."""
    max_steps: Optional[int] = 50_000
    stall_steps: int = 4_000
    """Stop when the query cost has not moved for this many steps.

    The caching client makes revisits free, so once the reachable subgraph
    is fully cached a walk could run forever without touching the budget;
    a long cost plateau means extra steps buy (almost) no new information.
    """
    teleport_after: int = 500
    """Jump to a fresh random seed after this many zero-cost steps.

    A walk seeded inside a small connected component of the (level-by-
    level) subgraph would otherwise orbit it forever; teleporting to
    another search-API seed — exactly what a practitioner restarting a
    stuck crawl does — lets the estimator cover every seeded component.
    """
    max_seeds: int = 50
    step_retries: int = 2
    """Walk-level fault recovery: a step whose oracle lookup raises a
    :class:`TransientAPIError` (after the resilient client gave up) is
    retried in place this many times; past that the chain checkpoints —
    its committed samples are kept — and restarts from a random seed.
    Retries re-issue the same lookup and consume no walker RNG, so runs
    whose faults all heal stay bit-identical to fault-free runs."""

    def __post_init__(self) -> None:
        if self.thinning < 1 or self.trace_every < 1:
            raise EstimationError("thinning and trace_every must be >= 1")
        if self.chains < 1:
            raise EstimationError("chains must be >= 1")
        if self.min_burn_in < 0:
            raise EstimationError("min_burn_in must be >= 0")
        if self.stall_steps < 1:
            raise EstimationError("stall_steps must be >= 1")
        if self.teleport_after < 1:
            raise EstimationError("teleport_after must be >= 1")
        if self.step_retries < 0:
            raise EstimationError("step_retries must be >= 0")


class MASRWEstimator(ChainSampleWalker):
    """Simple random walk with Geweke burn-in and degree reweighting (paper §4, Algorithm 1).

    Budgeted MA-SRW runs over any neighbor oracle.  With
    ``config.chains > 1``, that many independent chains are stepped
    round-robin (each from its own seed) and their post-burn-in samples
    pooled — the parallel-walks idea of Gjoka et al. [13], which covers
    multi-component subgraphs faster than one teleporting chain.
    """

    algorithm: ClassVar[str] = "ma-srw"
    parallel_kind: ClassVar[Optional[str]] = "samples"
    obs_prefix: ClassVar[str] = "srw"
    config_cls: ClassVar[type] = SRWConfig
