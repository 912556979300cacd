"""Frontier sampling: m dependent walkers scheduled ∝ degree (Ribeiro–Towsley).

*Estimating and Sampling Graphs with Multidimensional Random Walks*
(Ribeiro & Towsley, IMC 2010) fixes two chronic SRW failure modes on
budget-limited crawls — seed bias on disconnected subgraphs and the
burn-in paid per chain — by running ``walkers`` coupled walkers as one
process:

* Initialise m walkers on (search-API) seeds.
* Each step, pick walker *i* with probability proportional to the degree
  of its current node, then move it to a uniformly chosen neighbor.

The coupled process is equivalent to a single random walk on the m-th
Cartesian power of the graph, whose stationary distribution starts *in*
the right family: marginally, each walker's location converges to the
degree-proportional distribution, and the degree-weighted scheduling
means high-degree regions are drained first instead of trapping one
chain.  Two practical consequences implemented here:

* **No burn-in** — the paper starts estimation immediately (its E1/E2
  estimators are asymptotically unbiased from step one); this walker
  keeps every sample (``min_burn_in`` defaults to 0 and replaces the
  Geweke scan).
* **No teleport heuristic** — m seeds already cover up to m components;
  a walker stuck in a tiny component is simply scheduled rarely (its
  degree mass is small), which is the paper's budget argument.

Sample assembly is the shared degree-reweighted machinery (stationary
probability ∝ degree holds marginally for each walker), turning a
budgeted multi-seed crawl loop into an unbiased estimator — a BFS crawl
visits each node once and cannot reweight; frontier revisits carry
exactly the information Katzir's collision counter and the ratio
estimators need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional

from repro.core.results import EstimateResult, TracePoint
from repro.core.srw import SRWConfig
from repro.core.walker import ChainSampleWalker
from repro.errors import BudgetExhaustedError, EstimationError, TransientAPIError


@dataclass(frozen=True)
class FrontierConfig(SRWConfig):
    """Knobs for the frontier sampler (extends :class:`SRWConfig`).

    ``chains`` is ignored (the walker count is ``walkers``); burn-in and
    thinning default to the paper's keep-everything regime.
    """

    walkers: int = 8
    """Coupled walkers (the paper's m).  More walkers cover more
    components and sharpen the degree scheduling, but spread the budget
    thinner per walker."""
    thinning: int = 1
    min_burn_in: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.walkers < 1:
            raise EstimationError("walkers must be >= 1")


class FrontierEstimator(ChainSampleWalker):
    """Multi-seed frontier sampler: dependent walkers scheduled proportional to degree (Ribeiro–Towsley).

    Budgeted frontier sampling over any neighbor oracle; per-walker
    sample series feed the shared degree-reweighted assembly with no
    burn-in discarded.
    """

    algorithm: ClassVar[str] = "frontier"
    parallel_kind: ClassVar[Optional[str]] = "samples"
    obs_prefix: ClassVar[str] = "frontier"
    config_cls: ClassVar[type] = FrontierConfig

    def _burn_in_for(self, degrees: List[float]) -> int:
        # Frontier sampling needs no mixing before sampling starts; the
        # floor is kept as an explicit knob (0 by default).
        return self.config.min_burn_in

    def _pick_walker(self, degrees: List[float]) -> int:
        """Index of the next walker to move, chosen ∝ current degree.

        Walkers parked on zero-degree nodes (reseeded after a fault, or
        on an isolated seed) carry no degree mass; when *no* walker has
        positive degree the choice degrades to uniform so the process
        cannot deadlock before the dead-end reseeds kick in.
        """
        total = 0.0
        for degree in degrees:
            if degree > 0:
                total += degree
        if total <= 0.0:
            return self.rng.randrange(len(degrees))
        threshold = self.rng.random() * total
        acc = 0.0
        for index, degree in enumerate(degrees):
            if degree <= 0:
                continue
            acc += degree
            if threshold < acc:
                return index
        return len(degrees) - 1

    def _estimate_serial(self) -> EstimateResult:
        config = self.config
        m = config.walkers
        chain_nodes: List[List[int]] = [[] for _ in range(m)]
        chain_degrees: List[List[float]] = [[] for _ in range(m)]
        self._chain_nodes = chain_nodes
        self._chain_degrees = chain_degrees
        trace: List[TracePoint] = []
        steps = 0
        self._restarts = 0
        last_cost = -1
        stalled_since = 0
        next_trace = config.trace_every
        self._obs_excursions = [0] * m
        current_degree = [0.0] * m
        try:
            seeds = self._oracle_step(self.context.seeds, config.max_seeds)
            if self.obs.trace is not None:
                self.obs.trace.event(self._ev_seeds, n=len(seeds), walkers=m)
            currents = [self.rng.choice(seeds) for _ in range(m)]
            for index, start in enumerate(currents):
                try:
                    self._observe(start, chain_nodes[index], chain_degrees[index], chain=index)
                    current_degree[index] = chain_degrees[index][-1]
                except TransientAPIError:
                    # Dark start: degree mass 0 until a later move lands.
                    self.fault_restarts += 1
                    self._note_restart(index, "fault")
            while config.max_steps is None or steps < config.max_steps:
                index = self._pick_walker(current_degree)
                try:
                    self._advance(currents, index, seeds)
                    current_degree[index] = chain_degrees[index][-1]
                except TransientAPIError:
                    # Same stage-2 recovery as the SRW family: keep the
                    # committed samples, restart this walker from a seed.
                    currents[index] = self.rng.choice(seeds)
                    current_degree[index] = 0.0
                    self.fault_restarts += 1
                    self._note_restart(index, "fault")
                steps += 1
                cost = self._cost()
                if cost == last_cost:
                    # No teleport here: m seeds already cover the seeded
                    # components, so a plateau only ever means the
                    # reachable region is fully cached.
                    stalled_since += 1
                    if stalled_since >= config.stall_steps:
                        break
                else:
                    last_cost = cost
                    stalled_since = 0
                if steps >= next_trace:
                    trace.append(
                        TracePoint(cost, self._current_estimate(chain_nodes, chain_degrees))
                    )
                    next_trace = steps + max(config.trace_every, steps // 20)
        except BudgetExhaustedError:
            pass
        except TransientAPIError:
            pass  # platform unrecoverable during seeding: report what we have

        diagnostics = {
            "steps": float(steps),
            "dead_end_restarts": float(self._restarts),
            "chains": float(m),
            "fault_restarts": float(self.fault_restarts),
            "fault_step_retries": float(self.fault_step_retries),
        }
        diagnostics.update(self._walker_diagnostics())
        return self._chain_result(trace, diagnostics)
