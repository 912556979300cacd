"""Statistical correctness of ESTIMATE-p (Algorithm 2) and Eq. 6.

On a graph small enough to enumerate, the selection probabilities of §5
have exact closed values computed here by an independent memoized
recursion.  Against that ground truth we pin:

* the deterministic DP (``p_method="dp"``) reproduces Eq. 6 *exactly*;
* the sampling estimator (Algorithm 2 as printed) is *unbiased*: a
  seeded Monte-Carlo mean lands within tolerance of the exact value;
* actual walk instances visit each node with frequency p(u) — the
  property that makes Hansen–Hurwitz reweighting work at all;
* with exact probabilities, the Hansen–Hurwitz COUNT estimator built
  from walk visits is unbiased for the node count.

The fixture graph (levels grow downward; seeds are the bottom sinks):

        A       B          level 0 (local roots)
       / \\     / \\
      C   D---+   E        level 1
       \\ / \\    /
        F     G            level 2 (sinks F, G)

A second variant adds D to the seed set: the paper states Eq. 6 with
seeds assumed to be sinks, and the implementation's ``start(u)`` term
generalises it to recent posters that still have down-neighbors.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.tarw import MATARWEstimator, TARWConfig

pytestmark = pytest.mark.statistical

A, B, C, D, E, F, G = range(7)
LEVELS = {A: 0, B: 0, C: 1, D: 1, E: 1, F: 2, G: 2}
EDGES = [(A, C), (A, D), (B, D), (B, E), (C, F), (D, F), (D, G), (E, G)]
SEED_SETS = {"sink-seeds": (F, G), "mid-level-seed": (D, F, G)}
N_DRAWS = 20_000


class EnumerableDAG:
    """A fully-classified level-by-level oracle over a hand-built DAG."""

    def __init__(self, levels, edges):
        self.levels = dict(levels)
        self._up = {node: [] for node in levels}
        self._down = {node: [] for node in levels}
        for parent, child in edges:
            assert levels[parent] < levels[child], "edges must point down-level"
            self._down[parent].append(child)
            self._up[child].append(parent)

    def up_neighbors(self, node):
        return list(self._up[node])

    def down_neighbors(self, node):
        return list(self._down[node])

    def level_of(self, node):
        return self.levels[node]

    def classified_nodes(self):
        return list(self.levels)


def exact_probabilities(dag, seeds):
    """Eq. 6 by direct memoized recursion — deliberately *not* the
    level-sorted DP under test."""
    start = 1.0 / len(seeds)
    p_up, p_down = {}, {}

    def up(u):
        if u not in p_up:
            p_up[u] = (start if u in seeds else 0.0) + sum(
                up(v) / len(dag.up_neighbors(v)) for v in dag.down_neighbors(u)
            )
        return p_up[u]

    def down(u):
        if u not in p_down:
            ups = dag.up_neighbors(u)
            p_down[u] = up(u) if not ups else sum(
                down(v) / len(dag.down_neighbors(v)) for v in ups
            )
        return p_down[u]

    for node in dag.levels:
        up(node)
        down(node)
    return p_up, p_down


def make_estimator(seeds, seed=12345):
    """A walker wired to the fixture DAG with Algorithm 2 sampling only:
    no root cache, and the pool-backup shortcut never fires because the
    pools are never populated."""
    config = TARWConfig(p_method="estimate", cache_root_probabilities=False)
    estimator = MATARWEstimator(
        context=None, oracle=EnumerableDAG(LEVELS, EDGES), config=config, seed=seed
    )
    estimator._seeds = sorted(seeds)
    estimator._seed_set = frozenset(seeds)
    return estimator


# ----------------------------------------------------------------------
# exact layer: the DP reproduces Eq. 6 to machine precision
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", sorted(SEED_SETS))
def test_dp_matches_exact_recursion(variant):
    seeds = SEED_SETS[variant]
    estimator = make_estimator(seeds)
    estimator._run_dp_if_dirty()
    exact_up, exact_down = exact_probabilities(estimator.oracle, set(seeds))
    for node in LEVELS:
        assert estimator._dp_p_up[node] == pytest.approx(exact_up[node], abs=1e-12)
        assert estimator._dp_p_down[node] == pytest.approx(exact_down[node], abs=1e-12)


@pytest.mark.parametrize("variant", sorted(SEED_SETS))
def test_probability_mass_conserved(variant):
    """Every up-walk ends at exactly one root; every down-walk at one
    sink — so the exact p values sum to 1 over each boundary."""
    seeds = SEED_SETS[variant]
    dag = EnumerableDAG(LEVELS, EDGES)
    exact_up, exact_down = exact_probabilities(dag, set(seeds))
    roots = [n for n in LEVELS if not dag.up_neighbors(n)]
    sinks = [n for n in LEVELS if not dag.down_neighbors(n)]
    assert sum(exact_up[n] for n in roots) == pytest.approx(1.0, abs=1e-12)
    assert sum(exact_down[n] for n in sinks) == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------
# sampling layer: Algorithm 2 is unbiased
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", sorted(SEED_SETS))
def test_estimate_p_up_is_unbiased(variant):
    seeds = SEED_SETS[variant]
    estimator = make_estimator(seeds)
    exact_up, _ = exact_probabilities(estimator.oracle, set(seeds))
    for node in LEVELS:
        mean = sum(estimator._estimate_p_up(node) for _ in range(N_DRAWS)) / N_DRAWS
        assert mean == pytest.approx(exact_up[node], abs=0.02), f"p_up({node})"


@pytest.mark.parametrize("variant", sorted(SEED_SETS))
def test_estimate_p_down_is_unbiased(variant):
    seeds = SEED_SETS[variant]
    estimator = make_estimator(seeds)
    _, exact_down = exact_probabilities(estimator.oracle, set(seeds))
    for node in LEVELS:
        mean = sum(estimator._estimate_p_down(node) for _ in range(N_DRAWS)) / N_DRAWS
        assert mean == pytest.approx(exact_down[node], abs=0.02), f"p_down({node})"


# ----------------------------------------------------------------------
# walk layer: visit frequencies realise p, and HH reweighting is unbiased
# ----------------------------------------------------------------------
def _run_walks(estimator, n):
    up_visits, down_visits = Counter(), Counter()
    run_instance = estimator._instance_runner("discovery")
    for _ in range(n):
        up_path, down_path = run_instance()
        up_visits.update(up_path)      # levels strictly decrease going up,
        down_visits.update(down_path)  # so a node appears at most once
    return up_visits, down_visits


@pytest.mark.parametrize("variant", sorted(SEED_SETS))
def test_walk_visit_frequencies_match_p(variant):
    seeds = SEED_SETS[variant]
    estimator = make_estimator(seeds)
    exact_up, exact_down = exact_probabilities(estimator.oracle, set(seeds))
    up_visits, down_visits = _run_walks(estimator, N_DRAWS)
    for node in LEVELS:
        assert up_visits[node] / N_DRAWS == pytest.approx(exact_up[node], abs=0.015)
        assert down_visits[node] / N_DRAWS == pytest.approx(exact_down[node], abs=0.015)


@pytest.mark.parametrize("variant", sorted(SEED_SETS))
def test_hansen_hurwitz_count_is_unbiased(variant):
    """Σ visits(u)/p(u) over both phases, normalised by 2·instances,
    estimates COUNT(*) — Eq. 7 with exact probabilities plugged in."""
    seeds = SEED_SETS[variant]
    estimator = make_estimator(seeds, seed=777)
    exact_up, exact_down = exact_probabilities(estimator.oracle, set(seeds))
    up_visits, down_visits = _run_walks(estimator, N_DRAWS)
    estimate = (
        sum(count / exact_up[node] for node, count in up_visits.items())
        + sum(count / exact_down[node] for node, count in down_visits.items())
    ) / (2 * N_DRAWS)
    assert estimate == pytest.approx(len(LEVELS), rel=0.02)
