"""Ablation — the brute-force crawl baseline vs sampling estimators.

§3.2's first observation: one *could* crawl every timeline reachable from
a seed and aggregate locally, but the query cost is prohibitive and COUNT
climbs toward the truth only as the crawl completes.  This bench puts the
crawl next to MA-SRW and MA-TARW on the COUNT query, budget by budget:
the crawl's estimate is a growing lower bound (huge negative bias at
small budgets), which is exactly why sampling estimators exist.

The crawl is not an estimator, so it lives here rather than in the walker
registry: a budgeted BFS from the search seeds over the term-induced
graph, on the same client stack an estimator run uses.
"""

from collections import deque

from repro._rng import ensure_rng, spawn
from repro.api.client import CachingClient, SimulatedMicroblogClient
from repro.bench import (
    BENCH_BUDGETS,
    bench_platform,
    emit,
    format_table,
    ground_truth,
    run_estimator,
)
from repro.core.graph_builder import QueryContext, TermInducedOracle
from repro.core.query import count_users
from repro.errors import BudgetExhaustedError

KEYWORD = "privacy"
MAX_SEEDS = 50


def crawl_count(platform, query, budget, seed=3):
    """Matching users found by a budgeted BFS crawl: a COUNT lower bound.

    Seeds are shuffled by the stream an analyzer run with *seed* hands its
    walker, so the crawl order matches a registered walker's seed draw.
    """
    client = CachingClient(SimulatedMicroblogClient(platform, budget=budget))
    context = QueryContext(client, query)
    oracle = TermInducedOracle(context)
    rng = spawn(ensure_rng(seed), f"run:{query.keyword}:{query.aggregate.value}")
    visited = set()
    found = 0
    try:
        seeds = context.seeds(MAX_SEEDS)
        rng.shuffle(seeds)
        queue = deque(seeds)
        while queue:
            node = queue.popleft()
            if node in visited:
                continue
            visited.add(node)
            found += context.condition_matches(node)
            queue.extend(n for n in oracle.neighbors(node) if n not in visited)
    except BudgetExhaustedError:
        pass
    return float(found)


def compute():
    platform = bench_platform()
    query = count_users(KEYWORD)
    truth = ground_truth(platform, query)
    rows = []
    for budget in BENCH_BUDGETS:
        found = crawl_count(platform, query, budget)
        srw = run_estimator(platform, query, "ma-srw", budget=budget, seed=3)
        tarw = run_estimator(platform, query, "ma-tarw", budget=budget, seed=3)
        rows.append([
            budget,
            found,
            found / truth,
            srw.value,
            tarw.value,
        ])
    return rows, truth


def test_crawl_vs_sampling(once):
    rows, truth = once(compute)
    emit(
        "ablation_crawl",
        format_table(
            f"Brute-force crawl vs sampling — COUNT({KEYWORD!r}), truth {truth:.0f}",
            ["budget", "crawl found", "crawl/truth", "MA-SRW est.", "MA-TARW est."],
            rows,
        ),
    )
    # The crawl count never exceeds the truth and grows with budget.
    founds = [row[1] for row in rows]
    assert all(f is not None and f <= truth + 1e-9 for f in founds)
    assert founds == sorted(founds)
    # At the smallest budget the crawl has found well under half the users
    # (the §3.2 cost argument); at the largest it is close to complete.
    assert founds[0] < truth * 0.7
    assert founds[-1] > truth * 0.7
