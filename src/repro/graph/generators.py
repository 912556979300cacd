"""Synthetic graph models used as social-graph substrates.

The paper runs on the live Twitter/Google+/Tumblr graphs.  Offline we
substitute generative models whose topology exhibits the two properties the
paper's analysis hinges on:

* heavy-tailed degrees (Barabási–Albert preferential attachment) — a few
  celebrities with huge follower counts dominate AVG(#followers), which is
  why that aggregate needs many more queries than AVG(display-name length)
  (Figure 11's discussion);
* tight local clustering (Watts–Strogatz rewiring) — the "tightly connected
  communities" that trap random walks and motivate the level-by-level
  subgraph (§4.1).

:func:`planted_level_graph` builds the exact lattice model analysed in
Theorem 4.1: ``h`` levels of ``n/h`` nodes, each node wired to ``d`` random
nodes in the next level and ``k`` random nodes in its own level, so the
closed-form conductance expressions can be validated empirically.
"""

from __future__ import annotations

from typing import List, Sequence

from repro._rng import RandomLike, ensure_rng
from repro.errors import GraphError
from repro.graph.social_graph import SocialGraph


def erdos_renyi_graph(n: int, p: float, seed: RandomLike = None) -> SocialGraph:
    """G(n, p) random graph over nodes ``0..n-1``.

    Uses the geometric skipping method, O(n + m) expected time, so it stays
    usable for the sparse graphs (p ~ 10/n) the benchmarks need.
    """
    if n < 0:
        raise GraphError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise GraphError("p must be in [0, 1]")
    rng = ensure_rng(seed)
    graph = SocialGraph(nodes=range(n))
    if p == 0.0 or n < 2:
        return graph
    if p == 1.0:
        for u in range(n):
            for v in range(u + 1, n):
                graph.add_edge(u, v)
        return graph

    import math

    log_q = math.log(1.0 - p)
    v = 1
    w = -1
    while v < n:
        r = rng.random()
        w = w + 1 + int(math.log(1.0 - r) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            graph.add_edge(v, w)
    return graph


def barabasi_albert_graph(n: int, m: int, seed: RandomLike = None) -> SocialGraph:
    """Preferential-attachment graph: each new node attaches to *m* targets.

    The repeated-nodes list implements degree-proportional target choice in
    O(1) per draw.  Produces the power-law follower distribution typical of
    microblog platforms.
    """
    if m < 1 or n < m + 1:
        raise GraphError(f"need n >= m + 1 >= 2, got n={n}, m={m}")
    rng = ensure_rng(seed)
    graph = SocialGraph(nodes=range(n))
    # Start from a star over the first m+1 nodes so every node has degree > 0.
    repeated: List[int] = []
    for v in range(1, m + 1):
        graph.add_edge(0, v)
        repeated.extend((0, v))
    for source in range(m + 1, n):
        targets: set = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for target in targets:
            graph.add_edge(source, target)
            repeated.extend((source, target))
    return graph


def watts_strogatz_graph(n: int, k: int, p: float, seed: RandomLike = None) -> SocialGraph:
    """Small-world ring lattice with rewiring probability *p*.

    *k* (even) is the base degree; each clockwise edge is rewired to a
    uniform random target with probability *p*.
    """
    if k % 2 or k < 2:
        raise GraphError("k must be even and >= 2")
    if n <= k:
        raise GraphError(f"need n > k, got n={n}, k={k}")
    if not 0.0 <= p <= 1.0:
        raise GraphError("p must be in [0, 1]")
    rng = ensure_rng(seed)
    graph = SocialGraph(nodes=range(n))
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            graph.add_edge(u, (u + offset) % n)
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            if rng.random() < p and graph.has_edge(u, v):
                candidates = [w for w in range(n) if w != u and not graph.has_edge(u, w)]
                if candidates:
                    graph.remove_edge(u, v)
                    graph.add_edge(u, rng.choice(candidates))
    return graph


def planted_level_graph(
    levels: int,
    nodes_per_level: int,
    adjacent_degree: int,
    intra_degree: int = 0,
    seed: RandomLike = None,
) -> SocialGraph:
    """The lattice model of Theorem 4.1.

    Nodes ``level * nodes_per_level + i`` for ``i < nodes_per_level`` form
    level ``level`` (0 = top).  Each node in level ``i < h-1`` connects to
    ``adjacent_degree`` distinct random nodes of level ``i+1``; each node
    also connects to ``intra_degree`` distinct random nodes of its own level
    (the detrimental edges the paper removes).
    """
    if levels < 1 or nodes_per_level < 1:
        raise GraphError("levels and nodes_per_level must be positive")
    if adjacent_degree > nodes_per_level:
        raise GraphError("adjacent_degree cannot exceed nodes_per_level")
    if intra_degree > nodes_per_level - 1:
        raise GraphError("intra_degree cannot exceed nodes_per_level - 1")
    rng = ensure_rng(seed)
    total = levels * nodes_per_level
    graph = SocialGraph(nodes=range(total))

    def level_nodes(level: int) -> Sequence[int]:
        start = level * nodes_per_level
        return range(start, start + nodes_per_level)

    for level in range(levels - 1):
        below = list(level_nodes(level + 1))
        for u in level_nodes(level):
            for v in rng.sample(below, adjacent_degree):
                graph.add_edge(u, v)
    if intra_degree:
        for level in range(levels):
            members = list(level_nodes(level))
            for u in members:
                others = [v for v in members if v != u]
                for v in rng.sample(others, intra_degree):
                    graph.add_edge(u, v)
    return graph


def community_graph(
    n: int,
    mean_community_size: float = 40.0,
    within_degree: float = 8.0,
    inter_edges_per_node: float = 1.5,
    hub_fraction: float = 0.015,
    hub_bias: float = 0.5,
    seed: RandomLike = None,
) -> SocialGraph:
    """Community-structured social graph with heavy-tailed hubs.

    The paper's central topological observation is that "keywords are
    often propagated among users that form tightly connected communities"
    (§4.1).  This generator makes that structure explicit:

    * nodes are partitioned into communities whose sizes are lognormal
      around *mean_community_size*;
    * inside a community, each node gets about *within_degree* random
      intra-community edges (dense, high clustering — the walk traps);
    * each node additionally draws about *inter_edges_per_node* long-range
      edges; a *hub_bias* fraction of their endpoints land on a small set
      of hub nodes chosen with Zipf weights, producing the heavy-tailed
      follower counts of real platforms (celebrities bridging communities).

    Combined with the cascade's weak-tie damping this yields term-induced
    subgraphs whose edge taxonomy matches Table 2: each keyword wave
    saturates the communities it reaches (intra/adjacent-level edges)
    while few edges connect different waves (rare cross-level edges).

    Every random column is drawn as one numpy batch — one Bernoulli per
    intra-community pair, one hub-or-uniform target per long-range edge
    with same-community draws rejected (not redrawn) — and the deduped
    edges are bulk-inserted.
    """
    if n < 2:
        raise GraphError("need at least two nodes")
    if mean_community_size < 2 or within_degree < 1:
        raise GraphError("mean_community_size must be >= 2 and within_degree >= 1")
    if inter_edges_per_node < 0 or not 0.0 <= hub_bias <= 1.0:
        raise GraphError("inter_edges_per_node must be >= 0 and hub_bias in [0, 1]")
    if not 0.0 < hub_fraction < 1.0:
        raise GraphError("hub_fraction must be in (0, 1)")
    import math

    import numpy as np

    nrng = np.random.default_rng(ensure_rng(seed).getrandbits(128))
    mu = math.log(mean_community_size) - 0.18  # sigma=0.6 => mean ~ e^{mu+0.18}

    # Community sizes: batch lognormal draws, cut off once they cover n.
    # Sizes floor at 3, so ceil(n/3) draws always suffice.
    raw = np.maximum(3, nrng.lognormal(mu, 0.6, size=n // 3 + 1).astype(np.int64))
    ends = np.cumsum(raw)
    last = int(np.searchsorted(ends, n))
    sizes = raw[: last + 1]
    sizes[-1] = n - (int(ends[last - 1]) if last else 0)  # truncate the tail
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    edge_lo: list = []
    edge_hi: list = []

    # Dense intra-community wiring: one Bernoulli per unordered pair.
    triu_cache: dict = {}
    for start, size in zip(starts.tolist(), sizes.tolist()):
        if size < 2:
            continue
        pair = triu_cache.get(size)
        if pair is None:
            pair = triu_cache[size] = np.triu_indices(size, k=1)
        p_in = min(within_degree / (size - 1), 1.0)
        mask = nrng.random(pair[0].size) < p_in
        edge_lo.append(pair[0][mask] + start)
        edge_hi.append(pair[1][mask] + start)

    # Hubs: a small Zipf-weighted set that attracts long-range edges.
    num_hubs = max(1, int(n * hub_fraction))
    hubs = nrng.choice(n, size=num_hubs, replace=False)
    hub_weights = 1.0 / (np.arange(num_hubs, dtype=np.float64) + 1.0)
    hub_weights /= hub_weights.sum()

    community_of = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)

    # Long-range edges: floor + Bernoulli count per node, hub-or-uniform
    # target per edge, self/same-community draws rejected (not redrawn).
    base = int(inter_edges_per_node)
    counts = np.full(n, base, dtype=np.int64)
    remainder = inter_edges_per_node - base
    if remainder > 0:
        counts += nrng.random(n) < remainder
    total = int(counts.sum())
    if total:
        sources = np.repeat(np.arange(n, dtype=np.int64), counts)
        use_hub = nrng.random(total) < hub_bias
        targets = np.empty(total, dtype=np.int64)
        num_hub_draws = int(use_hub.sum())
        targets[use_hub] = hubs[nrng.choice(num_hubs, size=num_hub_draws, p=hub_weights)]
        targets[~use_hub] = nrng.integers(0, n, size=total - num_hub_draws)
        keep = (sources != targets) & (community_of[sources] != community_of[targets])
        edge_lo.append(np.minimum(sources[keep], targets[keep]))
        edge_hi.append(np.maximum(sources[keep], targets[keep]))

    graph = SocialGraph(nodes=range(n))
    if edge_lo:
        lo = np.concatenate(edge_lo)
        hi = np.concatenate(edge_hi)
        keys = np.unique(lo * np.int64(n) + hi)  # dedupe unordered pairs
        graph.add_unique_edges(zip((keys // n).tolist(), (keys % n).tolist()))
    return graph


def level_of_planted_node(node: int, nodes_per_level: int) -> int:
    """Level index of *node* in a :func:`planted_level_graph`."""
    return node // nodes_per_level


def configuration_model(degrees: Sequence[int], seed: RandomLike = None) -> SocialGraph:
    """Simple-graph configuration model for a prescribed degree sequence.

    Stub matching with rejection of self-loops and parallel edges (the
    rejected stubs are dropped, so realised degrees are <= the requested
    ones — the standard "erased" variant).  Useful for synthesising a
    substrate matched to a real (e.g. SNAP) degree distribution without
    shipping the original edges.
    """
    if any(degree < 0 for degree in degrees):
        raise GraphError("degrees must be non-negative")
    if sum(degrees) % 2:
        raise GraphError("degree sequence must have even sum")
    rng = ensure_rng(seed)
    stubs: List[int] = []
    for node, degree in enumerate(degrees):
        stubs.extend([node] * degree)
    rng.shuffle(stubs)
    graph = SocialGraph(nodes=range(len(degrees)))
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def complete_graph(n: int) -> SocialGraph:
    """K_n — used by tests as a worst-case tightly connected community."""
    graph = SocialGraph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v)
    return graph


def star_graph(n: int) -> SocialGraph:
    """Hub node 0 connected to spokes ``1..n`` (celebrity pattern)."""
    graph = SocialGraph(nodes=range(n + 1))
    for v in range(1, n + 1):
        graph.add_edge(0, v)
    return graph


def path_graph(n: int) -> SocialGraph:
    """Path over ``0..n-1`` — the minimal level-by-level graph (d=1)."""
    graph = SocialGraph(nodes=range(n))
    for u in range(n - 1):
        graph.add_edge(u, u + 1)
    return graph
