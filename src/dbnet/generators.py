"""Seeded random instance generators that are feasible by construction."""

from __future__ import annotations

import numpy as np

from .errors import FormatError
from .instances import DirectedInstance, GroupTreeInstance


def gen_dst(n: int, m: int, k: int, d_max: int = 3,
            cost_range: tuple[int, int] = (1, 20),
            seed: int = 0) -> DirectedInstance:
    """Random reachable instance: embed an arborescence, then add extra arcs.

    Degree bounds are lifted to the embedded fan-outs, so the instance is
    always feasible.
    """
    if n < 2 or k < 1 or k > n - 1 or m < n - 1 or d_max < 1:
        raise FormatError("inconsistent generator parameters")
    if m > (n - 1) * (n - 1):
        raise FormatError("too many edges requested")
    rng = np.random.default_rng(seed)
    lo, hi = cost_range
    fanout = [0] * n
    edges = {}
    for v in range(1, n):
        ok = [u for u in range(v) if fanout[u] < d_max]
        u = int(ok[rng.integers(len(ok))])
        fanout[u] += 1
        edges[(u, v)] = int(rng.integers(lo, hi + 1))
    while len(edges) < m:
        u = int(rng.integers(n))
        v = int(rng.integers(1, n))
        if u != v and (u, v) not in edges:
            edges[(u, v)] = int(rng.integers(lo, hi + 1))
    terminals = sorted(int(t) for t in
                       rng.choice(np.arange(1, n), size=k, replace=False))
    bounds = {v: max(int(rng.integers(1, d_max + 1)), fanout[v])
              for v in range(n)}
    triples = [(u, v, c) for (u, v), c in sorted(edges.items())]
    return DirectedInstance(n, triples, 0, frozenset(terminals), bounds)


def gen_gst(n: int, k: int, depth: int = 4, d_max: int = 3,
            cost_range: tuple[int, int] = (1, 20),
            seed: int = 0) -> GroupTreeInstance:
    """Random rooted tree with disjoint leaf groups; degree bounds are lifted
    to cover one designated leaf per group, so the instance is feasible."""
    if n < 2 or k < 1 or depth < 1 or d_max < 1:
        raise FormatError("inconsistent generator parameters")
    rng = np.random.default_rng(seed)
    lo, hi = cost_range
    parent = [-1] * n
    level = [0] * n
    fanout = [0] * n
    for v in range(1, n):
        ok = [u for u in range(v)
              if level[u] < depth and fanout[u] < d_max]
        if not ok:
            raise FormatError("depth/d_max too tight for n vertices")
        u = int(ok[rng.integers(len(ok))])
        parent[v] = u
        level[v] = level[u] + 1
        fanout[u] += 1
    children = [[] for _ in range(n)]
    for v in range(1, n):
        children[parent[v]].append(v)
    leaves = [v for v in range(n) if not children[v] and v != 0]
    if len(leaves) < k:
        raise FormatError(f"only {len(leaves)} leaves for {k} groups")
    order = [leaves[i] for i in rng.permutation(len(leaves))]
    groups = [{order[t]} for t in range(k)]
    for o in order[k:]:
        t = int(rng.integers(k + 1))
        if t < k:
            groups[t].add(o)
    cost = [int(rng.integers(lo, hi + 1)) for _ in range(n)]
    cost[0] = 0
    # children used by the union of the designated root-to-leaf paths
    on_path = set()
    for t in range(k):
        v = order[t]
        while v != -1 and v not in on_path:
            on_path.add(v)
            v = parent[v]
    need = [0] * n
    for v in on_path:
        if parent[v] != -1:
            need[parent[v]] += 1
    bounds = [max(int(rng.integers(1, d_max + 1)), need[v], 1)
              for v in range(n)]
    return GroupTreeInstance(n, parent, cost,
                             [frozenset(g) for g in groups], bounds)
