"""Seeded instance text for the benchmark workloads.

The construction follows ``dbnet.cli.gen_dst`` and ``dbnet.cli.gen_gst``
draw for draw, so for equal parameters the text is identical to what
``dbnet gen-dst``/``gen-gst`` print.  It lives here so that the benchmark
inputs stay fixed when the program's own generators move or change; the
recorded SHA-256 of every instance (``reference.json``) guards that.

``gen_gst_text`` keeps the eligible-parent list incrementally instead of
rescanning all earlier vertices, which turns the quadratic candidate scan
into a linear one (n=20000 in well under a second instead of ~15 s).
"""

from __future__ import annotations

import numpy as np


def gen_dst_text(n: int, m: int, k: int, d_max: int = 3,
                 cost_range: tuple[int, int] = (1, 20), seed: int = 0) -> str:
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
    bounds = [max(int(rng.integers(1, d_max + 1)), fanout[v])
              for v in range(n)]
    out = ["DBDST 1", f"{n} {len(edges)} {k}", "root 0"]
    out += [f"vertex {v} {bounds[v]}" for v in range(n)]
    out += [f"edge {u} {v} {c}" for (u, v), c in sorted(edges.items())]
    out += [f"terminal {t}" for t in terminals]
    return "\n".join(out) + "\n"


def gen_gst_text(n: int, k: int, depth: int = 4, d_max: int = 3,
                 cost_range: tuple[int, int] = (1, 20), seed: int = 0) -> str:
    rng = np.random.default_rng(seed)
    lo, hi = cost_range
    parent = [-1] * n
    level = [0] * n
    fanout = [0] * n
    ok = [0] if depth > 0 and d_max > 0 else []   # eligible parents, ascending
    for v in range(1, n):
        if not ok:
            raise ValueError("depth/d_max too tight for n vertices")
        i = int(rng.integers(len(ok)))
        u = ok[i]
        parent[v] = u
        level[v] = level[u] + 1
        fanout[u] += 1
        if fanout[u] >= d_max:
            del ok[i]
        if level[v] < depth:
            ok.append(v)
    has_child = [False] * n
    for v in range(1, n):
        has_child[parent[v]] = True
    leaves = [v for v in range(1, n) if not has_child[v]]
    if len(leaves) < k:
        raise ValueError(f"only {len(leaves)} leaves for {k} groups")
    order = [leaves[i] for i in rng.permutation(len(leaves))]
    groups = [{order[t]} for t in range(k)]
    for o in order[k:]:
        t = int(rng.integers(k + 1))
        if t < k:
            groups[t].add(o)
    cost = [int(rng.integers(lo, hi + 1)) for _ in range(n)]
    cost[0] = 0
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
    out = ["DBGST 1", f"{n} {k}", "root 0"]
    out += [f"vertex {v} {parent[v]} {cost[v]} {bounds[v]}" for v in range(n)]
    for t, g in enumerate(groups):
        out.append(f"group {t} {len(g)} {' '.join(map(str, sorted(g)))}"
                   .rstrip())
    return "\n".join(out) + "\n"
