"""Exact brute-force solvers for desk-scale instances.

These are deliberately simple and slow; they exist to provide ground truth
for the randomized pipelines on tiny inputs.  Both refuse inputs above their
configured limits instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError
from .instances import DirectedInstance, GroupTreeInstance
from .report import INFEASIBLE, OPTIMAL

INF = math.inf

DST_MAX_N = 12
DST_MAX_M = 24
GST_MAX_K = 12
GST_MAX_N = 2000


@dataclass
class ExactResult:
    status: str
    cost: int | None = None
    edges: list[tuple[int, int]] = field(default_factory=list)
    vertices: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"status": self.status, "cost": self.cost,
                "edges": [list(e) for e in sorted(self.edges)],
                "vertices": sorted(self.vertices)}


def exact_dst(inst: DirectedInstance) -> ExactResult:
    """Minimum-cost degree-bounded out-arborescence covering the terminals.

    Depth-first include/exclude over the edge list with branch-and-bound:
    partial solutions keep in-degrees at most 1 and out-degrees within the
    bounds, stay acyclic, and are cut when current cost plus an admissible
    lower bound (cheapest remaining in-edge per uncovered terminal) cannot
    beat the incumbent.
    """
    if inst.n > DST_MAX_N or len(inst.edges) > DST_MAX_M:
        raise CapExceededError(
            f"exact_dst limits exceeded: n={inst.n} (max {DST_MAX_N}), "
            f"m={len(inst.edges)} (max {DST_MAX_M})")
    cost = inst.cost
    edges = sorted(cost)
    m = len(edges)
    r = inst.root
    terminals = [t for t in sorted(inst.terminals) if t != r]

    best = [INF, None]
    parent = [-1] * inst.n
    outdeg = [0] * inst.n

    def creates_cycle(u: int, v: int) -> bool:
        w = u
        while w != -1:
            if w == v:
                return True
            w = parent[w]
        return False

    def lower_bound(i: int, cur: float) -> float:
        lb = cur
        for t in terminals:
            if parent[t] != -1:
                continue
            c = min((cost[e] for e in edges[i:] if e[1] == t), default=INF)
            if c is INF:
                return INF
            lb += c
        return lb

    def dfs(i: int, cur: int, chosen: list[tuple[int, int]]):
        if lower_bound(i, cur) >= best[0]:
            return
        if i == m:
            # each vertex has one parent in chosen, so an edge whose head is
            # reached has its tail reached too
            reach = inst.parents(chosen)
            if all(v in reach for (_, v) in chosen) and all(
                    t in reach for t in terminals):
                best[:] = cur, list(chosen)
            return
        u, v = edges[i]
        # include, unless it breaks a structural constraint
        if (parent[v] == -1 and v != r and outdeg[u] < inst.degree_bound[u]
                and not creates_cycle(u, v)):
            parent[v] = u
            outdeg[u] += 1
            chosen.append((u, v))
            dfs(i + 1, cur + cost[(u, v)], chosen)
            chosen.pop()
            outdeg[u] -= 1
            parent[v] = -1
        dfs(i + 1, cur, chosen)

    dfs(0, 0, [])
    if best[1] is None:
        return ExactResult(INFEASIBLE)
    verts = {r} | {v for e in best[1] for v in e}
    return ExactResult(OPTIMAL, int(best[0]), sorted(best[1]), sorted(verts))


def exact_gst(inst: GroupTreeInstance) -> ExactResult:
    """Minimum-cost degree-bounded rooted subtree hitting every group.

    Dynamic program over (vertex, group subset): best[u][mask] is the least
    cost of a subtree rooted at u covering at least the groups in mask,
    using at most d_u children of u, combined child by child in id order
    with a submask merge.
    """
    k = len(inst.groups)
    if k > GST_MAX_K:
        raise CapExceededError(
            f"exact_gst limit exceeded: k={k} (max {GST_MAX_K})")
    if inst.n > GST_MAX_N:
        raise CapExceededError(f"exact_gst limit exceeded: n={inst.n}")
    if any(not g for g in inst.groups):
        return ExactResult(INFEASIBLE)
    full = (1 << k) - 1
    member_mask = [0] * inst.n
    for t, g in enumerate(inst.groups):
        for o in g:
            member_mask[o] |= 1 << t

    best: dict[int, list[float]] = {}
    pick: dict[int, list[list[tuple[int, int]] | None]] = {}

    for u in np.concatenate(inst.levels[::-1]).tolist():
        own = member_mask[u]
        # g[c][mask] = cheapest combination of exactly c children of u that
        # covers at least mask, with decisions kept for reconstruction
        budget = min(inst.degree_bound[u], len(inst.children[u]))
        g = [[INF] * (full + 1) for _ in range(budget + 1)]
        gp = [[None] * (full + 1) for _ in range(budget + 1)]
        g[0][0] = 0.0
        gp[0][0] = []
        for v in inst.children[u]:
            bv = best[v]
            for c in range(budget, 0, -1):
                prev, prevp = g[c - 1], gp[c - 1]
                cur, curp = g[c], gp[c]
                for mask in range(full + 1):
                    sub = mask
                    while True:
                        rest = mask ^ sub
                        if (prev[rest] is not INF and bv[sub] is not INF
                                and prev[rest] + bv[sub] < cur[mask]):
                            cur[mask] = prev[rest] + bv[sub]
                            curp[mask] = prevp[rest] + [(v, sub)]
                        if sub == 0:
                            break
                        sub = (sub - 1) & mask
        bu = [INF] * (full + 1)
        pu: list[list[tuple[int, int]] | None] = [None] * (full + 1)
        for mask in range(full + 1):
            need = mask & ~own
            for c in range(budget + 1):
                if g[c][need] is not INF and inst.cost[u] + g[c][need] < bu[mask]:
                    bu[mask] = inst.cost[u] + g[c][need]
                    pu[mask] = gp[c][need]
        best[u] = bu
        pick[u] = pu

    if best[inst.root][full] is INF:
        return ExactResult(INFEASIBLE)
    # the groups each chosen vertex's subtree covers, from the root down
    need = {inst.root: full}
    for u in np.concatenate(inst.levels).tolist():
        if u in need:
            need.update(pick[u][need[u]])
    parent = inst.parent.tolist()
    edges = sorted((parent[v], v) for v in need if v != inst.root)
    return ExactResult(OPTIMAL, int(best[inst.root][full]), edges,
                       sorted(need))
