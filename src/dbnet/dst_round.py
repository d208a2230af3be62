"""Randomized rounding on the super-tree, repetition, union and extraction.

Each repetition samples a good extended state tree top-down (one child below
the super node and below every chosen state node, both children below every
chosen virtual node), stitches it into a multi-tree, and maps its edges back
through the binarization gadgets to original-graph edges.  The union over Q
repetitions is pruned to a Steiner tree by breadth-first parent assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, InfeasibleError, InvariantError
from .instances import MultiTree, NormalizedInstance, original_degree
from .lpcore import INFEASIBLE, build_dst_lp, rep_rng, solve_lp
from .states import (BASE, STATE, SUPER, VIRTUAL, SuperTree,
                     build_super_tree, selection_to_state_tree,
                     stitch_multi_tree)
from .treekit import height_budget

EPS_PROB = 1e-6
X_TINY = 1e-12


class Sampler:
    """Precomputed child-choice tables for repeated rounding of one LP
    solution."""

    def __init__(self, st: SuperTree, x: np.ndarray):
        self.st = st
        self.x = x
        self.choice = {}
        for p in range(len(st)):
            if st.kind[p] not in (STATE, SUPER) or x[p] <= X_TINY:
                continue
            kids = [c for c in st.children[p] if x[c] > X_TINY]
            total = float(sum(x[c] for c in kids))
            if abs(total - x[p]) > EPS_PROB:
                raise InvariantError(
                    f"child mass {total} != x[{p}]={x[p]} beyond EPS_PROB")
            self.choice[p] = (kids, np.cumsum([x[c] / total for c in kids]))

    def sample(self, rng) -> tuple[set[int], list[int]]:
        """One rounding pass; returns (selected nodes, selected base nodes)."""
        st = self.st
        selected, bases = set(), []
        stack = [st.root]
        while stack:
            p = stack.pop()
            selected.add(p)
            kind = st.kind[p]
            if kind in (STATE, SUPER):
                kids, cum = self.choice[p]
                idx = int(np.searchsorted(cum, rng.random(), side="right"))
                stack.append(kids[min(idx, len(kids) - 1)])
            elif kind == VIRTUAL:
                stack.extend(st.children[p])
            else:
                bases.append(p)
        bases.sort()
        return selected, bases


@dataclass
class RoundingOutcome:
    selected: set[int]
    base_nodes: list[int]
    cost: int
    state_tree: object = None
    multi_tree: MultiTree | None = None


def round_super_tree(st: SuperTree, x: np.ndarray, rng, build: bool = True,
                     sampler: Sampler | None = None) -> RoundingOutcome:
    """Sample one extended state tree and (optionally) stitch it and check
    that the stitched multi-tree is good."""
    if sampler is None:
        sampler = Sampler(st, x)
    selected, bases = sampler.sample(rng)
    cost = sum(st.cost[o] for o in bases)
    out = RoundingOutcome(selected, bases, cost)
    if build:
        tree = selection_to_state_tree(st, selected)
        out.state_tree = tree
        out.multi_tree = stitch_multi_tree(st.norm, tree)
        _check_good_multi_tree(st.norm, out.multi_tree)
        if out.multi_tree.cost(st.norm) != cost:
            raise InvariantError("stitched cost differs from base-node cost")
    return out


def _check_good_multi_tree(norm: NormalizedInstance, tree: MultiTree):
    inst = norm.inst
    if tree.label[tree.root] != inst.root:
        raise InvariantError("multi-tree not rooted at a copy of the root")
    rho = original_degree(norm, tree)
    for a in range(len(tree)):
        if not tree.children[a] and tree.label[a] not in inst.terminals:
            raise InvariantError(f"leaf copy of non-terminal {tree.label[a]}")
        if rho[a] > inst.degree_bound[tree.label[a]]:
            raise InvariantError(
                f"original degree {rho[a]} of a copy of {tree.label[a]} "
                f"exceeds bound {inst.degree_bound[tree.label[a]]}")


def concentration_stats(base_selections: list[list[int]], st: SuperTree,
                        s: float) -> dict[int, dict[str, float]]:
    """Per-vertex empirical MGF of the copy count and its maximum."""
    if not base_selections:
        raise InvariantError("need at least one rounding outcome")
    trials = len(base_selections)
    acc = {v: [0.0, 0] for v in range(st.norm.inst.n)}
    for bases in base_selections:
        counts = {}
        for o in bases:
            for v in st.involved_vertices(o):
                counts[v] = counts.get(v, 0) + 1
        for v, m in counts.items():
            acc[v][0] += math.exp(s * m) - 1.0
            acc[v][1] = max(acc[v][1], m)
    return {v: {"mgf": 1.0 + tot / trials, "max_copies": mx}
            for v, (tot, mx) in acc.items()}


@dataclass
class DstParams:
    h: int | None = None
    Q: int | None = None
    seed: int = 0
    node_cap: int = 5_000_000


@dataclass
class DstRunReport:
    instance: str
    seed: int
    h: int
    Q: int
    lp_cost: float
    repetition_costs: list[int]
    union_cost: int
    tree_cost: int
    tree_edges: list[tuple[int, int]]
    covered: list[int]
    coverage: float
    degree_violations: dict[int, float]
    mgf_stats: dict[int, dict[str, float]]
    s: float
    h_prime: int
    # the rounding tables over the solved super-tree, for further samples
    sampler: Sampler | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "problem": "dst",
            "instance": self.instance,
            "seed": self.seed,
            "h": self.h,
            "Q": self.Q,
            "lp_cost": self.lp_cost,
            "repetition_costs": self.repetition_costs,
            "union_cost": self.union_cost,
            "tree_cost": self.tree_cost,
            "tree_edges": [list(e) for e in self.tree_edges],
            "covered": self.covered,
            "coverage": self.coverage,
            "degree_violations": {str(v): r for v, r in
                                  sorted(self.degree_violations.items())},
            "mgf_stats": {str(v): d for v, d in sorted(self.mgf_stats.items())},
            "s": self.s,
            "h_prime": self.h_prime,
        }


def default_q(h: int, k: int) -> int:
    """Q = ceil((h+1) ln(10 k)): union-bound failure probability <= 1/10."""
    return math.ceil((h + 1) * math.log(10 * k))


def run_dst(norm: NormalizedInstance, params: DstParams | None = None,
            label: str = "") -> DstRunReport:
    """Full DB-DST pipeline: super-tree, LP, Q roundings, union, extraction."""
    params = params or DstParams()
    inst = norm.inst
    orig = norm.original
    budget = height_budget(inst.n)
    h = params.h if params.h is not None else budget
    k = len(inst.terminals)
    Q = params.Q if params.Q is not None else default_q(h, k)

    st = build_super_tree(norm, h, params.node_cap)
    try:
        sol = solve_lp(build_dst_lp(st))
        if sol.status == INFEASIBLE:
            raise InfeasibleError("DST LP is infeasible")
    except InfeasibleError as e:
        # below the budget a feasible instance may have no tree this shallow
        if h < budget:
            raise CapExceededError(
                f"height {h} is below the height budget {budget} and the "
                f"super-tree holds no tree ({e}); raise --height") from e
        raise
    sampler = Sampler(st, sol.x)

    rep_costs, base_lists = [], []
    union_edges: set[tuple[int, int]] = set()
    for i in range(Q):
        rng = rep_rng(params.seed, i)
        out = round_super_tree(st, sol.x, rng, build=True, sampler=sampler)
        rep_costs.append(out.cost)
        base_lists.append(out.base_nodes)
        for e in out.multi_tree.edge_labels():
            oe = norm.edge_origin[e]
            if oe is not None:
                union_edges.add(oe)

    cost_of = orig.cost
    union_cost = sum(cost_of[e] for e in union_edges)
    tree_edges, covered = extract_tree(orig, union_edges)
    tree_cost = sum(cost_of[e] for e in tree_edges)

    outdeg = {}
    for (u, _) in tree_edges:
        outdeg[u] = outdeg.get(u, 0) + 1
    ratios = {u: d / max(orig.degree_bound[u], 1) for u, d in outdeg.items()}

    h_prime = st.height()
    s = math.log(1 + 1 / (2 * h_prime)) if h_prime > 0 else math.log(2)
    mgf = concentration_stats(base_lists, st, s)

    return DstRunReport(
        instance=label, seed=params.seed, h=h, Q=Q, lp_cost=sol.objective,
        repetition_costs=rep_costs, union_cost=union_cost,
        tree_cost=tree_cost, tree_edges=sorted(tree_edges),
        covered=sorted(covered), coverage=len(covered) / k,
        degree_violations=ratios, mgf_stats=mgf, s=s, h_prime=h_prime,
        sampler=sampler)


def extract_tree(inst, union_edges: set[tuple[int, int]]
                 ) -> tuple[set[tuple[int, int]], set[int]]:
    """Prune a union subgraph to a tree: BFS parent assignment from the root,
    then drop branches not leading to any terminal."""
    adj = {}
    for (u, v) in sorted(union_edges):
        adj.setdefault(u, []).append(v)
    parent = {inst.root: None}
    queue = [inst.root]
    while queue:
        u = queue.pop(0)
        for v in adj.get(u, []):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    covered = set(inst.terminals) & set(parent)
    keep = set()
    for t in covered:
        v = t
        while v is not None and v not in keep:
            keep.add(v)
            v = parent[v]
    edges = {(parent[v], v) for v in keep if parent[v] is not None}
    return edges, covered
