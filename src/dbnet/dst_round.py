"""Randomized rounding on the super-tree, repetition, union and extraction.

Each repetition samples a good extended state tree top-down (one child below
the super node and below every chosen state node, both children below every
chosen virtual node) with the batched engine of ``rounding``, stitches it
into a multi-tree, and maps its edges back through the binarization gadgets
to original-graph edges.  The union over Q repetitions is pruned to a
Steiner tree by breadth-first parent assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, InfeasibleError, InvariantError
from .instances import MultiTree, NormalizedInstance, original_degree
from .lpcore import INFEASIBLE, build_dst_lp, solve_lp
from .rounding import ChildTable, blocks, membership, pair_counts, per_rep
from .states import (BASE, VIRTUAL, SuperTree, build_super_tree,
                     selection_to_state_tree, stitch_multi_tree)
from .treekit import height_budget

EPS_PROB = 1e-6
X_TINY = 1e-12


class Sampler:
    """The child table of one LP solution over the super-tree, for repeated
    rounding: each chosen state or super node keeps one child by inverse CDF
    on its own draw slot, each chosen virtual node keeps both children."""

    def __init__(self, st: SuperTree, x: np.ndarray):
        self.st = st
        parent, child, lo, hi = [], [], [], []
        for p in np.flatnonzero(x > X_TINY).tolist():
            kind = st.kind[p]
            if kind == BASE:
                continue
            if kind == VIRTUAL:
                kids = st.children[p]
                lo += [0.0] * len(kids)
                hi += [math.inf] * len(kids)
            else:
                kids = [c for c in st.children[p] if x[c] > X_TINY]
                total = float(sum(x[c] for c in kids))
                if abs(total - x[p]) > EPS_PROB:
                    raise InvariantError(
                        f"child mass {total} != x[{p}]={x[p]} beyond EPS_PROB")
                if not kids:
                    continue
                cum = np.cumsum([x[c] / total for c in kids]).tolist()
                lo += [0.0] + cum[:-1]
                hi += cum[:-1] + [math.inf]
            parent += [p] * len(kids)
            child += kids
        # children of one parent share its slot, so exactly one is kept
        self.table = ChildTable(len(st), st.root, parent, child, parent,
                                lo, hi)
        # base node that can be selected -> the normalized vertices it involves
        self.involved = membership(len(st), [
            (o, v) for o in child if st.kind[o] == BASE
            for v in st.involved_vertices(o)])

    def sample(self, key: tuple[int, ...], start: int,
               stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Selected (repetition, node) pairs of repetitions start..stop-1 of
        the stream ``key``."""
        return self.table.sample(key, start, stop)


@dataclass
class RoundingOutcome:
    cost: int
    state_tree: object
    multi_tree: MultiTree


def round_super_tree(st: SuperTree, selected) -> RoundingOutcome:
    """Stitch one repetition's selected nodes into a multi-tree and check
    that it is good and costs what its base nodes cost."""
    selected = set(np.asarray(selected).tolist())
    cost = sum(st.cost[o] for o in selected if st.kind[o] == BASE)
    tree = selection_to_state_tree(st, selected)
    multi = stitch_multi_tree(st.norm, tree)
    _check_good_multi_tree(st.norm, multi)
    if multi.cost(st.norm) != cost:
        raise InvariantError("stitched cost differs from base-node cost")
    return RoundingOutcome(cost, tree, multi)


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


def concentration_stats(sampler: Sampler, rep: np.ndarray, node: np.ndarray,
                        trials: int, s: float) -> dict[int, dict[str, float]]:
    """Per-vertex empirical MGF of the copy count and its maximum over the
    sampled (repetition, node) pairs of repetitions 0..trials-1."""
    if trials < 1:
        raise InvariantError("need at least one rounding outcome")
    n = sampler.st.norm.inst.n
    copies = pair_counts(*sampler.involved, n, rep, node, trials)
    mgf = 1.0 + np.expm1(s * copies).sum(axis=0) / trials
    top = copies.max(axis=0)
    return {v: {"mgf": float(mgf[v]), "max_copies": int(top[v])}
            for v in range(n)}


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
            "schema_version": 2,
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
    """Q = ceil((h+1) ln(10 k)): union-bound failure probability <= 1/10;
    no repetition at all without terminals."""
    return math.ceil((h + 1) * math.log(10 * k)) if k else 0


def run_dst(norm: NormalizedInstance, params: DstParams | None = None,
            label: str = "") -> DstRunReport:
    """Full DB-DST pipeline: super-tree, LP, Q roundings, union, extraction."""
    params = params or DstParams()
    inst = norm.inst
    orig = norm.original
    budget = height_budget(inst.n)
    h = params.h if params.h is not None else budget
    k = len(inst.terminals)
    # without terminals the LP is all zero and the empty tree is optimal, so
    # nothing is rounded whatever params.Q says
    Q = default_q(h, k) if params.Q is None or not k else params.Q

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

    rep_costs, reps, nodes = [], [], []
    union_edges: set[tuple[int, int]] = set()
    for start, stop in blocks(Q):
        rep, node = sampler.sample((params.seed,), start, stop)
        reps.append(rep)
        nodes.append(node)
        for selected in per_rep(rep, node, start, stop):
            out = round_super_tree(st, selected)
            rep_costs.append(out.cost)
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
    mgf = concentration_stats(sampler, np.concatenate(reps),
                              np.concatenate(nodes), Q, s) if Q else {}

    return DstRunReport(
        instance=label, seed=params.seed, h=h, Q=Q, lp_cost=sol.objective,
        repetition_costs=rep_costs, union_cost=union_cost,
        tree_cost=tree_cost, tree_edges=sorted(tree_edges),
        covered=sorted(covered), coverage=len(covered) / k if k else 1.0,
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
