"""Randomized rounding on the super-tree, repetition, union and extraction.

Each repetition samples a good extended state tree top-down (one child below
the super node and below every chosen state node, both children below every
chosen virtual node) with the batched engine of ``rounding``.  Each distinct
selection is stitched once into a multi-tree, checked, and its edges mapped
back through the binarization gadgets to original-graph edges.  The union
over Q repetitions is pruned to a Steiner tree by breadth-first parent
assignment.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, InfeasibleError, InvariantError
from .instances import (PHI_IDENTITY, MultiTree, NormalizedInstance,
                        original_degree)
from .lpcore import INFEASIBLE, build_dst_lp, solve_lp
from .rounding import ChildTable, blocks, csr, pair_counts, per_rep
from .report import RunReport
from .states import (BASE, NODE_CAP, VIRTUAL, SuperTree, build_super_tree,
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
        support = np.flatnonzero(x > X_TINY)
        for p, kind in zip(support.tolist(), st.kind[support].tolist()):
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
    selected = np.unique(np.asarray(selected, dtype=np.int64))
    # only base nodes cost anything
    cost = int(st.cost[selected].sum())
    selected = set(selected.tolist())
    tree = selection_to_state_tree(st, selected)
    # the super-tree's own height bounds the depth, which may exceed the
    # height budget when the caller asks for more
    multi = stitch_multi_tree(st.norm, tree, st.h)
    _check_good_multi_tree(st.norm, multi)
    if multi.cost(st.norm) != cost:
        raise InvariantError("stitched cost differs from base-node cost")
    return RoundingOutcome(cost, tree, multi)


def _copy_of(norm: NormalizedInstance, v: int) -> str:
    """A copy of normalized vertex v, named by the original vertex it
    stands for."""
    o = norm.origin[v]
    part = ("" if o == v else "'s gadget"
            if norm.phi_kind[v] == PHI_IDENTITY else "'s sink")
    return f"a copy of {o}{part}"


def _check_good_multi_tree(norm: NormalizedInstance, tree: MultiTree):
    inst = norm.inst
    top = tree.label[tree.root]
    if top != inst.root:
        raise InvariantError(f"multi-tree rooted at {_copy_of(norm, top)}, "
                             f"not at a copy of the root {inst.root}")
    rho = original_degree(norm, tree)
    for a, v in enumerate(tree.label):
        if not tree.children[a] and v not in inst.terminals:
            raise InvariantError(
                f"{_copy_of(norm, v)} is a leaf but not a terminal")
        if rho[a] > inst.degree_bound[v]:
            raise InvariantError(
                f"original degree {rho[a]} of {_copy_of(norm, v)} "
                f"exceeds bound {inst.degree_bound[v]}")


def concentration_stats(sampler: Sampler, rep: np.ndarray, node: np.ndarray,
                        trials: int, s: float) -> dict[int, dict[str, float]]:
    """Per-vertex empirical MGF of the copy count and its maximum over the
    sampled (repetition, node) pairs of repetitions 0..trials-1."""
    if trials < 1:
        raise InvariantError("need at least one rounding outcome")
    st = sampler.st
    n = st.norm.inst.n
    copies = pair_counts(*csr(len(st), *st.involved), n, rep, node, trials)
    mgf = 1.0 + np.expm1(s * copies).sum(axis=0) / trials
    top = copies.max(axis=0)
    return {v: {"mgf": float(mgf[v]), "max_copies": int(top[v])}
            for v in range(n)}


@dataclass
class DstRunReport(RunReport):
    PROBLEM = "dst"

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


def default_q(h: int, k: int) -> int:
    """Q = ceil((h+1) ln(10 k)): union-bound failure probability <= 1/10;
    no repetition at all without terminals."""
    return math.ceil((h + 1) * math.log(10 * k)) if k else 0


def run_dst(norm: NormalizedInstance, h: int | None = None,
            Q: int | None = None, seed: int = 0, node_cap: int = NODE_CAP,
            label: str = "") -> DstRunReport:
    """Full DB-DST pipeline: super-tree, LP, Q roundings, union, extraction."""
    inst = norm.inst
    orig = norm.original
    budget = height_budget(inst.n)
    h = h if h is not None else budget
    k = len(inst.terminals)
    # without terminals the LP is all zero and the empty tree is optimal, so
    # nothing is rounded whatever Q says
    Q = default_q(h, k) if Q is None or not k else Q

    st = build_super_tree(norm, h, node_cap)
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
    # each distinct selection is stitched and checked once
    seen: dict[bytes, int] = {}
    for start, stop in blocks(Q):
        rep, node = sampler.sample((seed,), start, stop)
        reps.append(rep)
        nodes.append(node)
        for selected in per_rep(rep, node, start, stop):
            selected = np.unique(selected)
            sig = selected.tobytes()
            if sig not in seen:
                out = round_super_tree(st, selected)
                seen[sig] = out.cost
                for e in out.multi_tree.edge_labels():
                    oe = norm.edge_origin[e]
                    if oe is not None:
                        union_edges.add(oe)
            rep_costs.append(seen[sig])

    cost_of = orig.cost
    union_cost = sum(cost_of[e] for e in union_edges)
    tree_edges, covered = extract_tree(orig, union_edges)
    tree_cost = sum(cost_of[e] for e in tree_edges)

    outdeg = Counter(u for u, _ in tree_edges)
    ratios = {u: d / max(orig.degree_bound[u], 1) for u, d in outdeg.items()}

    h_prime = st.height()
    s = math.log(1 + 1 / (2 * h_prime)) if h_prime > 0 else math.log(2)
    mgf = concentration_stats(sampler, np.concatenate(reps),
                              np.concatenate(nodes), Q, s) if Q else {}

    return DstRunReport(
        instance=label, seed=seed, h=h, Q=Q, lp_cost=sol.objective,
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
