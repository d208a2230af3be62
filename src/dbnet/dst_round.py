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
from .instances import (DirectedInstance, MultiTree, NormalizedInstance,
                        original_degree)
from .lpcore import LPModel, LPSolution, build_dst_lp, solve_lp
from .rounding import ChildTable, blocks, csr, pair_counts, per_rep
from .report import INFEASIBLE, RunReport
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
    part = ("" if o == v else "'s gadget" if norm.is_gadget(v)
            else "'s sink")
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


def concentration_stats(sampler: Sampler, samples, trials: int,
                        s: float) -> dict[int, dict[str, float]]:
    """Per-vertex empirical MGF of the copy count and its maximum over
    repetitions 0..trials-1, whose sampled (repetition, node) pairs
    ``samples`` gives block by block as ``(start, stop, rep, node)``."""
    if trials < 1:
        raise InvariantError("need at least one rounding outcome")
    st = sampler.st
    n = st.norm.inst.n
    involved = csr(len(st), *st.involved)
    total = np.zeros(n)
    top = np.zeros(n, dtype=np.int64)
    for start, stop, rep, node in samples:
        copies = pair_counts(*involved, n, rep - start, node, stop - start)
        # the running sum heads each block's rows, so that the sum adds the
        # rows in the order one sum over every repetition does
        total = np.vstack([total, np.expm1(s * copies)]).sum(axis=0)
        np.maximum(top, copies.max(axis=0), out=top)
    mgf = 1.0 + total / trials
    return {v: {"mgf": float(mgf[v]), "max_copies": int(top[v])}
            for v in range(n)}


def mgf_s(h_prime: int) -> float:
    """The MGF parameter s = ln(1 + 1/(2h')) of a super-tree of height h',
    ln 2 at h' = 0."""
    return math.log(1 + 1 / (2 * h_prime)) if h_prime > 0 else math.log(2)


def tree_degree_ratios(inst: DirectedInstance, edges) -> dict[int, float]:
    """Out-degree in ``edges`` of each of their tails that is a vertex of
    ``inst``, relative to its degree bound (at least 1)."""
    outdeg = Counter(u for u, _ in edges)
    return {u: d / max(inst.degree_bound[u], 1) for u, d in outdeg.items()
            if u in inst.degree_bound}


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


def _check_reachable(inst: DirectedInstance) -> None:
    """InfeasibleError naming the least terminal that no path from the root
    reaches over vertices of degree bound 1 or more: every vertex above a
    terminal in a tree has a child, so no tree of any height spans it."""
    missed = sorted(inst.terminals - inst.parents(
        (u, v) for (u, v, _) in inst.edges if inst.degree_bound[u]).keys())
    if missed:
        raise InfeasibleError(f"terminal {missed[0]} is unreachable from the "
                              f"root over vertices of degree bound >= 1")


def dst_lp(norm: NormalizedInstance, h: int | None = None,
           node_cap: int = NODE_CAP, solve: bool = False
           ) -> tuple[SuperTree, LPModel | LPSolution]:
    """The super-tree of height h (the height budget when None) and its LP,
    or with ``solve`` the LP's solution, so that the model is freed.

    A terminal that no tree of any height reaches raises InfeasibleError
    before any super-tree is built.  Below the height budget a feasible
    instance may have no tree this shallow, and a super-tree that holds no
    tree raises CapExceededError."""
    _check_reachable(norm.original)
    st = build_super_tree(norm, h, node_cap)
    try:
        lp = build_dst_lp(st)
        if solve:
            lp = solve_lp(lp)
            if lp.status == INFEASIBLE:
                raise InfeasibleError("DST LP is infeasible")
    except InfeasibleError as e:
        budget = height_budget(norm.inst.n)
        if st.h < budget:
            raise CapExceededError(
                f"height {st.h} is below the height budget {budget} and the "
                f"super-tree holds no tree ({e}); raise --height") from e
        raise
    return st, lp


def run_dst(norm: NormalizedInstance, h: int | None = None,
            Q: int | None = None, seed: int = 0, node_cap: int = NODE_CAP,
            label: str = "") -> DstRunReport:
    """Full DB-DST pipeline: super-tree, LP, Q roundings, union, extraction."""
    orig = norm.original
    st, sol = dst_lp(norm, h, node_cap, solve=True)
    h, k = st.h, len(norm.inst.terminals)
    # without terminals the LP is all zero and the empty tree is optimal, so
    # nothing is rounded whatever Q says
    Q = default_q(h, k) if Q is None or not k else Q
    sampler = Sampler(st, sol.x)

    rep_costs = []
    union_edges: set[tuple[int, int]] = set()
    # each distinct selection is stitched and checked once
    seen: dict[bytes, int] = {}

    def stitched():
        # each block of repetitions, once its selections are stitched
        for start, stop in blocks(Q):
            rep, node = sampler.sample((seed,), start, stop)
            for selected in per_rep(rep, node, start, stop):
                selected = np.unique(selected)
                sig = selected.tobytes()
                if sig not in seen:
                    out = round_super_tree(st, selected)
                    seen[sig] = out.cost
                    for e in out.multi_tree.edge_labels():
                        oe = norm.edge_origin(e)
                        if oe is not None:
                            union_edges.add(oe)
                rep_costs.append(seen[sig])
            yield start, stop, rep, node

    h_prime = st.height()
    s = mgf_s(h_prime)
    mgf = concentration_stats(sampler, stitched(), Q, s) if Q else {}

    cost_of = orig.cost
    union_cost = sum(cost_of[e] for e in union_edges)
    tree_edges, covered = extract_tree(orig, union_edges)
    tree_cost = sum(cost_of[e] for e in tree_edges)

    return DstRunReport(
        instance=label, seed=seed, h=h, Q=Q, lp_cost=sol.objective,
        repetition_costs=rep_costs, union_cost=union_cost,
        tree_cost=tree_cost, tree_edges=sorted(tree_edges),
        covered=sorted(covered), coverage=len(covered) / k if k else 1.0,
        degree_violations=tree_degree_ratios(orig, tree_edges),
        mgf_stats=mgf, s=s, h_prime=h_prime,
        sampler=sampler)


def extract_tree(inst, union_edges: set[tuple[int, int]]
                 ) -> tuple[set[tuple[int, int]], set[int]]:
    """Prune a union subgraph to a tree: BFS parent assignment from the root,
    then drop branches not leading to any terminal."""
    parent = inst.parents(union_edges)
    covered = inst.terminals & parent.keys()
    keep = set()
    for v in covered:
        while v is not None and v not in keep:
            keep.add(v)
            v = parent[v]
    return {(parent[v], v) for v in keep if parent[v] is not None}, covered
