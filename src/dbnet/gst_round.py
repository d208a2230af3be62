"""Group Steiner rounding on trees: hop levels, capped scaling, recursive
randomized rounding, repetition and union.

The pipeline solves the tree LP, modifies the solution to power-of-two values
(P1-P6), computes hop levels and the scaled solution x', then repeats the
top-down Bernoulli rounding M times with the batched engine of ``rounding``
and unions the sampled subtrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InfeasibleError, InvariantError
from .instances import GroupTreeInstance
from .lpcore import (build_gst_lp, check_modified_solution,
                     modify_gst_solution, solve_lp)
from .report import INFEASIBLE, RunReport
from .rounding import ChildTable, blocks

EPS_MONOTONE = 1e-12  # slack of the x' non-increasing check
EPS_MASS = 1e-9       # slack of the branching-mass check


def global_params(n: int) -> tuple[int, int]:
    """(L, gamma): L = ceil(log2(2n)), gamma = floor(log2 L) - 2, clamped at 0
    so that tiny instances fall back to unscaled rounding."""
    if n < 1:
        raise ValueError("need n >= 1")
    L = math.ceil(math.log2(2 * n))
    gamma = max(math.floor(math.log2(L)) - 2, 0) if L >= 1 else 0
    return L, gamma


def compute_hop_levels(inst: GroupTreeInstance, xt: np.ndarray) -> np.ndarray:
    """Hop level per vertex: edge (u, v) contributes 1 iff x~_v < x~_u.

    Levels are computed on the support of x~ only; vertices with x~ = 0 get
    level -1 and never participate in rounding.
    """
    if xt[inst.root] <= 0:
        raise InvariantError("root has zero value; nothing to round")
    ell = np.full(inst.n, -1, dtype=int)
    ell[inst.root] = 0
    for level in inst.levels[1:]:
        v = level[(xt[level] > 0) & (ell[inst.parent[level]] >= 0)]
        u = inst.parent[v]
        rise = np.flatnonzero(xt[v] > xt[u])
        if len(rise):
            i = rise[0]
            raise InvariantError(f"x~ increases on edge ({u[i]}, {v[i]})")
        ell[v] = ell[u] + (xt[v] < xt[u])
    return ell


def scale_solution(xt: np.ndarray, ell: np.ndarray, gamma: int) -> np.ndarray:
    """x'_u = 2^min(ell_u, gamma) * x~_u on the support, capped at 1."""
    xp = np.zeros_like(xt, dtype=float)
    on = ell >= 0
    xp[on] = np.ldexp(xt[on], np.minimum(ell[on], gamma))
    if np.any(xp > 1 + 1e-12):
        raise InvariantError("scaled value above 1")
    return xp


def build_scaled(inst: GroupTreeInstance, xt: np.ndarray) -> np.ndarray:
    """The scaled solution x' of a modified solution x~, checked to stay
    non-increasing along every edge of its support."""
    L, gamma = global_params(inst.n)
    ell = compute_hop_levels(inst, xt)
    if np.any(ell > L):
        raise InvariantError("hop level exceeds L")
    xp = scale_solution(xt, ell, gamma)
    bad = check_nonincreasing(inst, xp)
    if bad:
        raise InvariantError("; ".join(bad))
    return xp


def check_nonincreasing(inst: GroupTreeInstance, xp: np.ndarray) -> list[str]:
    """x' must be non-increasing on every edge of the support."""
    return [f"x' increases on edge ({u}, {v}): {xp[v]} > {xp[u]}"
            for u, v in inst.rises(xp, EPS_MONOTONE) if xp[u] > 0]


def check_branching_mass(inst: GroupTreeInstance,
                         xp: np.ndarray) -> list[str]:
    """Conditional branching mass sum_v x'_v / x'_u must stay below 4 d_u."""
    mass = np.divide(inst.child_mass(xp), xp, out=np.zeros(inst.n),
                     where=xp > 0)
    # in floats: 4 d of a bound near 2^63 wraps in int64
    over = mass > 4 * np.asarray(inst.degree_bound, dtype=float) + EPS_MASS
    return [f"branching mass {mass[u]} > 4 d at u={u}"
            for u in np.flatnonzero(over).tolist()]


class Rounder:
    """The child table of the scaled solution, for repeated rounding: each
    child v of a chosen vertex u joins independently with probability
    x'_v / x'_u, on the draw slot v."""

    def __init__(self, inst: GroupTreeInstance, xp: np.ndarray):
        self.inst = inst
        if xp[inst.root] <= 0:
            raise InvariantError("root not in the support")
        parent = inst.parent
        kids = np.flatnonzero((xp > 0) & (parent >= 0))
        kids = kids[xp[parent[kids]] > 0]
        up = parent[kids]
        ratio = xp[kids] / xp[up]
        if np.any(ratio > 1 + 1e-9):
            raise InvariantError(f"child ratio above 1 below "
                                 f"u={up[ratio > 1 + 1e-9].min()}")
        self.table = ChildTable(inst.n, inst.root, up, kids, kids,
                                np.zeros(len(kids)), np.minimum(ratio, 1.0))

    def sample(self, key: tuple[int, ...], start: int,
               stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Chosen (repetition, vertex) pairs of repetitions start..stop-1 of
        the stream ``key``."""
        return self.table.sample(key, start, stop)


def alpha_sequence(L: int, gamma: int) -> list[float]:
    """alpha_ell for ell = 0..gamma: alpha_gamma = 1/(2L), then
    alpha_ell = 2 alpha_{ell+1} - 4 alpha_{ell+1}^2 going down."""
    if L < 1 or gamma < 0:
        raise ValueError("need L >= 1 and gamma >= 0")
    a = Fraction(1, 2 * L)
    seq = [a]
    for _ in range(gamma):
        a = 2 * a - 4 * a * a
        seq.append(a)
    seq.reverse()
    return [float(v) for v in seq]


def default_m(alpha0: float, k: int) -> int:
    """Smallest M with (1 - alpha0/2)^M <= 1/(10k); none without groups."""
    return math.ceil(math.log(10 * k) / -math.log1p(-alpha0 / 2)) if k else 0


def group_mass(inst: GroupTreeInstance, x: np.ndarray) -> list[float]:
    """z_r per group: total solution mass on the group's members."""
    return np.bincount(inst.group, weights=x[inst.member],
                       minlength=len(inst.groups)).tolist()


@dataclass
class GstRunReport(RunReport):
    PROBLEM = "gst"

    instance: str
    seed: int
    L: int
    gamma: int
    alpha: list[float]
    alpha0: float
    M: int
    lp_cost: float
    modified_cost: float
    repetition_costs: list[int]
    union_cost: int
    union_vertices: list[int]
    coverage: list[bool]
    degree_violations: dict[int, float]
    z_root: list[float]
    # the rounding tables over the scaled solution, for further samples
    rounder: Rounder | None = field(default=None, repr=False, compare=False)


def union_degree_ratios(inst: GroupTreeInstance,
                        union: set[int]) -> dict[int, float]:
    """Distinct real (non-synthetic) children in the union per vertex,
    relative to the degree bound of the input, which is the bound less
    one per synthetic child."""
    in_union = np.zeros(inst.n, dtype=bool)
    in_union[list(union)] = True
    fake = np.asarray(inst.synthetic_leaf, dtype=bool)[inst.child]
    up = inst.parent[inst.child]
    synthetic = np.bincount(up[fake], minlength=inst.n)
    real = np.bincount(up[in_union[inst.child] & ~fake], minlength=inst.n)
    us = np.flatnonzero(in_union & (real > 0)).tolist()
    # in Python ints: the bound may lie near 2^63
    return {u: r / max(inst.degree_bound[u] - s, 1) for u, r, s
            in zip(us, real[us].tolist(), synthetic[us].tolist())}


def run_gst(inst: GroupTreeInstance, M: int | None = None, seed: int = 0,
            label: str = "") -> GstRunReport:
    """Full DB-GST-T pipeline on a preprocessed instance."""
    sol = solve_lp(build_gst_lp(inst))
    if sol.status == INFEASIBLE:
        raise InfeasibleError("GST LP is infeasible")

    xt = modify_gst_solution(sol.x, inst.n)
    bad = check_modified_solution(inst, sol.x, xt)
    if bad:
        raise InvariantError("modified solution invalid: " + "; ".join(bad))

    xp = build_scaled(inst, xt)
    bad = check_branching_mass(inst, xp)
    if bad:
        raise InvariantError("; ".join(bad))

    L, gamma = global_params(inst.n)
    alpha = alpha_sequence(L, gamma)
    k = len(inst.groups)
    M = M if M is not None else default_m(alpha[0], k)

    rounder = Rounder(inst, xp)
    costs = np.array(inst.cost)
    in_union = np.zeros(inst.n, dtype=bool)
    in_union[inst.root] = True
    rep_costs = []
    for start, stop in blocks(M):
        rep, node = rounder.sample((seed,), start, stop)
        rep_costs += np.bincount(rep - start, weights=costs[node],
                                 minlength=stop - start).astype(int).tolist()
        in_union[node] = True

    union = set(np.flatnonzero(in_union).tolist())
    coverage = (np.bincount(inst.group[in_union[inst.member]],
                            minlength=len(inst.groups)) > 0).tolist()
    union_cost = sum(inst.cost[v] for v in union)
    return GstRunReport(
        instance=label, seed=seed, L=L, gamma=gamma,
        alpha=alpha, alpha0=alpha[0], M=M, lp_cost=sol.objective,
        modified_cost=float(costs @ xt), repetition_costs=rep_costs,
        union_cost=union_cost, union_vertices=sorted(union),
        coverage=coverage, degree_violations=union_degree_ratios(inst, union),
        z_root=group_mass(inst, xt), rounder=rounder)
