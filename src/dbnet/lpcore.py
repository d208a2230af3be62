"""Sparse LP models for both relaxations, a solver front end, and the
group-Steiner solution modification pass (threshold + power-of-two round-up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
import scipy.sparse

from .errors import InfeasibleError, SolverError
from .instances import GroupTreeInstance
from .states import BASE, STATE, SUPER, VIRTUAL, SuperTree

EPS_FEAS = 1e-9
EPS_CHECK = 1e-9      # slack of the P1-P6 scan

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"


@dataclass
class LPModel:
    nvar: int
    obj: np.ndarray
    # rows are (column indices, coefficients, rhs); relation by list
    eq: list = field(default_factory=list)
    ub: list = field(default_factory=list)
    lo: np.ndarray = None
    hi: np.ndarray = None

    def __post_init__(self):
        if self.lo is None:
            self.lo = np.zeros(self.nvar)
        if self.hi is None:
            self.hi = np.ones(self.nvar)

    def _matrix(self, rows):
        data, ri, ci, rhs = [], [], [], []
        for i, (cols, vals, b) in enumerate(rows):
            ri.extend([i] * len(cols))
            ci.extend(cols)
            data.extend(vals)
            rhs.append(b)
        m = scipy.sparse.csr_matrix((data, (ri, ci)),
                                    shape=(len(rows), self.nvar))
        return m, np.array(rhs)

    def max_violation(self, x: np.ndarray, eq, ub) -> float:
        """Largest violation by ``x`` of the rows, given as the ``(matrix,
        rhs)`` pairs of ``eq`` and ``ub`` (None when empty), and the bounds."""
        worst = 0.0
        if eq is not None:
            m, b = eq
            worst = max(worst, float(np.max(np.abs(m @ x - b))))
        if ub is not None:
            m, b = ub
            worst = max(worst, float(np.max(m @ x - b, initial=0.0)))
        worst = max(worst, float(np.max(self.lo - x, initial=0.0)))
        worst = max(worst, float(np.max(x - self.hi, initial=0.0)))
        return worst


@dataclass
class LPSolution:
    status: str
    x: np.ndarray | None
    objective: float | None


def solve_lp(model: LPModel) -> LPSolution:
    """Solve to optimality or report infeasibility; never a silent wrong
    answer.  The returned assignment is re-checked against every constraint
    with an independent evaluation pass."""
    eq = model._matrix(model.eq) if model.eq else None
    ub = model._matrix(model.ub) if model.ub else None
    a_eq, b_eq = eq or (None, None)
    a_ub, b_ub = ub or (None, None)
    res = scipy.optimize.linprog(
        model.obj, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=np.column_stack([model.lo, model.hi]),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    if res.status == 2:
        return LPSolution(INFEASIBLE, None, None)
    if res.status != 0:
        raise SolverError(f"LP solver failed: {res.message}")
    x = np.clip(res.x, model.lo, model.hi)
    worst = model.max_violation(x, eq, ub)
    if worst > EPS_FEAS:
        raise SolverError(f"solution violates constraints by {worst:.3e}")
    return LPSolution(OPTIMAL, x, float(model.obj @ x))


def build_dst_lp(st: SuperTree) -> LPModel:
    """LP over super-tree nodes: child sums at state/super nodes, equality
    through virtual nodes, per-terminal capacity and coverage rows."""
    n = len(st)
    obj = np.zeros(n)
    for o in st.base_nodes():
        obj[o] = st.cost[o]
    model = LPModel(n, obj)

    O_t = st.terminal_index()
    for t, nodes in sorted(O_t.items()):
        if not nodes:
            raise InfeasibleError(f"terminal {st.norm.terminal_origin[t]} "
                                  f"appears in no base node")
        model.eq.append((list(nodes), [1.0] * len(nodes), 1.0))

    for p in range(n):
        if st.kind[p] in (STATE, SUPER):
            kids = st.children[p]
            model.eq.append((kids + [p], [1.0] * len(kids) + [-1.0], 0.0))
        elif st.kind[p] == VIRTUAL:
            for q in st.children[p]:
                model.eq.append(([q, p], [1.0, -1.0], 0.0))

    # descendant base nodes per terminal, accumulated bottom-up
    desc = [None] * n
    for p in range(n - 1, -1, -1):
        mine = {}
        if st.kind[p] == BASE:
            for v in st.involved_vertices(p):
                if v in O_t:
                    mine.setdefault(v, []).append(p)
        for q in st.children[p]:
            for t, nodes in desc[q].items():
                mine.setdefault(t, []).extend(nodes)
        desc[p] = mine
        for t, nodes in sorted(mine.items()):
            model.ub.append((nodes + [p], [1.0] * len(nodes) + [-1.0], 0.0))
    return model


def build_gst_lp(inst: GroupTreeInstance) -> LPModel:
    n = inst.n
    model = LPModel(n, np.array(inst.cost, dtype=float))
    for t, g in enumerate(inst.groups):
        if not g:
            raise InfeasibleError(f"group {t} is empty")
        members = sorted(g)
        model.eq.append((members, [1.0] * len(members), 1.0))
    for u in range(n):
        for v in inst.children[u]:
            model.ub.append(([v, u], [1.0, -1.0], 0.0))
        if inst.children[u]:
            kids = inst.children[u]
            model.ub.append((kids + [u],
                             [1.0] * len(kids) + [-float(inst.degree_bound[u])],
                             0.0))
    # capacity rows per (u, t): walk each member up to the root
    per_ut: dict[tuple[int, int], list[int]] = {}
    for t, g in enumerate(inst.groups):
        for o in sorted(g):
            u = o
            while u != -1:
                per_ut.setdefault((u, t), []).append(o)
                u = inst.parent[u]
    for (u, t), members in sorted(per_ut.items()):
        model.ub.append((members + [u], [1.0] * len(members) + [-1.0], 0.0))
    return model


def round_up_pow2(v: float) -> float:
    """Smallest non-positive integer power of 2 that is >= v (tolerant of
    solver noise just above an exact power)."""
    if v <= 0:
        raise ValueError("need a positive value")
    e = math.ceil(math.log2(v) - 1e-12)
    return 2.0 ** min(e, 0)


def modify_gst_solution(x: np.ndarray, n: int) -> np.ndarray:
    """Zero out values below 1/(2n), then round the rest up to powers of 2.

    The output satisfies properties P1-P6 (power-of-two values in
    [1/(2n), 1], path monotonicity, group mass in [1/2, 2], doubled capacity
    and degree slack, at most doubled cost); check_modified_solution verifies
    them mechanically.
    """
    thresh = 1.0 / (2 * n)
    out = np.zeros_like(x, dtype=float)
    for i, v in enumerate(x):
        if v >= thresh:
            out[i] = round_up_pow2(v)
    return out


def _topo_order(inst: GroupTreeInstance) -> list[int]:
    """Children before parents."""
    order, stack = [], [inst.root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(inst.children[u])
    order.reverse()
    return order


def check_modified_solution(inst: GroupTreeInstance, x: np.ndarray,
                            xt: np.ndarray) -> list[str]:
    """Scan P1-P6; returns a list of violation messages (empty when fine)."""
    tol = EPS_CHECK
    n = inst.n
    bad = []
    lo = 1.0 / (2 * n)
    for u in range(n):
        if xt[u] == 0:
            continue
        e = math.log2(xt[u])
        if abs(e - round(e)) > tol or not (lo - tol <= xt[u] <= 1 + tol):
            bad.append(f"P1: x~[{u}]={xt[u]} not a power of 2 in [1/(2n), 1]")
    for u in range(n):
        for v in inst.children[u]:
            if xt[v] > xt[u] + tol:
                bad.append(f"P2: x~ increases on edge ({u}, {v})")
    for t, g in enumerate(inst.groups):
        s = sum(xt[o] for o in g)
        if not (0.5 - tol <= s <= 2 + tol):
            bad.append(f"P3: group {t} mass {s} outside [1/2, 2]")
    order = _topo_order(inst)
    for t, g in enumerate(inst.groups):
        below = np.zeros(n)
        for o in g:
            below[o] = xt[o]
        for u in order:
            p = inst.parent[u]
            if p != -1:
                below[p] += below[u]
        worst = np.argmax(below - 2 * xt)
        if below[worst] > 2 * xt[worst] + tol:
            bad.append(f"P4: capacity at u={worst}, group {t}: "
                       f"{below[worst]} > 2x~")
    for u in range(n):
        s = sum(xt[v] for v in inst.children[u])
        if s > 2 * inst.degree_bound[u] * xt[u] + tol:
            bad.append(f"P5: degree mass at u={u}: {s} > 2 d x~")
    c = np.array(inst.cost, dtype=float)
    if c @ xt > 2 * (c @ x) + tol * max(1.0, float(c @ x)):
        bad.append(f"P6: cost {c @ xt} > 2 * {c @ x}")
    return bad


def dump_lp(model: LPModel) -> str:
    """Fixed-layout MPS-like text dump for cross-checking with external
    solvers."""
    lines = ["NAME          DBNET", "ROWS", " N  COST"]
    for i in range(len(model.eq)):
        lines.append(f" E  EQ{i:06d}")
    for i in range(len(model.ub)):
        lines.append(f" L  UB{i:06d}")
    cols: dict[int, list[tuple[str, float]]] = {}
    for j in range(model.nvar):
        if model.obj[j]:
            cols.setdefault(j, []).append(("COST", model.obj[j]))
    for i, (cc, vv, _) in enumerate(model.eq):
        for j, v in zip(cc, vv):
            cols.setdefault(j, []).append((f"EQ{i:06d}", v))
    for i, (cc, vv, _) in enumerate(model.ub):
        for j, v in zip(cc, vv):
            cols.setdefault(j, []).append((f"UB{i:06d}", v))
    lines.append("COLUMNS")
    for j in sorted(cols):
        for row, v in cols[j]:
            lines.append(f"    X{j:06d}    {row}    {v:.12g}")
    lines.append("RHS")
    for i, (_, _, b) in enumerate(model.eq):
        if b:
            lines.append(f"    RHS    EQ{i:06d}    {b:.12g}")
    for i, (_, _, b) in enumerate(model.ub):
        if b:
            lines.append(f"    RHS    UB{i:06d}    {b:.12g}")
    lines.append("BOUNDS")
    for j in range(model.nvar):
        lines.append(f" UP BND    X{j:06d}    {model.hi[j]:.12g}")
        if model.lo[j]:
            lines.append(f" LO BND    X{j:06d}    {model.lo[j]:.12g}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
