"""Sparse LP models for both relaxations, a solver front end, and the
group-Steiner solution modification pass (threshold + power-of-two round-up).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InfeasibleError, SolverError
from .instances import GroupTreeInstance
from .rounding import tops
from .states import BASE, STATE, SUPER, VIRTUAL, SuperTree


def _load_highs():
    """scipy's HiGHS binding ``scipy.optimize._highspy._core``, loaded from
    its file without importing the ``scipy.optimize`` package or
    ``scipy.sparse``, which took most of dbnet's start-up.  The module is
    registered under its full name, so a later ``import scipy.optimize``
    reuses it rather than initialising it again."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("no scipy, whose HiGHS binding dbnet solves with")
    where = os.path.join(os.path.dirname(scipy.origin), "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(name, [where])
    if spec is None:
        raise ImportError(f"no HiGHS binding _core in {where}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


highs = _load_highs()

EPS_FEAS = 1e-9
EPS_CHECK = 1e-9      # slack of the P1-P6 scan

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"


@dataclass
class Block:
    """Constraint rows ``A x (= or <=) rhs`` stored once as COO arrays.

    Entry ``k`` is ``val[k]`` at row ``row[k]``, column ``col[k]``; the
    entries of a row are contiguous and rows come in order.  Entries are
    kept unsummed, so a column may appear twice in a row."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    rhs: np.ndarray

    @classmethod
    def of(cls, row, col, val, rhs) -> "Block":
        """Entries in any row order; within a row they keep their order."""
        order = np.argsort(row, kind="stable")
        return cls(np.asarray(row, dtype=np.int64)[order],
                   np.asarray(col, dtype=np.int64)[order],
                   np.asarray(val, dtype=float)[order],
                   np.asarray(rhs, dtype=float))

    @classmethod
    def from_rows(cls, rows) -> "Block":
        """From ``(column indices, coefficients, rhs)`` rows."""
        return cls.of(np.repeat(np.arange(len(rows)),
                                [len(cols) for cols, _, _ in rows]),
                      [j for cols, _, _ in rows for j in cols],
                      [v for _, vals, _ in rows for v in vals],
                      [b for _, _, b in rows])

    @classmethod
    def stack(cls, *blocks: "Block") -> "Block":
        offsets = np.cumsum([0] + [len(b) for b in blocks[:-1]])
        return cls(np.concatenate([b.row + off
                                   for b, off in zip(blocks, offsets)]),
                   np.concatenate([b.col for b in blocks]),
                   np.concatenate([b.val for b in blocks]),
                   np.concatenate([b.rhs for b in blocks]))

    def __len__(self) -> int:
        return len(self.rhs)

    def rows(self) -> tuple:
        """The ``(column indices, coefficients, rhs)`` view of every row."""
        ends = np.searchsorted(self.row, np.arange(len(self) + 1)).tolist()
        cols, vals = self.col.tolist(), self.val.tolist()
        return tuple((cols[a:b], vals[a:b], rhs) for a, b, rhs
                     in zip(ends, ends[1:], self.rhs.tolist()))


@dataclass
class LPModel:
    """The full LP.  ``implied`` masks the ``<=`` rows that the other rows
    and the bounds imply; ``solve_lp`` leaves them out of the solve and
    checks them afterwards.  ``tie[c] = p`` declares that the rows force
    ``x_c = x_p``, -1 where they force nothing; the ties form a forest,
    and ``solve_lp`` gives each of its trees one column."""

    nvar: int
    obj: np.ndarray
    eq_block: Block = field(default_factory=lambda: Block.from_rows([]))
    ub_block: Block = field(default_factory=lambda: Block.from_rows([]))
    lo: np.ndarray = None
    hi: np.ndarray = None
    implied: np.ndarray = None
    tie: np.ndarray = None

    def __post_init__(self):
        if self.lo is None:
            self.lo = np.zeros(self.nvar)
        if self.hi is None:
            self.hi = np.ones(self.nvar)
        if self.implied is None:
            self.implied = np.zeros(len(self.ub_block), dtype=bool)
        if self.tie is None:
            self.tie = np.full(self.nvar, -1)

    @property
    def eq(self) -> tuple:
        """Equality rows as ``(column indices, coefficients, rhs)``."""
        return self.eq_block.rows()

    @property
    def ub(self) -> tuple:
        """``<=`` rows as ``(column indices, coefficients, rhs)``."""
        return self.ub_block.rows()

    @cached_property
    def system(self) -> tuple[Block, np.ndarray]:
        """Every row, the ``<=`` rows first, as ``lower <= A x <= rhs``:
        the stacked block and ``lower`` (-inf, or the rhs of an ``=`` row)."""
        return (Block.stack(self.ub_block, self.eq_block),
                np.concatenate([np.full(len(self.ub_block), -np.inf),
                                self.eq_block.rhs]))

    def max_violation(self, x: np.ndarray) -> float:
        """Largest violation by ``x`` of the rows and the bounds."""
        blk, lower = self.system
        ax = np.bincount(blk.row, blk.val * x[blk.col], minlength=len(blk))
        return float(np.max(np.concatenate(
            [ax - blk.rhs, lower - ax, self.lo - x, x - self.hi]),
            initial=0.0))


@dataclass
class LPSolution:
    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int = 0     # HiGHS's simplex iterations


def _weights(n: int) -> np.ndarray:
    """sin(1), ..., sin(n).  They are linearly independent over the
    rationals (e^i is transcendental), so two different rows of rational
    values have different exact weighted sums, and their float sums meet
    only by rounding."""
    return np.sin(np.arange(1.0, n + 1))


def _repeats(row, col, val, count, lower, rhs, ncol):
    """The mask of the rows that repeat an earlier row: the same entries and
    the same bounds.  ``row``, ``col`` and ``val`` are the entries in column
    order, so each row's entries come in column order; ``count`` is each
    row's number of entries, none 0.  Rows are grouped by a fingerprint,
    the sum of their values and rhs weighted by ``_weights``, and then
    compared exactly with the earliest row of their group."""
    weight = _weights(ncol + 1)
    key = weight[col]
    key *= val
    key = np.bincount(row, key, minlength=len(count)) + weight[ncol] * rhs
    rows = np.argsort(key)
    # the rows whose fingerprint another row shares
    twin = np.zeros(len(rows) + 1, dtype=bool)
    twin[1:-1] = key[rows[1:]] == key[rows[:-1]]
    rows = rows[twin[1:] | twin[:-1]]
    repeat = np.zeros(len(count), dtype=bool)
    if not len(rows):
        return repeat
    # the entries of those rows, by row and by column within a row
    mine = np.zeros(len(count), dtype=bool)
    mine[rows] = True
    at = np.flatnonzero(mine[row])
    at = at[np.argsort(row[at] * (ncol + 1) + col[at])]
    row, col, val = row[at], col[at], val[at]
    # each round drops the rows equal to the earliest row of their group; a
    # row that differs from it is in a group of its own next round
    while len(rows):
        new = np.ones(len(rows), dtype=bool)
        new[1:] = key[rows[1:]] != key[rows[:-1]]
        head = np.minimum.reduceat(rows, np.flatnonzero(new))[
            np.cumsum(new) - 1]
        same = ((count[rows] == count[head]) & (lower[rows] == lower[head])
                & (rhs[rows] == rhs[head]) & (rows != head))
        pair = np.flatnonzero(same)
        if len(pair):
            # entry i of a row and of its head, row after row
            n = count[rows[pair]]
            offset = np.cumsum(n) - n
            step = np.arange(offset[-1] + n[-1])
            a = np.repeat(np.searchsorted(row, rows[pair]) - offset, n) + step
            b = np.repeat(np.searchsorted(row, head[pair]) - offset, n) + step
            same[pair[np.logical_or.reduceat(
                (col[a] != col[b]) | (val[a] != val[b]), offset)]] = False
        repeat[rows[same]] = True
        rows = rows[~same & (rows != head)]
    return repeat


def _csc(blk: Block, lower: np.ndarray, keep: np.ndarray, column: np.ndarray,
         ncol: int):
    """The column-wise matrix of the rows ``keep`` of ``blk``, with the
    variable ``j`` in column ``column[j]`` (an integer array that holds
    ``ncol``): the duplicate entries summed and the zeros dropped, as
    scipy's ``csr_matrix``, ``eliminate_zeros`` and ``tocsc`` give it, and
    every row that repeats an earlier one (``_repeats``, with the row
    bounds ``lower`` and ``blk.rhs``) left out.  Returns ``(start, index,
    value, shape)`` over the rows that keep an entry and repeat no row, the
    mask of the rows that keep an entry, and the mask of the rows kept."""
    col = column[blk.col]
    # the entries of the rows left out go to column ncol, cut off below
    if not keep.all():
        col[~keep[blk.row]] = ncol
    # a stable sort keeps each column's entries in row order, so the
    # entries of one row and column are neighbours
    order = np.argsort(col, kind="stable")
    col = col[order]
    end = np.searchsorted(col, ncol)
    order, col = order[:end], col[:end]
    row, val = blk.row[order], blk.val[order]
    # each full-size temporary freed early is memory the next one reuses
    del order
    new = np.ones(len(row), dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
    first = np.flatnonzero(new)
    del new
    if len(first) < len(row):
        val = np.add.reduceat(val, first)
    nonzero = val != 0
    first = first[nonzero]
    val = val[nonzero]
    del nonzero
    row = row[first]
    col = col[first]
    del first
    count = np.bincount(row, minlength=len(blk))
    full = count > 0
    # number the rows that keep an entry, then the rows that repeat none
    row = (np.cumsum(full) - 1)[row]
    at = np.flatnonzero(full)
    repeat = _repeats(row, col, val, count[at], lower[at], blk.rhs[at], ncol)
    kept = full.copy()
    kept[at[repeat]] = False
    mine = ~repeat[row] if repeat.any() else slice(None)
    index = (np.cumsum(~repeat, dtype=np.int32) - 1)[row]
    del row
    col = col[mine]
    val = val[mine]
    index = index[mine]
    start = np.searchsorted(col, np.arange(ncol + 1, dtype=col.dtype))
    return ((start.astype(np.int32), index, val,
             (int(np.count_nonzero(kept)), ncol)), full, kept)


def _reduce(model: LPModel):
    """The LP that HiGHS solves: each tree of ties is one column, the
    implied ``<=`` rows are left out, rows left empty are dropped and so is
    every row that repeats an earlier one.

    Returns the column of every variable, the objective, the matrix of
    ``_csc`` and the row bounds of the ``system`` rows kept, and the column
    bounds; or None when an empty row cannot hold."""
    # columns in the order of the trees' tops
    linked = np.flatnonzero(model.tie >= 0)
    top = tops(model.nvar, linked, model.tie[linked])
    column = (np.cumsum(top == np.arange(model.nvar)) - 1)[top]
    ncol = model.nvar - len(linked)
    blk, lower = model.system
    keep = np.ones(len(blk), dtype=bool)
    keep[:len(model.implied)] = ~model.implied
    # numpy sorts 16-bit keys by radix; _csc needs room for column ncol
    narrow = column.astype(np.uint16 if ncol < 1 << 16 else np.int64)
    a, full, kept = _csc(blk, lower, keep, narrow, ncol)
    empty = keep & ~full
    # an empty row reads lower <= 0 <= rhs
    if not ((lower[empty] <= 0) & (blk.rhs[empty] >= 0)).all():
        return None
    # the variables of each column, which holds at least one
    order = np.argsort(narrow, kind="stable")
    first = np.searchsorted(narrow[order], np.arange(ncol))
    return (column, np.bincount(column, weights=model.obj, minlength=ncol),
            a, lower[kept], blk.rhs[kept],
            np.maximum.reduceat(model.lo[order], first),
            np.minimum.reduceat(model.hi[order], first))


# HiGHS 1.12's bit of kPresolveRuleParallelRowsAndCols in presolve_rule_off.
# The rule finds the identical sibling columns of repeated sub-state-trees
# in the DST LP at a cost of most of the presolve time, and the repeated
# rows it would also find are dropped by _reduce already.
PRESOLVE_RULE_PARALLEL_ROWS_AND_COLS = 1 << 13

# every option dbnet sets on HiGHS, in order
HIGHS_OPTIONS = (("output_flag", False), ("log_to_console", False),
                 ("presolve", "on"),
                 ("presolve_rule_off", PRESOLVE_RULE_PARALLEL_ROWS_AND_COLS),
                 ("simplex_strategy", 1),
                 ("primal_feasibility_tolerance", 1e-10),
                 ("dual_feasibility_tolerance", 1e-10))


def _run_highs(solver, obj, a, row_lo, row_hi, lo, hi):
    """Runs ``solver``, a new ``_Highs``, with ``HIGHS_OPTIONS``: the dual
    simplex with presolve on ``min obj x`` over ``row_lo <= a x <= row_hi``
    and ``lo <= x <= hi``, ``a`` the ``(start, index, value, shape)`` of a
    column-wise matrix.  Returns the model status and x (None unless
    optimal)."""
    start, index, value, (nrow, ncol) = a
    lp = highs.HighsLp()
    lp.num_col_, lp.num_row_ = ncol, nrow
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = obj, lo, hi
    lp.row_lower_, lp.row_upper_ = row_lo, row_hi
    m = lp.a_matrix_
    m.format_ = highs.MatrixFormat.kColwise
    m.num_col_, m.num_row_ = ncol, nrow
    m.start_, m.index_, m.value_ = start, index, value
    for option, value in HIGHS_OPTIONS:
        solver.setOptionValue(option, value)
    if solver.passModel(lp) == highs.HighsStatus.kError:
        return highs.HighsModelStatus.kModelError, None
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        return status, None
    return status, np.array(solver.getSolution().col_value)


def solve_lp(model: LPModel) -> LPSolution:
    """Solve to optimality or report infeasibility; never a silent wrong
    answer.  HiGHS gets the reduced LP of ``_reduce``; its solution, lifted
    to every variable, is re-checked against every row of the full model
    with an independent evaluation pass."""
    reduced = _reduce(model)
    if reduced is None:
        return LPSolution(INFEASIBLE, None, None)
    column, *lp = reduced
    solver = highs._Highs()
    status, x = _run_highs(solver, *lp)
    iterations = solver.getInfo().simplex_iteration_count
    # HiGHS frees its copy of the LP before the check allocates
    del solver
    if status in (highs.HighsModelStatus.kInfeasible,
                  highs.HighsModelStatus.kModelError):
        return LPSolution(INFEASIBLE, None, None)
    if x is None:
        raise SolverError(f"LP solver failed: HiGHS status {status.name}")
    x = np.clip(x[column], model.lo, model.hi)
    worst = model.max_violation(x)
    if not worst <= EPS_FEAS:
        raise SolverError(f"solution violates constraints by {worst:.3e}")
    return LPSolution(OPTIMAL, x, float(model.obj @ x), iterations)


def _cover_rows(member: np.ndarray, group: np.ndarray, k: int) -> Block:
    """``sum of x_o over the members o of group t = 1`` for each group t
    in 0..k-1, from the (member, group) pairs; a row keeps the order its
    members are given in."""
    return Block.of(group, member, np.ones(len(member)), np.ones(k))


def _tree_rows(child_ptr: np.ndarray, child: np.ndarray, each: np.ndarray,
               total: np.ndarray, coef: np.ndarray) -> Block:
    """Rows with rhs 0 over a rooted tree whose children are CSR (the
    children of p are ``child[child_ptr[p]:child_ptr[p + 1]]``), node by
    node: for a node p, one row ``x_c - x_p`` per child c if ``each[p]``,
    then ``sum_c x_c - coef[p] x_p`` if ``total[p]``."""
    nkids = np.diff(child_ptr)
    par = np.repeat(np.arange(len(nkids)), nkids)
    each, total = each.astype(np.int64), total.astype(np.int64)
    nrows = each * nkids + total
    start = np.cumsum(nrows) - nrows
    own = each[par] == 1
    summed = total[par] == 1
    rank = np.arange(len(child)) - child_ptr[par]
    sum_row = start + each * nkids
    tot = np.flatnonzero(total)
    own_row = start[par[own]] + rank[own]
    return Block.of(
        np.concatenate([own_row, sum_row[par[summed]], own_row, sum_row[tot]]),
        np.concatenate([child[own], child[summed], par[own], tot]),
        np.concatenate([np.ones(own.sum() + summed.sum()),
                        -np.ones(own.sum()), -coef[tot]]),
        np.zeros(int(nrows.sum())))


def _capacity_rows(parent: np.ndarray, member: np.ndarray, group: np.ndarray,
                   descending: bool) -> tuple[Block, np.ndarray]:
    """``sum of x_o over the members o of t below p (p included) <= x_p``
    for every ancestor p of a member of group t, ordered by p (descending
    or ascending), then t; the members of a row ascend.

    Also flags the rows whose members all come through one child c of p:
    row (c, t) and ``x_c <= x_p`` imply them.  So do the rows whose only
    member is p itself (``x_p - x_p <= 0``).  The flagged rows imply each
    other down to a kept or an empty row, so all of them can go at once."""
    ps, ts, os, vs = [], [], [], []
    # via: the child of p that o came through, -1 where o is p
    p, t, o, via = member, group, member, np.full(len(member), -1)
    while len(p):
        ps.append(p)
        ts.append(t)
        os.append(o)
        vs.append(via)
        up = parent[p]
        keep = up >= 0
        p, t, o, via = up[keep], t[keep], o[keep], p[keep]
    p, t, o, via = (np.concatenate(a) if a else np.zeros(0, dtype=np.int64)
                    for a in (ps, ts, os, vs))
    order = np.lexsort((o, t, -p if descending else p))
    p, t, o, via = p[order], t[order], o[order], via[order]
    new = np.ones(len(p), dtype=bool)
    new[1:] = (p[1:] != p[:-1]) | (t[1:] != t[:-1])
    row = np.cumsum(new) - 1
    heads = p[new]
    starts = np.flatnonzero(new)
    implied = (np.minimum.reduceat(via, starts)
               == np.maximum.reduceat(via, starts))
    return (Block.of(np.concatenate([row, np.arange(len(heads))]),
                     np.concatenate([o, heads]),
                     np.concatenate([np.ones(len(o)), -np.ones(len(heads))]),
                     np.zeros(len(heads))),
            implied)


def build_dst_lp(st: SuperTree) -> LPModel:
    """LP over super-tree nodes: child sums at state/super nodes, equality
    through virtual nodes, per-terminal capacity and coverage rows.  A
    capacity row is flagged as implied by the rule of ``_capacity_rows``:
    ``x_c <= x_p`` follows from the child-sum or virtual row of p and
    ``x >= 0``."""
    n = len(st)
    kind = st.kind
    obj = np.where(kind == BASE, st.cost, 0).astype(float)
    member, group = st.terminal_members()
    terms = sorted(st.norm.inst.terminals)
    hit = np.bincount(group, minlength=len(terms))
    if not hit.all():
        t = terms[int(np.argmin(hit))]
        raise InfeasibleError(f"terminal {st.norm.terminal_origin[t]} "
                              f"appears in no base node")
    cover = _cover_rows(member, group, len(terms))
    child_rows = _tree_rows(st.child_ptr, st.child, kind == VIRTUAL,
                            (kind == STATE) | (kind == SUPER), np.ones(n))
    # x_c - x_p = 0 rows: per child of a virtual p, or the child-sum row of
    # a p with one child c (base nodes have none)
    par = st.parent[st.child]
    tied = (kind[par] == VIRTUAL) | (np.diff(st.child_ptr)[par] == 1)
    tie = np.full(n, -1)
    tie[st.child[tied]] = par[tied]
    capacity, implied = _capacity_rows(st.parent, member, group,
                                       descending=True)
    return LPModel(n, obj, eq_block=Block.stack(cover, child_rows),
                   ub_block=capacity, implied=implied, tie=tie)


def build_gst_lp(inst: GroupTreeInstance) -> LPModel:
    empty = np.flatnonzero(np.bincount(inst.group,
                                       minlength=len(inst.groups)) == 0)
    if len(empty):
        raise InfeasibleError(f"group {empty[0]} is empty")
    cover = _cover_rows(inst.member, inst.group, len(inst.groups))
    inner = np.diff(inst.child_ptr) > 0
    # a bound above n binds nothing, and HiGHS rejects a coefficient near
    # 2^63, so the degree row reads at most n
    degree_rows = _tree_rows(inst.child_ptr, inst.child, inner, inner,
                             np.minimum(np.array(inst.degree_bound,
                                                 dtype=float), inst.n))
    # every tree holds the root; only with a group do the rows force it
    lo = np.zeros(inst.n)
    lo[inst.root] = 1
    return LPModel(inst.n, np.array(inst.cost, dtype=float), lo=lo,
                   eq_block=cover,
                   ub_block=Block.stack(
                       degree_rows,
                       _capacity_rows(inst.parent, inst.member, inst.group,
                                      descending=False)[0]))


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


def check_modified_solution(inst: GroupTreeInstance, x: np.ndarray,
                            xt: np.ndarray) -> list[str]:
    """Scan P1-P6; returns a list of violation messages (empty when fine)."""
    tol = EPS_CHECK
    n = inst.n
    bad = []
    lo = 1.0 / (2 * n)
    nonzero = np.flatnonzero(xt != 0)
    # a negative value fails the range test
    e = np.log2(np.abs(xt[nonzero]))
    off = ((np.abs(e - np.round(e)) > tol) | (xt[nonzero] < lo - tol)
           | (xt[nonzero] > 1 + tol))
    for u in nonzero[off].tolist():
        bad.append(f"P1: x~[{u}]={xt[u]} not a power of 2 in [1/(2n), 1]")
    for u, v in inst.rises(xt, tol):
        bad.append(f"P2: x~ increases on edge ({u}, {v})")
    k = len(inst.groups)
    mass = np.bincount(inst.group, weights=xt[inst.member], minlength=k)
    ok = (0.5 - tol <= mass) & (mass <= 2 + tol)
    for t in np.flatnonzero(~ok).tolist():
        bad.append(f"P3: group {t} mass {mass[t]} outside [1/2, 2]")
    # below[u, t]: the mass of group t in the subtree of u, summed level by
    # level from the deepest, a node's children in increasing order
    below = np.zeros((n, k))
    below[inst.member, inst.group] = xt[inst.member]
    for level in reversed(inst.levels[1:]):
        np.add.at(below, inst.parent[level], below[level])
    worst = np.argmax(below - 2 * xt[:, None], axis=0)
    for t, u in enumerate(worst.tolist()):
        if below[u, t] > 2 * xt[u] + tol:
            bad.append(f"P4: capacity at u={u}, group {t}: "
                       f"{below[u, t]} > 2x~")
    mass = inst.child_mass(xt)
    # in floats: 2 d of a bound near 2^63 wraps in int64
    degree = np.asarray(inst.degree_bound, dtype=float)
    for u in np.flatnonzero(mass > 2 * degree * xt + tol).tolist():
        bad.append(f"P5: degree mass at u={u}: {mass[u]} > 2 d x~")
    c = np.array(inst.cost, dtype=float)
    if c @ xt > 2 * (c @ x) + tol * max(1.0, float(c @ x)):
        bad.append(f"P6: cost {c @ xt} > 2 * {c @ x}")
    return bad


def dump_lp(model: LPModel) -> str:
    """Fixed-layout MPS-like text dump for cross-checking with external
    solvers."""
    rows = ([("E", f"EQ{i:06d}", row) for i, row in enumerate(model.eq)]
            + [("L", f"UB{i:06d}", row) for i, row in enumerate(model.ub)])
    lines = ["NAME          DBNET", "ROWS", " N  COST"]
    lines += [f" {sense}  {name}" for sense, name, _ in rows]
    cols = {j: [("COST", model.obj[j])] for j in range(model.nvar)
            if model.obj[j]}
    for _, name, (cc, vv, _) in rows:
        for j, v in zip(cc, vv):
            cols.setdefault(j, []).append((name, v))
    lines.append("COLUMNS")
    for j in sorted(cols):
        lines += [f"    X{j:06d}    {row}    {v:.12g}" for row, v in cols[j]]
    lines.append("RHS")
    lines += [f"    RHS    {name}    {b:.12g}" for _, name, (_, _, b) in rows
              if b]
    lines.append("BOUNDS")
    for j in range(model.nvar):
        lines.append(f" UP BND    X{j:06d}    {model.hi[j]:.12g}")
        if model.lo[j]:
            lines.append(f" LO BND    X{j:06d}    {model.lo[j]:.12g}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
