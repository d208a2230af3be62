"""Sparse LP models for both relaxations, a solver front end, and the
group-Steiner solution modification pass (threshold + power-of-two round-up).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, SolverError
from .instances import GroupTreeInstance
from .report import INFEASIBLE, OPTIMAL
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
    def stack(cls, *blocks: "Block") -> "Block":
        blocks = (cls.of([], [], [], []), *blocks)
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
    """``min obj x`` over ``lo <= x <= hi`` and the ``=`` rows of
    ``eq_parts`` and the ``<=`` rows of ``ub_parts``, part after part.

    A part writes its rows as a ``Block`` on demand: every row of the full
    model, or only the rows HiGHS gets (``write``).  It also evaluates
    ``A x - rhs`` over every row of the full model (``excess``), which
    ``max_violation`` reads after each solve.  The parts of the tree LPs
    hold the tree and masks, not rows: HiGHS gets the rows that are
    neither implied by the other rows and the bounds nor emptied by a tie,
    and only those are ever written on the solve path.

    ``tie[c] = p`` declares ``x_c = x_p``, -1 where nothing is declared:
    either the rows force it (DST) or it holds in some optimum, so that
    restricting the LP to it keeps its value (GST).  The ties form a
    forest, and ``solve_lp`` gives each of its trees one column."""

    nvar: int
    obj: np.ndarray
    eq_parts: tuple = ()
    ub_parts: tuple = ()
    lo: np.ndarray = None
    hi: np.ndarray = None
    tie: np.ndarray = None

    def __post_init__(self):
        if self.lo is None:
            self.lo = np.zeros(self.nvar)
        if self.hi is None:
            self.hi = np.ones(self.nvar)
        if self.tie is None:
            self.tie = np.full(self.nvar, -1)

    def blocks(self) -> tuple[Block, Block]:
        """The ``=`` and the ``<=`` rows of the full model, written anew on
        each call."""
        return tuple(Block.stack(*(part.write(True) for part in parts))
                     for parts in (self.eq_parts, self.ub_parts))

    # the per-row views; the solve path reads neither
    @property
    def eq(self) -> tuple:
        """Equality rows as ``(column indices, coefficients, rhs)``."""
        return self.blocks()[0].rows()

    @property
    def ub(self) -> tuple:
        """``<=`` rows as ``(column indices, coefficients, rhs)``."""
        return self.blocks()[1].rows()

    def max_violation(self, x: np.ndarray) -> float:
        """Largest violation by ``x`` of the rows and the bounds."""
        return float(np.max(np.concatenate(
            [np.abs(part.excess(x)) for part in self.eq_parts]
            + [part.excess(x) for part in self.ub_parts]
            + [self.lo - x, x - self.hi]), initial=0.0))


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
    the sum of their values and rhs weighted by ``_weights``, and the rows
    whose fingerprint another row shares are then compared exactly, in row
    order, with the rows before them."""
    weight = _weights(ncol + 1)
    key = weight[col]
    key *= val
    key = np.bincount(row, key, minlength=len(count)) + weight[ncol] * rhs
    order = np.argsort(key)
    # the rows whose fingerprint another row shares, in row order
    twin = np.zeros(len(order) + 1, dtype=bool)
    twin[1:-1] = key[order[1:]] == key[order[:-1]]
    shared = np.zeros(len(count), dtype=bool)
    shared[order[twin[1:] | twin[:-1]]] = True
    rows = np.flatnonzero(shared)
    # the entries of those rows, by row and by column within a row
    at = np.flatnonzero(shared[row])
    at = at[np.argsort(row[at], kind="stable")]
    col, val = col[at], val[at]
    end = np.cumsum(count[rows]).tolist()
    repeat = np.zeros(len(count), dtype=bool)
    seen = set()
    for r, a, b, low, high in zip(rows.tolist(), [0] + end, end,
                                  lower[rows].tolist(), rhs[rows].tolist()):
        exact = (low, high, col[a:b].tobytes(), val[a:b].tobytes())
        if exact in seen:
            repeat[r] = True
        seen.add(exact)
    return repeat


def _summed(row, col, val):
    """The entries ``(row, col, val)`` in column order, those of one row
    and column summed and the zeros dropped, as scipy's ``csr_matrix``,
    ``eliminate_zeros`` and ``tocsc`` give them.  ``col`` is an integer
    array, and the entries come in row order."""
    # a stable sort keeps each column's entries in row order, so the
    # entries of one row and column are neighbours
    order = np.argsort(col, kind="stable")
    col = col[order]
    row, val = row[order], val[order]
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
    return row[first], col[first], val


def _definitions(row, col, val, nrow, ncol):
    """The definitions ``x_j = sum of x_i`` that ``_substitute`` uses, from
    the entries of ``_summed`` of some ``=`` rows with rhs 0, out of
    ``nrow`` rows over ``ncol`` columns.  Such a row defines j when it has
    -1 on j and +1 on every other column, of which it has one at least.
    The first row that defines j is used when none of its + columns has a
    definition itself, so that no definition feeds into another.  Returns
    the column each row defines, -1 where it is not used, and the entries
    of the + columns of the rows used."""
    minus = val == -1
    count = np.bincount(row, minlength=nrow)
    rows = np.flatnonzero((count > 1)
                          & (np.bincount(row[minus], minlength=nrow) == 1)
                          & (np.bincount(row, val == 1, minlength=nrow)
                             == count - 1))
    defines = np.full(nrow, -1)
    defines[row[minus]] = col[minus]
    defined = np.zeros(ncol, dtype=bool)
    defined[defines[rows]] = True
    # the first row that defines each column
    rows = rows[np.unique(defines[rows], return_index=True)[1]]
    used = np.zeros(nrow, dtype=bool)
    used[rows] = True
    at = np.flatnonzero(used[row] & ~minus)
    used[row[at[defined[col[at]]]]] = False
    defines[~used] = -1
    return defines, at[used[row[at]]]


def _substitute(row, col, val, lower, rhs, obj, lo, hi):
    """The LP after each definition ``x_j = sum of x_i`` of
    ``_definitions`` is substituted: every other entry on j goes to j's +
    columns with its coefficient, and so does c_j; j's own row keeps its +
    entries and reads ``lo[j] <= sum <= hi[j]``.  HiGHS solves for the
    columns that have no definition, renumbered in order.

    The LP is given as its entries in row order, ``col`` any integer
    array, the row bounds, and the cost and bounds of every column.
    Returns the entries and the row bounds after the substitution, the
    cost and bounds of HiGHS's columns, and the lift ``(start, index)``:
    column c is the sum of HiGHS's columns ``index[start[c]:start[c +
    1]]``, its + columns if it has a definition and itself if not."""
    ncol = len(obj)
    # the definitions are read from the = rows with rhs 0 alone
    mine = np.flatnonzero(((lower == 0) & (rhs == 0))[row])
    sums = _summed(row[mine], col[mine], val[mine])
    del mine
    defines, plus = _definitions(*sums, len(rhs), ncol)
    taken = np.flatnonzero(defines >= 0)
    left = np.ones(ncol, dtype=bool)
    left[defines[taken]] = False
    renumber = np.cumsum(left) - 1
    # the lift, column by column: c itself, or j's + columns in order
    head = np.concatenate([np.flatnonzero(left), defines[sums[0][plus]]])
    start = np.zeros(ncol + 1, dtype=np.int64)
    np.cumsum(np.bincount(head, minlength=ncol), out=start[1:])
    index = np.concatenate([renumber[left], renumber[sums[1][plus]]])[
        np.argsort(head, kind="stable")]
    obj = np.bincount(index, np.repeat(obj, np.diff(start)),
                      minlength=ncol - len(taken))
    if len(taken):
        lower, rhs = lower.copy(), rhs.copy()
        lower[taken] = lo[defines[taken]]
        rhs[taken] = hi[defines[taken]]
        # each entry moves, in place, to the columns of its lift, but the
        # -1 on j in j's own row, which is dropped
        n = np.diff(start)[col]
        n[defines[row] == col] = 0
        end = np.cumsum(n)
        at = np.repeat(start[col] - end + n, n) + np.arange(end[-1])
        row, col, val = (np.repeat(row, n), index[at].astype(col.dtype),
                         np.repeat(val, n))
    return ((row, col, val), lower, rhs, obj, lo[left], hi[left],
            (start, index))


def _csc(row, col, val, lower, rhs, ncol):
    """The column-wise matrix of the rows ``lower <= A x <= rhs``, given
    as their summed entries in column order, with every row that repeats
    an earlier one (``_repeats``) left out.  Returns ``(start, index,
    value, shape)`` over the rows that keep an entry and repeat no row,
    the mask of the rows that keep an entry, and the mask of the rows
    kept.  ``col`` is an integer array that holds ``ncol``."""
    count = np.bincount(row, minlength=len(rhs))
    full = count > 0
    # number the rows that keep an entry, then the rows that repeat none
    row = (np.cumsum(full) - 1)[row]
    at = np.flatnonzero(full)
    repeat = _repeats(row, col, val, count[at], lower[at], rhs[at], ncol)
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
    """The LP that HiGHS solves: each tree of ties is one column, the rows
    the parts keep for HiGHS are written, the definitions of
    ``_definitions`` are substituted (``_substitute``), rows left empty
    are dropped and so is every row that repeats an earlier one.

    Returns the lift ``(column, start, index)``, the objective, the matrix
    of ``_csc`` and the row bounds of the rows kept, the ``<=`` rows
    first, and the column bounds; or None when an empty row cannot hold.
    HiGHS's x lifts to the columns by ``_substitute``'s ``(start,
    index)``, and variable v reads column ``column[v]``."""
    # columns in the order of the trees' tops
    linked = np.flatnonzero(model.tie >= 0)
    top = tops(model.nvar, linked, model.tie[linked])
    column = (np.cumsum(top == np.arange(model.nvar)) - 1)[top]
    ncol = model.nvar - len(linked)
    # the rows as lower <= A x <= rhs, lower -inf or the rhs of an = row
    ub = [part.write(False) for part in model.ub_parts]
    eq = [part.write(False) for part in model.eq_parts]
    blk = Block.stack(*ub, *eq)
    lower = np.concatenate([np.full(sum(map(len, ub)), -np.inf),
                            *(b.rhs for b in eq)])
    del ub, eq
    # numpy sorts 16-bit keys by radix; _csc needs room for column ncol
    narrow = column.astype(np.uint16 if ncol < 1 << 16 else np.int64)
    # the variables of each column, which holds at least one
    order = np.argsort(narrow, kind="stable")
    first = np.searchsorted(narrow[order], np.arange(ncol))
    lo = np.maximum.reduceat(model.lo[order], first)
    hi = np.minimum.reduceat(model.hi[order], first)
    del order, first
    entries, lower, rhs, obj, lo, hi, lift = _substitute(
        blk.row, narrow[blk.col], blk.val, lower, blk.rhs,
        np.bincount(column, weights=model.obj, minlength=ncol), lo, hi)
    del blk
    entries = _summed(*entries)
    a, full, kept = _csc(*entries, lower, rhs, len(obj))
    # an empty row reads lower <= 0 <= rhs
    if not ((lower[~full] <= 0) & (rhs[~full] >= 0)).all():
        return None
    return (column, *lift), obj, a, lower[kept], rhs[kept], lo, hi


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


def _pass_model(solver, obj, a, row_lo, row_hi, lo, hi) -> bool:
    """Sets ``HIGHS_OPTIONS`` on ``solver``, a new ``_Highs``, and hands it
    ``min obj x`` over ``row_lo <= a x <= row_hi`` and ``lo <= x <= hi``,
    ``a`` the ``(start, index, value, shape)`` of a column-wise matrix.
    HiGHS copies the arrays.  False when it rejects the model."""
    start, index, value, (nrow, ncol) = a
    for option, setting in HIGHS_OPTIONS:
        solver.setOptionValue(option, setting)
    # the array overload takes a tenth of the time of filling a HighsLp
    # field by field; its integrality needs one entry per column, since an
    # empty array is an error
    return solver.passModel(
        ncol, nrow, len(value), highs.MatrixFormat.kColwise,
        highs.ObjSense.kMinimize, 0.0, obj, lo, hi, row_lo, row_hi, start,
        index, value, np.zeros(ncol, np.int32)) != highs.HighsStatus.kError


def _run_highs(solver):
    """Runs the dual simplex with presolve on the LP passed to ``solver``.
    Returns the model status and x (None unless optimal)."""
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
    solver = highs._Highs()
    passed = _pass_model(solver, *reduced[1:])
    column, start, index = reduced[0]
    # HiGHS holds its own copy: no row or array of the LP stays on this side
    # while it solves
    del reduced
    if not passed:
        return LPSolution(INFEASIBLE, None, None)
    status, x = _run_highs(solver)
    iterations = solver.getInfo().simplex_iteration_count
    # HiGHS frees its copy of the LP before the check allocates
    del solver
    if status in (highs.HighsModelStatus.kInfeasible,
                  highs.HighsModelStatus.kModelError):
        return LPSolution(INFEASIBLE, None, None)
    if x is None:
        raise SolverError(f"LP solver failed: HiGHS status {status.name}")
    # each column is the sum of the HiGHS columns it lifts from; np.clip
    # may keep a -0.0 that HiGHS returns, and + 0.0 makes it 0.0
    x = np.clip(np.add.reduceat(x[index], start[:-1])[column], model.lo,
                model.hi) + 0.0
    worst = model.max_violation(x)
    if not worst <= EPS_FEAS:
        raise SolverError(f"solution violates constraints by {worst:.3e}")
    return LPSolution(OPTIMAL, x, float(model.obj @ x), iterations)


@dataclass
class _Cover:
    """``sum of x_o over the members o of group t = 1`` for each group t
    in 0..k-1, from the (member, group) pairs; a row keeps the order its
    members are given in.  HiGHS gets every row."""

    member: np.ndarray
    group: np.ndarray
    k: int

    def write(self, full: bool) -> Block:
        return Block.of(self.group, self.member, np.ones(len(self.member)),
                        np.ones(self.k))

    def excess(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.group, x[self.member], minlength=self.k) - 1


@dataclass
class _TreeRows:
    """Rows with rhs 0 over a rooted tree whose children are CSR (the
    children of p are ``child[child_ptr[p]:child_ptr[p + 1]]``), node by
    node: for a node p, one row ``x_c - x_p`` for each child c that
    ``each`` (a mask over ``child``) holds, then ``sum_c x_c - coef[p]
    x_p`` if ``total[p]``.  HiGHS gets the rows of the masks ``send_each``
    and ``send_total``."""

    child_ptr: np.ndarray
    child: np.ndarray
    coef: np.ndarray
    each: np.ndarray
    total: np.ndarray
    send_each: np.ndarray
    send_total: np.ndarray

    def write(self, full: bool) -> Block:
        each, total = ((self.each, self.total) if full
                       else (self.send_each, self.send_total))
        ptr = self.child_ptr
        par = np.repeat(np.arange(len(total)), np.diff(ptr))
        # before[i]: the per-child rows of the entries before entry i
        before = np.concatenate([[0], np.cumsum(each)])
        nrows = before[ptr[1:]] - before[ptr[:-1]] + total
        start = np.cumsum(nrows) - nrows
        own = np.flatnonzero(each)
        own_row = start[par[own]] + before[own] - before[ptr[par[own]]]
        # the sum row of p is its last
        sum_row = start + nrows - 1
        summed = np.flatnonzero(total[par])
        tot = np.flatnonzero(total)
        return Block.of(
            np.concatenate([own_row, sum_row[par[summed]], own_row,
                            sum_row[tot]]),
            np.concatenate([self.child[own], self.child[summed], par[own],
                            tot]),
            np.concatenate([np.ones(len(own) + len(summed)),
                            -np.ones(len(own)), -self.coef[tot]]),
            np.zeros(int(nrows.sum())))

    def excess(self, x: np.ndarray) -> np.ndarray:
        par = np.repeat(np.arange(len(self.total)), np.diff(self.child_ptr))
        below = x[self.child]
        return np.concatenate([
            (below - x[par])[self.each],
            (np.bincount(par, below, minlength=len(self.total))
             - self.coef * x)[self.total]])


@dataclass
class _CapacityRows:
    """``sum of x_o over the members o of t below p (p included) <= x_p``
    for every ancestor p of a member of group t, ordered by p (descending
    or ascending), then t; the members of a row ascend.

    Held as the pairs (p, t) of the rows, level by level from the deepest:
    pair i is ``key[i] = p k + t`` and ``up[i]`` is the pair (parent of p,
    t), -1 at the root; level j holds the pairs ``bounds[j]`` to
    ``bounds[j + 1]``.  ``at`` is the pair (o, t) of each ``(member[i],
    t)`` pair.  HiGHS gets the rows of the mask ``send``."""

    key: np.ndarray
    up: np.ndarray
    bounds: list
    member: np.ndarray
    at: np.ndarray
    k: int
    descending: bool
    send: np.ndarray = None

    def write(self, full: bool) -> Block:
        p, t = np.divmod(self.key, self.k)
        order = np.lexsort((t, -p if self.descending else p))
        if not full:
            order = order[self.send[order]]
        nrow = len(order)
        row = np.full(len(p), -1)
        row[order] = np.arange(nrow)
        # the heads, then each member at its own pair and every pair above
        rows, cols = [row[order]], [p[order]]
        at, o = self.at, self.member
        while len(at):
            written = row[at] >= 0
            rows.append(row[at[written]])
            cols.append(o[written])
            at = self.up[at]
            o, at = o[at >= 0], at[at >= 0]
        row, col = np.concatenate(rows), np.concatenate(cols)
        head = np.arange(len(row)) < nrow
        # by row, the members ascending, then the head
        order = np.lexsort((col, head, row))
        return Block(row[order], col[order], np.where(head, -1.0, 1.0)[order],
                     np.zeros(nrow))

    def below(self, x: np.ndarray) -> np.ndarray:
        """Each pair's sum of x over its members below p, p included,
        summed level by level from the deepest."""
        below = np.bincount(self.at, x[self.member], minlength=len(self.key))
        for a, b, c in zip(self.bounds, self.bounds[1:], self.bounds[2:]):
            below[b:c] += np.bincount(self.up[a:b] - b, below[a:b],
                                      minlength=c - b)
        return below

    def excess(self, x: np.ndarray) -> np.ndarray:
        return self.below(x) - x[self.key // self.k]


def _capacity_rows(depth: np.ndarray, parent: np.ndarray, member: np.ndarray,
                   group: np.ndarray, k: int, descending: bool):
    """The capacity rows of groups 0..k-1, given by the (member, group)
    pairs, over the tree of ``parent`` whose nodes lie at ``depth`` from
    the root.  Also returns, for each pair (p, t), its routes: the children
    of p through which members of t come, plus one if p is in t; and
    whether p is in t."""
    # the (member, group) pairs, deepest first
    order = np.argsort(-depth[member], kind="stable")
    member, own = member[order], member[order] * k + group[order]
    deepest = int(depth[member].max(initial=-1))
    cut = np.searchsorted(-depth[member], np.arange(-deepest, 2))
    keys, ups = [], []
    at = np.empty(len(member), dtype=np.int64)
    lifted = np.zeros(0, dtype=np.int64)
    size = 0
    for a, b in zip(cut, cut[1:]):
        # the pairs of a level: those its members are in, and those the
        # pairs one level down lift to
        key, inverse = np.unique(np.concatenate([lifted, own[a:b]]),
                                 return_inverse=True)
        ups.append(size + inverse[:len(lifted)])
        at[a:b] = size + inverse[len(lifted):]
        keys.append(key)
        size += len(key)
        lifted = parent[key // k] * k + key % k
    ups.append(np.full(len(lifted), -1))
    up = np.concatenate(ups)
    mine = np.zeros(size, dtype=bool)
    mine[at] = True
    return (_CapacityRows(np.concatenate([np.zeros(0, np.int64), *keys]), up,
                          np.cumsum([0] + [len(key) for key in keys]).tolist(),
                          member, at, k, descending),
            mine + np.bincount(up[up >= 0], minlength=size), mine)


def build_dst_lp(st: SuperTree) -> LPModel:
    """LP over super-tree nodes: child sums at state/super nodes, equality
    through virtual nodes, per-terminal capacity and coverage rows.

    HiGHS gets the cover rows, the child-sum rows of nodes with two or
    more children and the capacity rows of two or more routes.  The rows
    ``x_c - x_p = 0`` are ties.  A capacity row of one route is implied:
    through a child c by row (c, t) and ``x_c <= x_p``, which the child-sum
    or virtual row of p and ``x >= 0`` give; through p itself it reads
    ``x_p - x_p <= 0``.  The implied rows imply each other down to a kept
    or an empty row, so all of them can go at once."""
    n = len(st)
    kind = st.kind
    obj = np.where(kind == BASE, st.cost, 0).astype(float)
    member, group = st.terminal_members()
    terms = sorted(st.norm.inst.terminals)
    hit = np.bincount(group, minlength=len(terms))
    if not hit.all():
        t = terms[int(np.argmin(hit))]
        raise InfeasibleError(f"terminal {st.norm.origin[t]} "
                              f"appears in no base node")
    nk = np.diff(st.child_ptr)
    par = st.parent[st.child]
    virtual = kind[par] == VIRTUAL
    summed = (kind == STATE) | (kind == SUPER)
    # x_c - x_p = 0 rows: per child of a virtual p, or the child-sum row of
    # a p with one child c (base nodes have none)
    tied = virtual | (nk[par] == 1)
    tie = np.full(n, -1)
    tie[st.child[tied]] = par[tied]
    tree = _TreeRows(st.child_ptr, st.child, np.ones(n), virtual, summed,
                     np.zeros(len(st.child), dtype=bool), summed & (nk != 1))
    capacity, routes, _ = _capacity_rows(st.depth, st.parent, member, group,
                                         len(terms), descending=True)
    capacity.send = routes > 1
    return LPModel(n, obj, eq_parts=(_Cover(member, group, len(terms)), tree),
                   ub_parts=(capacity,), tie=tie)


def build_gst_lp(inst: GroupTreeInstance) -> LPModel:
    """LP over the tree's vertices: per-child and child-sum degree rows,
    per-group capacity and cover rows.

    HiGHS gets every row but the per-child rows of the ties and four
    families of ``<=`` rows implied by other rows that stay and ``x >= 0``;
    the chains of implications below end at rows that stay, so all of them
    can go at once."""
    k = len(inst.groups)
    empty = np.flatnonzero(np.bincount(inst.group, minlength=k) == 0)
    if len(empty):
        raise InfeasibleError(f"group {empty[0]} is empty")
    nk = np.diff(inst.child_ptr)
    inner = nk > 0
    # a bound above n binds nothing, and HiGHS rejects a coefficient near
    # 2^63, so the degree row reads at most n
    coef = np.minimum(np.array(inst.degree_bound, dtype=float), inst.n)
    # every tree holds the root; only with a group do the rows force it
    lo = np.zeros(inst.n)
    lo[inst.root] = 1
    # a p with one child c and no group can be lowered to x_c in any
    # optimum: its cost is >= 0, its rows still hold and a lower x_p only
    # loosens its parent's rows; not the root, whose lower bound is 1
    par = inst.parent[inst.child]
    tied = ((nk[par] == 1) & (par != inst.root)
            & (np.bincount(inst.member, minlength=inst.n)[par] == 0))
    tie = np.full(inst.n, -1)
    tie[inst.child[tied]] = par[tied]
    capacity, routes, mine = _capacity_rows(
        inst.depth, inst.parent, inst.member, inst.group, k,
        descending=False)
    # the single-child rule: row (p, t) when its members all come through
    # one child c of p, implied by row (c, t) and x_c <= x_p; or when its
    # only member is p itself (x_p - x_p <= 0)
    single = routes == 1
    # C: row (p, t) when coef(p) <= 1, nk(p) >= 2 and p is not in t, since
    # S(p, t) = sum_c S(c, t) <= sum_c x_c <= coef(p) x_p <= x_p by the rows
    # (c, t) of its children and its child-sum row, which A leaves (coef(p)
    # < nk(p)); S(p, t) is the sum of x_o over the members o of t below p.
    # Not for the DST LP: there this is the sum rule, which changes the
    # vertex HiGHS returns
    head = capacity.key // k
    capacity.send = ~single & ~((coef[head] <= 1) & (nk[head] >= 2) & ~mine)
    # B: x_c <= x_p for a leaf c of group t when the single-child rule
    # leaves row (p, t) of its parent p, since x_c <= S(p, t) <= x_p
    up = capacity.up[capacity.at]
    c = capacity.member[up >= 0]
    c = c[~inner[c] & ~single[up[up >= 0]]]
    position = np.empty(inst.n, dtype=np.int64)
    position[inst.child] = np.arange(len(inst.child))
    send_each = ~tied
    send_each[position[c]] = False
    # A: the child-sum row of p when coef(p) >= nk(p), since the per-child
    # rows give sum_c x_c <= nk(p) x_p <= coef(p) x_p
    degree = _TreeRows(inst.child_ptr, inst.child, coef,
                       np.ones(len(inst.child), dtype=bool), inner,
                       send_each, inner & (coef < nk))
    return LPModel(inst.n, np.array(inst.cost, dtype=float), lo=lo,
                   eq_parts=(_Cover(inst.member, inst.group, k),),
                   ub_parts=(degree, capacity), tie=tie)


def modify_gst_solution(x: np.ndarray, n: int) -> np.ndarray:
    """Zero out values below 1/(2n), then round the rest up to powers of 2,
    at most 1 (tolerant of solver noise just above an exact power).

    The output satisfies properties P1-P6 (power-of-two values in
    [1/(2n), 1], path monotonicity, group mass in [1/2, 2], doubled capacity
    and degree slack, at most doubled cost); check_modified_solution verifies
    them mechanically.
    """
    keep = x >= 1.0 / (2 * n)
    e = np.ceil(np.log2(x, out=np.zeros(len(x)), where=keep) - 1e-12)
    return np.where(keep, np.ldexp(1.0, np.minimum(e, 0).astype(int)), 0.0)


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
    # the mass of group t below u for each capacity pair (u, t), and the
    # worst pair of each group, the first u on a tie
    pairs = _capacity_rows(inst.depth, inst.parent, inst.member,
                           inst.group, k, descending=False)[0]
    below = pairs.below(xt)
    u, t = np.divmod(pairs.key, k)
    order = np.lexsort((u, 2 * xt[u] - below, t))
    worst = order[np.unique(t[order], return_index=True)[1]]
    for i in worst[below[worst] > 2 * xt[u[worst]] + tol].tolist():
        bad.append(f"P4: capacity at u={u[i]}, group {t[i]}: "
                   f"{below[i]} > 2x~")
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
    solvers: the ``=`` rows, then the ``<=`` rows, and under each column
    its cost, then its entries in row order."""
    eq, ub = model.blocks()
    neq = len(eq)
    blk = Block.stack(eq, ub)
    names = ([f"EQ{i:06d}" for i in range(neq)]
             + [f"UB{i:06d}" for i in range(len(blk) - neq)])
    lines = ["NAME          DBNET", "ROWS", " N  COST"]
    lines += [f" {'L' if i >= neq else 'E'}  {name}"
              for i, name in enumerate(names)]
    # the cost entries, in row len(blk), go first
    costly = np.flatnonzero(model.obj)
    col = np.concatenate([costly, blk.col])
    order = np.argsort(col, kind="stable")
    row = np.concatenate([np.full(len(costly), len(blk)), blk.row])[order]
    val = np.concatenate([model.obj[costly], blk.val])[order]
    names.append("COST")
    lines.append("COLUMNS")
    lines += [f"    X{j:06d}    {names[i]}    {v:.12g}" for j, i, v
              in zip(col[order].tolist(), row.tolist(), val.tolist())]
    lines.append("RHS")
    lines += [f"    RHS    {name}    {b:.12g}"
              for name, b in zip(names, blk.rhs.tolist()) if b]
    lines.append("BOUNDS")
    for j, (hi, lo) in enumerate(zip(model.hi.tolist(), model.lo.tolist())):
        lines.append(f" UP BND    X{j:06d}    {hi:.12g}")
        if lo:
            lines.append(f" LO BND    X{j:06d}    {lo:.12g}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
