import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs
from scipy.optimize._highspy import _core as highs

from conftest import FRACTIONAL_SEEDS, small_dst
from test_golden import OVERLAP_GST
from dbnet import lpcore
from dbnet.cli import main
from dbnet.errors import (CapExceededError, FormatError, InfeasibleError,
                          SolverError)
from dbnet.generators import gen_dst, gen_gst
from dbnet.instances import (DirectedInstance, GroupTreeInstance, normalize,
                             parse_gst, preprocess_gst, serialize_gst)
from dbnet.lpcore import (EPS_CHECK, EPS_FEAS, INFEASIBLE, OPTIMAL, Block, LPModel,
                          _capacity_rows, _reduce, build_dst_lp, build_gst_lp,
                          check_modified_solution, dump_lp,
                          modify_gst_solution, solve_lp)
from dbnet.states import BASE, STATE, SUPER, VIRTUAL, build_super_tree


class Rows(Block):
    """A part of an ``LPModel`` given as its rows, all of which go to
    HiGHS."""

    def write(self, full):
        return self

    def excess(self, x):
        return np.bincount(self.row, self.val * x[self.col],
                           minlength=len(self)) - self.rhs


def from_rows(rows) -> Rows:
    """The part of ``(column indices, coefficients, rhs)`` rows."""
    return Rows.of(np.repeat(np.arange(len(rows)),
                             [len(cols) for cols, _, _ in rows]),
                   [j for cols, _, _ in rows for j in cols],
                   [v for _, vals, _ in rows for v in vals],
                   [b for _, _, b in rows])


def test_forced_variable():
    m = LPModel(1, np.array([1.0]),
                ub_parts=(from_rows([([0], [-1.0], -1.0)]),))  # x >= 1
    sol = solve_lp(m)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0)


def tiny_model(eq, ub):
    return LPModel(2, np.array([1.0, 2.0]),
                   eq_parts=(from_rows([([0, 1], [1.0, 1.0], 1.0)] * eq),),
                   ub_parts=(from_rows([([0], [1.0], 0.25)] * ub),))


def csr(blk, nvar):
    """The duplicate-summed matrix of a block's rows."""
    return scipy.sparse.csr_matrix((blk.val, (blk.row, blk.col)),
                                   shape=(len(blk), nvar))


TOLERANCES = {"primal_feasibility_tolerance": 1e-10,
              "dual_feasibility_tolerance": 1e-10}


def full_linprog_x(model):
    """``scipy.optimize.linprog`` on the full model."""
    eq, ub = model.blocks()
    res = scipy.optimize.linprog(
        model.obj, A_ub=csr(ub, model.nvar), b_ub=ub.rhs,
        A_eq=csr(eq, model.nvar), b_eq=eq.rhs,
        bounds=np.column_stack([model.lo, model.hi]),
        method="highs", options=TOLERANCES)
    assert res.status == 0
    return np.clip(res.x, model.lo, model.hi)


def scipy_matrix(a):
    """scipy's CSC matrix of a ``(start, index, value, shape)`` from
    ``_reduce``."""
    start, index, value, shape = a
    return scipy.sparse.csc_matrix((value, index, start), shape=shape)


def lifted(lift, x):
    """HiGHS's ``x`` lifted to every variable by the lift ``(column, start,
    index)`` of ``_reduce``: each column is the sum, in order, of the
    HiGHS columns it lifts from."""
    column, start, index = lift
    return np.add.reduceat(x[index], start[:-1])[column]


def highs_solver(model, *extra):
    """scipy's HiGHS binding, reached through ``scipy.optimize`` and run
    here with dbnet's options and then ``extra`` ones on the LP of
    ``_reduce``; returns it and the lift of ``_reduce``."""
    lift, obj, a, row_lo, row_hi, lo, hi = _reduce(model)
    mat = scipy_matrix(a)
    lp = highs.HighsLp()
    lp.num_row_, lp.num_col_ = mat.shape
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = obj, lo, hi
    lp.row_lower_, lp.row_upper_ = row_lo, row_hi
    a_matrix = lp.a_matrix_
    a_matrix.format_ = highs.MatrixFormat.kColwise
    a_matrix.num_row_, a_matrix.num_col_ = mat.shape
    a_matrix.start_, a_matrix.index_ = mat.indptr, mat.indices
    a_matrix.value_ = mat.data
    solver = highs._Highs()
    for option, value in lpcore.HIGHS_OPTIONS + extra:
        assert solver.setOptionValue(option, value) == highs.HighsStatus.kOk
    solver.passModel(lp)
    solver.run()
    assert solver.getModelStatus() == highs.HighsModelStatus.kOptimal
    return solver, lift


def gst_case(seed):
    return build_gst_lp(preprocess_gst(gen_gst(40, 3, 4, 3, seed=seed)))


def dst_case(corpus, seed):
    if corpus == "small_dst":
        _, norm, _, h = small_dst(seed)
    else:
        norm, h = normalize(gen_dst(7, 14, 4, d_max=1, seed=seed)), 4
    return build_dst_lp(build_super_tree(norm, h))


SOLVE_CASES = (
    [("eq+ub", lambda: tiny_model(True, True)),
     ("eq", lambda: tiny_model(True, False)),
     ("ub", lambda: tiny_model(False, True))]
    + [(f"small_dst-{s}", lambda s=s: dst_case("small_dst", s))
       for s in range(5)]
    + [(f"d_max=1-{s}", lambda s=s: dst_case("d_max=1", s))
       for s in FRACTIONAL_SEEDS]
    + [(f"gst-{s}", lambda s=s: gst_case(s)) for s in range(6)])


@pytest.mark.parametrize("make", [case[1] for case in SOLVE_CASES],
                         ids=[case[0] for case in SOLVE_CASES])
def test_solve_matches_linprog_bitwise(make):
    # solve_lp's x is bitwise the x of the HiGHS binding that linprog
    # drives, run here with dbnet's options on the same reduced LP, so a
    # scipy upgrade that changes the binding fails here; its cost is
    # linprog's optimum on the full model
    model = make()
    sol = solve_lp(model)
    assert sol.status == OPTIMAL
    solver, lift = highs_solver(model)
    x = np.clip(lifted(lift, np.array(solver.getSolution().col_value)),
                model.lo, model.hi)
    assert sol.x.tobytes() == x.tobytes()
    assert sol.objective == pytest.approx(model.obj @ full_linprog_x(model),
                                          rel=0, abs=1e-9)


def test_parallel_rule_is_the_rule_switched_off(tmp_path):
    # HiGHS's own log names the presolve rule of the bit dbnet switches off
    log = tmp_path / "highs.log"
    highs_solver(dst_case("small_dst", 0), ("output_flag", True),
                 ("log_file", str(log)), ("log_dev_level", 1))
    lines = log.read_text().splitlines()
    at = lines.index("Presolve rules not allowed:")
    assert [ln.strip() for ln in lines[at + 1:at + 3]] == [
        "Rule 13 (bit 8192): Parallel rows and columns", "Presolving model"]


def test_solution_counts_simplex_iterations():
    sol = solve_lp(dst_case("small_dst", 0))
    assert sol.status == OPTIMAL and sol.iterations > 0
    assert solve_lp(LPModel(1, np.array([0.0]), ub_parts=(from_rows(
        [([0], [-1.0], -2.0)]),))).iterations == 0


def rows_of(mat, lower, upper) -> list[tuple]:
    """The rows of a scipy CSR matrix as (bounds, columns, values) tuples."""
    return [(lo, hi, tuple(mat.indices[a:b].tolist()),
             tuple(mat.data[a:b].tolist()))
            for lo, hi, a, b in zip(lower.tolist(), upper.tolist(),
                                    mat.indptr[:-1], mat.indptr[1:])]


def rhs_twins():
    """Three <= rows over the same entries: the first and the last are
    equal, the middle one differs only in its rhs."""
    return LPModel(2, np.array([-1.0, -2.0]), ub_parts=(from_rows(
        [([0, 1], [1.0, 1.0], 1.0), ([1, 0], [1.0, 1.0], 0.5),
         ([0, 1], [1.0, 1.0], 1.0)]),))


@pytest.mark.parametrize("make", [case[1] for case in SOLVE_CASES]
                         + [rhs_twins],
                         ids=[case[0] for case in SOLVE_CASES] + ["rhs"])
def test_highs_gets_each_row_once(monkeypatch, make):
    # the rows HiGHS gets are pairwise distinct, and every row left out
    # equals one of them
    model = make()
    sent = []
    pass_model = lpcore._pass_model

    def spy(solver, *lp):
        sent.append(lp)
        return pass_model(solver, *lp)

    monkeypatch.setattr(lpcore, "_pass_model", spy)
    assert solve_lp(model).status == OPTIMAL
    _, a, row_lo, row_hi, _, _ = sent[0]
    rows = rows_of(scipy_matrix(a).tocsr(), row_lo, row_hi)
    assert len(set(rows)) == len(rows)
    assert set(rows) == set(system_rows(model))
    if make is rhs_twins:
        assert len(rows) == 2


@pytest.mark.parametrize("make", [lambda: tiny_model(True, True),
                                  lambda: tiny_model(True, False),
                                  lambda: tiny_model(False, True),
                                  lambda: dst_case("small_dst", 0),
                                  lambda: gst_case(0)],
                         ids=["eq+ub", "eq", "ub", "dst", "gst"])
def test_solve_rejects_a_perturbed_answer(monkeypatch, make):
    model = make()
    # the first HiGHS column that a member of the first cover row (x_0 in
    # x_0 <= 1/4 without one) lifts from, moved by 1/2 inside its bounds
    eq = model.blocks()[0]
    var = eq.col[0] if len(eq) else 0
    column, start, index = _reduce(model)[0]
    j = index[start[column[var]]]
    run_highs = lpcore._run_highs

    def perturbed(*lp):
        status, x = run_highs(*lp)
        x = x.copy()
        x[j] += 0.5 if x[j] < 0.5 else -0.5
        return status, x

    monkeypatch.setattr(lpcore, "_run_highs", perturbed)
    with pytest.raises(SolverError, match="solution violates constraints"):
        solve_lp(model)


def below_zero():
    """min x_0 + x_1 over x_0 >= 0, x_1 >= 1/2 and -1 <= x <= 1."""
    return LPModel(2, np.array([1.0, 1.0]),
                   ub_parts=(from_rows([([0], [-1.0], 0.0),
                                        ([1], [-1.0], -0.5)]),),
                   lo=np.full(2, -1.0))


@pytest.mark.parametrize("make", [lambda: gst_case(0), below_zero],
                         ids=["gst", "below-zero"])
def test_solution_holds_no_negative_zero(monkeypatch, make):
    # HiGHS may return -0.0, and np.clip keeps it inside bounds below 0; a
    # byte comparison of two solutions must not see a sign no value has
    run_highs = lpcore._run_highs

    def signed(*lp):
        status, x = run_highs(*lp)
        return status, np.where(x == 0, -0.0, x)

    monkeypatch.setattr(lpcore, "_run_highs", signed)
    x = solve_lp(make()).x
    assert (x == 0).any()
    assert not np.signbit(x).any()


def test_failed_highs_status_is_a_solver_error(monkeypatch, tmp_path):
    monkeypatch.setattr(lpcore, "_run_highs", lambda *lp: (
        highs.HighsModelStatus.kIterationLimit, None))
    with pytest.raises(SolverError, match="kIterationLimit"):
        solve_lp(gst_case(0))
    path = tmp_path / "a.gst"
    path.write_text(serialize_gst(gen_gst(25, 3, seed=4)))
    assert main(["solve-gst", "--instance", str(path)]) == 1


def fresh_python(code: str) -> str:
    """The output of ``code`` run in a new interpreter that imports dbnet
    from this checkout."""
    src = str(Path(lpcore.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_scipy_optimize_and_sparse_out():
    # dbnet loads only the HiGHS extension module, from its file
    loaded = set(fresh_python(
        "import sys, dbnet.cli\n"
        "print(*(m for m in sys.modules if m.startswith('scipy')))").split())
    assert "scipy.optimize._highspy._core" in loaded
    assert not {"scipy.optimize", "scipy.sparse"} & loaded


def test_scipy_optimize_reuses_the_loaded_binding():
    # imported after dbnet, scipy.optimize finds the binding dbnet loaded,
    # and linprog and solve_lp both solve with it
    out = fresh_python(
        "import numpy as np\n"
        "from dbnet import lpcore\n"
        "import scipy.optimize\n"
        "from scipy.optimize._highspy import _core\n"
        "import scipy.optimize._highspy._core as core\n"
        "res = scipy.optimize.linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1],\n"
        "                             method='highs')\n"
        "from dbnet.instances import GroupTreeInstance\n"
        "m = lpcore.build_gst_lp(GroupTreeInstance(\n"
        "    2, [-1, 0], [0, 1], [frozenset({1})], [1, 1]))\n"
        "print(_core is lpcore.highs and core is lpcore.highs,\n"
        "      res.status, res.x.tolist(), lpcore.solve_lp(m).objective)")
    assert out.split() == ["True", "0", "[1.0,", "0.0]", "1.0"]
    assert sys.modules["scipy.optimize._highspy._core"] is lpcore.highs
    assert highs is lpcore.highs


def test_missing_binding_names_its_directory(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    monkeypatch.setattr(lpcore.importlib.machinery.PathFinder, "find_spec",
                        lambda *args: None)
    with pytest.raises(ImportError, match=r"_core in .*optimize.*_highspy"):
        lpcore._load_highs()


def test_empty_polytope():
    m = LPModel(1, np.array([0.0]),  # x >= 2 with x <= 1
                ub_parts=(from_rows([([0], [-1.0], -2.0)]),))
    assert solve_lp(m).status == INFEASIBLE


def test_equality_row_that_cancels_to_empty_is_infeasible():
    # x - x = 1: the row keeps no entry and its bounds cannot hold, so
    # _reduce refuses it before HiGHS runs
    m = LPModel(1, np.array([0.0]),
                eq_parts=(from_rows([([0, 0], [1.0, -1.0], 1.0)]),))
    assert _reduce(m) is None
    assert solve_lp(m).status == INFEASIBLE


def test_dst_lp_single_edge():
    inst = DirectedInstance(2, [(0, 1, 7)], 0, {1}, {0: 1, 1: 0})
    st = build_super_tree(normalize(inst), 3, 10_000)
    model = build_dst_lp(st)
    assert model.nvar == 3
    sol = solve_lp(model)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(7.0)
    assert np.allclose(sol.x, 1.0)


def test_dst_lp_root_mass_forced():
    inst = DirectedInstance(3, [(0, 1, 2), (0, 2, 3)], 0, {1, 2},
                            {0: 2, 1: 0, 2: 0})
    st = build_super_tree(normalize(inst), 3, 10_000)
    sol = solve_lp(build_dst_lp(st))
    assert sol.x[st.root] == pytest.approx(1.0)


def test_dst_lp_unreachable_terminal():
    inst = DirectedInstance(3, [(0, 1, 2)], 0, {1, 2}, {0: 1, 1: 0, 2: 0})
    st = build_super_tree(normalize(inst), 4, 10_000)
    with pytest.raises(InfeasibleError):
        build_dst_lp(st)


def test_gst_lp_cheap_leaf():
    inst = GroupTreeInstance(3, [-1, 0, 0], [0, 3, 5],
                             [frozenset({1, 2})], [1, 1, 1])
    sol = solve_lp(build_gst_lp(inst))
    assert sol.objective == pytest.approx(3.0)


def test_gst_lp_forced_path():
    inst = GroupTreeInstance(3, [-1, 0, 1], [1, 2, 4],
                             [frozenset({2})], [1, 1, 1])
    sol = solve_lp(build_gst_lp(inst))
    assert sol.objective == pytest.approx(7.0)
    assert np.allclose(sol.x, 1.0)


def test_gst_lp_disjoint_groups():
    # two groups, cheapest leaf each
    inst = GroupTreeInstance(5, [-1, 0, 0, 0, 0], [0, 3, 5, 2, 9],
                             [frozenset({1, 2}), frozenset({3, 4})],
                             [2, 1, 1, 1, 1])
    sol = solve_lp(build_gst_lp(inst))
    assert sol.objective == pytest.approx(5.0)


def test_gst_root_forced_to_one():
    inst = GroupTreeInstance(4, [-1, 0, 1, 1], [1, 1, 1, 1],
                             [frozenset({2, 3})], [1, 2, 1, 1])
    sol = solve_lp(build_gst_lp(inst))
    assert sol.x[0] == pytest.approx(1.0)


def test_round_up_pow2():
    # above the threshold 1/(2n) = 1/4, values round up to a power of 2;
    # zero is below it
    x = np.array([0.3, 0.5, 1.0, 0.26, 0.0])
    assert modify_gst_solution(x, 2).tolist() == [0.5, 0.5, 1.0, 0.5, 0.0]


def test_modify_threshold_and_properties():
    n = 8
    x = np.array([1.0, 0.3, 1 / (4 * n), 0.5, 0.0, 0.6, 0.25, 0.1])
    xt = modify_gst_solution(x, n)
    assert xt[1] == 0.5
    assert xt[2] == 0.0  # below 1/(2n)
    assert xt[3] == 0.5


def test_check_modified_on_suite(gst_suite):
    for inst in gst_suite:
        sol = solve_lp(build_gst_lp(inst))
        xt = modify_gst_solution(sol.x, inst.n)
        assert check_modified_solution(inst, sol.x, xt) == []


def reference_check_modified(inst, x, xt):
    """The P1-P6 scan as first written: Python walks over every vertex,
    edge and group."""
    tol, n, bad = EPS_CHECK, inst.n, []
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
    order, stack = [], [inst.root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(inst.children[u])
    order.reverse()
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


def corrupt(prop, inst, x, xt):
    """``(inst, x, xt)`` changed so that property ``prop`` fails."""
    xt = xt.copy()
    kids = [v for v in range(inst.n) if v != inst.root and xt[v] > 0]
    if prop == "P1":
        xt[kids[0]], xt[kids[-1]] = 0.3, 2.0
    elif prop == "P2":
        v = kids[-1]
        xt[inst.parent[v]] = xt[v] / 2
    elif prop == "P3":
        for o in inst.groups[1]:
            xt[o] = 0.0
    elif prop == "P4":
        o = next(o for o in sorted(inst.groups[0]) if xt[o] > 0)
        xt[inst.parent[o]] = xt[o] / 4
    elif prop == "P5":
        # a star of five leaves with degree bound 1, each leaf half in
        inst = GroupTreeInstance(6, [-1, 0, 0, 0, 0, 0], [0] + [1] * 5,
                                 [frozenset({v}) for v in range(1, 6)],
                                 [1] * 6)
        x = xt = np.array([1.0] + [0.5] * 5)
    else:
        x = xt / 4
    return inst, x, xt


@pytest.mark.parametrize("prop", ["P1", "P2", "P3", "P4", "P5", "P6"])
def test_check_modified_flags_each_property(prop):
    inst = preprocess_gst(gen_gst(40, 3, depth=4, d_max=3, seed=5))
    sol = solve_lp(build_gst_lp(inst))
    inst, x, xt = corrupt(prop, inst, sol.x,
                          modify_gst_solution(sol.x, inst.n))
    bad = check_modified_solution(inst, x, xt)
    assert any(msg.startswith(prop + ":") for msg in bad)
    assert bad == reference_check_modified(inst, x, xt)


def test_check_modified_sums_over_the_capacity_pairs():
    # P4 reads the mass below each (vertex, group) capacity pair, so no
    # (n, k) array is made: n = 2000 and k = 400 would take 6.4 MB
    inst = preprocess_gst(gen_gst(2000, 400, depth=8, d_max=4))
    x = np.full(inst.n, 0.5)
    tracemalloc.start()
    try:
        bad = check_modified_solution(inst, x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert len(bad) == 271
    assert bad == reference_check_modified(inst, x, x)
    inst, x, xt = corrupt("P4", inst, x, x)
    bad = check_modified_solution(inst, x, xt)
    assert any(msg.startswith("P4:") for msg in bad)
    assert bad == reference_check_modified(inst, x, xt)


def test_dump_lp_layout():
    m = LPModel(2, np.array([1.0, 2.0]),
                eq_parts=(from_rows([([0, 1], [1.0, 1.0], 1.0)]),))
    text = dump_lp(m)
    for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in text


def reference_dump_lp(model):
    """``dump_lp`` as first written, row by row over ``model.eq`` and
    ``model.ub``."""
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


# zeros of both signs, and values that print with all 12 digits
DUMP_VALUES = (hs.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1 / 3, 2.0 ** -40])
               | hs.floats(-1e6, 1e6))


@hs.composite
def lp_models(draw):
    """Small LPs whose rows may repeat a column, hold zero coefficients or
    no entry at all, and leave columns out; either block may be empty."""
    nvar = draw(hs.integers(1, 7))

    def block():
        rows = []
        for _ in range(draw(hs.integers(0, 4))):
            cols = draw(hs.lists(hs.integers(0, nvar - 1), max_size=5))
            vals = draw(hs.lists(DUMP_VALUES, min_size=len(cols),
                                 max_size=len(cols)))
            rows.append((cols, vals, draw(DUMP_VALUES)))
        return from_rows(rows)

    vector = hs.lists(DUMP_VALUES, min_size=nvar, max_size=nvar).map(np.array)
    return LPModel(nvar, draw(vector), eq_parts=(block(),),
                   ub_parts=(block(),),
                   lo=draw(vector), hi=draw(vector))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(lp_models())
def test_dump_lp_matches_the_per_row_dump(model):
    assert dump_lp(model) == reference_dump_lp(model)


def reference_dst_rows(st):
    """The row-list DST LP as first written: (obj, eq rows, ub rows)."""
    n = len(st)
    obj = np.zeros(n)
    bases = np.flatnonzero(st.kind == BASE).tolist()
    for o in bases:
        obj[o] = st.cost[o]
    eq, ub = [], []
    # the base nodes of each terminal: a leaf (r', *tails) involves its
    # tails
    O_t = {t: [] for t in sorted(st.norm.inst.terminals)}
    for o in bases:
        for v in st.payloads[st.payload_id[o]][1:]:
            if v in O_t:
                O_t[v].append(o)
    for t, nodes in sorted(O_t.items()):
        eq.append((list(nodes), [1.0] * len(nodes), 1.0))
    for p in range(n):
        if st.kind[p] in (STATE, SUPER):
            kids = st.children[p]
            eq.append((kids + [p], [1.0] * len(kids) + [-1.0], 0.0))
        elif st.kind[p] == VIRTUAL:
            for q in st.children[p]:
                eq.append(([q, p], [1.0, -1.0], 0.0))
    desc = [None] * n
    for p in range(n - 1, -1, -1):
        mine = {}
        if st.kind[p] == BASE:
            for v in st.payloads[st.payload_id[p]][1:]:
                if v in O_t:
                    mine.setdefault(v, []).append(p)
        for q in st.children[p]:
            for t, nodes in desc[q].items():
                mine.setdefault(t, []).extend(nodes)
        desc[p] = mine
        for t, nodes in sorted(mine.items()):
            ub.append((nodes + [p], [1.0] * len(nodes) + [-1.0], 0.0))
    return obj, eq, ub


def reference_gst_rows(inst):
    """The row-list GST LP as first written: (obj, eq rows, ub rows)."""
    eq, ub = [], []
    for g in inst.groups:
        members = sorted(g)
        eq.append((members, [1.0] * len(members), 1.0))
    for u in range(inst.n):
        for v in inst.children[u]:
            ub.append(([v, u], [1.0, -1.0], 0.0))
        if inst.children[u]:
            kids = inst.children[u]
            ub.append((kids + [u],
                       [1.0] * len(kids) + [-float(inst.degree_bound[u])],
                       0.0))
    per_ut = {}
    for t, g in enumerate(inst.groups):
        for o in sorted(g):
            u = o
            while u != -1:
                per_ut.setdefault((u, t), []).append(o)
                u = inst.parent[u]
    for (u, t), members in sorted(per_ut.items()):
        ub.append((members + [u], [1.0] * len(members) + [-1.0], 0.0))
    return np.array(inst.cost, dtype=float), eq, ub


def assert_same_lp(model, obj, eq, ub, lo=None):
    assert np.array_equal(model.obj, obj)
    for blk, rows in zip(model.blocks(), (eq, ub)):
        assert [list(r) for r in blk.rows()] == [list(r) for r in rows]
        data = [v for _, vals, _ in rows for v in vals]
        ri = [i for i, (cols, _, _) in enumerate(rows) for _ in cols]
        ci = [j for cols, _, _ in rows for j in cols]
        want = scipy.sparse.csr_matrix((data, (ri, ci)),
                                       shape=(len(rows), model.nvar))
        got = csr(blk, model.nvar)
        # duplicates summed alike: explicit zeros of x_p - x_p included
        assert got.shape == want.shape and (got != want).nnz == 0
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
    ref = LPModel(model.nvar, obj, eq_parts=(from_rows(eq),),
                  ub_parts=(from_rows(ub),), lo=lo)
    assert dump_lp(model) == dump_lp(ref)


@pytest.mark.parametrize("seed", range(5))
def test_dst_lp_matches_row_lists(seed):
    _, norm, _, h = small_dst(seed)
    st = build_super_tree(norm, h)
    assert_same_lp(build_dst_lp(st), *reference_dst_rows(st))


def test_gst_lp_matches_row_lists(gst_suite):
    for inst in gst_suite:
        # every tree holds the root
        lo = np.zeros(inst.n)
        lo[inst.root] = 1
        assert_same_lp(build_gst_lp(inst), *reference_gst_rows(inst), lo=lo)


def test_capacity_row_of_a_base_node_lists_it_twice():
    inst = DirectedInstance(2, [(0, 1, 7)], 0, {1}, {0: 1, 1: 0})
    model = build_dst_lp(build_super_tree(normalize(inst), 3, 10_000))
    # base node 2 carries terminal 1: x_2 - x_2 <= 0, both entries kept
    assert model.ub[0] == ([2, 2], [1.0, -1.0], 0.0)
    assert csr(model.blocks()[1], model.nvar)[0, 2] == 0.0
    # vacuous, so solve_lp leaves it out; so are the rows of its ancestors,
    # which it reaches through one child each
    assert left_out(model).tolist() == [True, True, True]


def test_capacity_rows_flag_one_child_and_own_rows():
    # root 0 with children 1 and 2; node 3 below 1; group {2, 3}
    parent = np.array([-1, 0, 0, 1])
    rows, routes, mine = _capacity_rows(
        np.array([0, 1, 1, 2]), parent, np.array([2, 3]), np.array([0, 0]),
        1, descending=False)
    assert [cols[-1] for cols, _, _ in rows.write(True).rows()] == [
        0, 1, 2, 3]
    # one group: a pair's key is its node
    assert dict(zip(rows.key.tolist(), mine.tolist())) == {
        0: False, 1: False, 2: True, 3: True}
    assert dict(zip(rows.key.tolist(), (routes == 1).tolist())) == {
        0: False,   # 2 and 3 come through two children of 0
        1: True,    # 3 alone, through child 3: implied by row (3, t)
        2: True,    # x_2 - x_2 <= 0
        3: True}


def assert_reduced_lp_is_exact(model):
    """The solve of the reduced LP is feasible for the full model and as
    cheap as linprog on the full model; returns that cost."""
    best = model.obj @ full_linprog_x(model)
    sol = solve_lp(model)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(best, abs=1e-7)
    x = sol.x
    eq, ub = model.blocks()
    assert np.max(np.abs(csr(eq, model.nvar) @ x - eq.rhs)) <= EPS_FEAS
    assert np.max(csr(ub, model.nvar) @ x - ub.rhs) <= EPS_FEAS
    assert np.all(model.lo <= x) and np.all(x <= model.hi)
    return best


@pytest.mark.parametrize("case", [("small_dst", s) for s in range(5)]
                         + [("d_max=1", s) for s in FRACTIONAL_SEEDS],
                         ids=lambda case: f"{case[0]}-{case[1]}")
def test_reduced_dst_lp_is_exact(case):
    model = dst_case(*case)
    # forced-equal variables share a column; implied rows are left out
    _, _, a, row_lo, *_ = _reduce(model)
    assert a[3][1] < model.nvar
    assert np.sum(np.isneginf(row_lo)) <= np.sum(~left_out(model))
    best = assert_reduced_lp_is_exact(model)
    if case == ("d_max=1", 3):
        assert best == pytest.approx(32.67, abs=0.01)


@pytest.mark.parametrize("n,k,depth,d_max,seed", [
    (40, 3, 4, 3, 0), (40, 3, 4, 3, 5), (60, 4, 5, 2, 1), (80, 5, 5, 3, 2),
    (120, 6, 6, 3, 3), (2000, 8, 8, 4, 0)])
def test_reduced_gst_lp_is_exact(n, k, depth, d_max, seed):
    # the x_o - x_o <= 0 capacity rows of the members are left out
    model = build_gst_lp(preprocess_gst(gen_gst(n, k, depth, d_max,
                                                seed=seed)))
    assert _reduce(model)[2][3][0] < sum(map(len, model.blocks()))
    assert_reduced_lp_is_exact(model)


def explicit(model) -> LPModel:
    """The full model of ``model`` as blocks, with no tie: HiGHS gets every
    row of it."""
    eq, ub = model.blocks()
    return LPModel(model.nvar, model.obj,
                   eq_parts=(Rows(eq.row, eq.col, eq.val, eq.rhs),),
                   ub_parts=(Rows(ub.row, ub.col, ub.val, ub.rhs),),
                   lo=model.lo, hi=model.hi)


def left_out(model) -> np.ndarray:
    """The mask of the ``<=`` rows of the full model that ``solve_lp`` does
    not write for HiGHS.  It writes the others in the same order, so a
    greedy match of its rows against the full ones finds them."""
    sent = iter(Block.stack(*(part.write(False)
                              for part in model.ub_parts)).rows())
    want = next(sent, None)
    out = []
    for row in model.ub:
        out.append(row != want)
        if row == want:
            want = next(sent, None)
    assert want is None
    return np.array(out, dtype=bool)


def reference_reduce(model, implied):
    """``_reduce`` with its columns found from the rows, as first written,
    on the full model of ``model`` without the ``<=`` rows ``implied``:
    the two variables of each row ``x_a - x_b = 0`` share one column, and
    the columns are scipy's connected components of those rows.  A model
    with no such row takes the ties it declares instead: the GST ties hold
    in some optimum, not by a row.  The definitions are substituted by
    ``reference_substitute``.  Of the rows equal after that, a dict over
    scipy's rows keeps the first."""
    eq = model.blocks()[0]
    count = np.bincount(eq.row, minlength=len(eq))
    two = np.flatnonzero(count == 2)
    at = (np.cumsum(count) - count)[two]
    a, b = eq.col[at], eq.col[at + 1]
    va, vb = eq.val[at], eq.val[at + 1]
    tie = (a != b) & (va != 0) & (va == -vb) & (eq.rhs[two] == 0)
    a, b = a[tie], b[tie]
    if not len(a):
        a = np.flatnonzero(model.tie >= 0)
        b = model.tie[a]
    graph = scipy.sparse.coo_matrix((np.ones(len(a)), (a, b)),
                                    shape=(model.nvar, model.nvar))
    column = scipy.sparse.csgraph.connected_components(graph,
                                                       directed=False)[1]
    mat, lower, rhs, full, empty, lift, left, lo, hi = reference_rows(
        model, implied, column)
    if not ((lower[empty] <= 0) & (rhs[empty] >= 0)).all():
        return None
    # the first of each set of equal rows
    first = {}
    for i, row in zip(np.flatnonzero(full).tolist(),
                      rows_of(mat[full], lower[full], rhs[full])):
        first.setdefault(row, i)
    kept = np.zeros(len(full), dtype=bool)
    kept[list(first.values())] = True
    obj = lift.T @ np.bincount(column, weights=model.obj,
                               minlength=lift.shape[0])
    return ((column, lift), obj, mat[kept].tocsc(), lower[kept], rhs[kept],
            lo[left], hi[left])


def reference_rows(model, implied, column):
    """scipy's CSR matrix of the full model's rows, the ``<=`` rows first,
    over the columns, its duplicates summed and zeros dropped and the
    definitions substituted (``reference_substitute``); the row bounds;
    the masks of the rows not ``implied`` that keep an entry and of those
    left empty; the lift and the mask of the columns HiGHS solves for;
    and the bounds of every column."""
    ncol = int(column.max()) + 1 if len(column) else 0
    eq, ub = model.blocks()
    blk = Block.stack(ub, eq)
    lower = np.concatenate([np.full(len(ub), -np.inf), eq.rhs])
    mat = scipy.sparse.csr_matrix((blk.val, (blk.row, column[blk.col])),
                                  shape=(len(blk), ncol))
    mat.eliminate_zeros()
    keep = np.ones(len(blk), dtype=bool)
    keep[:len(ub)] = ~implied
    lo = np.full(ncol, -np.inf)
    hi = np.full(ncol, np.inf)
    np.maximum.at(lo, column, model.lo)
    np.minimum.at(hi, column, model.hi)
    mat, lower, rhs, lift, left = reference_substitute(mat, lower, blk.rhs,
                                                       keep, lo, hi)
    full = keep & (np.diff(mat.indptr) > 0)
    return mat, lower, rhs, full, keep & ~full, lift, left, lo, hi


def reference_substitute(mat, lower, rhs, keep, lo, hi):
    """The definitions of ``_reduce`` substituted, row by row in Python.  A
    row of ``keep`` with bounds 0 that holds -1 on one column j and +1 on
    every other one, of which there is one at least, defines j.  The
    first row that defines j is used unless one of its + columns has a
    definition.  L, the lift, maps HiGHS's columns to the columns: j to
    its + columns, and every other column to itself.  Returns ``(mat + P)
    L``, where P cancels the -1 of each row used, so that the row keeps
    its + entries; the row bounds, a row used reading ``lo[j] <= sum <=
    hi[j]``; L; and the mask of the columns HiGHS solves for."""
    defines = {}
    for r in np.flatnonzero(keep & (lower == 0) & (rhs == 0)).tolist():
        cols = mat.indices[mat.indptr[r]:mat.indptr[r + 1]].tolist()
        vals = mat.data[mat.indptr[r]:mat.indptr[r + 1]].tolist()
        if len(cols) > 1 and sorted(vals) == [-1.0] + [1.0] * (len(cols) - 1):
            j = cols[vals.index(-1.0)]
            defines.setdefault(j, (r, [c for c in cols if c != j]))
    used = {j: (r, plus) for j, (r, plus) in defines.items()
            if not any(c in defines for c in plus)}
    ncol = mat.shape[1]
    left = np.array([c not in used for c in range(ncol)], dtype=bool)
    new = (np.cumsum(left) - 1).tolist()
    pairs = [(c, new[i]) for c in range(ncol)
             for i in (used[c][1] if c in used else [c])]
    lift = scipy.sparse.csr_matrix(
        (np.ones(len(pairs)), ([c for c, _ in pairs], [i for _, i in pairs])),
        shape=(ncol, int(left.sum())))
    cancel = scipy.sparse.csr_matrix(
        (np.ones(len(used)), ([r for r, _ in used.values()], list(used))),
        shape=mat.shape)
    lower, rhs = lower.copy(), rhs.copy()
    for j, (r, _) in used.items():
        lower[r], rhs[r] = lo[j], hi[j]
    mat = ((mat + cancel) @ lift).tocsr()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat, lower, rhs, lift, left


def system_rows(model) -> list[tuple]:
    """Every row ``_reduce`` may pass on: the rows written for HiGHS that
    keep an entry, over its columns, the definitions substituted."""
    mat, lower, rhs, full, *_ = reference_rows(model, left_out(model),
                                               _reduce(model)[0][0])
    return rows_of(mat[full], lower[full], rhs[full])


def same_arrays(got, want) -> bool:
    """Whether a ``_reduce`` and a ``reference_reduce`` agree array for
    array, the index arrays of the matrix in scipy's dtype too."""
    if got is None or want is None:
        return got is want
    (column, lift), obj, a, *rest = want
    want = [column, lift.indptr, lift.indices, obj, a.indptr, a.indices,
            a.data, a.shape, *rest]
    lift, obj, a, *rest = got
    got = [*lift, obj, *a, *rest]
    return (a[0].dtype == want[4].dtype and a[1].dtype == want[5].dtype
            and all(np.array_equal(g, w) for g, w in zip(got, want)))


def same_reduction(model) -> bool:
    """Whether ``_reduce`` and ``reference_reduce`` agree on ``model``,
    without the rows it leaves out."""
    return same_arrays(_reduce(model), reference_reduce(model,
                                                        left_out(model)))


@hs.composite
def dst_shapes(draw):
    """``gen_dst`` shapes (n, m, k) from (3, 3, 1) to (6, 8, 3)."""
    n = draw(hs.integers(3, 6))
    return (n, draw(hs.integers(max(n - 1, 3), min(8, (n - 1) ** 2))),
            draw(hs.integers(1, min(3, n - 1))))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(dst_shapes(), hs.integers(1, 3), hs.integers(0, 4),
       hs.integers(0, 10 ** 6))
def test_declared_ties_are_the_tie_rows(shape, d_max, h, seed):
    # the builder's ties give the columns that the x_a - x_b = 0 rows give;
    # a height too small to hold any terminal is filtered out
    try:
        st = build_super_tree(normalize(gen_dst(*shape, d_max, seed=seed)),
                              h, node_cap=50_000)
        model = build_dst_lp(st)
    except (CapExceededError, InfeasibleError):
        assume(False)
    assert same_reduction(model)


def test_gst_ties_are_the_unary_vertices(gst_suite):
    # tie[c] = p exactly where p is a non-root vertex whose only child is c
    for inst in gst_suite:
        model = build_gst_lp(inst)
        want = np.full(inst.n, -1)
        for p in range(inst.n):
            if p != inst.root and len(inst.children[p]) == 1:
                want[inst.children[p][0]] = p
        assert np.array_equal(model.tie, want)
        assert (model.tie >= 0).any()
        assert same_reduction(model)


def test_gst_member_with_one_child_is_not_tied():
    # before preprocess_gst a member may be internal: lowering it to its
    # child would empty its group, so 1 keeps its own column
    inst = GroupTreeInstance(3, [-1, 0, 1], [0, 1, 5], [frozenset({1})],
                             [1, 1, 1])
    model = build_gst_lp(inst)
    assert model.tie.tolist() == [-1, -1, -1]
    assert solve_lp(model).objective == pytest.approx(1.0)


def rules_gst() -> GroupTreeInstance:
    """Root 0 has children 1, 2, 3; 1 has the leaves 4, 5 and 2 the leaves
    6, 7, 8; groups t0 = {4, 5}, t1 = {5, 6}, t2 = {3}, t3 = {7, 8}; each
    rule of build_gst_lp leaves out some row."""
    return GroupTreeInstance(9, [-1, 0, 0, 0, 1, 1, 2, 2, 2],
                             [1, 3, 2, 1, 4, 1, 2, 9, 1],
                             [frozenset({4, 5}), frozenset({5, 6}),
                              frozenset({3}), frozenset({7, 8})],
                             [3, 1, 2, 0, 0, 0, 0, 0, 0])


def test_gst_rules_flag_exactly_their_rows():
    model = build_gst_lp(rules_gst())
    # the degree rows, vertex by vertex: x_c - x_p per child, then the sum
    assert model.ub[:4] == (([1, 0], [1.0, -1.0], 0.0),
                            ([2, 0], [1.0, -1.0], 0.0),
                            ([3, 0], [1.0, -1.0], 0.0),
                            ([1, 2, 3, 0], [1.0, 1.0, 1.0, -3.0], 0.0))
    assert left_out(model)[:11].tolist() == [
        False, False, False,
        True,           # A: coef(0) = 3 >= its 3 children
        True, True,     # B: x_4, x_5 <= x_1 through row (1, t0)
        False,          # not A: coef(1) = 1 < 2 children
        False,          # not B: row (2, t1) has 6 alone, single-child
        True, True,     # B: x_7, x_8 <= x_2 through row (2, t3)
        False]          # not A: coef(2) = 2 < 3 children
    # the capacity rows by vertex, then group
    heads = [(cols[-1], sorted(cols[:-1])) for cols, _, _ in model.ub[11:]]
    assert heads == [(0, [4, 5]), (0, [5, 6]), (0, [3]), (0, [7, 8]),
                     (1, [4, 5]), (1, [5]), (2, [6]), (2, [7, 8]), (3, [3]),
                     (4, [4]), (5, [5]), (5, [5]), (6, [6]), (7, [7]),
                     (8, [8])]
    assert left_out(model)[11:].tolist() == [
        True,           # single-child: t0 comes through 1 alone
        False,          # t1 comes through 1 and 2, and coef(0) = 3 > 1
        True, True,     # single-child
        True,           # C: coef(1) = 1, 2 children, 1 is not in t0
        True, True,     # single-child
        False,          # not C: coef(2) = 2 > 1
        True, True, True, True, True, True, True]   # single-child
    assert_reduced_lp_is_exact(model)


def test_gst_capacity_row_of_a_member_is_kept():
    # before preprocess_gst a member may be internal: with 1 in t, row
    # (1, t) reads x_2 + x_3 <= 0, which the sum row of 1 does not imply
    inst = GroupTreeInstance(4, [-1, 0, 1, 1], [0, 5, 1, 1],
                             [frozenset({1, 2, 3})], [1, 1, 0, 0])
    model = build_gst_lp(inst)
    # the capacity rows follow the 2 + 3 degree rows of 0 and 1
    heads = [cols[-1] for cols, _, _ in model.ub]
    row = 5 + heads[5:].index(1)
    assert model.ub[row] == ([1, 2, 3, 1], [1.0, 1.0, 1.0, -1.0], 0.0)
    assert not left_out(model)[row]
    assert solve_lp(model).objective == pytest.approx(5.0)


@hs.composite
def unary_gst(draw):
    """Small preprocessed group trees with unary chains and often a unary
    root, costs that are often 0, degree bounds 0-3 (often 0-1) or at
    least the child count, and 0-3 groups of any vertices."""
    n = draw(hs.integers(2, 12))
    parent = [-1, 0]
    for v in range(2, n):
        # v extends the chain of v - 1, or hangs below an earlier vertex;
        # a true draw keeps it off the root, so the root is often unary
        low = 1 if draw(hs.booleans()) else 0
        parent.append(draw(hs.one_of(hs.just(v - 1),
                                     hs.integers(low, v - 1))))
    vertex = hs.integers(0, n - 1)
    groups = draw(hs.lists(hs.frozensets(vertex, min_size=1, max_size=3),
                           max_size=3))
    # a bound of at least the child count lets rule A of build_gst_lp drop
    # the sum row, and one of 0-1 at two or more children lets rule C drop
    # capacity rows, so 0-1 is drawn more often
    nk = np.bincount(parent[1:], minlength=n).tolist()
    bound = [draw(hs.one_of(hs.integers(0, 3), hs.integers(0, 1),
                            hs.integers(c, c + 1))) for c in nk]
    return preprocess_gst(GroupTreeInstance(
        n, parent, draw(hs.lists(hs.sampled_from([0, 0, 1, 2, 5]),
                                 min_size=n, max_size=n)),
        groups, bound))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(unary_gst())
def test_gst_ties_and_implied_rows_keep_the_lp(inst):
    # the model HiGHS sees with the ties and without the implied rows has
    # the status and value of the full model
    model = build_gst_lp(inst)
    got = solve_lp(model)
    want = solve_lp(explicit(model))
    assert got.status == want.status
    if want.status == OPTIMAL:
        assert got.objective == pytest.approx(want.objective, rel=1e-9,
                                              abs=1e-12)


@pytest.mark.parametrize("change", ["extra", "missing"])
def test_a_wrong_tie_fails_the_reference(change):
    _, norm, _, h = small_dst(0)
    st = build_super_tree(norm, h)
    model = build_dst_lp(st)
    assert same_reduction(model)
    if change == "extra":
        # a child of a state node with other children: a sum row, no tie
        c = np.flatnonzero((model.tie == -1) & (st.parent >= 0))[0]
        model.tie[c] = st.parent[c]
    else:
        model.tie[np.flatnonzero(model.tie >= 0)[0]] = -1
    assert not same_reduction(model)


@pytest.mark.parametrize("make", [lambda: dst_case("small_dst", 0),
                                  lambda: gst_case(0), rhs_twins],
                         ids=["dst", "gst", "rhs"])
def test_repeats_are_exact_when_every_fingerprint_meets(monkeypatch, make):
    # with every weight 0 all rows share one fingerprint, and only the
    # exact comparison tells them apart
    model = make()
    monkeypatch.setattr(lpcore, "_weights", np.zeros)
    assert same_reduction(model)


def reference_route(parent, o, p):
    """The child of p on the path up from o, or p itself when o is p."""
    while o != p and parent[o] != p:
        o = parent[o]
    return o


def reference_dst_implied(st, ub) -> np.ndarray:
    """Which capacity rows of ``reference_dst_rows`` have one route: their
    members all come through one child of p, or p alone is in them."""
    return np.array([len({reference_route(st.parent, o, cols[-1])
                          for o in cols[:-1]}) == 1 for cols, _, _ in ub])


def reference_gst_kinds(inst) -> dict:
    """For each rule of ``build_gst_lp``, the mask of the ``<=`` rows of
    ``reference_gst_rows`` that it leaves out, found row by row: the
    single-child rule and C on capacity rows (C where the first does not
    hold), A on child-sum rows and B on per-child rows."""
    coef = [min(float(d), inst.n) for d in inst.degree_bound]
    per_ut = {}
    for t, g in enumerate(inst.groups):
        for o in sorted(g):
            u = o
            while u != -1:
                per_ut.setdefault((int(u), t), []).append(o)
                u = inst.parent[u]
    single = {(u, t): len({reference_route(inst.parent, o, u)
                           for o in members}) == 1
              for (u, t), members in per_ut.items()}
    kinds = {"single": [], "A": [], "B": [], "C": []}

    def add(**flags):
        for kind, mask in kinds.items():
            mask.append(flags.get(kind, False))

    for u in range(inst.n):
        kids = inst.children[u]
        for v in kids:
            add(B=not inst.children[v] and any(
                v in g and not single[(u, t)]
                for t, g in enumerate(inst.groups)))
        if kids:
            add(A=coef[u] >= len(kids))
    for u, t in sorted(per_ut):
        add(single=single[(u, t)],
            C=(not single[(u, t)] and coef[u] <= 1
               and len(inst.children[u]) >= 2 and u not in inst.groups[t]))
    return {kind: np.array(mask, dtype=bool) for kind, mask in kinds.items()}


def reference_gst_tie(inst) -> np.ndarray:
    """tie[c] = p where p is a vertex in no group, not the root, whose only
    child is c."""
    members = set().union(*inst.groups)
    tie = np.full(inst.n, -1)
    for p in range(inst.n):
        if (p != inst.root and len(inst.children[p]) == 1
                and p not in members):
            tie[inst.children[p][0]] = p
    return tie


def reference_dst_lp(st):
    """The full DST LP of ``reference_dst_rows`` as blocks, and the mask of
    its ``<=`` rows that HiGHS does not need."""
    obj, eq, ub = reference_dst_rows(st)
    return (LPModel(len(st), obj, eq_parts=(from_rows(eq),),
                    ub_parts=(from_rows(ub),)),
            reference_dst_implied(st, ub))


def reference_gst_lp(inst):
    """The full GST LP of ``reference_gst_rows`` as blocks with the ties of
    ``reference_gst_tie``, and the mask of its ``<=`` rows that HiGHS does
    not need."""
    obj, eq, ub = reference_gst_rows(inst)
    lo = np.zeros(inst.n)
    lo[inst.root] = 1
    return (LPModel(inst.n, obj, eq_parts=(from_rows(eq),),
                    ub_parts=(from_rows(ub),), lo=lo,
                    tie=reference_gst_tie(inst)),
            np.logical_or.reduce(list(reference_gst_kinds(inst).values())))


def assert_highs_gets_the_reference_dst_lp(st):
    assert same_arrays(_reduce(build_dst_lp(st)),
                       reference_reduce(*reference_dst_lp(st)))


def assert_highs_gets_the_reference_gst_lp(inst):
    assert same_arrays(_reduce(build_gst_lp(inst)),
                       reference_reduce(*reference_gst_lp(inst)))


def test_highs_gets_the_reduced_lp(monkeypatch):
    # solve_lp hands HiGHS the LP of _reduce, array for array
    model = gst_case(0)
    sent = []
    monkeypatch.setattr(lpcore, "_pass_model",
                        lambda solver, *lp: sent.append(lp))
    assert solve_lp(model).status == INFEASIBLE
    (obj, a, *bounds), (want_obj, want_a, *want) = sent[0], _reduce(model)[1:]
    assert a[3] == want_a[3]
    assert all(np.array_equal(got, w) for got, w in zip(
        [obj, *a[:3], *bounds], [want_obj, *want_a[:3], *want]))


# the instances of tests/test_golden.py
GOLDEN_DST = {"small.dst": (lambda: gen_dst(6, 8, 3, seed=0), 3),
              "frac.dst": (lambda: gen_dst(7, 14, 4, d_max=1, seed=3), 4)}
GOLDEN_GST = {"mid.gst": lambda: gen_gst(40, 3, 4, 3, seed=7),
              "overlap.gst": lambda: parse_gst(OVERLAP_GST)}


@pytest.mark.parametrize("name", sorted(GOLDEN_DST))
def test_highs_gets_the_reference_golden_dst_lp(name):
    make, h = GOLDEN_DST[name]
    assert_highs_gets_the_reference_dst_lp(build_super_tree(normalize(make()),
                                                            h))


@pytest.mark.parametrize("make", [*GOLDEN_GST.values(),
                                  *(lambda s=s: gen_gst(2000, 8, 8, 4, seed=s)
                                    for s in range(3))],
                         ids=[*GOLDEN_GST, *(f"2000-8-8-4-s{s}"
                                             for s in range(3))])
def test_highs_gets_the_reference_gst_lp(make):
    assert_highs_gets_the_reference_gst_lp(preprocess_gst(make()))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(dst_shapes(), hs.integers(1, 3), hs.integers(1, 4),
       hs.integers(0, 10 ** 6))
def test_highs_gets_the_reference_dst_lp_on_random_shapes(shape, d_max, h,
                                                          seed):
    try:
        st = build_super_tree(normalize(gen_dst(*shape, d_max, seed=seed)),
                              h, node_cap=20_000)
        build_dst_lp(st)
    except (CapExceededError, InfeasibleError):
        assume(False)
    assert_highs_gets_the_reference_dst_lp(st)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(hs.integers(2, 60), hs.integers(1, 4), hs.integers(1, 5),
       hs.integers(1, 4), hs.integers(0, 10 ** 6))
def test_highs_gets_the_reference_gst_lp_on_random_shapes(n, k, depth, d_max,
                                                          seed):
    try:
        inst = preprocess_gst(gen_gst(n, k, depth, d_max, seed=seed))
    except FormatError:
        assume(False)
    assert_highs_gets_the_reference_gst_lp(inst)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(unary_gst())
def test_highs_gets_the_reference_gst_lp_on_unary_trees(inst):
    assert_highs_gets_the_reference_gst_lp(inst)


def rowwise_excess(blk, x) -> np.ndarray:
    """``A x - rhs`` of each row of ``blk``, summed in Python."""
    return np.array([sum(v * x[j] for j, v in zip(cols, vals)) - rhs
                     for cols, vals, rhs in blk.rows()])


def rowwise_violation(model, x) -> float:
    """``max_violation`` as a row-by-row evaluation of the full model."""
    eq, ub = model.blocks()
    return float(np.max(np.concatenate(
        [np.abs(rowwise_excess(eq, x)), rowwise_excess(ub, x),
         model.lo - x, x - model.hi]), initial=0.0))


CHECK_CASES = ([(f"dst-{s}", lambda s=s: dst_case("small_dst", s))
                for s in range(3)]
               + [(f"gst-{s}", lambda s=s: gst_case(s)) for s in range(3)]
               + [("rules", lambda: build_gst_lp(rules_gst())),
                  ("overlap", lambda: build_gst_lp(
                      preprocess_gst(parse_gst(OVERLAP_GST))))])


@pytest.mark.parametrize("make", [case[1] for case in CHECK_CASES],
                         ids=[case[0] for case in CHECK_CASES])
def test_check_is_a_rowwise_evaluation(make):
    # every row of the full model, part by part, in the bounds and out
    model = make()
    rng = np.random.default_rng(7)
    for x in (rng.random(model.nvar), rng.uniform(-0.5, 1.5, model.nvar),
              solve_lp(model).x):
        assert model.max_violation(x) == pytest.approx(
            rowwise_violation(model, x), rel=0, abs=1e-12)
        for part in model.eq_parts + model.ub_parts:
            assert np.allclose(np.sort(part.excess(x)),
                               np.sort(rowwise_excess(part.write(True), x)),
                               rtol=0, atol=1e-12)


def break_one(model, x, eq_kind, ub_kind):
    """``x`` changed at one variable, inside its bounds, so that exactly
    one row of a kind breaks, the kind a mask over the ``=`` and one over
    the ``<=`` rows of the full model; returns it and that row, counted
    over the ``=`` rows, then the ``<=`` rows."""
    eq, ub = model.blocks()
    a = scipy.sparse.vstack([csr(eq, model.nvar), csr(ub, model.nvar)])
    kind = np.concatenate([eq_kind, ub_kind])
    blk = Block.stack(eq, ub)
    for r in np.flatnonzero(kind).tolist():
        for j in blk.col[blk.row == r].tolist():
            for value in (0.0, 1.0, 0.5):
                if not model.lo[j] <= value <= model.hi[j]:
                    continue
                y = x.copy()
                y[j] = value
                excess = a @ y - blk.rhs
                excess[:len(eq)] = np.abs(excess[:len(eq)])
                bad = excess > EPS_FEAS
                if bad[r] and np.count_nonzero(bad & kind) == 1:
                    return y, r
    raise AssertionError("no change of one variable breaks one row alone")


def tie_rows(model) -> np.ndarray:
    """The mask of the ``=`` rows ``x_c - x_p = 0`` with ``tie[c] = p``."""
    return np.array([len(cols) == 2 and vals == [1.0, -1.0] and rhs == 0
                     and model.tie[cols[0]] == cols[1]
                     for cols, vals, rhs in model.eq], dtype=bool)


def left_out_kind(problem, kind):
    """The model, and the masks of the ``=`` and ``<=`` rows of ``kind``
    that HiGHS does not get."""
    if problem == "dst":
        _, norm, _, h = small_dst(0)
        st = build_super_tree(norm, h)
        model = build_dst_lp(st)
        if kind == "tie":
            return model, tie_rows(model), np.zeros(len(model.ub), bool)
        implied = reference_dst_implied(st, model.ub)
        return model, np.zeros(len(model.eq), bool), implied
    inst = rules_gst() if kind == "C" else preprocess_gst(
        gen_gst(40, 3, 4, 3, seed=0))
    model = build_gst_lp(inst)
    return (model, np.zeros(len(model.eq), bool),
            reference_gst_kinds(inst)[kind])


def no_definitions(row, col, val, nrow, ncol):
    """``_definitions`` that uses no row."""
    return np.full(nrow, -1), np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize("problem,kind", [
    ("dst", "tie"), ("dst", "capacity"), ("gst", "single"), ("gst", "A"),
    ("gst", "B"), ("gst", "C")])
def test_check_catches_each_left_out_row(monkeypatch, problem, kind):
    # an x that breaks one row HiGHS never gets, and no other of its kind,
    # fails the check after the solve
    model, eq_kind, ub_kind = left_out_kind(problem, kind)
    assert left_out(model)[ub_kind].all()
    y, r = break_one(model, solve_lp(model).x, eq_kind, ub_kind)
    worst = model.max_violation(y)
    assert worst > EPS_FEAS
    assert worst == pytest.approx(rowwise_violation(model, y), rel=0,
                                  abs=1e-12)
    # HiGHS solves for every variable, without ties or definitions, and
    # returns y
    model.tie[:] = -1
    monkeypatch.setattr(lpcore, "_definitions", no_definitions)
    monkeypatch.setattr(lpcore, "_run_highs", lambda solver: (
        highs.HighsModelStatus.kOptimal, y))
    with pytest.raises(SolverError, match="solution violates constraints"):
        solve_lp(model)


def test_check_catches_a_left_out_definition_row(monkeypatch):
    # x_0 = x_1 + x_2 defines x_0, and HiGHS gets the row as 0 <= x_1 + x_2
    # <= 1; left out, HiGHS sets x_1 = x_2 = 1 for the cost -2, x_0 lifts
    # to 2 and is clipped to 1, and the full row is off by 1
    model = LPModel(3, np.array([0.0, -1.0, -1.0]), eq_parts=(from_rows(
        [([1, 2, 0], [1.0, 1.0, -1.0], 0.0)]),))
    assert _reduce(model)[2][3] == (1, 2)
    assert solve_lp(model).objective == -1.0
    substitute = lpcore._substitute

    def leave_out(row, col, val, lower, rhs, *rest):
        entries, new_lower, new_rhs, *out = substitute(row, col, val, lower,
                                                       rhs, *rest)
        # the rows whose bounds the substitution set are those it keeps
        kept = (new_lower != lower) | (new_rhs != rhs)
        assert kept.tolist() == [True]
        new_lower[kept], new_rhs[kept] = -np.inf, np.inf
        return (entries, new_lower, new_rhs, *out)

    monkeypatch.setattr(lpcore, "_substitute", leave_out)
    with pytest.raises(SolverError, match="violates constraints by 1.000e"):
        solve_lp(model)


def full_linprog(model):
    """``scipy.optimize.linprog`` on the full model, without ties."""
    eq, ub = model.blocks()
    return scipy.optimize.linprog(
        model.obj, A_ub=csr(ub, model.nvar), b_ub=ub.rhs,
        A_eq=csr(eq, model.nvar), b_eq=eq.rhs,
        bounds=np.column_stack([model.lo, model.hi]),
        method="highs", options=TOLERANCES)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(dst_shapes(), hs.integers(1, 3), hs.integers(1, 4),
       hs.integers(0, 10 ** 6))
@example((7, 14, 4), 1, 4, 3)
@example((7, 14, 4), 1, 4, 9)
@example((3, 3, 2), 1, 1, 0)
@example((3, 4, 2), 2, 1, 1)
def test_substituted_dst_lp_is_exact(shape, d_max, h, seed):
    # HiGHS solves with the definitions substituted: the optimum is
    # linprog's on the full model, the lifted x holds every full row, and
    # an infeasible LP stays infeasible; (7, 14, 4) at d_max=1 is
    # fractional at seeds 3 and 9, and the LPs of (3, 3, 2) and (3, 4, 2)
    # at h=1 are infeasible with one definition substituted
    try:
        st = build_super_tree(normalize(gen_dst(*shape, d_max, seed=seed)),
                              h, node_cap=50_000)
        model = build_dst_lp(st)
    except (CapExceededError, InfeasibleError):
        assume(False)
    want = full_linprog(model)
    sol = solve_lp(model)
    if want.status == 2:
        assert sol.status == INFEASIBLE
        return
    assert want.status == 0 and sol.status == OPTIMAL
    assert sol.objective == pytest.approx(want.fun, rel=0, abs=1e-9)
    eq, ub = model.blocks()
    assert np.all(np.abs(csr(eq, model.nvar) @ sol.x - eq.rhs) <= EPS_FEAS)
    assert np.all(csr(ub, model.nvar) @ sol.x - ub.rhs <= EPS_FEAS)
    assert np.all(model.lo <= sol.x) and np.all(sol.x <= model.hi)


def test_highs_gets_fewer_columns_on_the_benchmark_lp():
    # gen_dst(8, 14, 4, seed=0) at h=4 reached HiGHS as 3,027 x 4,316
    # before the definitions were substituted
    model = build_dst_lp(build_super_tree(normalize(gen_dst(8, 14, 4,
                                                            seed=0)), 4))
    assert _reduce(model)[2][3] == (2859, 3432)
