import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import assume, given, settings
from hypothesis import strategies as hs
from scipy.optimize._highspy import _core as highs

from conftest import FRACTIONAL_SEEDS, small_dst
from dbnet import lpcore
from dbnet.cli import main
from dbnet.errors import CapExceededError, InfeasibleError, SolverError
from dbnet.generators import gen_dst, gen_gst
from dbnet.instances import (DirectedInstance, GroupTreeInstance, normalize,
                             preprocess_gst, serialize_gst)
from dbnet.lpcore import (EPS_CHECK, EPS_FEAS, INFEASIBLE, OPTIMAL, Block, LPModel,
                          _capacity_rows, _reduce, build_dst_lp, build_gst_lp,
                          check_modified_solution, dump_lp,
                          modify_gst_solution, round_up_pow2, solve_lp)
from dbnet.states import BASE, STATE, SUPER, VIRTUAL, build_super_tree


def test_forced_variable():
    m = LPModel(1, np.array([1.0]),
                ub_block=Block.from_rows([([0], [-1.0], -1.0)]))  # x >= 1
    sol = solve_lp(m)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0)


def tiny_model(eq, ub):
    return LPModel(2, np.array([1.0, 2.0]),
                   eq_block=Block.from_rows([([0, 1], [1.0, 1.0], 1.0)] * eq),
                   ub_block=Block.from_rows([([0], [1.0], 0.25)] * ub))


def csr(blk, nvar):
    """The duplicate-summed matrix of a block's rows."""
    return scipy.sparse.csr_matrix((blk.val, (blk.row, blk.col)),
                                   shape=(len(blk), nvar))


TOLERANCES = {"primal_feasibility_tolerance": 1e-10,
              "dual_feasibility_tolerance": 1e-10}


def full_linprog_x(model):
    """``scipy.optimize.linprog`` on the full model."""
    res = scipy.optimize.linprog(
        model.obj, A_ub=csr(model.ub_block, model.nvar),
        b_ub=model.ub_block.rhs, A_eq=csr(model.eq_block, model.nvar),
        b_eq=model.eq_block.rhs, bounds=np.column_stack([model.lo, model.hi]),
        method="highs", options=TOLERANCES)
    assert res.status == 0
    return np.clip(res.x, model.lo, model.hi)


def scipy_matrix(a):
    """scipy's CSC matrix of a ``(start, index, value, shape)`` from
    ``_reduce``."""
    start, index, value, shape = a
    return scipy.sparse.csc_matrix((value, index, start), shape=shape)


def highs_solver(model, *extra):
    """scipy's HiGHS binding, reached through ``scipy.optimize`` and run
    here with dbnet's options and then ``extra`` ones on the LP of
    ``_reduce``; returns it and the column of every variable."""
    column, obj, a, row_lo, row_hi, lo, hi = _reduce(model)
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
    return solver, column


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
    solver, column = highs_solver(model)
    x = np.clip(np.array(solver.getSolution().col_value)[column], model.lo,
                model.hi)
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
    assert solve_lp(LPModel(1, np.array([0.0]), ub_block=Block.from_rows(
        [([0], [-1.0], -2.0)]))).iterations == 0


def rows_of(mat, lower, upper) -> list[tuple]:
    """The rows of a scipy CSR matrix as (bounds, columns, values) tuples."""
    return [(lo, hi, tuple(mat.indices[a:b].tolist()),
             tuple(mat.data[a:b].tolist()))
            for lo, hi, a, b in zip(lower.tolist(), upper.tolist(),
                                    mat.indptr[:-1], mat.indptr[1:])]


def rhs_twins():
    """Three <= rows over the same entries: the first and the last are
    equal, the middle one differs only in its rhs."""
    return LPModel(2, np.array([-1.0, -2.0]), ub_block=Block.from_rows(
        [([0, 1], [1.0, 1.0], 1.0), ([1, 0], [1.0, 1.0], 0.5),
         ([0, 1], [1.0, 1.0], 1.0)]))


@pytest.mark.parametrize("make", [case[1] for case in SOLVE_CASES]
                         + [rhs_twins],
                         ids=[case[0] for case in SOLVE_CASES] + ["rhs"])
def test_highs_gets_each_row_once(monkeypatch, make):
    # the rows HiGHS gets are pairwise distinct, and every row left out
    # equals one of them
    model = make()
    sent = []
    run_highs = lpcore._run_highs

    def spy(solver, *lp):
        sent.append(lp)
        return run_highs(solver, *lp)

    monkeypatch.setattr(lpcore, "_run_highs", spy)
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
    # the column of a member of the first cover row (of x_0 in x_0 <= 1/4
    # without one), moved by 1/2 inside its bounds
    var = model.eq_block.col[0] if len(model.eq_block) else 0
    j = _reduce(model)[0][var]
    run_highs = lpcore._run_highs

    def perturbed(*lp):
        status, x = run_highs(*lp)
        x = x.copy()
        x[j] += 0.5 if x[j] < 0.5 else -0.5
        return status, x

    monkeypatch.setattr(lpcore, "_run_highs", perturbed)
    with pytest.raises(SolverError, match="solution violates constraints"):
        solve_lp(model)


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
        "m = lpcore.LPModel(1, np.array([1.0]), ub_block=lpcore.Block.\n"
        "                   from_rows([([0], [-1.0], -1.0)]))\n"
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
                ub_block=Block.from_rows([([0], [-1.0], -2.0)]))
    assert solve_lp(m).status == INFEASIBLE


def test_equality_row_that_cancels_to_empty_is_infeasible():
    # x - x = 1: the row keeps no entry and its bounds cannot hold, so
    # _reduce refuses it before HiGHS runs
    m = LPModel(1, np.array([0.0]),
                eq_block=Block.from_rows([([0, 0], [1.0, -1.0], 1.0)]))
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
    assert round_up_pow2(0.3) == 0.5
    assert round_up_pow2(0.5) == 0.5
    assert round_up_pow2(1.0) == 1.0
    assert round_up_pow2(0.26) == 0.5
    with pytest.raises(ValueError):
        round_up_pow2(0.0)


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


def test_dump_lp_layout():
    m = LPModel(2, np.array([1.0, 2.0]),
                eq_block=Block.from_rows([([0, 1], [1.0, 1.0], 1.0)]))
    text = dump_lp(m)
    for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in text


def reference_dst_rows(st):
    """The row-list DST LP as first written: (obj, eq rows, ub rows)."""
    n = len(st)
    obj = np.zeros(n)
    for o in st.base_nodes():
        obj[o] = st.cost[o]
    eq, ub = [], []
    O_t = st.terminal_index()
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
            for v in st.involved_vertices(p):
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
    for blk, rows in ((model.eq_block, eq), (model.ub_block, ub)):
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
    ref = LPModel(model.nvar, obj, eq_block=Block.from_rows(eq),
                  ub_block=Block.from_rows(ub), lo=lo)
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
    assert csr(model.ub_block, model.nvar)[0, 2] == 0.0
    # vacuous, so solve_lp leaves it out; so are the rows of its ancestors,
    # which it reaches through one child each
    assert model.implied.tolist() == [True, True, True]


def test_capacity_rows_flag_one_child_and_own_rows():
    # root 0 with children 1 and 2; node 3 below 1; group {2, 3}
    parent = np.array([-1, 0, 0, 1])
    blk, implied = _capacity_rows(parent, np.array([2, 3]), np.array([0, 0]),
                                  descending=False)
    heads = [cols[-1] for cols, _, _ in blk.rows()]
    assert dict(zip(heads, implied.tolist())) == {
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
    a_eq, a_ub = (csr(blk, model.nvar)
                  for blk in (model.eq_block, model.ub_block))
    assert np.max(np.abs(a_eq @ x - model.eq_block.rhs)) <= EPS_FEAS
    assert np.max(a_ub @ x - model.ub_block.rhs) <= EPS_FEAS
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
    assert np.sum(np.isneginf(row_lo)) <= np.sum(~model.implied)
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
    assert _reduce(model)[2][3][0] < len(model.eq_block) + len(
        model.ub_block)
    assert_reduced_lp_is_exact(model)


def reference_reduce(model):
    """``_reduce`` with its columns found from the rows, as first written:
    the two variables of each row ``x_a - x_b = 0`` share one column, and
    the columns are scipy's connected components of those rows.  Of the
    rows equal after that, a dict over scipy's rows keeps the first."""
    eq = model.eq_block
    count = np.bincount(eq.row, minlength=len(eq))
    two = np.flatnonzero(count == 2)
    at = (np.cumsum(count) - count)[two]
    a, b = eq.col[at], eq.col[at + 1]
    va, vb = eq.val[at], eq.val[at + 1]
    tie = (a != b) & (va != 0) & (va == -vb) & (eq.rhs[two] == 0)
    graph = scipy.sparse.coo_matrix((np.ones(int(tie.sum())),
                                     (a[tie], b[tie])),
                                    shape=(model.nvar, model.nvar))
    column = scipy.sparse.csgraph.connected_components(graph,
                                                       directed=False)[1]
    ncol = int(column.max()) + 1 if model.nvar else 0
    mat, lower, rhs, full, empty = reference_rows(model, column, ncol)
    if not ((lower[empty] <= 0) & (rhs[empty] >= 0)).all():
        return None
    # the first of each set of equal rows
    first = {}
    for i, row in zip(np.flatnonzero(full).tolist(),
                      rows_of(mat[full], lower[full], rhs[full])):
        first.setdefault(row, i)
    kept = np.zeros(len(full), dtype=bool)
    kept[list(first.values())] = True
    lo = np.full(ncol, -np.inf)
    hi = np.full(ncol, np.inf)
    np.maximum.at(lo, column, model.lo)
    np.minimum.at(hi, column, model.hi)
    return (column, np.bincount(column, weights=model.obj, minlength=ncol),
            mat[kept].tocsc(), lower[kept], rhs[kept], lo, hi)


def reference_rows(model, column, ncol):
    """scipy's CSR matrix of the ``system`` rows over the columns, its
    duplicates summed and zeros dropped; the row bounds; and the masks of
    the rows not implied that keep an entry and of those left empty."""
    blk, lower = model.system
    mat = scipy.sparse.csr_matrix((blk.val, (blk.row, column[blk.col])),
                                  shape=(len(blk), ncol))
    mat.eliminate_zeros()
    keep = np.ones(len(blk), dtype=bool)
    keep[:len(model.implied)] = ~model.implied
    full = keep & (np.diff(mat.indptr) > 0)
    return mat, lower, blk.rhs, full, keep & ~full


def system_rows(model) -> list[tuple]:
    """Every row ``_reduce`` may pass on: the rows not implied that keep an
    entry, over its columns."""
    column, obj = _reduce(model)[:2]
    mat, lower, rhs, full, _ = reference_rows(model, column, len(obj))
    return rows_of(mat[full], lower[full], rhs[full])


def same_reduction(model) -> bool:
    """Whether ``_reduce`` and ``reference_reduce`` agree array for array,
    the index arrays in scipy's dtype too."""
    got, want = _reduce(model), reference_reduce(model)
    if got is None or want is None:
        return got is want
    column, obj, a, *rest = want
    want = [column, obj, a.indptr, a.indices, a.data, a.shape, *rest]
    column, obj, a, *rest = got
    got = [column, obj, *a, *rest]
    return (a[0].dtype == want[2].dtype and a[1].dtype == want[3].dtype
            and all(np.array_equal(g, w) for g, w in zip(got, want)))


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


def test_gst_models_declare_no_tie(gst_suite):
    for inst in gst_suite:
        model = build_gst_lp(inst)
        assert (model.tie == -1).all()
        assert same_reduction(model)


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
