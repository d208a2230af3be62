import numpy as np
import pytest

from dbnet.errors import InfeasibleError
from dbnet.instances import DirectedInstance, GroupTreeInstance, normalize
from dbnet.lpcore import (INFEASIBLE, OPTIMAL, LPModel, build_dst_lp,
                          build_gst_lp, check_modified_solution, dump_lp,
                          modify_gst_solution, round_up_pow2, solve_lp)
from dbnet.states import build_super_tree


def test_forced_variable():
    m = LPModel(1, np.array([1.0]))
    m.ub.append(([0], [-1.0], -1.0))  # x >= 1
    sol = solve_lp(m)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0)


@pytest.mark.parametrize("eq,ub", [(True, True), (True, False),
                                   (False, True)])
def test_solve_builds_each_matrix_once(monkeypatch, eq, ub):
    built = []
    matrix = LPModel._matrix
    monkeypatch.setattr(LPModel, "_matrix",
                        lambda self, rows: built.append(rows)
                        or matrix(self, rows))
    m = LPModel(2, np.array([1.0, 2.0]))
    if eq:
        m.eq.append(([0, 1], [1.0, 1.0], 1.0))
    if ub:
        m.ub.append(([0], [1.0], 0.25))
    assert solve_lp(m).status == OPTIMAL
    assert len(built) == eq + ub


def test_empty_polytope():
    m = LPModel(1, np.array([0.0]))
    m.ub.append(([0], [-1.0], -2.0))  # x >= 2 with x <= 1
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


def test_dump_lp_layout():
    m = LPModel(2, np.array([1.0, 2.0]))
    m.eq.append(([0, 1], [1.0, 1.0], 1.0))
    text = dump_lp(m)
    for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in text
