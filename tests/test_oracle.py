import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from conftest import set_cover_triangle
from dbnet import oracle
from dbnet.errors import CapExceededError, FormatError
from dbnet.generators import gen_dst, gen_gst
from dbnet.instances import (DirectedInstance, GroupTreeInstance, normalize,
                             preprocess_gst)
from dbnet.lpcore import build_dst_lp, build_gst_lp, solve_lp
from dbnet.oracle import INFEASIBLE, OPTIMAL, exact_dst, exact_gst
from dbnet.states import build_super_tree, oracle_height


def test_dst_single_edge():
    inst = DirectedInstance(2, [(0, 1, 7)], 0, {1}, {0: 1, 1: 0})
    res = exact_dst(inst)
    assert res.status == OPTIMAL and res.cost == 7
    assert res.edges == [(0, 1)]


def test_dst_detour_beats_direct():
    inst = DirectedInstance(3, [(0, 2, 10), (0, 1, 3), (1, 2, 3)], 0, {2},
                            {0: 2, 1: 2, 2: 0})
    res = exact_dst(inst)
    assert res.cost == 6 and res.edges == [(0, 1), (1, 2)]


def test_dst_degree_bound_infeasible():
    inst = DirectedInstance(3, [(0, 1, 1), (0, 2, 1)], 0, {1, 2},
                            {0: 1, 1: 0, 2: 0})
    assert exact_dst(inst).status == INFEASIBLE


def test_dst_limits_refused(monkeypatch):
    inst = DirectedInstance(2, [(0, 1, 1)], 0, {1}, {0: 1, 1: 0})
    monkeypatch.setattr(oracle, "DST_MAX_N", 1)
    with pytest.raises(CapExceededError):
        exact_dst(inst)


def test_dst_degree_bound_forces_costlier_tree():
    # d_r = 1: the root must chain through 1 instead of branching
    inst = DirectedInstance(3, [(0, 1, 1), (0, 2, 1), (1, 2, 5)], 0, {1, 2},
                            {0: 1, 1: 1, 2: 0})
    res = exact_dst(inst)
    assert res.cost == 6


def test_gst_two_leaf_groups():
    inst = GroupTreeInstance(5, [-1, 0, 0, 0, 0], [1, 3, 5, 2, 9],
                             [frozenset({1, 2}), frozenset({3, 4})],
                             [2, 1, 1, 1, 1])
    res = exact_gst(inst)
    assert res.status == OPTIMAL
    assert res.cost == 1 + 3 + 2
    assert sorted(res.vertices) == [0, 1, 3]


def test_gst_degree_forces_shared_subtree():
    # d_r = 1: both groups must be reached through vertex 1
    inst = GroupTreeInstance(6, [-1, 0, 0, 1, 1, 2],
                             [0, 1, 1, 2, 3, 1],
                             [frozenset({3, 5}), frozenset({4})],
                             [1, 2, 1, 1, 1, 1])
    res = exact_gst(inst)
    assert res.status == OPTIMAL
    assert res.cost == 0 + 1 + 2 + 3


def test_gst_empty_group_infeasible():
    inst = GroupTreeInstance(2, [-1, 0], [0, 1], [frozenset()], [1, 1])
    assert exact_gst(inst).status == INFEASIBLE


def test_gst_k_limit_refused(monkeypatch):
    inst = GroupTreeInstance(2, [-1, 0], [0, 1], [frozenset({1})] * 2,
                             [2, 1])
    monkeypatch.setattr(oracle, "GST_MAX_K", 1)
    with pytest.raises(CapExceededError):
        exact_gst(inst)


def _exhaustive_gst(inst):
    """Oracle of the oracle: try every vertex subset."""
    best = None
    for bits in itertools.product([0, 1], repeat=inst.n):
        chosen = {v for v in range(inst.n) if bits[v]}
        if inst.root not in chosen:
            continue
        if any(inst.parent[v] != -1 and inst.parent[v] not in chosen
               for v in chosen):
            continue
        if any(sum(1 for w in inst.children[v] if w in chosen) >
               inst.degree_bound[v] for v in chosen):
            continue
        if any(not (g & chosen) for g in inst.groups):
            continue
        cost = sum(inst.cost[v] for v in chosen)
        if best is None or cost < best:
            best = cost
    return best


def test_gst_matches_exhaustive():
    import numpy as np
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(4, 11))
        parent = [-1] + [int(rng.integers(v)) for v in range(1, n)]
        children = [[] for _ in range(n)]
        for v in range(1, n):
            children[parent[v]].append(v)
        leaves = [v for v in range(n) if not children[v] and v != 0]
        if len(leaves) < 2:
            continue
        groups = [frozenset({leaves[0]}), frozenset(leaves[1:])]
        cost = [int(rng.integers(0, 9)) for _ in range(n)]
        bounds = [int(rng.integers(1, 3)) for _ in range(n)]
        inst = GroupTreeInstance(n, parent, cost, groups, bounds)
        res = exact_gst(inst)
        want = _exhaustive_gst(inst)
        if want is None:
            assert res.status == INFEASIBLE
        else:
            assert res.status == OPTIMAL and res.cost == want


def _exhaustive_dst(inst):
    cost = inst.cost
    edges = sorted(cost)
    best = None
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            indeg = {}
            outdeg = {}
            for (u, v) in combo:
                indeg[v] = indeg.get(v, 0) + 1
                outdeg[u] = outdeg.get(u, 0) + 1
            if any(c > 1 for c in indeg.values()):
                continue
            if inst.root in indeg:
                continue
            if any(outdeg.get(u, 0) > inst.degree_bound[u] for u in outdeg):
                continue
            reach = {inst.root}
            for _ in range(len(combo)):
                for (u, v) in combo:
                    if u in reach:
                        reach.add(v)
            verts = {inst.root} | {w for e in combo for w in e}
            if verts != reach:
                continue
            if not set(inst.terminals) <= reach:
                continue
            c = sum(cost[e] for e in combo)
            if best is None or c < best:
                best = c
    return best


def test_dst_matches_exhaustive_and_feasibility_agrees():
    from dbnet.generators import gen_dst
    import numpy as np
    rng = np.random.default_rng(7)
    for seed in range(15):
        n = int(rng.integers(3, 6))
        inst = gen_dst(n, n - 1 + int(rng.integers(0, 3)),
                       1 + int(rng.integers(0, n - 1)), d_max=2, seed=seed)
        res = exact_dst(inst)
        want = _exhaustive_dst(inst)
        assert (res.status == OPTIMAL) == (want is not None)
        if want is not None:
            assert res.cost == want
    # infeasible case agreement
    star = DirectedInstance(3, [(0, 1, 1), (0, 2, 1)], 0, {1, 2},
                            {0: 1, 1: 0, 2: 0})
    assert exact_dst(star).status == INFEASIBLE
    assert _exhaustive_dst(star) is None


def gst_as_dst(inst: GroupTreeInstance) -> DirectedInstance:
    """The exact DB-DST form of a DB-GST-T instance whose members are leaves
    and whose root costs nothing: tree edges (parent(v), v) of cost c_v, and
    per group one sink terminal fed by 0-cost edges from its members.  Sinks
    have bound 1, the other bounds stay."""
    n, k = inst.n, len(inst.groups)
    edges = [(inst.parent[v], v, inst.cost[v]) for v in range(n)
             if v != inst.root]
    edges += [(o, n + t, 0) for t, g in enumerate(inst.groups)
              for o in sorted(g)]
    bounds = dict(enumerate(inst.degree_bound))
    bounds.update((n + t, 1) for t in range(k))
    return DirectedInstance(n + k, edges, inst.root, set(range(n, n + k)),
                            bounds)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(hs.integers(3, 9), hs.integers(1, 3), hs.integers(2, 4),
       hs.integers(1, 3), hs.integers(0, 10 ** 6))
def test_gst_optimum_equals_dst_of_its_reduction(n, k, depth, d_max, seed):
    try:
        inst = preprocess_gst(gen_gst(n, k, depth, d_max, seed=seed))
    except FormatError:
        assume(False)
    # exact_dst stops at 12 vertices
    assume(inst.n + k <= 12)
    opt = exact_gst(inst)
    assert opt.status == OPTIMAL
    assert exact_dst(gst_as_dst(inst)).cost == opt.cost
    lp = solve_lp(build_gst_lp(inst)).objective
    assert lp <= opt.cost * (1 + 1e-9) + 1e-9


@settings(derandomize=True, deadline=None, max_examples=40)
@given(hs.integers(4, 6), hs.integers(5, 8), hs.integers(1, 3),
       hs.integers(0, 1), hs.integers(0, 10 ** 6))
def test_dst_lp_at_most_oracle_under_its_certificate(n, m, k, extra, seed):
    # at h >= oracle_height the oracle's tree embeds into the super-tree,
    # so the super-tree LP is a relaxation of it; the node cap keeps the
    # dense shapes at h=5 out
    inst = gen_dst(n, m, k, seed=seed)
    opt = exact_dst(inst)
    assert opt.status == OPTIMAL
    norm = normalize(inst)
    h = oracle_height(norm, opt.edges) + extra
    try:
        st = build_super_tree(norm, h, node_cap=50_000)
    except CapExceededError:
        assume(False)
    lp = solve_lp(build_dst_lp(st))
    assert lp.objective <= opt.cost + 1e-7


@settings(derandomize=True, deadline=None, max_examples=60)
@given(hs.integers(3, 9), hs.integers(1, 3), hs.integers(2, 4),
       hs.integers(1, 3), hs.integers(0, 1), hs.integers(0, 10 ** 6))
def test_dst_lp_of_the_gst_reduction_at_most_gst_optimum(n, k, depth, d_max,
                                                        extra, seed):
    # at h >= the oracle height of the reduction's optimum, the super-tree
    # LP of the DB-DST form relaxes the DB-GST-T optimum
    try:
        inst = preprocess_gst(gen_gst(n, k, depth, d_max, seed=seed))
    except FormatError:
        assume(False)
    assume(inst.n + k <= 12)
    opt = exact_gst(inst)
    dst = gst_as_dst(inst)
    res = exact_dst(dst)
    assert opt.status == res.status == OPTIMAL and res.cost == opt.cost
    norm = normalize(dst)
    h = oracle_height(norm, res.edges) + extra
    try:
        st = build_super_tree(norm, h, node_cap=50_000)
    except CapExceededError:
        assume(False)
    lp = solve_lp(build_dst_lp(st))
    assert lp.objective <= opt.cost + 1e-7


def test_set_cover_triangle_gap():
    inst = set_cover_triangle()
    sol = solve_lp(build_gst_lp(preprocess_gst(inst)))
    # every hub and leaf at 1/2: 3 * 10 / 2 + 6 / 2
    assert sol.objective == pytest.approx(18)
    assert sol.x[1:] == pytest.approx([0.5] * 9)
    assert exact_gst(inst).cost == 23
    # DST form with the hubs joined straight to one terminal per group:
    # the super-tree LP closes the gap at every height that fits a tree
    dst = DirectedInstance(
        7, [(0, 1, 10), (0, 2, 10), (0, 3, 10), (1, 4, 1), (1, 5, 1),
            (2, 5, 1), (2, 6, 1), (3, 4, 1), (3, 6, 1)],
        0, {4, 5, 6}, {0: 3, 1: 2, 2: 2, 3: 2, 4: 0, 5: 0, 6: 0})
    assert exact_dst(dst).cost == 23
    for h in (3, 4, 5):
        st = build_super_tree(normalize(dst), h)
        assert solve_lp(build_dst_lp(st)).objective == pytest.approx(23), h
    # the exact reduction (a sink per group below the leaves) needs h=4
    st = build_super_tree(normalize(gst_as_dst(inst)), 4)
    assert solve_lp(build_dst_lp(st)).objective == pytest.approx(23)
