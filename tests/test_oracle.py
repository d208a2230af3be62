import itertools

import pytest

from dbnet.errors import CapExceededError
from dbnet.instances import DirectedInstance, GroupTreeInstance
from dbnet.oracle import INFEASIBLE, OPTIMAL, exact_dst, exact_gst


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


def test_dst_limits_refused():
    inst = DirectedInstance(2, [(0, 1, 1)], 0, {1}, {0: 1, 1: 0})
    with pytest.raises(CapExceededError):
        exact_dst(inst, max_n=1)


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


def test_gst_k_limit_refused():
    inst = GroupTreeInstance(2, [-1, 0], [0, 1], [frozenset({1})] * 2,
                             [2, 1])
    with pytest.raises(CapExceededError):
        exact_gst(inst, max_k=1)


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
