import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from dbnet.errors import FormatError, InvariantError
from dbnet.generators import gen_gst
from dbnet.gst_round import (Rounder, alpha_sequence, build_scaled,
                             check_branching_mass, check_nonincreasing,
                             compute_hop_levels, default_m, global_params,
                             group_mass, run_gst, scale_solution)
from dbnet.instances import GroupTreeInstance, preprocess_gst
from dbnet.rounding import per_rep


def chain(costs):
    n = len(costs)
    return GroupTreeInstance(n, [-1] + list(range(n - 1)), list(costs),
                             [frozenset({n - 1})], [1] * n)


def test_hop_levels_examples():
    inst = chain([0, 1, 1])
    assert list(compute_hop_levels(inst, np.array([1.0, 1.0, 0.5]))) == \
        [0, 0, 1]
    assert list(compute_hop_levels(inst, np.array([1.0, 0.5, 0.25]))) == \
        [0, 1, 2]
    assert list(compute_hop_levels(inst, np.ones(3))) == [0, 0, 0]


def test_hop_levels_reject_increase():
    with pytest.raises(InvariantError):
        compute_hop_levels(chain([0, 1, 1]), np.array([0.5, 1.0, 1.0]))


def dfs_hop_levels(inst, xt):
    """compute_hop_levels as first written: a depth-first walk over the
    support from the root."""
    if xt[inst.root] <= 0:
        raise InvariantError("root has zero value; nothing to round")
    ell = np.full(inst.n, -1, dtype=int)
    ell[inst.root] = 0
    stack = [inst.root]
    while stack:
        u = stack.pop()
        for v in inst.children[u]:
            if xt[v] <= 0:
                continue
            if xt[v] > xt[u]:
                raise InvariantError(f"x~ increases on edge ({u}, {v})")
            ell[v] = ell[u] + (1 if xt[v] < xt[u] else 0)
            stack.append(v)
    return ell


@settings(derandomize=True, deadline=None, max_examples=200)
@given(hs.integers(1, 6), hs.integers(1, 4), hs.integers(1, 3),
       hs.integers(0, 10 ** 6), hs.booleans(), hs.data())
def test_tree_arrays_and_hop_levels(depth, d_max, k, seed, rise, data):
    # a gen_gst tree with its ids shuffled, so that ids do not follow levels
    n = data.draw(hs.integers(2, min(sum(d_max ** i for i in range(depth + 1)),
                                     40)))
    try:
        tree = gen_gst(n, k, depth, d_max, seed=seed)
    except FormatError:  # fewer than k leaves
        return
    new = data.draw(hs.permutations(range(n)))
    parent = [0] * n
    for v in range(n):
        parent[new[v]] = -1 if v == 0 else new[tree.parent[v]]
    inst = GroupTreeInstance(n, parent, [0] * n, [], [1] * n)

    levels = [lv.tolist() for lv in inst.levels]
    assert sorted(sum(levels, [])) == list(range(n))
    assert levels[0] == [inst.root] == [new[0]]
    for above, level in zip(levels, levels[1:]):
        assert level == sorted(level)
        assert set(inst.parent[level].tolist()) <= set(above)
    for u in range(n):
        assert inst.children[u] == [v for v in range(n) if parent[v] == u]

    # x~ halves or keeps its value below each vertex, and is 0 at random;
    # parents precede children in the ids of gen_gst
    drop = data.draw(hs.lists(hs.integers(0, 2), min_size=n, max_size=n))
    zero = data.draw(hs.lists(hs.integers(0, 3), min_size=n, max_size=n))
    xt = np.zeros(n)
    xt[new[0]] = 1.0
    for v in range(1, n):
        above = xt[new[tree.parent[v]]]
        if zero[v]:
            xt[new[v]] = np.ldexp(above if above > 0 else 1.0, -drop[v])
    if rise:
        support = np.flatnonzero(dfs_hop_levels(inst, xt) >= 0)
        support = support[support != inst.root]
        if not len(support):
            return
        v = int(support[data.draw(hs.integers(0, len(support) - 1))])
        xt[v] = 2 * xt[inst.parent[v]]
        for levels_of in (dfs_hop_levels, compute_hop_levels):
            with pytest.raises(InvariantError) as err:
                levels_of(inst, xt)
        # the named edge is a rising edge whose upper end is in the support
        u, v = map(int, re.search(r"\((\d+), (\d+)\)",
                                  str(err.value)).groups())
        assert inst.parent[v] == u and xt[v] > xt[u] > 0
        while u != inst.root:
            u = inst.parent[u]
            assert xt[u] > 0
    else:
        assert np.array_equal(compute_hop_levels(inst, xt),
                              dfs_hop_levels(inst, xt))


def test_scale_examples():
    inst = chain([0] * 5)
    xt = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    ell = compute_hop_levels(inst, xt)
    assert list(ell) == [0, 1, 2, 3, 4]
    xp = scale_solution(xt, ell, 2)
    assert list(xp) == [1.0, 1.0, 1.0, 0.5, 0.25]
    # gamma = 0 disables scaling
    assert list(scale_solution(xt, ell, 0)) == list(xt)
    # equal parent/child values stay equal
    xt2 = np.array([1.0, 1.0, 0.5, 0.5, 0.5])
    xp2 = scale_solution(xt2, compute_hop_levels(inst, xt2), 2)
    assert xp2[0] == xp2[1] and xp2[2] == xp2[3] == xp2[4]
    assert check_nonincreasing(inst, xp) == []


def loop_check_nonincreasing(inst, xp):
    """check_nonincreasing as first written: a loop over every vertex."""
    bad = []
    for u in range(inst.n):
        if xp[u] <= 0:
            continue
        for v in inst.children[u]:
            if xp[v] > xp[u] + 1e-12:
                bad.append(f"x' increases on edge ({u}, {v}): "
                           f"{xp[v]} > {xp[u]}")
    return bad


def loop_check_branching_mass(inst, xp):
    """check_branching_mass as first written: a loop over every vertex."""
    bad = []
    for u in range(inst.n):
        if xp[u] <= 0 or not inst.children[u]:
            continue
        mass = sum(xp[v] for v in inst.children[u]) / xp[u]
        if mass > 4 * inst.degree_bound[u] + 1e-9:
            bad.append(f"branching mass {mass} > 4 d at u={u}")
    return bad


def test_gst_checks_match_their_loops():
    # ids do not follow levels: 7 hangs below 2, 3 below 6
    inst = GroupTreeInstance(8, [-1, 0, 0, 6, 1, 1, 1, 2], [0] * 8, [],
                             [1, 1, 2, 1, 1, 1, 1, 1])
    rising = [
        # rises on (0, 1), (1, 5), (6, 3) and (2, 7), none within the
        # slack on (1, 6)
        [0.5, 0.75, 0.25, 0.9, 0.0, 0.9, 0.75 + 1e-13, 1.0],
        # rises below the zero 1 do not count, the one on (2, 7) does
        [1 / 3, 0.0, 1 / 3, 0.01, 0.7, 0.7, 0.7, 1 / 3 + 1e-3]]
    heavy = [
        # child mass 0.9 / 0.2 = 4.499999999999999 > 4 d at 1
        [0.3, 0.2, 0.1, 0.1, 0.3, 0.3, 0.3, 0.1],
        # 9 > 4 d at 2 and 10 > 4 d at 6; 0.4 / 0.1 at 0 is within the slack
        [0.1, 0.3, 0.1, 1.0, 0.5, 0.5, 0.1, 0.9]]
    for xp in map(np.array, rising + heavy):
        assert check_nonincreasing(inst, xp) == \
            loop_check_nonincreasing(inst, xp)
        assert check_branching_mass(inst, xp) == \
            loop_check_branching_mass(inst, xp)
    assert [len(check_nonincreasing(inst, np.array(xp)))
            for xp in rising] == [4, 1]
    assert [len(check_branching_mass(inst, np.array(xp)))
            for xp in heavy] == [1, 2]
    rng = np.random.default_rng(0)
    for seed in range(50):
        tree = gen_gst(30, 2, seed=seed)
        xp = rng.random(tree.n) * (rng.random(tree.n) < 0.8)
        assert check_nonincreasing(tree, xp) == \
            loop_check_nonincreasing(tree, xp)
        assert check_branching_mass(tree, xp) == \
            loop_check_branching_mass(tree, xp)


def test_global_params():
    L, gamma = global_params(16)
    assert L == 5 and gamma == 0
    L, gamma = global_params(2 ** 15)
    assert L == 16 and gamma == 2


def test_equal_xp_chain_always_selected():
    inst = chain([0, 1, 1, 1])
    xp = np.ones(4)
    rep, node = Rounder(inst, xp).sample((0,), 0, 20)
    for chosen in per_rep(rep, node, 0, 20):
        assert set(chosen.tolist()) == {0, 1, 2, 3}


def test_single_child_half_probability():
    inst = chain([0, 1])
    xp = np.array([1.0, 0.5])
    trials = 10_000
    _, node = Rounder(inst, xp).sample((1,), 0, trials)
    seen = np.count_nonzero(node == 1)
    sigma = math.sqrt(0.25 / trials)
    assert abs(seen / trials - 0.5) <= 3 * sigma


def test_marginals_telescoping():
    rng = np.random.default_rng(8)
    n = 200
    parent = [-1] + [int(rng.integers(v)) for v in range(1, n)]
    inst = GroupTreeInstance(n, parent, [0] * n, [], [3] * n)
    # random power-of-two monotone x'
    xp = np.ones(n)
    for v in range(1, n):
        xp[v] = xp[parent[v]] * (0.5 if rng.random() < 0.4 else 1.0)
    rounder = Rounder(inst, xp)
    trials = 10_000
    _, node = rounder.sample((2,), 0, trials)
    counts = np.bincount(node, minlength=n)
    freq = counts / trials
    sigma = np.sqrt(np.maximum(xp * (1 - xp), 1e-12) / trials)
    assert np.all(np.abs(freq - xp) <= 3 * sigma + 1e-9)


def test_ratio_above_one_rejected():
    inst = chain([0, 1])
    with pytest.raises(InvariantError):
        Rounder(inst, np.array([0.5, 1.0]))


def test_alpha_worked_example():
    seq = alpha_sequence(16, 2)
    assert seq[2] == pytest.approx(1 / 32)
    assert seq[1] == pytest.approx(2 / 32 - 4 / 1024)
    assert seq[0] == pytest.approx(0.10345, abs=1e-4)


def test_alpha_gamma_zero():
    assert alpha_sequence(8, 0) == [1 / 16]


def test_default_m():
    a0 = 0.1
    m = default_m(a0, 4)
    assert (1 - a0 / 2) ** m <= 1 / 40 < (1 - a0 / 2) ** (m - 1)
    assert default_m(a0, 0) == 0


def test_run_gst_forced_path():
    inst = preprocess_gst(chain([1, 2, 4]))
    rep = run_gst(inst, seed=0)
    assert all(rep.coverage)
    assert rep.union_cost == 7
    assert all(c == 7 for c in rep.repetition_costs)


def test_group_mass_sums_each_group_in_member_order(gst_suite):
    # the membership table's sums equal, bit for bit, Python's sum over each
    # group's members in increasing order, also for a group that overlaps
    # others and holds the root, as before preprocessing
    rng = np.random.default_rng(5)
    raw = gen_gst(30, 4, seed=2)
    raw = GroupTreeInstance(raw.n, raw.parent, raw.cost,
                            raw.groups + [raw.groups[0] | raw.groups[1] | {0}],
                            raw.degree_bound)
    for inst in gst_suite + [raw]:
        x = rng.random(inst.n)
        assert group_mass(inst, x) == [float(sum(x[o] for o in sorted(g)))
                                       for g in inst.groups]


def test_run_gst_disjoint_star(gst_suite):
    k = 3
    n = 1 + 2 * k
    parent = [-1] + [0] * (2 * k)
    groups = [frozenset({1 + 2 * t, 2 + 2 * t}) for t in range(k)]
    inst = GroupTreeInstance(n, parent, [0] + [1] * (2 * k), groups,
                             [k] + [1] * (2 * k))
    runs, covered = 30, 0
    for seed in range(runs):
        rep = run_gst(preprocess_gst(inst), seed=seed)
        covered += all(rep.coverage)
    assert covered / runs >= 1 - 1 / (10 * k)


def test_run_gst_invariants_on_suite(gst_suite):
    for inst in gst_suite[:6]:
        rep = run_gst(inst, seed=1)
        assert rep.union_cost <= sum(rep.repetition_costs)
        assert len(rep.repetition_costs) == rep.M
        doc = rep.to_dict()
        assert doc["schema_version"] == 2 and doc["alpha0"] == rep.alpha[0]


def test_branching_mass_scan(gst_suite):
    from dbnet.lpcore import build_gst_lp, modify_gst_solution, solve_lp
    for inst in gst_suite[:6]:
        sol = solve_lp(build_gst_lp(inst))
        xt = modify_gst_solution(sol.x, inst.n)
        scaled = build_scaled(inst, xt)
        assert check_branching_mass(inst, scaled.xp) == []
