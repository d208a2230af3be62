"""Acceptance gate: twelve statistical and exact criteria, one per test.

Each test prints a single ``criterion NN ... PASS`` line on success; a
failing assertion leaves the criterion marked FAIL by pytest itself.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (FRACTIONAL_SEEDS, broom, multi_tree, random_binary_tree,
                      set_cover_triangle, small_dst, state_tree_cost)
from dbnet.cli import verify_dst_report
from dbnet.dst_round import (Sampler, concentration_stats,
                             run_dst)
from dbnet.generators import gen_dst, gen_gst
from dbnet.gst_round import (Rounder, alpha_sequence, build_scaled,
                             check_branching_mass, check_nonincreasing,
                             global_params, group_mass, run_gst)
from dbnet.instances import lift_tree, normalize, preprocess_gst
from dbnet.lpcore import (build_dst_lp, build_gst_lp, check_modified_solution,
                          modify_gst_solution, solve_lp)
from dbnet.oracle import OPTIMAL, exact_gst
from dbnet.states import (BASE, build_super_tree, gen_state_tree,
                          stitch_multi_tree, validate_state_tree)
from dbnet.treekit import find_balanced_separator, height_budget, part_nodes

TRIALS = 10_000


def _ok(num, text):
    print(f"criterion {num:02d} {text} ... PASS")


def _hits(rep, node, members):
    """Number of repetitions that sampled at least one of ``members``."""
    return len(np.unique(rep[np.isin(node, list(members))]))


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_balanced_separator():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(3, 257))
        tree = multi_tree(random_binary_tree(rng, n))
        v = find_balanced_separator(tree, 0)
        size = len(part_nodes(tree, v, frozenset()))
        assert n / 3 < size <= 2 * n / 3 + 1
    _ok(1, "balanced separator bound on 1000 random binary trees")


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_reduction_round_trip():
    for seed in range(100):
        inst, norm, res, h = small_dst(seed)
        mt = lift_tree(norm, set(map(tuple, res.edges)))
        stt = gen_state_tree(norm, mt)
        budget = height_budget(norm.inst.n)
        assert validate_state_tree(norm, stt, budget) == []
        assert state_tree_cost(norm, stt) == res.cost
        stitched = stitch_multi_tree(norm, stt, budget)
        assert sorted(stitched.label) == sorted(mt.label)
        assert stt.depth() == h
    _ok(2, "100 oracle trees decompose, validate and stitch back exactly")


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_lp_dominance():
    for seed in range(100):
        inst, norm, res, h = small_dst(seed, n=6 + seed % 5,
                                       m=5 + seed % 5 + seed % 4)
        st = build_super_tree(norm, h, 5_000_000)
        sol = solve_lp(build_dst_lp(st))
        assert sol.objective <= res.cost * (1 + 1e-6) + 1e-9
    for seed in range(100):
        inst = preprocess_gst(gen_gst(20 + seed % 41, 2 + seed % 7,
                                      depth=4, d_max=3, seed=1000 + seed))
        res = exact_gst(inst)
        assert res.status == OPTIMAL
        sol = solve_lp(build_gst_lp(inst))
        assert sol.objective <= res.cost * (1 + 1e-6) + 1e-9
    _ok(3, "LP optimum never exceeds the exact optimum on 100+100 instances")


# -------------------------------------------------- shared Monte-Carlo corpus

@pytest.fixture(scope="module")
def dst_corpus():
    """Per instance: LP vector, super-tree, its sampler and the (repetition,
    base node) pairs of 10^4 independent roundings."""
    corpus = []

    def add(norm, h, key):
        st = build_super_tree(norm, h, 5_000_000)
        sol = solve_lp(build_dst_lp(st))
        sampler = Sampler(st, sol.x)
        rep, node = sampler.sample(key, 0, TRIALS)
        base = np.asarray(st.kind)[node] == BASE
        corpus.append((st, sol, h, sampler, rep[base], node[base]))
        return sol

    for seed in range(20):
        _, norm, _, h = small_dst(seed)
        add(norm, h, (7000 + seed,))
    for seed in FRACTIONAL_SEEDS:
        norm = normalize(gen_dst(7, 14, 4, d_max=1, seed=seed))
        x = add(norm, 4, (7100 + seed,)).x
        assert np.any((x > 1e-6) & (x < 1 - 1e-6)), seed
    return corpus


def test_criterion_04_marginals(dst_corpus):
    for st, sol, h, sampler, rep, node in dst_corpus:
        counts = np.bincount(node, minlength=len(st))
        for o in np.flatnonzero(st.kind == BASE).tolist():
            c = int(counts[o])
            p = float(sol.x[o])
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / TRIALS)
            assert abs(c / TRIALS - p) <= 3 * sigma + 1e-9
    _ok(4, "per-node selection frequency matches the LP value within 3 sigma")


def test_criterion_05_terminal_coverage(dst_corpus):
    for st, sol, h, sampler, rep, node in dst_corpus:
        member, group = st.terminal_members()
        for t in range(len(st.norm.inst.terminals)):
            rate = _hits(rep, node, member[group == t]) / TRIALS
            sigma = math.sqrt(max(rate * (1 - rate), 1e-12) / TRIALS)
            assert rate >= 1 / (h + 1) - 3 * sigma
    _ok(5, "per-terminal hit rate at least 1/(h+1) minus 3 sigma")


def test_criterion_06_expected_cost(dst_corpus):
    for st, sol, h, sampler, rep, node in dst_corpus:
        node_cost = np.asarray(st.cost, dtype=float)
        costs = np.bincount(rep, weights=node_cost[node], minlength=TRIALS)
        sigma = float(costs.std(ddof=1)) / math.sqrt(TRIALS)
        assert costs.mean() <= sol.objective + 3 * sigma + 1e-9
    _ok(6, "mean repetition cost stays below the LP cost plus 3 sigma")


def test_criterion_07_concentration(dst_corpus):
    for st, sol, h, sampler, rep, node in dst_corpus:
        hp = st.height()
        s = math.log(1 + 1 / (2 * hp))
        # per-trial copy counts: one column per involved-vertex position
        copies = np.zeros((TRIALS, st.norm.inst.n))
        for pos in (0, 1):
            vert = np.full(len(st), -1)
            for o in np.flatnonzero(st.kind == BASE).tolist():
                vs = st.payloads[st.payload_id[o]][1:]
                if pos < len(vs):
                    vert[o] = vs[pos]
            on = vert[node] >= 0
            np.add.at(copies, (rep[on], vert[node][on]), 1)
        stats = concentration_stats(sampler, [(0, TRIALS, rep, node)],
                                    TRIALS, s)
        for v in range(st.norm.inst.n):
            arr = np.exp(s * copies[:, v])
            sigma = float(arr.std(ddof=1)) / math.sqrt(TRIALS)
            assert arr.mean() <= 1 + 2 / hp + 3 * sigma + 1e-9
            assert stats[v]["mgf"] == pytest.approx(float(arr.mean()))
    _ok(7, "copy-count MGF bounded by 1 + 2/h' plus 3 sigma for all vertices")


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_end_to_end_dst():
    full = 0
    for seed in range(50):
        inst, norm, res, h = small_dst(seed, n=6 + seed % 5,
                                       m=5 + seed % 5 + seed % 4)
        rep = run_dst(norm, h=h, seed=seed, label=f"run{seed}")
        issues = verify_dst_report(inst, rep.to_dict())
        assert issues == []
        assert all(r >= 0 and math.isfinite(r)
                   for r in rep.degree_violations.values())
        full += rep.coverage == 1.0
    assert full >= 40
    _ok(8, f"{full}/50 end-to-end runs cover all terminals and verify cleanly")


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_gst_scaling_invariants(gst_suite):
    for inst in gst_suite + [preprocess_gst(set_cover_triangle())]:
        sol = solve_lp(build_gst_lp(inst))
        xt = modify_gst_solution(sol.x, inst.n)
        assert check_modified_solution(inst, sol.x, xt) == []
        xp = build_scaled(inst, xt)
        assert check_nonincreasing(inst, xp) == []
        assert check_branching_mass(inst, xp) == []
    _ok(9, "modification, monotonicity and branching-mass checks all pass")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_gst_coverage():
    # large synthetic instance where the scaling is active (gamma >= 1)
    inst, xt = broom(15)
    L, gamma = global_params(inst.n)
    assert gamma >= 1
    xp = build_scaled(inst, xt)
    alpha0 = alpha_sequence(L, gamma)[0]
    z = group_mass(inst, xt)[0]
    rep, node = Rounder(inst, xp).sample((10,), 0, TRIALS)
    rate = _hits(rep, node, inst.groups[0]) / TRIALS
    sigma = math.sqrt(max(rate * (1 - rate), 1e-12) / TRIALS)
    assert rate >= alpha0 * z / 2 - 3 * sigma

    # small instances where gamma == 0: plain 1/(4L) guarantee, and every
    # vertex kept with probability x', the product of the ratios
    # x'_child / x'_parent on its path; the set-cover triangle's LP is
    # fractional, every hub and leaf at 1/2
    small = [preprocess_gst(gen_gst(30 + 4 * seed, 3, depth=4, d_max=3,
                                    seed=500 + seed)) for seed in range(5)]
    for i, inst in enumerate(small + [preprocess_gst(set_cover_triangle())]):
        L, gamma = global_params(inst.n)
        assert gamma == 0
        sol = solve_lp(build_gst_lp(inst))
        xt2 = modify_gst_solution(sol.x, inst.n)
        xp = build_scaled(inst, xt2)
        rep, node = Rounder(inst, xp).sample((11 + i,), 0, TRIALS)
        freq = np.bincount(node, minlength=inst.n) / TRIALS
        sigma = np.sqrt(np.maximum(xp * (1 - xp), 1e-12) / TRIALS)
        assert np.all(np.abs(freq - xp) <= 3 * sigma + 1e-9)
        zs = group_mass(inst, xt2)
        for g, grp in enumerate(inst.groups):
            hit = _hits(rep, node, grp) / TRIALS
            sigma = math.sqrt(max(hit * (1 - hit), 1e-12) / TRIALS)
            assert hit >= zs[g] / (4 * L) - 3 * sigma
    _ok(10, "per-group hit rates meet the alpha0*z/2 and z/(4L) floors, "
            "and selection frequencies match x'")


# --------------------------------------------------------------- criterion 11

def test_criterion_11_end_to_end_gst():
    full = 0
    for seed in range(50):
        inst = preprocess_gst(gen_gst(20 + seed % 30, 2 + seed % 4,
                                      depth=4, d_max=3, seed=2000 + seed))
        rep = run_gst(inst, seed=seed, label=f"run{seed}")
        full += all(rep.coverage)
        assert all(math.isfinite(r) and r >= 0
                   for r in rep.degree_violations.values())
        if rep.lp_cost > 0:
            assert rep.union_cost / rep.lp_cost <= 4 * 2 ** rep.gamma * rep.M
    assert full >= 45
    # the set-cover triangle, whose LP (18) is below its optimum (23)
    inst = preprocess_gst(set_cover_triangle())
    rep = run_gst(inst, seed=11, label="triangle")
    assert all(rep.coverage)
    assert rep.union_cost / rep.lp_cost <= 4 * 2 ** rep.gamma * rep.M
    assert all(math.isfinite(r) and r >= 0
               for r in rep.degree_violations.values())
    _ok(11, f"{full}/50 end-to-end runs and the set-cover triangle cover "
            f"every group within the bound")


# --------------------------------------------------------------- criterion 12

def test_criterion_12_alpha_recurrence():
    for L in range(1, 65):
        gmax = max(int(math.log2(L)) - 2, 0)
        for gamma in range(gmax + 1):
            a = Fraction(1, 2 * L)
            seq = [a]
            for _ in range(gamma):
                a = 2 * a - 4 * a * a
                seq.append(a)
            seq.reverse()
            floats = alpha_sequence(L, gamma)
            assert floats == [float(v) for v in seq]
            for ell, val in enumerate(seq):
                assert val <= Fraction(2 ** (gamma - ell), 2 * L)
            lower = (2 ** gamma / (2 * L)) * math.exp(-(2 ** gamma) / L)
            assert float(seq[0]) >= lower - 1e-15
    _ok(12, "alpha recurrence bounds hold exactly for every L up to 64")
