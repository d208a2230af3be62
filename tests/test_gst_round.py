import math

import numpy as np
import pytest

from dbnet.errors import InvariantError
from dbnet.gst_round import (GstParams, Rounder, alpha_sequence, build_scaled,
                             check_branching_mass, check_nonincreasing,
                             compute_hop_levels, default_m, global_params,
                             run_gst, scale_solution)
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
    rep = run_gst(inst, GstParams(seed=0))
    assert all(rep.coverage)
    assert rep.union_cost == 7
    assert all(c == 7 for c in rep.repetition_costs)


def test_run_gst_disjoint_star(gst_suite):
    k = 3
    n = 1 + 2 * k
    parent = [-1] + [0] * (2 * k)
    groups = [frozenset({1 + 2 * t, 2 + 2 * t}) for t in range(k)]
    inst = GroupTreeInstance(n, parent, [0] + [1] * (2 * k), groups,
                             [k] + [1] * (2 * k))
    runs, covered = 30, 0
    for seed in range(runs):
        rep = run_gst(preprocess_gst(inst), GstParams(seed=seed))
        covered += all(rep.coverage)
    assert covered / runs >= 1 - 1 / (10 * k)


def test_run_gst_invariants_on_suite(gst_suite):
    for inst in gst_suite[:6]:
        rep = run_gst(inst, GstParams(seed=1))
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
