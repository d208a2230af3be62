import math

import numpy as np
import pytest

from conftest import small_dst
from dbnet.dst_round import (DstParams, Sampler, concentration_stats,
                             default_q, extract_tree, round_super_tree,
                             run_dst)
from dbnet.errors import InvariantError
from dbnet.instances import DirectedInstance, normalize
from dbnet.lpcore import build_dst_lp, solve_lp
from dbnet.rounding import per_rep
from dbnet.states import build_super_tree


def single_edge_setup():
    inst = DirectedInstance(2, [(0, 1, 7)], 0, {1}, {0: 1, 1: 0})
    norm = normalize(inst)
    st = build_super_tree(norm, 3, 10_000)
    sol = solve_lp(build_dst_lp(st))
    return inst, norm, st, sol


def test_single_edge_deterministic():
    _, norm, st, sol = single_edge_setup()
    rep, node = Sampler(st, sol.x).sample((0,), 0, 5)
    for selected in per_rep(rep, node, 0, 5):
        out = round_super_tree(st, selected)
        assert out.state_tree.depth() <= st.h
        assert out.cost == 7
        assert sorted(out.multi_tree.label) == [0, 1]


def test_sampler_rejects_bad_mass():
    _, _, st, sol = single_edge_setup()
    x = sol.x.copy()
    x[st.base_nodes()[0]] = 0.5
    with pytest.raises(InvariantError):
        Sampler(st, x)


def test_half_probability_child():
    # two parallel 2-edge routes to the terminal with equal cost: LP mass
    # splits and each repetition picks one child with probability 1/2
    inst = DirectedInstance(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)],
                            0, {3}, {0: 1, 1: 1, 2: 1, 3: 0})
    norm = normalize(inst)
    st = build_super_tree(norm, 4, 100_000)
    model = build_dst_lp(st)
    # perturb the cost of one route to get its two optimal vertices, then
    # average them into a fractional point where each route has mass 1/2
    route_a = [o for o in st.base_nodes() if st.payload[o][1][:2] == (0, 1)]
    lo = model.obj.copy()
    lo[route_a] += 1e-6
    hi = model.obj.copy()
    hi[route_a] -= 1e-6
    model.obj = lo
    x_a = solve_lp(model).x
    model.obj = hi
    x_b = solve_lp(model).x
    x = (x_a + x_b) / 2
    mass = float(x[route_a].sum())
    assert mass == pytest.approx(0.5, abs=1e-3)
    sampler = Sampler(st, x)
    trials = 10_000
    rep, node = sampler.sample((1,), 0, trials)
    seen = len(np.unique(rep[np.isin(node, route_a)]))
    sigma = math.sqrt(0.25 / trials)
    assert abs(seen / trials - 0.5) <= 3 * sigma


def test_base_marginals_match_lp():
    _, norm, res, h = small_dst(1)
    st = build_super_tree(norm, h, 2_000_000)
    sol = solve_lp(build_dst_lp(st))
    sampler = Sampler(st, sol.x)
    trials = 10_000
    _, node = sampler.sample((2,), 0, trials)
    counts = np.bincount(node, minlength=len(st))
    for o in st.base_nodes():
        p = float(sol.x[o])
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(counts[o] / trials - p) <= 3 * sigma + 1e-9


def test_concentration_trivial_cases():
    _, norm, st, sol = single_edge_setup()
    sampler = Sampler(st, sol.x)
    rep, node = sampler.sample((0,), 0, 50)
    s = math.log(1 + 1 / (2 * st.height()))
    stats = concentration_stats(sampler, rep, node, 50, s)
    # the terminal appears exactly once per sample
    assert stats[1]["mgf"] == pytest.approx(math.exp(s))
    assert stats[1]["max_copies"] == 1


def test_default_q():
    assert default_q(3, 2) == math.ceil(4 * math.log(20))
    assert default_q(3, 0) == 0


def test_extract_tree_prunes_branches():
    inst = DirectedInstance(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1)], 0, {3},
                            {0: 2, 1: 1, 2: 0, 3: 0})
    edges, covered = extract_tree(inst, {(0, 1), (0, 2), (1, 3)})
    assert edges == {(0, 1), (1, 3)}
    assert covered == {3}


def test_run_dst_report_fields():
    _, norm, res, h = small_dst(3)
    rep = run_dst(norm, DstParams(h=h, seed=5))
    doc = rep.to_dict()
    for key in ("schema_version", "lp_cost", "repetition_costs", "union_cost",
                "tree_cost", "coverage", "degree_violations", "mgf_stats"):
        assert key in doc
    assert len(rep.repetition_costs) == rep.Q
    assert rep.tree_cost <= rep.union_cost
    assert rep.lp_cost <= res.cost + 1e-6


def test_run_dst_deterministic():
    _, norm, _, h = small_dst(6)
    a = run_dst(norm, DstParams(h=h, seed=9)).to_dict()
    b = run_dst(norm, DstParams(h=h, seed=9)).to_dict()
    assert a == b
