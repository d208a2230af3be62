"""The batched rounding engine against a per-sample reference walk.

The reference rounds one repetition at a time by a depth-first walk over the
super-tree or the group tree, reading one keyed draw ``U(key, i, slot)`` per
decision.  The engine must select exactly the same nodes in every
repetition, whatever its block size.
"""
import numpy as np
import pytest

from conftest import broom, small_dst
from dbnet import rounding
from dbnet.dst_round import X_TINY, DstParams, Sampler, run_dst
from dbnet.generators import gen_gst
from dbnet.gst_round import GstParams, Rounder, build_scaled, run_gst
from dbnet.instances import preprocess_gst
from dbnet.lpcore import (build_dst_lp, build_gst_lp, modify_gst_solution,
                          solve_lp)
from dbnet.states import STATE, SUPER, VIRTUAL, build_super_tree

REPS = 200


def dst_reference(st, x, key, i) -> set[int]:
    """One repetition: one child by inverse CDF below every chosen state or
    super node (slot = that node), both children below a virtual node."""
    selected, stack = set(), [st.root]
    while stack:
        p = stack.pop()
        selected.add(p)
        if st.kind[p] in (STATE, SUPER):
            kids = [c for c in st.children[p] if x[c] > X_TINY]
            total = float(sum(x[c] for c in kids))
            cum = np.cumsum([x[c] / total for c in kids])
            u = rounding.draws(key, [i], [p])[0]
            idx = int(np.searchsorted(cum, u, side="right"))
            stack.append(kids[min(idx, len(kids) - 1)])
        elif st.kind[p] == VIRTUAL:
            stack.extend(st.children[p])
    return selected


def gst_reference(inst, xp, key, i) -> set[int]:
    """One repetition: each child v of a chosen vertex u joins when
    U(key, i, v) < x'_v / x'_u."""
    chosen, stack = {inst.root}, [inst.root]
    while stack:
        u = stack.pop()
        for v in inst.children[u]:
            if xp[v] > 0 and \
                    rounding.draws(key, [i], [v])[0] < min(xp[v] / xp[u], 1.0):
                chosen.add(v)
                stack.append(v)
    return chosen


def engine_sets(table, key, n) -> list[set[int]]:
    """Per repetition 0..n-1, the nodes the engine keeps, block by block."""
    out = []
    for start, stop in rounding.blocks(n):
        rep, node = table.sample(key, start, stop)
        out += [set(s.tolist()) for s in rounding.per_rep(rep, node, start,
                                                          stop)]
    return out


def _dst_case(seed, h):
    """A fractional point of the DST LP: the mean of the vertices that three
    random objectives pick (the cost-optimal vertex is integral here)."""
    _, norm, _, _ = small_dst(seed)
    st = build_super_tree(norm, h, 5_000_000)
    model = build_dst_lp(st)
    rng = np.random.default_rng(seed)
    xs = []
    for _ in range(3):
        model.obj = rng.random(model.nvar)
        xs.append(solve_lp(model).x)
    return st, np.mean(xs, axis=0)


def _gst_case():
    inst = preprocess_gst(gen_gst(60, 4, depth=5, d_max=3, seed=3))
    sol = solve_lp(build_gst_lp(inst))
    return inst, build_scaled(inst, modify_gst_solution(sol.x, inst.n)).xp


@pytest.mark.parametrize("seed,h", [(0, 3), (1, 3), (4, 4), (6, 4)])
def test_dst_engine_matches_reference(seed, h):
    st, x = _dst_case(seed, h)
    key = (100 + seed,)
    got = engine_sets(Sampler(st, x), key, REPS)
    assert len({frozenset(sel) for sel in got}) > 1
    assert got == [dst_reference(st, x, key, i) for i in range(REPS)]


def test_dst_engine_marginals_on_fractional_point():
    # every node is selected with probability x, its LP value
    st, x = _dst_case(4, 4)
    trials = 10_000
    _, node = Sampler(st, x).sample((77,), 0, trials)
    freq = np.bincount(node, minlength=len(st)) / trials
    on = x > X_TINY
    assert np.any(on & (x < 1 - 1e-6))
    sigma = np.sqrt(np.maximum(x * (1 - x), 1e-12) / trials)
    assert np.all(np.abs(freq[on] - x[on]) <= 4 * sigma[on] + 1e-9)
    assert not np.any(freq[~on])


def test_gst_engine_matches_reference():
    inst, xp = _gst_case()
    got = engine_sets(Rounder(inst, xp), (5,), REPS)
    assert any(len(s) > 1 for s in got)
    assert got == [gst_reference(inst, xp, (5,), i) for i in range(REPS)]


def test_broom_engine_matches_reference():
    inst, xt = broom(10)
    xp = build_scaled(inst, xt).xp
    key = (10, 1 << 32)
    got = engine_sets(Rounder(inst, xp), key, REPS)
    assert got == [gst_reference(inst, xp, key, i) for i in range(REPS)]


@pytest.mark.parametrize("block", [1, 7])
def test_block_size_does_not_change_draws(monkeypatch, block):
    st, x = _dst_case(1, 3)
    inst, xp = _gst_case()
    sampler, rounder = Sampler(st, x), Rounder(inst, xp)
    _, norm, _, h = small_dst(2)
    pre = preprocess_gst(gen_gst(30, 3, depth=4, d_max=3, seed=8))

    def outputs():
        return (engine_sets(sampler, (3,), 50),
                engine_sets(rounder, (3,), 50),
                run_dst(norm, DstParams(h=h, Q=20, seed=4)).to_dict(),
                run_gst(pre, GstParams(M=30, seed=4)).to_dict())

    default = outputs()
    monkeypatch.setattr(rounding, "BLOCK", block)
    assert outputs() == default


def test_draws_are_keyed_by_stream_rep_and_slot():
    rep = np.array([0, 0, 1, 1, 5])
    slot = np.array([0, 3, 0, 3, 7])
    u = rounding.draws((9,), rep, slot)
    assert np.all((u >= 0) & (u < 1)) and len(set(u.tolist())) == 5
    # one draw at a time, in any order, gives the same values
    for j in reversed(range(5)):
        assert rounding.draws((9,), rep[j:j + 1], slot[j:j + 1])[0] == u[j]
    assert not np.any(rounding.draws((9, 1 << 32), rep, slot) == u)
    assert not np.any(rounding.draws((10,), rep, slot) == u)
