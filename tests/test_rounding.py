"""The batched rounding engine against a per-sample reference walk.

The reference rounds one repetition at a time by a depth-first walk over the
super-tree or the group tree, reading one keyed draw ``U(key, i, slot)`` per
decision.  The engine must select exactly the same nodes in every
repetition, whatever its block size, on the pipelines' tables and on random
tables that mix sure, drawn and never-kept entries.  It must draw only for
the entries whose outcome is uncertain, and ``run_dst`` must stitch each
distinct selection once.  Its kept component heads, expanded, give the
same arrays as its sample, and sums and counts per component equal those
per node.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import broom, small_dst
from dbnet import dst_round, rounding
from dbnet.dst_round import X_TINY, Sampler, run_dst
from dbnet.generators import gen_dst, gen_gst
from dbnet.gst_round import Rounder, build_scaled, run_gst
from dbnet.instances import normalize, preprocess_gst
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
    return inst, build_scaled(inst, modify_gst_solution(sol.x, inst.n))


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
    xp = build_scaled(inst, xt)
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
                run_dst(norm, h=h, Q=20, seed=4).to_dict(),
                run_gst(pre, M=30, seed=4).to_dict())

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


# intervals of every kind the engine tells apart: sure (kept with the
# parent), drawn, and never kept (at or above 1, at or below 0, or empty)
SURE = [(0.0, math.inf), (0.0, 1.0), (-1.0, 2.0), (-0.0, 1.0)]
DRAWN = [(0.0, 0.5), (0.25, 1.0), (0.5, math.inf), (0.0, 1 - 2.0 ** -53),
         (2.0 ** -53, 1.0)]
NEVER = [(1.0, math.inf), (1.0, 2.0), (-1.0, 0.0), (0.3, 0.3), (0.0, 0.0),
         (0.7, 0.2)]


@hs.composite
def child_tables(draw):
    """(n, parent, child, slot, lo, hi) of a random tree table below node
    0: each non-root node has one entry, on its own slot or on its
    parent's, with a boundary interval or a random one."""
    n = draw(hs.integers(1, 25))
    parent, child, slot, lo, hi = [], [], [], [], []
    for v in range(1, n):
        u = draw(hs.integers(0, v - 1))
        kind = draw(hs.sampled_from(["sure", "drawn", "never", "random"]))
        if kind == "random":
            a = draw(hs.floats(-0.5, 1.5))
            b = draw(hs.floats(-0.5, 1.5) | hs.just(math.inf))
        else:
            a, b = draw(hs.sampled_from(
                {"sure": SURE, "drawn": DRAWN, "never": NEVER}[kind]))
        parent.append(u)
        child.append(v)
        slot.append(draw(hs.sampled_from([u, v])))
        lo.append(a)
        hi.append(b)
    return n, parent, child, slot, lo, hi


def table_reference(table, key, i) -> list[int]:
    """One repetition: walk down from node 0 and keep each entry of a kept
    parent when ``lo <= U(key, i, slot) < hi``; the kept nodes, sorted."""
    n, parent, child, slot, lo, hi = table
    kept, stack = [0], [0]
    while stack:
        p = stack.pop()
        for j in range(len(child)):
            if parent[j] == p:
                u = rounding.draws(key, [i], [slot[j]])[0]
                if lo[j] <= u < hi[j]:
                    kept.append(child[j])
                    stack.append(child[j])
    return sorted(kept)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(child_tables())
def test_child_table_matches_reference_walk(table):
    n, parent, child, slot, lo, hi = table
    engine = rounding.ChildTable(n, 0, parent, child, slot, lo, hi)
    key, reps = (31,), 40
    want = [table_reference(table, key, i) for i in range(reps)]
    for block in (1, 7, 1024):
        got = []
        for start in range(0, reps, block):
            stop = min(start + block, reps)
            rep, node = engine.sample(key, start, stop)
            got += [sorted(s.tolist())
                    for s in rounding.per_rep(rep, node, start, stop)]
        assert got == want


def reference_sample(engine, key, start, stop):
    """The engine's sample as one loop: the members of each round's heads,
    then the draws below them."""
    state = rounding._rep_states(key, np.arange(start, stop))
    rep = np.arange(stop - start)
    head = np.full(stop - start, engine.root, dtype=np.int64)
    reps, nodes = [rep[:0]], [head[:0]]
    while len(head):
        pos, entry = rounding.expand(engine.member_ptr, head)
        reps.append(rep[pos])
        nodes.append(engine.member[entry])
        if not len(engine.child):
            break
        pos, entry = rounding.expand(engine.drawn_ptr, head)
        rep = rep[pos]
        u = rounding._unit(state[rep], engine.salt[entry])
        keep = (engine.lo[entry] <= u) & (u < engine.hi[entry])
        rep, head = rep[keep], engine.child[entry[keep]]
    return np.concatenate(reps) + start, np.concatenate(nodes)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(child_tables(), hs.data())
def test_heads_expand_to_sample_and_count_alike(table, data):
    n, parent, child, slot, lo, hi = table
    engine = rounding.ChildTable(n, 0, parent, child, slot, lo, hi)
    # each node counts towards up to three of four columns, with repeats,
    # and has an integer weight
    ncol = 4
    cols = data.draw(hs.lists(hs.lists(hs.integers(0, ncol - 1), max_size=3),
                              min_size=n, max_size=n))
    pairs = np.array([(v, c) for v in range(n) for c in cols[v]],
                     dtype=np.int64).reshape(-1, 2)
    ptr, col = rounding.csr(n, pairs[:, 0], pairs[:, 1])
    weight = np.array(data.draw(hs.lists(hs.integers(0, 20), min_size=n,
                                         max_size=n)), dtype=float)
    head_ptr, head_col = engine.head_rows(ptr, col)
    head_weight = engine.head_sums(weight)
    for start, stop in ((0, 40), (7, 8), (5, 5)):
        rep, node = engine.sample((31,), start, stop)
        want = reference_sample(engine, (31,), start, stop)
        assert rep.tolist() == want[0].tolist()
        assert node.tolist() == want[1].tolist()
        hrep, head = engine.heads((31,), start, stop)
        pos, entry = rounding.expand(engine.member_ptr, head)
        assert np.array_equal(hrep[pos], rep)
        assert np.array_equal(engine.member[entry], node)
        nrep = stop - start
        assert np.array_equal(
            rounding.pair_counts(head_ptr, head_col, ncol, hrep - start, head,
                                 nrep),
            rounding.pair_counts(ptr, col, ncol, rep - start, node, nrep))
        assert np.array_equal(
            np.bincount(hrep - start, weights=head_weight[head],
                        minlength=nrep),
            np.bincount(rep - start, weights=weight[node], minlength=nrep))


def _count_draws(monkeypatch) -> list[int]:
    """Replace ``rounding._unit`` by a wrapper that counts the draws it
    makes; the count is the one list entry."""
    count = [0]
    unit = rounding._unit

    def counted(state, salt):
        count[0] += len(salt)
        return unit(state, salt)

    monkeypatch.setattr(rounding, "_unit", counted)
    return count


def test_all_sure_table_makes_no_draws(monkeypatch):
    # a virtual-style pair, a single child and a ratio-1 child, under a never
    # entry whose subtree is sure as well
    table = rounding.ChildTable(7, 0, [0, 0, 1, 2, 0, 5], [1, 2, 3, 4, 5, 6],
                                [0, 0, 1, 4, 5, 6],
                                [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                                [math.inf, math.inf, math.inf, 1.0, 2.0, 1.0])
    count = _count_draws(monkeypatch)
    rep, node = table.sample((4,), 0, 100)
    assert count[0] == 0
    assert [sorted(s.tolist()) for s in rounding.per_rep(rep, node, 0, 100)] \
        == [[0, 1, 2, 3, 4]] * 100


def test_integral_lp_samplers_make_no_draws(monkeypatch):
    _, norm, _, h = small_dst(0)
    st = build_super_tree(norm, h, 5_000_000)
    sampler = Sampler(st, solve_lp(build_dst_lp(st)).x)
    inst = preprocess_gst(gen_gst(40, 3, depth=4, d_max=3, seed=0))
    sol = solve_lp(build_gst_lp(inst))
    rounder = Rounder(inst, build_scaled(
        inst, modify_gst_solution(sol.x, inst.n)))
    count = _count_draws(monkeypatch)
    for start, stop in rounding.blocks(3000):
        sampler.sample((1,), start, stop)
        rounder.sample((1,), start, stop)
    assert count[0] == 0


def test_draws_only_for_drawn_entries(monkeypatch):
    # below the sure component {0, 1, 2}: d = 4 drawn entries (1 -> 3,
    # 2 -> 4, 0 -> 5, 0 -> 6 on one slot), a never entry 0 -> 7 and a drawn
    # entry 7 -> 8 below it, which is never reached
    parent = [0, 0, 1, 2, 0, 0, 0, 7]
    child = [1, 2, 3, 4, 5, 6, 7, 8]
    slot = [0, 0, 3, 4, 0, 0, 7, 8]
    lo = [0.0, -1.0, 0.0, 0.5, 0.0, 0.4, 1.0, 0.0]
    hi = [math.inf, 1.0, 0.5, math.inf, 0.4, math.inf, math.inf, 0.5]
    table = rounding.ChildTable(9, 0, parent, child, slot, lo, hi)
    count = _count_draws(monkeypatch)
    trials = 500
    rep, node = table.sample((6,), 0, trials)
    assert count[0] == 4 * trials
    # the never entry and the drawn one below it stay out; 5 and 6 tile
    # slot 0, so exactly one of them is kept
    assert not np.any(np.isin(node, [7, 8]))
    assert np.count_nonzero(np.isin(node, [5, 6])) == trials


def test_run_dst_stitches_each_distinct_selection_once(monkeypatch):
    norm = normalize(gen_dst(7, 14, 4, d_max=1, seed=3))
    st = build_super_tree(norm, 4, 5_000_000)
    sampler = Sampler(st, solve_lp(build_dst_lp(st)).x)
    Q, seed = 60, 2
    rep, node = sampler.sample((seed,), 0, Q)
    selections = [frozenset(s.tolist())
                  for s in rounding.per_rep(rep, node, 0, Q)]
    want_costs = [dst_round.round_super_tree(st, list(s)).cost
                  for s in selections]
    calls = []
    real = dst_round.round_super_tree

    def counted(st, selected):
        calls.append(frozenset(np.asarray(selected).tolist()))
        return real(st, selected)

    monkeypatch.setattr(dst_round, "round_super_tree", counted)
    report = run_dst(norm, h=4, Q=Q, seed=seed)
    assert 1 < len(set(selections)) < Q
    assert sorted(calls, key=sorted) == sorted(set(selections), key=sorted)
    assert report.repetition_costs == want_costs

    calls.clear()
    _, norm, _, h = small_dst(1)
    report = run_dst(norm, h=h, seed=seed)
    assert report.Q > 1 and len(calls) == 1
