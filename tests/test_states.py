import copy
import itertools
import math
import os
import resource
import subprocess
import sys
import time
from collections import Counter, defaultdict
from heapq import heappop, heappush
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import small_dst, state_tree_cost
from dbnet import states
from dbnet.dst_round import _check_good_multi_tree
from dbnet.errors import CapExceededError, InvariantError
from dbnet.generators import gen_dst
from dbnet.instances import (DirectedInstance, lift_tree, normalize,
                             serialize_dst)
from dbnet.lpcore import build_dst_lp, solve_lp
from dbnet.oracle import exact_dst
from dbnet.treekit import height_budget
from dbnet.states import (BASE, STATE, SUPER, VIRTUAL, StateTreeNode,
                          SuperTree, build_super_tree,
                          degree_vectors_consistent, gen_state_tree,
                          is_allowable_child_pair, leaf_agrees, make_key,
                          stitch_multi_tree, validate_state_tree)


def single_edge():
    inst = DirectedInstance(2, [(0, 1, 7)], 0, {1}, {0: 1, 1: 0})
    return normalize(inst)


def star_two_terminals():
    inst = DirectedInstance(3, [(0, 1, 2), (0, 2, 3)], 0, {1, 2},
                            {0: 2, 1: 0, 2: 0})
    return normalize(inst)


def test_allowable_pair_examples():
    assert is_allowable_child_pair((0, {0}), (0, {0, 5}), (5, {5}))
    # r'' already a portal of the parent
    assert not is_allowable_child_pair((0, {0, 5}), (0, {0, 5}), (5, {5}))
    # intersection larger than {r''}
    assert not is_allowable_child_pair((0, {0, 4}), (0, {0, 4, 5}),
                                       (5, {4, 5}))


def test_degree_vector_examples():
    assert degree_vectors_consistent({0: 2}, {0: 2, 5: 1}, {5: 1}, 5)
    assert not degree_vectors_consistent({0: 2}, {0: 2, 5: 1}, {5: 2}, 5)
    assert not degree_vectors_consistent({0: 2}, {0: 1, 5: 1}, {5: 1}, 5)
    # the right child's portal 7 disagrees with the parent
    assert not degree_vectors_consistent({0: 2, 7: 1}, {0: 2, 5: 1},
                                         {5: 1, 7: 2}, 5)


def test_edge_triple_agreement():
    norm = star_two_terminals()
    assert leaf_agrees(norm, (0, 1), {0: 1})
    assert not leaf_agrees(norm, (0, 1), {0: 2})
    assert leaf_agrees(norm, (0, 1, 2), {0: 2})
    assert not leaf_agrees(norm, (0, 1, 2), {0: 1})
    # without a degree for its root the leaf agrees with nothing
    assert not leaf_agrees(norm, (0, 1), {})


def test_edge_agreement_gadget_identity():
    inst = DirectedInstance(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3)], 0,
                            {1, 2, 3}, {0: 3, 1: 0, 2: 0, 3: 0})
    norm = normalize(inst)
    g = 4
    assert leaf_agrees(norm, (0, g), {0: 2, g: 2})
    assert not leaf_agrees(norm, (0, g), {0: 1, g: 2})
    # the gadget passes up a degree that rho lacks
    assert not leaf_agrees(norm, (0, g), {0: 2})


def test_gen_single_edge():
    norm = single_edge()
    mt = lift_tree(norm, {(0, 1)})
    tau = gen_state_tree(norm, mt)
    assert tau.is_leaf and tau.leaf == (0, 1)
    assert (tau.r, tau.S, tau.rho) == (0, frozenset({0}), {0: 1})
    assert state_tree_cost(norm, tau) == 7


def test_gen_triple_case():
    norm = star_two_terminals()
    mt = lift_tree(norm, {(0, 1), (0, 2)})
    tau = gen_state_tree(norm, mt)
    assert tau.is_leaf and tau.leaf == (0, 1, 2)
    assert tau.rho == {0: 2}
    assert state_tree_cost(norm, tau) == 5


def test_lift_tree_raises_on_what_is_not_a_tree():
    inst = gen_dst(6, 8, 3, seed=1)
    norm = normalize(inst)
    res = exact_dst(inst)
    tree = set(map(tuple, res.edges))
    assert lift_tree(norm, tree).cost(norm) == res.cost == 45
    # no such edge
    with pytest.raises(InvariantError, match=r"edge \(0, 99\) is not an edge"):
        lift_tree(norm, {(0, 99)})
    # a real edge whose tail 2 is not on the tree
    assert (2, 3) in inst.cost and 2 not in {w for e in tree for w in e}
    with pytest.raises(InvariantError, match=r"edge \(2, 3\) is not reached"):
        lift_tree(norm, tree | {(2, 3)})
    # a second parent for 3, and a cycle through the root
    with pytest.raises(InvariantError, match="vertex 3 is reached twice"):
        lift_tree(norm, {(0, 1), (1, 2), (1, 3), (2, 3)})
    with pytest.raises(InvariantError, match="vertex 1 is reached twice"):
        lift_tree(norm, {(0, 1), (1, 3), (3, 1)})


def test_validator_detects_faults():
    _, norm, res, _ = small_dst(2)
    mt = lift_tree(norm, set(map(tuple, res.edges)))
    tau = gen_state_tree(norm, mt)
    budget = height_budget(norm.inst.n)
    assert validate_state_tree(norm, tau, budget) == []

    broken = copy.deepcopy(tau)
    node = next(o for o in broken.nodes())
    node.rho = {v: r + 1 for v, r in node.rho.items()}
    assert validate_state_tree(norm, broken, budget)

    internal = next((o for o in tau.nodes() if not o.is_leaf), None)
    if internal is not None:
        swapped = copy.deepcopy(tau)
        s_int = next(o for o in swapped.nodes() if not o.is_leaf)
        s_int.left, s_int.right = s_int.right, s_int.left
        assert any("allowable" in msg
                   for msg in validate_state_tree(norm, swapped, budget))


# each case breaks one good-state-tree condition in a copy of the valid
# state tree of small_dst(2), given its nodes in preorder, and may return a
# lower height budget
BROKEN_STATE_TREES = {
    "root-state": (lambda o: setattr(o[0], "r", 9),
                   "root state is (9, {0}), expected (0, {0})"),
    "depth": (lambda o: 2, "depth 3 exceeds budget 2"),
    "root-not-portal": (lambda o: setattr(o[3], "S", frozenset({4})),
                        "node (3, [4]): root not in portals"),
    "terminal-portal": (lambda o: setattr(o[3], "S", frozenset({3, 8})),
                        "node (3, [3, 8]): portals contain terminals"),
    "no-vertex": (lambda o: setattr(o[3], "S", frozenset({3, 99})),
                  "node (3, [3, 99]): rho[99]=None out of [1, 0]"),
    "single-child": (lambda o: setattr(o[4], "right", None),
                     "node (9, [9]): not a full binary tree"),
    "long-payload": (lambda o: setattr(o[3], "leaf", (3, 8, 11, 12)),
                     "node (3, [3]): leaf needs exactly one of edge/triple"),
    "no-payload": (lambda o: setattr(o[3], "leaf", None),
                   "node (3, [3]): leaf needs exactly one of edge/triple"),
    "non-graph-edge": (lambda o: setattr(o[3], "leaf", (3, 7)),
                       "node (3, [3]): (3, 7) is not a graph edge"),
    "edge-disagrees": (lambda o: o[3].rho.update({3: 2}),
                       "node (3, [3]): edge (3, 8) disagrees with rho"),
    "triple-disagrees": (
        lambda o: o[2].rho.update({0: 2}),
        "node (0, [0, 3, 9]): triple (0, 3, 9) disagrees with rho"),
    "triple-not-graph": (lambda o: setattr(o[2], "leaf", (0, 3, 2)),
                         "node (0, [0, 3, 9]): triple edges not in graph"),
    "edge-portals": (lambda o: setattr(o[8], "leaf", (1, 10)),
                     "node (1, [1]): edge (1, 10) portals do not match"),
    "internal-payload": (lambda o: setattr(o[0], "leaf", (0, 3)),
                         "node (0, [0]): internal node carries a leaf "
                         "payload"),
    "not-root-portals": (lambda o: setattr(o[4], "S", frozenset({1})),
                         "node (9, [1]): root not in portals"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_STATE_TREES))
def test_validator_reports_each_broken_condition(case):
    _, norm, res, _ = small_dst(2)
    tau = gen_state_tree(norm, lift_tree(norm, set(map(tuple, res.edges))))
    assert [(o.r, sorted(o.S)) for o in tau.nodes()] == [
        (0, [0]), (0, [0, 9]), (0, [0, 3, 9]), (3, [3]), (9, [9]),
        (9, [1, 9]), (9, [1, 2, 9]), (2, [2]), (1, [1])]
    broken = copy.deepcopy(tau)
    breaks, says = BROKEN_STATE_TREES[case]
    h = breaks(list(broken.nodes())) or height_budget(norm.inst.n)
    bad = validate_state_tree(norm, broken, h)
    assert any(msg.startswith(says) for msg in bad), bad
    with pytest.raises(InvariantError, match="stitch on invalid state tree"):
        stitch_multi_tree(norm, broken, h)


def leaf_state(r, S, rho, leaf):
    return StateTreeNode(r, frozenset(S), rho, leaf=leaf)


@pytest.mark.parametrize("edges,left,says", [
    # the chain 0 -> 1 -> 2: the left child lacks the degree of its portal 1
    ([(0, 1, 1), (1, 2, 1)], leaf_state(0, {0, 1}, {0: 1}, (0, 1)),
     "node (0, [0, 1]): rho[1]=None out of [1, 1]"),
    # 0 -> 1, 1 -> 0, 1 -> 2: the left leaf (1, 0) hangs below no copy of 1
    ([(0, 1, 1), (1, 0, 1), (1, 2, 1)],
     leaf_state(0, {0, 1}, {0: 1, 1: 1}, (1, 0)),
     "node (0, [0, 1]): edge (1, 0) does not leave 0")],
    ids=["missing-degree", "leaf-root"])
def test_validator_reports_what_stitching_needs(edges, left, says):
    # terminal 2 below 1; the right child (1, {1}) reaches it by (1, 2)
    norm = normalize(DirectedInstance(3, edges, 0, {2}, {0: 1, 1: 1, 2: 0}))
    tau = StateTreeNode(0, frozenset({0}), {0: 1}, left,
                        leaf_state(1, {1}, {1: 1}, (1, 2)))
    assert says in validate_state_tree(norm, tau, 3)
    with pytest.raises(InvariantError, match="stitch on invalid state tree"):
        stitch_multi_tree(norm, tau, 3)


def mutate(draw, norm, tau):
    """Change one field of one node of the state tree tau in place."""
    node = draw(hs.sampled_from(list(tau.nodes())))
    # n is no vertex of the instance
    vertex = hs.integers(0, norm.inst.n)
    field = draw(hs.sampled_from(["r", "S", "rho", "leaf", "children"]))
    if field == "r":
        node.r = draw(vertex)
    elif field == "S":
        # drop a portal or add a vertex
        node.S = node.S ^ {draw(vertex)}
    elif field == "rho":
        v = draw(hs.sampled_from(sorted(node.rho) or [0]))
        if draw(hs.booleans()):
            node.rho.pop(v, None)
        else:
            node.rho[v] = draw(hs.integers(0, 4))
    elif field == "leaf":
        # another order of its own vertices, or any vertices
        own = list(node.leaf or ())
        node.leaf = tuple(draw(hs.permutations(own)) if own and draw(
            hs.booleans()) else draw(hs.lists(vertex, max_size=4)))
    else:
        how = draw(hs.sampled_from(["left", "right", "swap"]))
        if how == "swap":
            node.left, node.right = node.right, node.left
        else:
            setattr(node, how, None)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(hs.integers(3, 7), hs.integers(0, 4), hs.integers(1, 3),
       hs.integers(1, 3), hs.integers(0, 10 ** 6), hs.data())
def test_validator_clears_only_what_stitches(n, extra, k, d_max, seed, data):
    # the oracle optimum's state tree with one field changed: the validator
    # answers with a list, and a tree it clears stitches into a good
    # multi-tree of the state tree's cost
    inst = gen_dst(n, min(n - 1 + extra, (n - 1) ** 2), min(k, n - 1),
                   d_max, seed=seed)
    res = exact_dst(inst)
    norm = normalize(inst)
    tau = gen_state_tree(norm, lift_tree(norm, set(map(tuple, res.edges))))
    mutate(data.draw, norm, tau)
    h = height_budget(norm.inst.n)
    bad = validate_state_tree(norm, tau, h)
    assert isinstance(bad, list)
    if not bad:
        mt = stitch_multi_tree(norm, tau, h)
        _check_good_multi_tree(norm, mt)
        assert mt.cost(norm) == state_tree_cost(norm, tau)


def test_stitch_round_trip():
    for seed in range(10):
        _, norm, res, _ = small_dst(seed)
        mt = lift_tree(norm, set(map(tuple, res.edges)))
        tau = gen_state_tree(norm, mt)
        mt2 = stitch_multi_tree(norm, tau, height_budget(norm.inst.n))
        assert mt2.cost(norm) == res.cost
        assert sorted(mt2.label) == sorted(mt.label)
        assert sorted(mt2.edge_labels()) == sorted(mt.edge_labels())


@settings(derandomize=True, deadline=None, max_examples=100)
@given(hs.integers(3, 7), hs.integers(0, 4), hs.integers(1, 3),
       hs.integers(1, 3), hs.integers(0, 10 ** 6))
def test_lift_decompose_stitch_round_trip(n, extra, k, d_max, seed):
    # normalize -> lift -> gen_state_tree -> stitch gives back the oracle's
    # original edges, each once, through edge_origin, at the same cost
    inst = gen_dst(n, min(n - 1 + extra, (n - 1) ** 2), min(k, n - 1),
                   d_max, seed=seed)
    res = exact_dst(inst)
    assert res.status == "OPTIMAL"
    norm = normalize(inst)
    mt = lift_tree(norm, set(map(tuple, res.edges)))
    back = stitch_multi_tree(norm, gen_state_tree(norm, mt),
                             height_budget(norm.inst.n))
    origin = [norm.edge_origin(e) for e in back.edge_labels()]
    assert sorted(e for e in origin if e is not None) == sorted(
        map(tuple, res.edges))
    assert back.cost(norm) == mt.cost(norm) == res.cost


def test_super_tree_single_edge():
    norm = single_edge()
    st = build_super_tree(norm, 3, 10_000)
    assert len(st) == 3
    assert st.kind[0] == SUPER and STATE in st.kind and BASE in st.kind
    o = int(np.flatnonzero(st.kind == BASE)[0])
    assert st.payloads[st.payload_id[o]] == (0, 1) and st.cost[o] == 7


def test_super_tree_rho_pruning():
    # d_r = 2 but only rho_r = 1 agrees with the single edge
    inst = DirectedInstance(2, [(0, 1, 7)], 0, {1}, {0: 2, 1: 0})
    st = build_super_tree(normalize(inst), 3, 10_000)
    states = [st.keys[j] for j in st.state_id[st.kind == STATE]]
    assert all(dict(s[2])[0] == 1 for s in states)


def diamond(bound):
    """Two paths 0 -> 1 -> 3 and 0 -> 2 -> 3 to the terminals 1 and 3, every
    degree bound ``bound``; no vertex has more than two out-edges."""
    return normalize(DirectedInstance(
        4, [(0, 1, 1), (0, 2, 2), (1, 3, 3), (2, 3, 4)], 0, {1, 3},
        {v: bound for v in range(4)}))


@pytest.mark.parametrize("bound", [300, 1000])
def test_degree_guesses_stop_at_what_a_tree_can_use(bound):
    # a portal guesses no degree above its out-degree, so a huge bound
    # builds the table and super-tree of bound 2; without that clamp the
    # base states alone ran to 300 or 1000 guesses per portal
    small, big = diamond(2), diamond(bound)
    h = height_budget(big.inst.n)
    assert len(states.live_states(big, h)) == len(
        states.live_states(small, h))
    assert build_super_tree(big, h).dump() == build_super_tree(small, h).dump()


def test_super_tree_triple_node():
    norm = star_two_terminals()
    st = build_super_tree(norm, 3, 10_000)
    bases = np.flatnonzero(st.kind == BASE).tolist()
    triples = [o for o in bases if len(st.payloads[st.payload_id[o]]) == 3]
    assert any(st.payloads[st.payload_id[o]] == (0, 1, 2) and st.cost[o] == 5
               for o in triples)


def test_super_tree_structure_invariants():
    for seed in range(5):
        _, norm, res, h = small_dst(seed)
        st = build_super_tree(norm, h, 2_000_000)
        for i in range(len(st)):
            kids = st.children[i]
            if st.kind[i] == SUPER:
                assert all(st.kind[q] == STATE for q in kids)
            elif st.kind[i] == VIRTUAL:
                assert len(kids) == 2
                assert all(st.kind[q] == STATE for q in kids)
            elif st.kind[i] == STATE:
                assert kids, "pruning left a childless state node"
                assert all(st.kind[q] in (BASE, VIRTUAL) for q in kids)
                r, S, rho = st.keys[st.state_id[i]]
                assert len(S) <= st.level[i] + 1
            else:
                assert not kids


def test_oracle_tree_embeds():
    # the optimum's state tree must appear as a rooted subtree of the arena
    for seed in range(10):
        _, norm, res, h = small_dst(seed)
        mt = lift_tree(norm, set(map(tuple, res.edges)))
        tau = gen_state_tree(norm, mt)
        st = build_super_tree(norm, h, 2_000_000)

        def key(node):
            return (node.r, frozenset(node.S), tuple(sorted(node.rho.items())))

        def embed(node, i) -> bool:
            if node.is_leaf:
                return any(st.kind[q] == BASE
                           and st.payloads[st.payload_id[q]] == node.leaf
                           for q in st.children[i])
            for q in st.children[i]:
                if st.kind[q] != VIRTUAL:
                    continue
                a, b = st.children[q]
                if (st.keys[st.state_id[a]] == key(node.left)
                        and st.keys[st.state_id[b]] == key(node.right)
                        and embed(node.left, a) and embed(node.right, b)):
                    return True
            return False

        start = [q for q in st.children[st.root]
                 if st.keys[st.state_id[q]] == key(tau)]
        assert start and embed(tau, start[0]), seed


def test_sampled_subtree_goodness():
    from dbnet.dst_round import Sampler, round_super_tree
    from dbnet.rounding import per_rep
    _, norm, res, h = small_dst(4)
    st = build_super_tree(norm, h, 2_000_000)
    sol = solve_lp(build_dst_lp(st))
    rep, node = Sampler(st, sol.x).sample((3,), 0, 20)
    for selected in per_rep(rep, node, 0, 20):
        out = round_super_tree(st, selected)
        assert out.state_tree.depth() <= st.h
        assert out.multi_tree is not None


def test_dump_mentions_states():
    st = build_super_tree(single_edge(), 3, 10_000)
    text = st.dump()
    assert "state" in text and "base" in text


FIELDS = ("kind", "parent", "children", "state", "payload", "cost", "level")


def reference_super_tree(norm, h):
    """Top-down construction: every (r'', portal mask, degree value)
    candidate at every state node, kept when both child states admit a good
    sub-state-tree in the remaining depth (a plain memoized recursion).
    Returns the seven arena fields as lists, with kind codes and parent -1
    at the super node."""
    inst = norm.inst
    K = inst.terminals
    nonterminals = sorted(set(range(inst.n)) - K)

    def leaves(key):
        r1, S, rhot = key
        rho = dict(rhot)
        edges = sorted(inst.out_edges(r1))
        out = [((r1, v), c) for v, c in edges
               if frozenset({r1, v} - K) == S
               and leaf_agrees(norm, (r1, v), rho)]
        out += [((r1, v, v2), c1 + c2)
                for (v, c1), (v2, c2) in itertools.combinations(edges, 2)
                if frozenset({r1, v, v2} - K) == S
                and leaf_agrees(norm, (r1, v, v2), rho)]
        return out

    def candidates(key):
        r1, S, rhot = key
        rho = dict(rhot)
        others = sorted(S - {r1})
        for r2 in nonterminals:
            if r2 in S:
                continue
            for mask in range(1 << len(others)):
                S1 = {r1, r2} | {others[i] for i in range(len(others))
                                 if mask >> i & 1}
                S2 = ({r2} | set(others)) - (S1 - {r2})
                for val in range(1, inst.degree_bound[r2] + 1):
                    rho1 = {v: rho[v] for v in S1 if v != r2}
                    rho2 = {v: rho[v] for v in S2 if v != r2}
                    rho1[r2] = rho2[r2] = val
                    yield make_key(r1, S1, rho1), make_key(r2, S2, rho2)

    memo = {}

    def live(key, budget):
        if (key, budget) not in memo:
            memo[key, budget] = bool(leaves(key)) or budget > 0 and any(
                live(k1, budget - 1) and live(k2, budget - 1)
                for k1, k2 in candidates(key))
        return memo[key, budget]

    ref = {name: [] for name in FIELDS}

    def add(kind, parent, state=None, payload=None, cost=0, level=-1):
        i = len(ref["kind"])
        for name, value in zip(FIELDS, (kind, parent, [], state, payload,
                                        cost, level)):
            ref[name].append(value)
        if parent >= 0:
            ref["children"][parent].append(i)
        return i

    def expand(key, level, parent):
        p = add(STATE, parent, state=key, level=level)
        for payload, cost in leaves(key):
            add(BASE, p, payload=payload, cost=cost, level=level)
        if level >= h:
            return
        for k1, k2 in candidates(key):
            if live(k1, h - level - 1) and live(k2, h - level - 1):
                q = add(VIRTUAL, p, level=level)
                expand(k1, level + 1, q)
                expand(k2, level + 1, q)

    top = add(SUPER, -1)
    for rho_r in range(1, inst.degree_bound[inst.root] + 1):
        key = make_key(inst.root, {inst.root}, {inst.root: rho_r})
        if live(key, h):
            expand(key, 0, top)
    return ref


def arena_lists(st):
    """The seven arena fields of ``st`` as plain lists."""
    n = len(st)
    return {"kind": st.kind.tolist(), "parent": st.parent.tolist(),
            "children": [st.children[i] for i in range(n)],
            "state": [st.keys[j] if j >= 0 else None
                      for j in st.state_id.tolist()],
            "payload": [st.payloads[j] if j >= 0 else None
                        for j in st.payload_id.tolist()],
            "cost": st.cost.tolist(), "level": st.level.tolist()}


def render(ref):
    """``SuperTree.dump`` text of a reference arena, by a preorder walk."""
    lines = []

    def rec(i, indent):
        k = ref["kind"][i]
        if k == SUPER:
            desc = "super"
        elif k == STATE:
            r, S, rho = ref["state"][i]
            desc = f"state r'={r} S={sorted(S)} rho={dict(rho)}"
        elif k == VIRTUAL:
            desc = "virtual"
        else:
            leaf = ref["payload"][i]
            tag = "e" if len(leaf) == 2 else "xi"
            desc = f"base {tag}={leaf} c={ref['cost'][i]}"
        lines.append("  " * indent + desc)
        for ch in ref["children"][i]:
            rec(ch, indent + 1)

    rec(0, 0)
    return "\n".join(lines) + "\n"


# (5, 6, 2) seed 1 at h=4 is the one case here where ordering the pairs by
# degree value before portal mask would change the arena
@pytest.mark.parametrize("shape,seed,h",
                         [((5, 6, 2), 0, 3), ((5, 6, 2), 1, 4)]
                         + [((6, 8, 3), s, h) for s in range(3)
                            for h in (1, 2)]
                         + [((6, 8, 3), s, 3) for s in (1, 7, 8)])
def test_super_tree_matches_reference_builder(shape, seed, h):
    norm = normalize(gen_dst(*shape, seed=seed))
    got = arena_lists(build_super_tree(norm, h))
    ref = reference_super_tree(norm, h)
    for name in FIELDS:
        assert got[name] == ref[name], name


@settings(derandomize=True, deadline=None, max_examples=60)
@given(hs.sampled_from([(3, 3, 1), (4, 5, 2), (5, 6, 2), (5, 8, 3),
                        (6, 8, 3)]),
       hs.integers(1, 3), hs.integers(0, 50), hs.integers(0, 4))
def test_arena_matches_reference_everywhere(shape, d_max, seed, h):
    norm = normalize(gen_dst(*shape, d_max=d_max, seed=seed))
    st = build_super_tree(norm, h)
    ref = reference_super_tree(norm, h)
    assert arena_lists(st) == ref
    assert st.dump() == render(ref)


def pair_order(parent, pair):
    """Arena order of a state's child pairs: right root r'', then the left
    child's share of the parent's other portals as a bit mask over
    sorted(S - {r'}), then the degree at r''."""
    r1, S, _ = parent
    (_, S1, rho1), (r2, _, _) = pair
    mask = sum(1 << i for i, v in enumerate(sorted(S - {r1})) if v in S1)
    return r2, mask, dict(rho1)[r2]


def largest_degrees(norm):
    """The largest degree each vertex can take in a tree: one per out-edge,
    except that a gadget child counts its own largest.  A gadget vertex has
    a larger id than the vertex whose out-star it splits."""
    inst = norm.inst
    most = {}
    for v in reversed(range(inst.n)):
        most[v] = sum(most[b] if norm.is_gadget(b) else 1
                      for b, _ in inst.out_edges(v))
    return most


def reference_live_states(norm, h):
    """The unindexed Dijkstra-style fixpoint as first written: a popped
    state is tried against every finalized state rooted at one of its
    portals, and every one carrying its root as a portal.  A portal v
    guesses degrees up to the least of d_v and its ``largest_degrees``.
    Maps each live state key to (min depth, base payloads, child pairs)."""
    inst = norm.inst
    K = inst.terminals
    most = largest_degrees(norm)
    md, bases, pairs, heap = {}, defaultdict(list), defaultdict(list), []
    counter = itertools.count()

    def offer(key, d):
        if len(key[1]) - 1 + d > h:
            return False
        if d < md.get(key, h + 1):
            md[key] = d
            heappush(heap, (d, next(counter), key))
        return True

    for r1 in sorted(set(range(inst.n)) - K):
        edges = sorted(inst.out_edges(r1))
        leaves = [((v,), (r1, v), c) for v, c in edges]
        leaves += [((v, v2), (r1, v, v2), c + c2)
                   for (v, c), (v2, c2) in itertools.combinations(edges, 2)]
        for tails, payload, cost in leaves:
            free = [v for v in tails if v not in K]
            for combo in itertools.product(
                    *(range(1, min(inst.degree_bound[v], most[v]) + 1)
                      for v in free)):
                rho = dict(zip(free, combo))
                rho[r1] = sum(1 if v in K else norm.phi(v, rho[v])
                              for v in tails)
                key = make_key(r1, {r1, *free}, rho)
                if rho[r1] <= inst.degree_bound[r1] and offer(key, 0):
                    bases[key].append((payload, cost))

    final, by_root, by_portal = set(), defaultdict(list), defaultdict(list)

    def join(lkey, rkey):
        rl, S1, rho1t = lkey
        rr, S2, rho2t = rkey
        if S1 & S2 != {rr}:
            return
        rho1, rho2 = dict(rho1t), dict(rho2t)
        if rho1[rr] != rho2[rr]:
            return
        rho = {v: r for v, r in rho1.items() if v != rr}
        rho.update((v, r) for v, r in rho2.items() if v != rr)
        key = make_key(rl, (S1 | S2) - {rr}, rho)
        if offer(key, 1 + max(md[lkey], md[rkey])):
            pairs[key].append((lkey, rkey))

    while heap:
        d, _, key = heappop(heap)
        if key in final or md[key] < d:
            continue
        final.add(key)
        r1, S, _ = key
        for v in S - {r1}:
            for rkey in by_root[v]:
                join(key, rkey)
        for lkey in by_portal[r1]:
            join(lkey, key)
        by_root[r1].append(key)
        for v in S - {r1}:
            by_portal[v].append(key)
    return {k: (md[k], bases.get(k, []),
                sorted(pairs.get(k, []),
                       key=lambda pair: pair_order(k, pair)))
            for k in final}


def table_dict(tab):
    """A ``live_states`` table in the reference's form: state key ->
    (min depth, [(payload, cost)], [(left key, right key)])."""
    keys = tab.keys(np.arange(len(tab)))
    out = {}
    for s, key in enumerate(keys):
        a, b = tab.pay_ptr[s], tab.pay_ptr[s + 1]
        c, e = tab.pair_ptr[s], tab.pair_ptr[s + 1]
        out[key] = (int(tab.md[s]),
                    list(zip(tab.payloads[a:b], tab.pay_cost[a:b].tolist())),
                    [(keys[i], keys[j]) for i, j
                     in zip(tab.left[c:e].tolist(), tab.right[c:e].tolist())])
    return out


@pytest.mark.parametrize("shape,seed,h",
                         [((6, 8, 3), s, h) for s in range(9)
                          for h in range(1, 5)]
                         + [((5, 6, 2), s, h) for s in range(3)
                            for h in range(1, 5)]
                         + [((8, 14, 4), 1, 4)])
def test_live_states_match_reference_fixpoint(shape, seed, h):
    norm = normalize(gen_dst(*shape, seed=seed))
    tab = states.live_states(norm, h)
    table = table_dict(tab)
    ref = reference_live_states(norm, h)
    assert len(tab) == len(ref)
    assert table.keys() == ref.keys()
    for key, (md, bases, pairs) in ref.items():
        assert table[key] == (md, bases, pairs), key


@settings(derandomize=True, deadline=None, max_examples=200)
@given(hs.sampled_from([(3, 3, 1), (4, 5, 2), (5, 6, 2), (5, 8, 3),
                        (6, 8, 3)]),
       hs.integers(1, 3), hs.integers(0, 50), hs.integers(0, 5))
def test_array_fixpoint_matches_reference_everywhere(shape, d_max, seed, h):
    norm = normalize(gen_dst(*shape, d_max=d_max, seed=seed))
    assert table_dict(states.live_states(norm, h)) == reference_live_states(
        norm, h)


def test_live_states_wide_instance():
    # 74 normalized vertices: a dense (root, degree vector) code of a state
    # would take more than one int64, and its portal set more than one
    # 64-bit mask
    norm = normalize(gen_dst(48, 70, 8, d_max=4, seed=0))
    ref = reference_live_states(norm, 3)
    top = defaultdict(int)
    for _, _, rho in ref:
        for v, x in rho:
            top[v] = max(top[v], x)
    assert norm.inst.n > 64
    assert norm.inst.n * math.prod(x + 1 for x in top.values()) > 2 ** 63
    assert table_dict(states.live_states(norm, 3)) == ref


@pytest.mark.parametrize("shape,d_max,seed,h",
                         [((6, 8, 3), 3, s, 4) for s in range(3)]
                         + [((5, 8, 3), 2, 0, 5), ((8, 14, 4), 3, 1, 4)])
def test_live_states_in_blocks_and_words(monkeypatch, shape, d_max, seed, h):
    # a join filtered 7 pairs at a time, and state codes of 2-3 words
    monkeypatch.setattr(states, "JOIN_BLOCK", 7)
    monkeypatch.setattr(states, "WORD_BITS", 16)
    norm = normalize(gen_dst(*shape, d_max=d_max, seed=seed))
    assert table_dict(states.live_states(norm, h)) == reference_live_states(
        norm, h)


def test_node_cap_checked_before_allocation(monkeypatch):
    made = []
    monkeypatch.setattr(states, "SuperTree",
                        lambda *a: made.append(a) or SuperTree(*a))
    norm = normalize(gen_dst(8, 14, 4, d_max=3, seed=0))
    with pytest.raises(CapExceededError, match="30123 nodes at height 4"):
        build_super_tree(norm, 9, 2000)
    assert made == []
    # the cap bounds the whole arena, super node included
    assert len(build_super_tree(single_edge(), 3, 3)) == 3
    with pytest.raises(CapExceededError, match="3 nodes at height 0"):
        build_super_tree(single_edge(), 3, 2)


@pytest.mark.parametrize("shape,seed", [((6, 8, 3), s) for s in range(3)]
                         + [((8, 14, 4), 0)])
def test_node_cap_decided_at_every_height(shape, seed):
    # a cap just below the arena of height t stops a build of height 5 at
    # the first height whose arena exceeds it, not at height 5
    norm = normalize(gen_dst(*shape, seed=seed))
    sizes = [len(build_super_tree(norm, t)) for t in range(6)]
    for t in range(6):
        cap = sizes[t] - 1
        first = next(u for u, size in enumerate(sizes) if size > cap)
        with pytest.raises(CapExceededError, match=(
                f"has {sizes[first]} nodes at height {first}, over the "
                f"node cap {cap};")):
            build_super_tree(norm, 5, node_cap=cap)


def test_one_fixpoint_per_build(monkeypatch):
    tables = []
    live = states.live_states
    monkeypatch.setattr(states, "live_states",
                        lambda *a: tables.append(live(*a)) or tables[-1])
    for seed in range(3):
        norm = normalize(gen_dst(6, 8, 3, seed=seed))
        for h in range(6):
            tables.clear()
            build_super_tree(norm, h)
            assert len(tables) == 1
            assert table_dict(tables[0]) == table_dict(live(norm, h))


def test_pair_cap_checked_before_interning(monkeypatch):
    interned = []
    intern = states._intern
    monkeypatch.setattr(states, "_intern",
                        lambda *a: interned.append(a) or intern(*a))
    # the instance starts 53 base states, so a cap of 53 passes them and
    # stops the first round that joins more pairs: the rounds before it
    # were interned, that one was not
    monkeypatch.setattr(states, "PAIR_CAP", 53)
    norm = normalize(gen_dst(8, 14, 4, d_max=3, seed=0))
    with pytest.raises(CapExceededError, match=r"at least \d+ child pairs in "
                       r"depth pass 0 at height 4, over the pair cap 53"):
        states.live_states(norm, 4)
    assert interned and all(len(new) <= 53 for _, new in interned)


def test_base_states_counted_before_any_is_made(monkeypatch):
    # a star of 40 unit edges to terminals from a root of bound 40: its
    # gadget splits them 20/20, so the root's triple alone agrees with
    # 20 * 20 degree pairs, more than any gadget vertex starts.  The cap
    # is on the sum over all vertices, which no one vertex reaches
    norm = normalize(DirectedInstance(
        41, [(0, v, 1) for v in range(1, 41)], 0, set(range(1, 41)),
        {v: 40 if v == 0 else 0 for v in range(41)}))
    per_root = Counter(leaf[0] for leaf in
                       states.live_states(norm, 3).payloads)
    top, total = per_root[0], per_root.total()
    assert top == 440 and top == max(per_root.values())
    assert total - 1 > top
    made = []
    key = states.make_key
    monkeypatch.setattr(states, "make_key",
                        lambda *a: made.append(a) or key(*a))
    monkeypatch.setattr(states, "PAIR_CAP", total - 1)
    with pytest.raises(CapExceededError, match=f"start {total} base states, "
                       f"over the pair cap {total - 1}, {top} of them out "
                       f"of vertex 0"):
        states.live_states(norm, 3)
    assert made == []


def test_large_table_fails_fast_under_a_memory_limit(tmp_path):
    # at h=6 this table would join over 5 million pairs in depth pass 2 and
    # run out of a 3 GB address space before any node-cap decision (at h=5,
    # with no portal guessing a degree above its out-degree, it builds)
    path = tmp_path / "big.dst"
    path.write_text(serialize_dst(gen_dst(2000, 3000, 20, seed=0)))
    src = str(Path(states.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dbnet.cli", "dump-supertree", "--instance",
         str(path), "--height", "6", "--out", str(tmp_path / "st.txt")],
        env=env, preexec_fn=limit, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert "depth pass 2 at height 6, over the pair cap" in proc.stderr
    assert time.perf_counter() - start < 60


def depth_by_walk(st):
    """Each node's distance from the super node, walking its parent."""
    depth = [0] * len(st)
    for i in range(1, len(st)):
        depth[i] = depth[st.parent[i]] + 1
    return depth


@pytest.mark.parametrize("shape,seeds,heights", [
    ((6, 8, 3), range(10), range(5)),
    ((8, 14, 4), range(4), (4,))])
def test_height_from_levels_matches_walk(shape, seeds, heights):
    for seed in seeds:
        norm = normalize(gen_dst(*shape, seed=seed))
        for h in heights:
            st = build_super_tree(norm, h)
            depth = depth_by_walk(st)
            assert st.depth.tolist() == depth, (seed, h)
            assert st.height() == max(depth), (seed, h)
