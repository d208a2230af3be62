import copy
import itertools

import pytest

from conftest import small_dst
from dbnet import states
from dbnet.errors import CapExceededError, InvariantError
from dbnet.generators import gen_dst
from dbnet.instances import DirectedInstance, lift_tree, normalize
from dbnet.lpcore import build_dst_lp, solve_lp
from dbnet.states import (BASE, STATE, SUPER, VIRTUAL, SuperTree,
                          build_super_tree, degree_vectors_consistent,
                          edge_agrees, gen_state_tree, is_allowable_child_pair,
                          make_key, stitch_multi_tree, triple_agrees,
                          validate_state_tree)


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


def test_edge_triple_agreement():
    norm = star_two_terminals()
    assert edge_agrees(norm, (0, 1), {0}, {0: 1})
    assert not edge_agrees(norm, (0, 1), {0}, {0: 2})
    assert triple_agrees(norm, (0, 1, 2), {0}, {0: 2})
    assert not triple_agrees(norm, (0, 1, 2), {0}, {0: 1})


def test_edge_agreement_gadget_identity():
    inst = DirectedInstance(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3)], 0,
                            {1, 2, 3}, {0: 3, 1: 0, 2: 0, 3: 0})
    norm = normalize(inst)
    g = 4
    assert edge_agrees(norm, (0, g), {0, g}, {0: 2, g: 2})
    assert not edge_agrees(norm, (0, g), {0, g}, {0: 1, g: 2})


def test_gen_single_edge():
    norm = single_edge()
    mt = lift_tree(norm, {(0, 1)})
    tau = gen_state_tree(norm, mt)
    assert tau.is_leaf and tau.edge == (0, 1)
    assert (tau.r, tau.S, tau.rho) == (0, frozenset({0}), {0: 1})
    assert tau.cost(norm) == 7


def test_gen_triple_case():
    norm = star_two_terminals()
    mt = lift_tree(norm, {(0, 1), (0, 2)})
    tau = gen_state_tree(norm, mt)
    assert tau.is_leaf and tau.triple == (0, 1, 2)
    assert tau.rho == {0: 2}
    assert tau.cost(norm) == 5


def test_validator_detects_faults():
    _, norm, res, _ = small_dst(2)
    mt = lift_tree(norm, set(map(tuple, res.edges)))
    tau = gen_state_tree(norm, mt)
    assert validate_state_tree(norm, tau) == []

    broken = copy.deepcopy(tau)
    node = next(o for o in broken.nodes())
    node.rho = {v: r + 1 for v, r in node.rho.items()}
    assert validate_state_tree(norm, broken)

    internal = next((o for o in tau.nodes() if not o.is_leaf), None)
    if internal is not None:
        swapped = copy.deepcopy(tau)
        s_int = next(o for o in swapped.nodes() if not o.is_leaf)
        s_int.left, s_int.right = s_int.right, s_int.left
        assert any("allowable" in msg
                   for msg in validate_state_tree(norm, swapped))


def test_stitch_round_trip():
    for seed in range(10):
        _, norm, res, _ = small_dst(seed)
        mt = lift_tree(norm, set(map(tuple, res.edges)))
        tau = gen_state_tree(norm, mt)
        mt2 = stitch_multi_tree(norm, tau)
        assert mt2.cost(norm) == res.cost
        assert sorted(mt2.label) == sorted(mt.label)
        assert sorted(mt2.edge_labels()) == sorted(mt.edge_labels())


def test_super_tree_single_edge():
    norm = single_edge()
    st = build_super_tree(norm, 3, 10_000)
    assert len(st) == 3
    assert st.kind[0] == SUPER and STATE in st.kind and BASE in st.kind
    o = st.base_nodes()[0]
    assert st.payload[o] == ("e", (0, 1)) and st.cost[o] == 7


def test_super_tree_rho_pruning():
    # d_r = 2 but only rho_r = 1 agrees with the single edge
    inst = DirectedInstance(2, [(0, 1, 7)], 0, {1}, {0: 2, 1: 0})
    st = build_super_tree(normalize(inst), 3, 10_000)
    states = [st.state[i] for i in range(len(st)) if st.kind[i] == STATE]
    assert all(dict(s[2])[0] == 1 for s in states)


def test_super_tree_triple_node():
    norm = star_two_terminals()
    st = build_super_tree(norm, 3, 10_000)
    bases = st.base_nodes()
    triples = [o for o in bases if st.payload[o][0] == "xi"]
    assert any(st.payload[o] == ("xi", (0, 1, 2)) and st.cost[o] == 5
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
                r, S, rho = st.state[i]
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
                want = (("e", node.edge) if node.edge is not None
                        else ("xi", node.triple))
                return any(st.kind[q] == BASE and st.payload[q] == want
                           for q in st.children[i])
            for q in st.children[i]:
                if st.kind[q] != VIRTUAL:
                    continue
                a, b = st.children[q]
                if (st.state[a] == key(node.left)
                        and st.state[b] == key(node.right)
                        and embed(node.left, a) and embed(node.right, b)):
                    return True
            return False

        start = [q for q in st.children[st.root] if st.state[q] == key(tau)]
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


def reference_super_tree(norm, h):
    """Top-down construction: every (r'', portal mask, degree value)
    candidate at every state node, kept when both child states admit a good
    sub-state-tree in the remaining depth (a plain memoized recursion)."""
    inst = norm.inst
    K = inst.terminals
    nonterminals = sorted(set(range(inst.n)) - K)

    def leaves(key):
        r1, S, rhot = key
        rho = dict(rhot)
        edges = sorted(inst.out_edges(r1))
        out = [(("e", (r1, v)), c) for v, c in edges
               if frozenset({r1, v} - K) == S
               and edge_agrees(norm, (r1, v), S, rho)]
        out += [(("xi", (r1, v, v2)), c1 + c2)
                for (v, c1), (v2, c2) in itertools.combinations(edges, 2)
                if frozenset({r1, v, v2} - K) == S
                and triple_agrees(norm, (r1, v, v2), S, rho)]
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

    st = SuperTree(norm, h)

    def expand(key, level, parent):
        p = st.add(STATE, parent, state=key, level=level)
        for payload, cost in leaves(key):
            st.add(BASE, p, payload=payload, cost=cost, level=level)
        if level >= h:
            return
        for k1, k2 in candidates(key):
            if live(k1, h - level - 1) and live(k2, h - level - 1):
                q = st.add(VIRTUAL, p, level=level)
                expand(k1, level + 1, q)
                expand(k2, level + 1, q)

    top = st.add(SUPER, None, level=-1)
    for rho_r in range(1, inst.degree_bound[inst.root] + 1):
        key = make_key(inst.root, {inst.root}, {inst.root: rho_r})
        if live(key, h):
            expand(key, 0, top)
    return st


# (5, 6, 2) seed 1 at h=4 is the one case here where ordering the pairs by
# degree value before portal mask would change the arena
@pytest.mark.parametrize("shape,seed,h",
                         [((5, 6, 2), 0, 3), ((5, 6, 2), 1, 4)]
                         + [((6, 8, 3), s, h) for s in range(3)
                            for h in (1, 2)]
                         + [((6, 8, 3), s, 3) for s in (1, 7, 8)])
def test_super_tree_matches_reference_builder(shape, seed, h):
    norm = normalize(gen_dst(*shape, seed=seed))
    st = build_super_tree(norm, h)
    ref = reference_super_tree(norm, h)
    for name in ("kind", "parent", "children", "state", "payload", "cost",
                 "level"):
        assert getattr(st, name) == getattr(ref, name), name


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
