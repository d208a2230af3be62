import copy

import pytest

from conftest import small_dst
from dbnet.errors import InvariantError
from dbnet.instances import DirectedInstance, lift_tree, normalize
from dbnet.lpcore import build_dst_lp, solve_lp
from dbnet.states import (BASE, STATE, SUPER, VIRTUAL, build_super_tree,
                          degree_vectors_consistent, edge_agrees,
                          gen_state_tree, is_allowable_child_pair,
                          stitch_multi_tree, triple_agrees,
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
    import numpy as np
    from dbnet.dst_round import round_super_tree
    _, norm, res, h = small_dst(4)
    st = build_super_tree(norm, h, 2_000_000)
    sol = solve_lp(build_dst_lp(st))
    for i in range(20):
        out = round_super_tree(st, sol.x, np.random.default_rng([3, i]))
        assert out.state_tree.depth() <= st.h
        assert out.multi_tree is not None


def test_dump_mentions_states():
    st = build_super_tree(single_edge(), 3, 10_000)
    text = st.dump()
    assert "state" in text and "base" in text
