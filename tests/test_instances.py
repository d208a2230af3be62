import pytest

from dbnet.generators import gen_dst, gen_gst
from dbnet.errors import FormatError
from dbnet.instances import (DirectedInstance, GroupTreeInstance, MultiTree,
                             normalize, original_degree, parse_dst, parse_gst,
                             preprocess_gst, serialize_dst, serialize_gst)

MINIMAL = "DBDST 1\n2 1 1\nroot 0\nvertex 0 1\nvertex 1 0\nedge 0 1 5\nterminal 1\n"


def test_parse_minimal():
    inst = parse_dst(MINIMAL)
    assert inst.n == 2 and inst.root == 0
    assert inst.edges == [(0, 1, 5)]
    assert inst.terminals == frozenset({1})


def test_round_trip_identity():
    assert serialize_dst(parse_dst(MINIMAL)) == MINIMAL


def test_terminal_out_of_range():
    bad = MINIMAL.replace("terminal 1", "terminal 2")
    with pytest.raises(FormatError, match="id out of range"):
        parse_dst(bad)


def test_duplicate_edge_rejected():
    with pytest.raises(FormatError, match="duplicate"):
        DirectedInstance(2, [(0, 1, 5), (0, 1, 6)], 0, {1}, {0: 1, 1: 0})


def test_round_trip_generated():
    for seed in range(100):
        n = 4 + seed % 6
        inst = gen_dst(n, n - 1 + seed % 4, 1 + seed % 3, seed=seed)
        assert parse_dst(serialize_dst(inst)).edges == inst.edges
        gst = gen_gst(10 + seed % 20, 1 + seed % 3, seed=seed)
        assert serialize_gst(parse_gst(serialize_gst(gst))) == \
            serialize_gst(gst)


def test_gen_dst_deterministic():
    a = serialize_dst(gen_dst(8, 12, 3, seed=7))
    b = serialize_dst(gen_dst(8, 12, 3, seed=7))
    assert a == b


def test_gen_gst_deterministic_and_valid():
    a = serialize_gst(gen_gst(25, 3, seed=7))
    assert a == serialize_gst(gen_gst(25, 3, seed=7))
    parse_gst(a).validate_groups()


def test_normalize_star_gadget():
    # r with out-edges to a, b, c: one new gadget vertex, costs preserved
    inst = DirectedInstance(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3)], 0,
                            {1, 2, 3}, {0: 3, 1: 0, 2: 0, 3: 0})
    norm = normalize(inst)
    assert norm.inst.n == 5
    g = 4
    assert norm.phi_kind[g] == "identity" and norm.origin[g] == 0
    costs = norm.inst.cost
    assert sorted(costs.values()) == [0, 1, 2, 3]
    assert sum(costs.values()) == 6


def test_normalize_terminal_split():
    # terminal 1 has an out-edge, so it is split
    inst = DirectedInstance(3, [(0, 1, 4), (1, 2, 1)], 0, {1, 2},
                            {0: 1, 1: 1, 2: 0})
    norm = normalize(inst)
    tp = 3
    assert (1, tp) in norm.inst.cost and norm.inst.cost[(1, tp)] == 0
    assert tp in norm.inst.terminals and 1 not in norm.inst.terminals
    assert norm.inst.degree_bound[1] == 2 and norm.inst.degree_bound[tp] == 0
    assert norm.terminal_origin[tp] == 1


def test_normalize_fixed_point():
    inst = DirectedInstance(3, [(0, 1, 2), (0, 2, 3)], 0, {1, 2},
                            {0: 2, 1: 0, 2: 0})
    norm = normalize(inst)
    assert norm.inst.n == 3
    assert norm.inst.cost == inst.cost


def test_normalize_invariants():
    for seed in range(50):
        n = 4 + seed % 6
        inst = gen_dst(n, n - 1 + seed % 5, 1 + seed % 3, seed=seed)
        norm = normalize(inst)
        ni = norm.inst
        for t in ni.terminals:
            assert len(ni.in_edges(t)) == 1 and not ni.out_edges(t)
        for u in range(ni.n):
            if u not in ni.terminals:
                assert len(ni.out_edges(u)) <= 2
        # exactly one normalized edge carries each original cost
        carried = [e for e, oe in norm.edge_origin.items() if oe is not None]
        assert sorted(norm.edge_origin[e] for e in carried) == \
            sorted((u, v) for (u, v, _) in inst.edges)
        assert sum(ni.cost.values()) == sum(c for (_, _, c) in inst.edges)


def test_original_degree_cases():
    inst = DirectedInstance(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3)], 0,
                            {1, 2, 3}, {0: 3, 1: 0, 2: 0, 3: 0})
    norm = normalize(inst)
    mt = MultiTree()
    a = mt.add_node(0)
    assert original_degree(norm, mt) == [0]
    g = mt.add_node(4, a)
    mt.add_node(1, g)
    mt.add_node(2, g)
    rho = original_degree(norm, mt)
    # gadget vertex has identity phi: rho_g = 2 and rho_r = phi_g(2) = 2
    assert rho[g] == 2 and rho[a] == 2


def test_preprocess_gst_fixed_point():
    inst = GroupTreeInstance(3, [-1, 0, 0], [0, 2, 3],
                             [frozenset({1}), frozenset({2})], [2, 1, 1])
    pre = preprocess_gst(inst)
    assert pre.n == 3 and pre.groups == inst.groups


def test_preprocess_gst_internal_member():
    inst = GroupTreeInstance(3, [-1, 0, 1], [0, 2, 3],
                             [frozenset({1})], [1, 1, 1])
    pre = preprocess_gst(inst)
    assert pre.n == 4
    w = 3
    assert pre.parent[w] == 1 and pre.cost[w] == 0 and pre.synthetic_leaf[w]
    assert pre.groups[0] == frozenset({w})
    assert pre.degree_bound[1] == inst.degree_bound[1] + 1


def test_preprocess_gst_shared_leaf():
    inst = GroupTreeInstance(2, [-1, 0], [0, 2],
                             [frozenset({1}), frozenset({1})], [1, 1])
    pre = preprocess_gst(inst)
    assert pre.n == 4
    assert pre.degree_bound[1] == inst.degree_bound[1] + 2
    assert pre.groups[0] != pre.groups[1]
    pre.validate_groups()
