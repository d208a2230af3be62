import dataclasses
import time
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from dbnet.cli import main
from dbnet.generators import gen_dst, gen_gst
from dbnet.errors import FormatError
from dbnet.instances import (DirectedInstance, GroupTreeInstance, MultiTree,
                             NormalizedInstance, normalize, original_degree,
                             parse_dst, parse_gst, preprocess_gst,
                             serialize_dst, serialize_gst)

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


@pytest.mark.parametrize("parse,text", [
    (parse_dst, MINIMAL.replace("root 0", "root x")),
    (parse_dst, MINIMAL.replace("root 0", "root")),
    (parse_dst, MINIMAL.replace("vertex 0 1", "vertex 0 a")),
    (parse_dst, MINIMAL.replace("2 1 1", "2 1 -1")),
    (parse_gst, "DBGST 1\n2 0\nroot 5\nvertex 0 -1 0 1\nvertex 1 0 1 1\n"),
    (parse_gst, "DBGST 1\n2 1\nroot 0\nvertex 0 -1 0 1\n"
                "vertex 1 0 1 1\ngroup\n"),
    (parse_gst, "DBGST 1\n2 0\nroot 0\nvertex 0 -1 0 1\nvertex 1 0 -5 1\n")])
def test_malformed_token_is_format_error(parse, text):
    with pytest.raises(FormatError):
        parse(text)


FUZZ_SEEDS = [(parse_dst, serialize_dst(gen_dst(5, 6, 2, seed=0))),
              (parse_dst, MINIMAL),
              (parse_gst, serialize_gst(gen_gst(6, 2, depth=3, seed=0)))]
FUZZ_TOKENS = ["x", "-1", "0", "1", "2", "7", "99", "1.5", "root", "vertex",
               "edge", "terminal", "group"]


@hs.composite
def mutated_instance(draw):
    """A serialized instance with a few tokens or lines replaced, dropped or
    duplicated, and its parser."""
    parse, text = draw(hs.sampled_from(FUZZ_SEEDS))
    lines = [ln.split() for ln in text.splitlines()]
    for _ in range(draw(hs.integers(1, 4))):
        i = draw(hs.integers(0, len(lines) - 1))
        j = draw(hs.integers(0, len(lines[i])))
        op = draw(hs.sampled_from(["set", "insert", "drop", "dup_line",
                                   "drop_line"]))
        if op == "set" and j < len(lines[i]):
            lines[i][j] = draw(hs.sampled_from(FUZZ_TOKENS))
        elif op == "insert":
            lines[i].insert(j, draw(hs.sampled_from(FUZZ_TOKENS)))
        elif op == "drop" and j < len(lines[i]):
            del lines[i][j]
        elif op == "dup_line":
            lines.insert(i, list(lines[i]))
        elif op == "drop_line" and len(lines) > 1:
            del lines[i]
    return parse, "\n".join(" ".join(ln) for ln in lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=400)
@given(mutated_instance())
def test_parsers_are_total(case):
    parse, text = case
    try:
        inst = parse(text)
    except FormatError:
        return
    assert isinstance(inst, (DirectedInstance, GroupTreeInstance))


def test_duplicate_edge_rejected():
    with pytest.raises(FormatError, match="duplicate"):
        DirectedInstance(2, [(0, 1, 5), (0, 1, 6)], 0, {1}, {0: 1, 1: 0})


def test_repeated_group_member_rejected(tmp_path):
    text = serialize_gst(GroupTreeInstance(3, [-1, 0, 0], [0, 1, 1],
                                           [frozenset({1, 2})], [2, 1, 1]))
    assert "group 0 2 1 2\n" in text
    # the size check passes, but the group would shrink to {1}
    bad = text.replace("group 0 2 1 2", "group 0 2 1 1")
    with pytest.raises(FormatError, match="repeated group member"):
        parse_gst(bad)
    path = tmp_path / "bad.gst"
    path.write_text(bad)
    assert main(["oracle-gst", "--instance", str(path)]) == 5


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


# vertex 1 of this instance has the child 2: "dbnet run" preprocesses it,
# while validate_groups refuses it
INNER_MEMBER_GST = ("DBGST 1\n4 1\nroot 0\nvertex 0 -1 0 2\n"
                    "vertex 1 0 3 1\nvertex 2 1 4 1\nvertex 3 0 5 1\n"
                    "group 0 1 1\n")


@pytest.mark.parametrize("groups,says", [
    # the first inner member by group, then by member
    ([{2, 3}, {1}], "group 0 member 2 is not a leaf"),
    ([{4, 2, 1}], "group 0 member 1 is not a leaf"),
    # the smallest vertex in two groups
    ([{4}, {3}, {3, 4}], "groups overlap at 3"),
    # an inner member before an overlap
    ([{1}, {1}], "group 0 member 1 is not a leaf")],
    ids=["by-group", "by-member", "overlap", "inner-first"])
def test_validate_groups_names_the_first_fault(groups, says):
    # 0 has the children 1 and 2, which have the leaves 3 and 4
    inst = GroupTreeInstance(5, [-1, 0, 0, 1, 2], [0] * 5, groups, [2] * 5)
    with pytest.raises(FormatError) as err:
        inst.validate_groups()
    assert str(err.value) == says


def test_validate_groups_refuses_an_inner_member():
    with pytest.raises(FormatError, match="group 0 member 1 is not a leaf"):
        parse_gst(INNER_MEMBER_GST).validate_groups()


def test_normalize_star_gadget():
    # r with out-edges to a, b, c: one new gadget vertex, costs preserved
    inst = DirectedInstance(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3)], 0,
                            {1, 2, 3}, {0: 3, 1: 0, 2: 0, 3: 0})
    norm = normalize(inst)
    assert norm.inst.n == 5
    g = 4
    assert norm.is_gadget(g) and norm.origin[g] == 0
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
    assert norm.origin[tp] == 1 and not norm.is_gadget(tp)


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
            assert [v for (_, v, _) in ni.edges].count(t) == 1
            assert not ni.out_edges(t)
        for u in range(ni.n):
            if u not in ni.terminals:
                assert len(ni.out_edges(u)) <= 2
        # exactly one normalized edge carries each original cost
        carried = [norm.edge_origin(e) for e in ni.cost]
        assert sorted(oe for oe in carried if oe is not None) == \
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


@pytest.mark.parametrize("parent,says", [
    ([-1, 0, 3], "parent id out of range for 2"),
    ([-1, 0, -1], "tree must have one root, found [0, 2]"),
    ([-1, 2, 1], "parent mapping does not form a rooted tree")],
    ids=["out-of-range", "two-roots", "cycle"])
def test_group_tree_rejects_bad_parents(parent, says):
    with pytest.raises(FormatError) as err:
        GroupTreeInstance(3, parent, [0] * 3, [], [1] * 3)
    assert str(err.value) == says


# phi of a vertex that counts as one child, and of a gadget vertex
PHI_ONE, PHI_IDENTITY = "one", "identity"


class Reference(NamedTuple):
    """A reference normalization, with the lookups that ``normalize``
    derives from vertex ids kept as maps of their own."""

    norm: NormalizedInstance
    phi_kind: dict[int, str]
    edge_origin: dict[tuple[int, int], tuple[int, int] | None]
    terminal_origin: dict[int, int]


def reference_normalize(inst: DirectedInstance) -> Reference:
    """``normalize`` as first written: degrees recounted from the edge list,
    every vertex's out-edges found by a scan of all edges, and phi, the
    original edge of each normalized edge and the original id of each
    terminal stored as they are made."""
    n = inst.n
    edges = {(u, v): c for (u, v, c) in inst.edges}
    degree = dict(inst.degree_bound)
    origin = {v: v for v in range(n)}
    phi_kind = {v: PHI_ONE for v in range(n)}
    edge_origin = {(u, v): (u, v) for (u, v) in edges}
    terminals = set(inst.terminals)
    terminal_origin = {}

    indeg = {v: 0 for v in range(n)}
    outdeg = {v: 0 for v in range(n)}
    for (u, v) in edges:
        outdeg[u] += 1
        indeg[v] += 1

    for t in sorted(inst.terminals):
        if indeg[t] == 1 and outdeg[t] == 0:
            terminal_origin[t] = t
            continue
        tp = n
        n += 1
        edges[(t, tp)] = 0
        edge_origin[(t, tp)] = None
        degree[t] = degree[t] + 1
        degree[tp] = 0
        origin[tp] = t
        phi_kind[tp] = PHI_ONE
        terminals.discard(t)
        terminals.add(tp)
        terminal_origin[tp] = t
        outdeg[t] += 1

    d_max = max(degree.values()) if degree else 1

    for u in sorted(set(range(n)) - terminals):
        out = sorted(v for (a, v) in edges if a == u)
        if len(out) <= 2:
            continue
        leaf_cost = {v: edges.pop((u, v)) for v in out}
        leaf_orig = {v: edge_origin.pop((u, v)) for v in out}

        def attach(parent, leaves):
            nonlocal n
            if len(leaves) == 1:
                w = leaves[0]
                edges[(parent, w)] = leaf_cost[w]
                edge_origin[(parent, w)] = leaf_orig[w]
                return
            g = n
            n += 1
            degree[g] = d_max
            origin[g] = u
            phi_kind[g] = PHI_IDENTITY
            edges[(parent, g)] = 0
            edge_origin[(parent, g)] = None
            mid = (len(leaves) + 1) // 2
            attach(g, leaves[:mid])
            attach(g, leaves[mid:])

        mid = (len(out) + 1) // 2
        attach(u, out[:mid])
        attach(u, out[mid:])

    norm = DirectedInstance(
        n, [(u, v, c) for ((u, v), c) in sorted(edges.items())], inst.root,
        frozenset(terminals), degree)
    ref = Reference(NormalizedInstance(norm, inst, origin, {}), phi_kind,
                    edge_origin, terminal_origin)
    ref.norm.edge_path.update(reference_edge_path(ref))
    return ref


def reference_edge_path(ref: Reference) -> dict:
    """Each original edge's gadget path, and each split terminal's sink
    path, found again by walking the normalized out-edges and guessing each
    edge's role from ``edge_origin``, ``phi_kind`` and ``origin``, as
    ``lift_tree`` did before ``normalize`` recorded the paths."""
    norm = ref.norm
    out_adj = {}
    for (a, b, _) in norm.inst.edges:
        out_adj.setdefault(a, []).append(b)

    def gadget_edges(u, want, want_sink):
        keep = []

        def walk(a):
            used = False
            for b in sorted(out_adj.get(a, [])):
                e = (a, b)
                oe = ref.edge_origin.get(e)
                if oe is not None:
                    hit = oe[0] == u and oe[1] in want
                elif norm.origin[b] == u and ref.phi_kind[b] == PHI_IDENTITY:
                    hit = walk(b)
                elif norm.origin[b] == u and b != u:
                    hit = want_sink  # the split sink edge (u, u')
                else:
                    hit = False
                if hit:
                    keep.append(e)
                    used = True
            return used

        walk(u)
        return tuple(reversed(keep))

    paths = {(u, w): gadget_edges(u, {w}, False)
             for (u, w, _) in norm.original.edges}
    for tp, t in ref.terminal_origin.items():
        if tp != t:
            paths[(t, tp)] = gadget_edges(t, set(), True)
    return paths


def assert_same_normalized(got: NormalizedInstance, ref: Reference):
    want = ref.norm
    for f in dataclasses.fields(NormalizedInstance):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a == b, f.name
        if isinstance(a, dict):
            # insertion order too: later stages iterate these maps
            assert list(a.items()) == list(b.items()), f.name
    assert list(got.inst.degree_bound.items()) == \
        list(want.inst.degree_bound.items())
    assert got.inst.cost == want.inst.cost
    # the lookups derived from vertex ids, on every vertex, edge, terminal
    for v in range(got.inst.n):
        gadget = ref.phi_kind[v] == PHI_IDENTITY
        assert got.is_gadget(v) == gadget, ("is_gadget", v)
        for rho in (0, 2, 5):
            assert got.phi(v, rho) == (rho if gadget else 1), ("phi", v)
    for e in got.inst.cost:
        assert got.edge_origin(e) == ref.edge_origin[e], ("edge_origin", e)
    assert sorted(ref.terminal_origin) == sorted(got.inst.terminals)
    for t, o in ref.terminal_origin.items():
        assert got.origin[t] == o, ("origin", t)


@hs.composite
def dst_shape(draw):
    n = draw(hs.integers(3, 12))
    m = draw(hs.integers(n - 1, min((n - 1) ** 2, 4 * n)))
    return gen_dst(n, m, draw(hs.integers(1, n - 1)),
                   d_max=draw(hs.integers(1, 4)),
                   seed=draw(hs.integers(0, 2 ** 16)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(dst_shape())
def test_normalize_matches_reference(inst):
    assert_same_normalized(normalize(inst), reference_normalize(inst))


@pytest.mark.parametrize("d_max", [1, 2, 3, 4])
def test_normalize_matches_reference_with_gadgets(d_max):
    inst = gen_dst(10, 40, 4, d_max=d_max, seed=d_max)
    assert max(len(inst.out_edges(u)) for u in range(inst.n)) >= 3
    norm = normalize(inst)
    ref = reference_normalize(inst)
    assert PHI_IDENTITY in ref.phi_kind.values()
    assert max(map(len, norm.edge_path.values())) >= 3
    assert_same_normalized(norm, ref)


def test_edge_path_guard_catches_a_missing_gadget_edge():
    inst = gen_dst(10, 40, 4, d_max=2, seed=2)
    want = reference_normalize(inst)
    norm = normalize(inst)
    e, path = next((e, p) for e, p in norm.edge_path.items() if len(p) >= 2)
    for i in range(len(path)):
        norm.edge_path[e] = path[:i] + path[i + 1:]
        with pytest.raises(AssertionError, match="edge_path"):
            assert_same_normalized(norm, want)
    norm.edge_path[e] = path
    assert_same_normalized(norm, want)


def test_edge_path_holds_the_sink_of_a_split_terminal():
    # terminal 1 has out-edges, so it is split into 1 -> 5, and its four
    # heads 2, 3, 4, 5 get the gadgets 6 above 2, 3 and 7 above 4, 5
    inst = DirectedInstance(5, [(0, 1, 4), (1, 2, 1), (1, 3, 1), (1, 4, 1)],
                            0, {1, 2, 3, 4}, {0: 1, 1: 3, 2: 0, 3: 0, 4: 0})
    norm = normalize(inst)
    assert norm.edge_path == {
        (0, 1): ((0, 1),), (1, 2): ((1, 6), (6, 2)),
        (1, 3): ((1, 6), (6, 3)), (1, 4): ((1, 7), (7, 4)),
        (1, 5): ((1, 7), (7, 5))}
    assert norm.edge_path == reference_normalize(inst).norm.edge_path
    # the star 0 -> 1, 2, 3 gets the gadget 4 above 1 and 2
    star = DirectedInstance(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3)], 0,
                            {1, 2, 3}, {0: 3, 1: 0, 2: 0, 3: 0})
    assert normalize(star).edge_path == {
        (0, 1): ((0, 4), (4, 1)), (0, 2): ((0, 4), (4, 2)),
        (0, 3): ((0, 3),)}


def test_edge_costs_built_once():
    inst = gen_dst(8, 14, 4, seed=0)
    assert inst.cost is inst.cost
    assert inst.cost == {(u, v): c for (u, v, c) in inst.edges}


def test_normalize_is_not_quadratic():
    # 6000 vertices with three out-edges each: a scan of all edges per
    # vertex takes seconds, reading the adjacency about a tenth of one
    n = 6000
    edges = [(u, v, 1) for u in range(n) for v in range(u + 1, min(u + 4, n))]
    inst = DirectedInstance(n, edges, 0, {n - 1}, {v: 3 for v in range(n)})
    start = time.perf_counter()
    norm = normalize(inst)
    assert time.perf_counter() - start < 1.0
    assert norm.inst.n == n + n - 2
