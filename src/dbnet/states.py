"""States, good state trees, stitching, and the super-tree builder.

A state is a triple (root, portals, degree vector).  Good state trees encode
balanced recursive decompositions of candidate solution trees; the super
tree contains every good extended state tree of bounded depth as a subtree
and is the object the LP relaxation is written over.

The super-tree builder avoids materializing dead branches: it first computes,
bottom-up, the set of "live" states (those admitting a good sub-state-tree)
together with the minimum depth such a subtree needs, and then expands only
children that stay live within the remaining depth budget.  The result equals
the full construction followed by repeated deletion of childless state nodes
and under-filled virtual nodes.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappush, heappop

from .errors import CapExceededError, InvariantError
from .instances import MultiTree, NormalizedInstance, original_degree
from .treekit import RootedTree, find_balanced_separator, height_budget, split_at

# a state key is (root, frozenset(portals), tuple(sorted(rho.items())))
StateKey = tuple


def make_key(r: int, S, rho: dict) -> StateKey:
    return (r, frozenset(S), tuple(sorted(rho.items())))


def is_allowable_child_pair(parent, left, right) -> bool:
    """Definition of allowable child-pairs over root-portals-pairs.

    Requires r'' not in S, S1 | S2 = S + {r''}, S1 & S2 = {r''}, and the
    left child keeping the parent's root.
    """
    (r1, S), (rl, S1), (r2, S2) = parent, left, right
    for (r, ss) in (parent, left, right):
        if r not in ss:
            raise InvariantError(f"({r}, {set(ss)}) is not a root-portals-pair")
    S, S1, S2 = frozenset(S), frozenset(S1), frozenset(S2)
    return (rl == r1 and r2 not in S and S1 | S2 == S | {r2}
            and S1 & S2 == {r2})


def degree_vectors_consistent(rho: dict, rho1: dict, rho2: dict,
                              r2: int) -> bool:
    for v in rho1:
        if v != r2 and rho.get(v) != rho1[v]:
            return False
    for v in rho2:
        if v != r2 and rho.get(v) != rho2[v]:
            return False
    return rho1.get(r2) == rho2.get(r2) and rho1.get(r2) is not None


def _contrib(norm: NormalizedInstance, v: int, rho: dict) -> int:
    # "phi_v(rho_v) or 1": terminals contribute 1, portals phi of their rho
    if v in norm.inst.terminals:
        return 1
    return norm.phi(v, rho[v])


def edge_agrees(norm: NormalizedInstance, edge: tuple[int, int], S,
                rho: dict) -> bool:
    r1, v = edge
    if frozenset({r1, v} - norm.inst.terminals) != frozenset(S):
        raise InvariantError(f"edge {edge} portals do not match S={set(S)}")
    return rho[r1] == _contrib(norm, v, rho)


def triple_agrees(norm: NormalizedInstance, triple: tuple[int, int, int], S,
                  rho: dict) -> bool:
    r1, v, v2 = triple
    if frozenset({r1, v, v2} - norm.inst.terminals) != frozenset(S):
        raise InvariantError(f"triple {triple} portals do not match S={set(S)}")
    return rho[r1] == _contrib(norm, v, rho) + _contrib(norm, v2, rho)


@dataclass
class StateTreeNode:
    r: int
    S: frozenset
    rho: dict
    left: "StateTreeNode | None" = None
    right: "StateTreeNode | None" = None
    edge: tuple[int, int] | None = None
    triple: tuple[int, int, int] | None = None

    @property
    def is_leaf(self):
        return self.left is None and self.right is None

    def nodes(self):
        yield self
        if self.left is not None:
            yield from self.left.nodes()
        if self.right is not None:
            yield from self.right.nodes()

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def leaf_cost(self, cost: dict) -> int:
        if self.edge is not None:
            return cost[self.edge]
        r1, v, v2 = self.triple
        return cost[(r1, v)] + cost[(r1, v2)]

    def cost(self, norm: NormalizedInstance) -> int:
        cost = norm.cost
        return sum(o.leaf_cost(cost) for o in self.nodes() if o.is_leaf)


def gen_state_tree(norm: NormalizedInstance, tree: MultiTree,
                   h: int | None = None) -> StateTreeNode:
    """Decompose a valid binary tree into its good state tree (analysis side).

    The input tree must have distinct vertex labels, terminal leaves and
    in-range original degrees; the output passes validate_state_tree and has
    the same cost.
    """
    if len(set(tree.label)) != len(tree.label):
        raise InvariantError("gen_state_tree needs distinct vertex labels")
    if h is None:
        h = height_budget(norm.inst.n)
    K = norm.inst.terminals
    rho_all = original_degree(norm, tree)
    rt = RootedTree({a: tree.parent[a] for a in range(len(tree))})

    def state_of(sub: RootedTree):
        portals = [sub.root]
        portals += [a for a in sub.parent
                    if a != sub.root and not sub.children[a]
                    and tree.label[a] not in K]
        S = frozenset(tree.label[a] for a in portals)
        if len(S) != len(portals):
            raise InvariantError("portal labels are not distinct")
        rho = {tree.label[a]: rho_all[a] for a in portals}
        return tree.label[sub.root], S, rho

    def gen(sub: RootedTree, depth: int) -> StateTreeNode:
        if depth > h:
            raise CapExceededError(f"decomposition exceeds depth budget {h}")
        r1, S, rho = state_of(sub)
        kids = sub.children[sub.root]
        if all(not sub.children[a] for a in kids):
            node = StateTreeNode(r1, S, rho)
            labels = sorted(tree.label[a] for a in kids)
            if len(kids) == 1:
                node.edge = (r1, labels[0])
            elif len(kids) == 2:
                node.triple = (r1, labels[0], labels[1])
            else:
                raise InvariantError("tree is not binary")
            return node
        v = find_balanced_separator(sub)
        t1, t2 = split_at(sub, v)
        node = StateTreeNode(r1, S, rho)
        node.left = gen(t1, depth + 1)
        node.right = gen(t2, depth + 1)
        return node

    return gen(rt, 0)


def validate_state_tree(norm: NormalizedInstance, root: StateTreeNode,
                        h: int | None = None) -> list[str]:
    """Check the good-state-tree conditions; returns a list of violations."""
    if h is None:
        h = height_budget(norm.inst.n)
    inst = norm.inst
    K = inst.terminals
    bad = []
    if (root.r, root.S) != (inst.root, frozenset({inst.root})):
        bad.append(f"root state is ({root.r}, {set(root.S)}), "
                   f"expected ({inst.root}, {{{inst.root}}})")
    if root.depth() > h:
        bad.append(f"depth {root.depth()} exceeds budget {h}")
    cost = norm.cost
    for node in root.nodes():
        where = f"node ({node.r}, {sorted(node.S)})"
        if node.r not in node.S:
            bad.append(f"{where}: root not in portals")
        if node.S & K:
            bad.append(f"{where}: portals contain terminals {node.S & K}")
        for v in node.S:
            if not (1 <= node.rho.get(v, 0) <= inst.degree_bound[v]):
                bad.append(f"{where}: rho[{v}]={node.rho.get(v)} out of "
                           f"[1, {inst.degree_bound[v]}]")
        if (node.left is None) != (node.right is None):
            bad.append(f"{where}: not a full binary tree")
        elif node.is_leaf:
            if (node.edge is None) == (node.triple is None):
                bad.append(f"{where}: leaf needs exactly one of edge/triple")
                continue
            try:
                if node.edge is not None:
                    if node.edge not in cost:
                        bad.append(f"{where}: {node.edge} is not a graph edge")
                    elif not edge_agrees(norm, node.edge, node.S, node.rho):
                        bad.append(f"{where}: edge {node.edge} disagrees "
                                   f"with rho")
                else:
                    r1, v, v2 = node.triple
                    if (r1, v) not in cost or (r1, v2) not in cost:
                        bad.append(f"{where}: triple edges not in graph")
                    elif not triple_agrees(norm, node.triple, node.S,
                                           node.rho):
                        bad.append(f"{where}: triple {node.triple} disagrees "
                                   f"with rho")
            except InvariantError as e:
                bad.append(f"{where}: {e}")
        else:
            if node.edge is not None or node.triple is not None:
                bad.append(f"{where}: internal node carries a leaf payload")
            q, o = node.left, node.right
            try:
                ok = is_allowable_child_pair((node.r, node.S), (q.r, q.S),
                                             (o.r, o.S))
            except InvariantError as e:
                ok = False
                bad.append(f"{where}: {e}")
            if not ok:
                bad.append(f"{where}: children are not an allowable pair")
            elif not degree_vectors_consistent(node.rho, q.rho, o.rho, o.r):
                bad.append(f"{where}: child degree vectors inconsistent")
    return bad


class _Frag:
    __slots__ = ("label", "children")

    def __init__(self, label):
        self.label = label
        self.children = []


def stitch_multi_tree(norm: NormalizedInstance,
                      root: StateTreeNode) -> MultiTree:
    """Join the leaf edges/triples of a good state tree into a multi-tree.

    Bottom-up: each subtree yields a multi-tree plus a map from portals to
    their copies; the right child's root copy is identified with the left
    child's copy of the same portal.
    """
    bad = validate_state_tree(norm, root)
    if bad:
        raise InvariantError("stitch on invalid state tree: " + "; ".join(bad))
    K = norm.inst.terminals

    def build(node: StateTreeNode):
        if node.is_leaf:
            top = _Frag(node.r)
            pi = {node.r: top}
            tails = ([node.edge[1]] if node.edge is not None
                     else [node.triple[1], node.triple[2]])
            for v in tails:
                f = _Frag(v)
                top.children.append(f)
                if v not in K:
                    pi[v] = f
            return top, pi
        top, pi_q = build(node.left)
        sub, pi_o = build(node.right)
        join = pi_q[node.right.r]
        join.children.extend(sub.children)
        pi = dict(pi_q)
        for v, f in pi_o.items():
            pi[v] = join if f is sub else f
        return top, pi

    top, _ = build(root)
    mt = MultiTree()
    stack = [(top, None)]
    while stack:
        frag, parent = stack.pop()
        a = mt.add_node(frag.label, parent)
        for ch in reversed(frag.children):
            stack.append((ch, a))
    mt.check_edges(norm)
    return mt


# super-tree node kinds
SUPER, STATE, VIRTUAL, BASE = "R", "S", "V", "B"


@dataclass
class SuperTree:
    """Arena holding the pruned output of the super-tree construction."""

    norm: NormalizedInstance
    h: int
    kind: list[str] = field(default_factory=list)
    parent: list[int | None] = field(default_factory=list)
    children: list[list[int]] = field(default_factory=list)
    state: list[StateKey | None] = field(default_factory=list)
    payload: list[tuple | None] = field(default_factory=list)
    cost: list[int] = field(default_factory=list)
    level: list[int] = field(default_factory=list)

    def add(self, kind, parent, state=None, payload=None, cost=0, level=-1,
            cap=None):
        i = len(self.kind)
        if cap is not None and i >= cap:
            raise CapExceededError(
                f"super-tree node cap {cap} exceeded at state level {level}; "
                f"lower n, the height, or the degree bounds")
        self.kind.append(kind)
        self.parent.append(parent)
        self.children.append([])
        self.state.append(state)
        self.payload.append(payload)
        self.cost.append(cost)
        self.level.append(level)
        if parent is not None:
            self.children[parent].append(i)
        return i

    def __len__(self):
        return len(self.kind)

    @property
    def root(self) -> int:
        return 0

    def base_nodes(self):
        return [i for i, k in enumerate(self.kind) if k == BASE]

    def involved_vertices(self, o: int) -> tuple[int, ...]:
        tag, data = self.payload[o]
        return (data[1],) if tag == "e" else (data[1], data[2])

    def terminal_index(self) -> dict[int, list[int]]:
        O = {t: [] for t in self.norm.inst.terminals}
        for o in self.base_nodes():
            for v in self.involved_vertices(o):
                if v in O:
                    O[v].append(o)
        return O

    def height(self) -> int:
        # longest downward path in edges, counting all node kinds
        depth = [0] * len(self.kind)
        best = 0
        for i in range(1, len(self.kind)):
            depth[i] = depth[self.parent[i]] + 1
            best = max(best, depth[i])
        return best

    def dump(self) -> str:
        lines = []

        def rec(i, indent):
            k = self.kind[i]
            if k == SUPER:
                desc = "super"
            elif k == STATE:
                r, S, rho = self.state[i]
                desc = f"state r'={r} S={sorted(S)} rho={dict(rho)}"
            elif k == VIRTUAL:
                desc = "virtual"
            else:
                tag, data = self.payload[i]
                desc = f"base {tag}={data} c={self.cost[i]}"
            lines.append("  " * indent + desc)
            for ch in self.children[i]:
                rec(ch, indent + 1)

        rec(self.root, 0)
        return "\n".join(lines) + "\n"


def _base_states(norm: NormalizedInstance):
    """All states with an agreeing edge or triple (depth-0 live states)."""
    inst = norm.inst
    K = inst.terminals
    out = set()
    for r1 in range(inst.n):
        if r1 in K:
            continue
        d_r = inst.degree_bound[r1]
        if d_r < 1:
            continue
        edges = sorted(v for (v, _) in inst.out_edges(r1))
        for v in edges:
            for rho in _leaf_rhos(norm, r1, (v,), d_r):
                out.add(make_key(r1, frozenset({r1, v} - K), rho))
        for v, v2 in itertools.combinations(edges, 2):
            for rho in _leaf_rhos(norm, r1, (v, v2), d_r):
                out.add(make_key(r1, frozenset({r1, v, v2} - K), rho))
    return out


def _leaf_rhos(norm: NormalizedInstance, r1: int, tails: tuple[int, ...],
               d_r: int):
    """Degree vectors agreeing with the edge/triple (r1, *tails)."""
    inst = norm.inst
    K = inst.terminals
    free = [v for v in tails if v not in K]
    ranges = [range(1, inst.degree_bound[v] + 1) for v in free]
    for combo in itertools.product(*ranges):
        rho = dict(zip(free, combo))
        total = sum(1 if v in K else norm.phi(v, rho[v]) for v in tails)
        if 1 <= total <= d_r:
            rho[r1] = total
            yield rho


def live_states(norm: NormalizedInstance, h: int) -> dict[StateKey, int]:
    """Minimum good-sub-state-tree depth for every live state, up to h.

    Dijkstra-style fixpoint over the join relation: a parent state built from
    two live children (sharing the right child's root as a portal with equal
    rho value) needs depth 1 + max of the children's depths.
    """
    inst = norm.inst
    md: dict[StateKey, int] = {}
    heap = []
    counter = itertools.count()

    def offer(key, d):
        # a state with |S| portals sits at level >= |S| - 1
        if len(key[1]) - 1 + d > h:
            return
        if d < md.get(key, h + 1):
            md[key] = d
            heappush(heap, (d, next(counter), key))

    for key in _base_states(norm):
        offer(key, 0)

    final = set()
    by_root = defaultdict(list)
    by_portal = defaultdict(list)

    def join(lkey, rkey):
        rl, S1, rho1t = lkey
        rr, S2, rho2t = rkey
        if S1 & S2 != {rr}:
            return
        rho1, rho2 = dict(rho1t), dict(rho2t)
        if rho1[rr] != rho2[rr]:
            return
        S = (S1 | S2) - {rr}
        rho = {v: r for v, r in rho1.items() if v != rr}
        rho.update((v, r) for v, r in rho2.items() if v != rr)
        offer(make_key(rl, S, rho), 1 + max(md[lkey], md[rkey]))

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
    return {k: d for k, d in md.items() if k in final}


def build_super_tree(norm: NormalizedInstance, h: int | None = None,
                     node_cap: int = 5_000_000) -> SuperTree:
    """Construct the pruned super-tree containing all good extended state
    trees of state-depth at most h."""
    inst = norm.inst
    if h is None:
        h = height_budget(inst.n)
    md = live_states(norm, h)
    K = inst.terminals
    nonterminals = sorted(set(range(inst.n)) - K)
    st = SuperTree(norm, h)
    root = st.add(SUPER, None, level=-1)

    def expand(key, level, parent):
        r1, S, rhot = key
        rho = dict(rhot)
        p = st.add(STATE, parent, state=key, level=level, cap=node_cap)
        edges = sorted((v, c) for (v, c) in inst.out_edges(r1))
        for (v, c) in edges:
            if frozenset({r1, v} - K) == S and edge_agrees(
                    norm, (r1, v), S, rho):
                st.add(BASE, p, payload=("e", (r1, v)), cost=c, level=level,
                       cap=node_cap)
        for (v, c1), (v2, c2) in itertools.combinations(edges, 2):
            if frozenset({r1, v, v2} - K) == S and triple_agrees(
                    norm, (r1, v, v2), S, rho):
                st.add(BASE, p, payload=("xi", (r1, v, v2)), cost=c1 + c2,
                       level=level, cap=node_cap)
        if level >= h:
            return
        budget = h - level - 1
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
                    rho1[r2] = val
                    rho2 = {v: rho[v] for v in S2 if v != r2}
                    rho2[r2] = val
                    k1 = make_key(r1, S1, rho1)
                    k2 = make_key(r2, S2, rho2)
                    if md.get(k1, h + 1) > budget or md.get(k2, h + 1) > budget:
                        continue
                    q = st.add(VIRTUAL, p, level=level, cap=node_cap)
                    expand(k1, level + 1, q)
                    expand(k2, level + 1, q)

    for rho_r in range(1, inst.degree_bound[inst.root] + 1):
        key = make_key(inst.root, {inst.root}, {inst.root: rho_r})
        if md.get(key, h + 1) <= h:
            expand(key, 0, root)
    return st


def selection_to_state_tree(st: SuperTree, selected: set[int]) -> StateTreeNode:
    """Convert a rounded node set (one child per state, both children of
    every virtual node) back into a state tree."""

    def pick_child(i, want=1):
        kids = [c for c in st.children[i] if c in selected]
        if len(kids) != want:
            raise InvariantError(
                f"node {i} ({st.kind[i]}) has {len(kids)} selected children, "
                f"expected {want}")
        return kids

    def from_state(p) -> StateTreeNode:
        r1, S, rhot = st.state[p]
        node = StateTreeNode(r1, S, dict(rhot))
        (c,) = pick_child(p)
        if st.kind[c] == BASE:
            tag, data = st.payload[c]
            if tag == "e":
                node.edge = data
            else:
                node.triple = data
        elif st.kind[c] == VIRTUAL:
            left, right = pick_child(c, want=2)
            node.left = from_state(left)
            node.right = from_state(right)
        else:
            raise InvariantError(f"unexpected child kind {st.kind[c]}")
        return node

    if st.root not in selected:
        raise InvariantError("selection does not contain the super node")
    (top,) = pick_child(st.root)
    return from_state(top)
