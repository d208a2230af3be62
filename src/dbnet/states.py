"""States, good state trees, stitching, and the super-tree builder.

A state is a triple (root, portals, degree vector).  Good state trees encode
balanced recursive decompositions of candidate solution trees; the super
tree contains every good extended state tree of bounded depth as a subtree
and is the object the LP relaxation is written over.

The super-tree builder avoids materializing dead branches.  One bottom-up
fixpoint (``live_states``) finds the "live" states (those admitting a good
sub-state-tree), the minimum depth such a subtree needs, and every state's
agreeing edges/triples and child pairs.  The builder only reads that table:
it sizes the tree exactly, then writes out the children that stay live
within the remaining depth budget.  The result equals the full construction
followed by repeated deletion of childless state nodes and under-filled
virtual nodes.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappush, heappop

import numpy as np

from .errors import CapExceededError, InvariantError
from .instances import MultiTree, NormalizedInstance, original_degree
from .rounding import csr, expand
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


# super-tree node kinds, the codes of ``SuperTree.kind``
SUPER, STATE, VIRTUAL, BASE = 0, 1, 2, 3
KIND_NAMES = "RSVB"
# subtree sizes saturate here: states that no root reaches may span more
# nodes than int64 holds, and a count this large is over any node cap that
# fits in memory
SIZE_LIMIT = 2 ** 53


def _offsets(counts) -> np.ndarray:
    """CSR row pointers of rows with these entry counts."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


class _Column:
    """``column[i]`` is ``values[ids[i]]``, or None where ``ids[i]`` is -1."""

    __slots__ = ("ids", "values")

    def __init__(self, ids: np.ndarray, values: list):
        self.ids, self.values = ids, values

    def __getitem__(self, i):
        j = self.ids[i]
        return None if j < 0 else self.values[j]


class _Rows:
    """``rows[i]`` is row i of a CSR table, as a list."""

    __slots__ = ("ptr", "col")

    def __init__(self, ptr: np.ndarray, col: np.ndarray):
        self.ptr, self.col = ptr, col

    def __getitem__(self, i) -> list[int]:
        return self.col[self.ptr[i]:self.ptr[i + 1]].tolist()


@dataclass
class SuperTree:
    """Arena holding the pruned output of the super-tree construction as
    numpy columns, nodes in preorder from the super node 0.

    Node i has ``kind[i]`` (a code above), ``parent[i]`` (-1 at the super
    node), ``level[i]`` (-1 at the super node) and ``cost[i]`` (0 but at
    base nodes).  A state node names its state by ``state_id[i]`` into
    ``keys``, a base node its edge or triple by ``payload_id[i]`` into
    ``payloads``; both ids are -1 elsewhere.  ``state[i]`` and
    ``payload[i]`` read through them, ``children[i]`` lists the children of
    i in index order from the CSR arrays ``child_ptr``/``child``, and
    ``involved`` pairs each base node with every normalized vertex its edge
    or triple enters, by node, then position."""

    norm: NormalizedInstance
    h: int
    kind: np.ndarray
    parent: np.ndarray
    level: np.ndarray
    cost: np.ndarray
    state_id: np.ndarray
    keys: list
    payload_id: np.ndarray
    payloads: list
    child_ptr: np.ndarray = field(init=False, repr=False)
    child: np.ndarray = field(init=False, repr=False)
    involved: tuple = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.kind)
        self.child_ptr, self.child = csr(n, self.parent[1:], np.arange(1, n))
        self.children = _Rows(self.child_ptr, self.child)
        self.state = _Column(self.state_id, self.keys)
        self.payload = _Column(self.payload_id, self.payloads)
        # ("e", (r', v)) enters v, ("xi", (r', v, v')) enters v and v'
        heads = [data[1:] for _, data in self.payloads]
        vert = np.array([v for d in heads for v in d], dtype=np.int64)
        base = np.flatnonzero(self.payload_id >= 0)
        pos, entry = expand(_offsets([len(d) for d in heads]),
                            self.payload_id[base])
        self.involved = (base[pos], vert[entry])

    def __len__(self):
        return len(self.kind)

    @property
    def root(self) -> int:
        return 0

    def base_nodes(self) -> list[int]:
        return np.flatnonzero(self.kind == BASE).tolist()

    def involved_vertices(self, o: int) -> tuple[int, ...]:
        return self.payload[o][1][1:]

    def terminal_members(self) -> tuple[np.ndarray, np.ndarray]:
        """(base node, terminal rank) for each base node and terminal it
        involves, by node; the rank orders the normalized terminals."""
        terms = np.array(sorted(self.norm.inst.terminals), dtype=np.int64)
        node, vert = self.involved
        hit = np.isin(vert, terms)
        return node[hit], np.searchsorted(terms, vert[hit])

    def terminal_index(self) -> dict[int, list[int]]:
        terms = sorted(self.norm.inst.terminals)
        node, rank = self.terminal_members()
        order = np.argsort(rank, kind="stable")
        cuts = np.searchsorted(rank[order], np.arange(1, len(terms)))
        return {t: nodes.tolist() for t, nodes
                in zip(terms, np.split(node[order], cuts))}

    def height(self) -> int:
        """Longest downward path in edges, counting all node kinds.

        The super node has depth 0, a state node at level l depth 2l + 1,
        and its base and virtual children (level l too) depth 2l + 2."""
        return int(np.max(2 * self.level + np.where(self.kind == STATE, 1, 2),
                          where=self.kind != SUPER, initial=0))

    def dump(self) -> str:
        # preorder is index order, and a node's depth follows from its kind
        # and level as in ``height``
        state_desc = [f"state r'={r} S={sorted(S)} rho={dict(rho)}"
                      for r, S, rho in self.keys]
        lines = []
        for k, lv, s, pay, c in zip(
                self.kind.tolist(), self.level.tolist(),
                self.state_id.tolist(), self.payload_id.tolist(),
                self.cost.tolist()):
            if k == SUPER:
                lines.append("super")
            elif k == STATE:
                lines.append("  " * (2 * lv + 1) + state_desc[s])
            elif k == VIRTUAL:
                lines.append("  " * (2 * lv + 2) + "virtual")
            else:
                tag, data = self.payloads[pay]
                lines.append("  " * (2 * lv + 2) + f"base {tag}={data} c={c}")
        return "\n".join(lines) + "\n"


def _pair_order(parent: StateKey, pair: tuple[StateKey, StateKey]):
    # right root r'', then the left child's share of the parent's other
    # portals as a bit mask over sorted(S - {r'}), then the degree at r''
    r1, S, _ = parent
    (_, S1, rho1), (r2, _, _) = pair
    mask = sum(1 << i for i, v in enumerate(sorted(S - {r1})) if v in S1)
    return r2, mask, dict(rho1)[r2]


def live_states(norm: NormalizedInstance, h: int) -> dict[StateKey, tuple]:
    """Every live state up to h, with the children the super-tree gives it.

    Maps each state admitting a good sub-state-tree within h to
    ``(min depth, base payloads, child pairs)``.  The base payloads are the
    agreeing edges ``("e", (r', v))`` and triples ``("xi", (r', v, v'))``
    with their costs, edges first; the child pairs are every (left, right)
    pair of live states the state joins from, in arena order.

    Dijkstra-style fixpoint over the join relation: a parent state built from
    two live children (sharing the right child's root as a portal with equal
    rho value) needs depth 1 + max of the children's depths.  Finalized
    states are indexed by (root, rho at the root) for the right-child role
    and by (portal, rho at the portal) for the left-child role, so a popped
    state only meets partners that agree at the shared portal.
    """
    inst = norm.inst
    K = inst.terminals
    md: dict[StateKey, int] = {}
    bases = defaultdict(list)
    pairs = defaultdict(list)
    heap = []
    counter = itertools.count()

    def offer(key, d) -> bool:
        # a state with |S| portals sits at level >= |S| - 1
        if len(key[1]) - 1 + d > h:
            return False
        if d < md.get(key, h + 1):
            md[key] = d
            heappush(heap, (d, next(counter), key))
        return True

    for r1 in sorted(set(range(inst.n)) - K):
        edges = sorted(inst.out_edges(r1))
        leaves = [((v,), ("e", (r1, v)), c) for v, c in edges]
        leaves += [((v, v2), ("xi", (r1, v, v2)), c + c2)
                   for (v, c), (v2, c2) in itertools.combinations(edges, 2)]
        for tails, payload, cost in leaves:
            # every degree vector the edge/triple agrees with
            free = [v for v in tails if v not in K]
            for combo in itertools.product(
                    *(range(1, inst.degree_bound[v] + 1) for v in free)):
                rho = dict(zip(free, combo))
                rho[r1] = sum(_contrib(norm, v, rho) for v in tails)
                key = make_key(r1, {r1, *free}, rho)
                if rho[r1] <= inst.degree_bound[r1] and offer(key, 0):
                    bases[key].append((payload, cost))

    final = set()
    # (root or portal, its rho value) -> [(key, |S|, portal bit mask)]
    as_right = defaultdict(list)
    as_left = defaultdict(list)

    def join(lkey, rkey, rr, d):
        # both agree at rr and meet only there; the parent's depth is d + 1
        rl, S1, rho1t = lkey
        _, S2, rho2t = rkey
        rho = tuple(sorted(p for p in rho1t + rho2t if p[0] != rr))
        key = (rl, (S1 | S2) - {rr}, rho)
        if offer(key, d + 1):
            pairs[key].append((lkey, rkey))

    while heap:
        d, _, key = heappop(heap)
        if key in final or md[key] < d:
            continue
        final.add(key)
        r1, S, rhot = key
        rho = dict(rhot)
        mask = sum(1 << v for v in S)
        # partners were finalized first (depth <= d), so the parent sits at
        # level |S| + |S'| - 2 + d, within h only for partners this small
        room = h + 2 - d - len(S)
        for v in S - {r1}:
            for rkey, size, rmask in as_right[v, rho[v]]:
                if size <= room and mask & rmask == 1 << v:
                    join(key, rkey, v, d)
        for lkey, size, lmask in as_left[r1, rho[r1]]:
            if size <= room and lmask & mask == 1 << r1:
                join(lkey, key, r1, d)
        entry = (key, len(S), mask)
        as_right[r1, rho[r1]].append(entry)
        for v in S - {r1}:
            as_left[v, rho[v]].append(entry)
    return {k: (md[k], bases.get(k, []),
                sorted(pairs.get(k, []), key=lambda pair: _pair_order(k, pair)))
            for k in final}


@dataclass
class _Table:
    """A ``live_states`` table as per-state arrays, state s being
    ``keys[s]``: its min depth ``md[s]``, its base payloads
    ``payloads[pay_ptr[s]:pay_ptr[s + 1]]`` with costs ``pay_cost``, and its
    child pairs ``(left[j], right[j])`` for j in
    ``pair_ptr[s]:pair_ptr[s + 1]``, in arena order."""

    keys: list
    md: np.ndarray
    payloads: list
    pay_cost: np.ndarray
    pay_ptr: np.ndarray
    left: np.ndarray
    right: np.ndarray
    pair_ptr: np.ndarray

    @classmethod
    def of(cls, table: dict) -> "_Table":
        keys = list(table)
        index = {k: s for s, k in enumerate(keys)}
        rows = list(table.values())
        return cls(keys, np.array([md for md, _, _ in rows], dtype=np.int64),
                   [p for _, bases, _ in rows for p, _ in bases],
                   np.array([c for _, bases, _ in rows for _, c in bases],
                            dtype=np.int64),
                   _offsets([len(bases) for _, bases, _ in rows]),
                   np.array([index[k1] for _, _, pairs in rows
                             for k1, _ in pairs], dtype=np.int64),
                   np.array([index[k2] for _, _, pairs in rows
                             for _, k2 in pairs], dtype=np.int64),
                   _offsets([len(pairs) for _, _, pairs in rows]))

    def kept(self, budget: int) -> np.ndarray:
        """Mask of the child pairs whose states both fit in budget - 1 more
        levels."""
        return (self.md[self.left] < budget) & (self.md[self.right] < budget)

    def sizes(self, h: int) -> list[np.ndarray]:
        """``size[b][s]``: the nodes of the subtree a state node of state s
        spans with b more levels to go, for b = 0..h: itself, its base
        nodes, and per kept pair a virtual node and both child subtrees."""
        owner = np.repeat(np.arange(len(self.keys)), np.diff(self.pair_ptr))
        own = 1 + np.diff(self.pay_ptr)
        size = [own]
        for b in range(1, h + 1):
            below = size[-1]
            span = np.where(self.kept(b),
                            1 + below[self.left] + below[self.right], 0)
            total = own + np.bincount(owner, weights=span,
                                      minlength=len(self.keys))
            size.append(np.minimum(total, SIZE_LIMIT).astype(np.int64))
        return size


def build_super_tree(norm: NormalizedInstance, h: int | None = None,
                     node_cap: int = 5_000_000) -> SuperTree:
    """Construct the pruned super-tree containing all good extended state
    trees of state-depth at most h.

    Each state node lists its agreeing edges and triples, then one virtual
    node per child pair whose two states stay live within the remaining
    depth.  The exact node count is checked against ``node_cap`` at heights
    0..h in turn (it only grows with the height) before any node exists.
    The arena is then written one level at a time: every node's preorder
    offset follows from the subtree sizes.
    """
    inst = norm.inst
    if h is None:
        h = height_budget(inst.n)
    for h_try in range(h + 1):
        table = live_states(norm, h_try)
        tab = _Table.of(table)
        roots = np.array(
            [tab.keys.index(k) for k in
             (make_key(inst.root, {inst.root}, {inst.root: d})
              for d in range(1, inst.degree_bound[inst.root] + 1))
             if k in table], dtype=np.int64)
        size = tab.sizes(h_try)
        total = 1 + int(size[h_try][roots].sum())
        if total > node_cap:
            raise CapExceededError(
                f"super-tree has {total} nodes at height {h_try}, over the "
                f"node cap {node_cap}; lower n, the height, or the degree "
                f"bounds")

    kind = np.full(total, SUPER, dtype=np.int8)
    parent = np.full(total, -1, dtype=np.int64)
    level = np.full(total, -1, dtype=np.int64)
    cost = np.zeros(total, dtype=np.int64)
    state_id = np.full(total, -1, dtype=np.int64)
    payload_id = np.full(total, -1, dtype=np.int64)
    nbase = np.diff(tab.pay_ptr)
    # the state nodes of one level: state, preorder offset, parent node
    s = roots
    span = size[h][s]
    at = 1 + np.cumsum(span) - span
    up = np.zeros(len(s), dtype=np.int64)
    for lv in range(h + 1):
        kind[at], parent[at], level[at], state_id[at] = STATE, up, lv, s
        pos, entry = expand(tab.pay_ptr, s)
        node = at[pos] + 1 + entry - tab.pay_ptr[s[pos]]
        kind[node], parent[node], level[node] = BASE, at[pos], lv
        payload_id[node], cost[node] = entry, tab.pay_cost[entry]
        budget = h - lv
        if budget == 0:
            break
        # each state node's kept pairs, laid out after its base nodes
        pair = np.flatnonzero(tab.kept(budget))
        pos, j = expand(np.searchsorted(pair, tab.pair_ptr), s)
        left, right = tab.left[pair[j]], tab.right[pair[j]]
        below = size[budget - 1]
        span = 1 + below[left] + below[right]
        ends = np.cumsum(span)
        first = np.searchsorted(pos, np.arange(len(s)))
        before = np.concatenate([[0], ends])[first][pos]
        virtual = at[pos] + 1 + nbase[s[pos]] + ends - span - before
        kind[virtual], parent[virtual], level[virtual] = VIRTUAL, at[pos], lv
        s = np.concatenate([left, right])
        at = np.concatenate([virtual + 1, virtual + 1 + below[left]])
        up = np.concatenate([virtual, virtual])
    return SuperTree(norm, h, kind, parent, level, cost, state_id, tab.keys,
                     payload_id, tab.payloads)


def selection_to_state_tree(st: SuperTree, selected: set[int]) -> StateTreeNode:
    """Convert a rounded node set (one child per state, both children of
    every virtual node) back into a state tree."""

    def pick_child(i, want=1):
        kids = [c for c in st.children[i] if c in selected]
        if len(kids) != want:
            raise InvariantError(
                f"node {i} ({KIND_NAMES[st.kind[i]]}) has {len(kids)} "
                f"selected children, expected {want}")
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
            raise InvariantError(
                f"unexpected child kind {KIND_NAMES[st.kind[c]]}")
        return node

    if st.root not in selected:
        raise InvariantError("selection does not contain the super node")
    (top,) = pick_child(st.root)
    return from_state(top)
