"""States, good state trees, stitching, and the super-tree builder.

A state is a triple (root, portals, degree vector).  Good state trees encode
balanced recursive decompositions of candidate solution trees; the super
tree contains every good extended state tree of bounded depth as a subtree
and is the object the LP relaxation is written over.

The super-tree builder avoids materializing dead branches.  One bottom-up
fixpoint (``live_states``), ordered by height, finds the "live" states
(those admitting a good sub-state-tree), the minimum depth such a subtree
needs, every state's agreeing edges/triples and child pairs, and the exact
super-tree size at each height, checked against the node cap.  The builder
only reads that table: it writes out the children that stay live within
the remaining depth budget.  The result equals the full construction
followed by repeated deletion of childless state nodes and under-filled
virtual nodes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, InvariantError
from .instances import (MultiTree, NormalizedInstance, lift_tree,
                        original_degree)
from .rounding import Rows, csr, expand
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


def _agreeing(norm: NormalizedInstance, tails, guess: dict,
              bound: int) -> int:
    """How many degree vectors an edge or triple with these tails agrees
    with: the degree guesses of its non-terminal tails whose contributions
    to the degree of its root sum to at most ``bound``."""
    # ways[x]: the guesses of the tails so far that contribute x in all
    ways = np.ones(1, dtype=np.int64)
    for v in tails:
        xs = [1] if v in norm.inst.terminals else range(1, guess[v] + 1)
        ways = np.convolve(ways, np.bincount(
            [_contrib(norm, v, {v: x}) for x in xs], minlength=1))
    return int(ways[:bound + 1].sum())


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
        # a node with one child is no good state tree, yet has a depth, so
        # that validate_state_tree reaches its report
        kids = [o for o in (self.left, self.right) if o is not None]
        return 1 + max(o.depth() for o in kids) if kids else 0


def gen_state_tree(norm: NormalizedInstance,
                   tree: MultiTree) -> StateTreeNode:
    """Decompose a valid binary tree into its good state tree (analysis side).

    The input tree must have distinct vertex labels, terminal leaves and
    in-range original degrees; the output passes validate_state_tree at the
    height budget and has the same cost.
    """
    if len(set(tree.label)) != len(tree.label):
        raise InvariantError("gen_state_tree needs distinct vertex labels")
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


def oracle_height(norm: NormalizedInstance, edges) -> int:
    """Depth of the balanced decomposition of a tree of original edges,
    such as an oracle optimum: the smallest height at which that tree
    certainly embeds into the super-tree, so that the super-tree LP costs
    at most what the tree costs."""
    return gen_state_tree(norm, lift_tree(norm, set(map(tuple, edges)))
                          ).depth()


def validate_state_tree(norm: NormalizedInstance, root: StateTreeNode,
                        h: int) -> list[str]:
    """Check the good-state-tree conditions with depth at most h; returns a
    list of violations."""
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


def stitch_multi_tree(norm: NormalizedInstance, root: StateTreeNode,
                      h: int) -> MultiTree:
    """Join the leaf edges/triples of a good state tree of depth at most h
    into a multi-tree.

    Top-down from a copy of the root state's vertex: a leaf hangs its tails
    below its root's copy, and an internal node builds its left child, then
    its right child below the left child's copy of r''.  Each call returns
    its map from portals to their copies.
    """
    bad = validate_state_tree(norm, root, h)
    if bad:
        raise InvariantError("stitch on invalid state tree: " + "; ".join(bad))
    K = norm.inst.terminals
    mt = MultiTree()

    def build(node: StateTreeNode, top: int) -> dict:
        # top is the copy of node.r
        if not node.is_leaf:
            pi = build(node.left, top)
            pi.update(build(node.right, pi[node.right.r]))
            return pi
        pi = {node.r: top}
        for v in (node.edge or node.triple)[1:]:
            a = mt.add_node(v, top)
            if v not in K:
                pi[v] = a
        return pi

    build(root, mt.add_node(root.r))
    mt.check_edges(norm)
    return mt


# super-tree node kinds, the codes of ``SuperTree.kind``
SUPER, STATE, VIRTUAL, BASE = 0, 1, 2, 3
KIND_NAMES = "RSVB"
# candidate pairs of the live-state join are filtered this many at a time
JOIN_BLOCK = 1 << 18
# bits of an int64 word that a packed state code uses
WORD_BITS = 63
# subtree sizes saturate here: states that no root reaches may span more
# nodes than int64 holds, and a count this large is over any node cap that
# fits in memory
SIZE_LIMIT = 2 ** 53
# default cap on the super-tree node count
NODE_CAP = 5_000_000
# cap on the child pairs one round of ``live_states`` joins, checked before
# ``_intern`` sorts them with the whole table.  A joined pair holds its
# merged slot row (2 * width int64 words) and two state ids, 80 bytes at
# width 4 before the sort's copies, more than a super-tree node, so a round
# over NODE_CAP pairs needs more memory than the largest arena the default
# node cap admits, though most pairs never reach the super-tree.  At h=5
# no round of gen_dst(8, 14, 4) seeds 0-3 joins more than 36,026 pairs,
# while gen_dst(2000, 3000, 20) would join over 5 million in depth pass 2
# at height 5 and run out of a 3 GB address space.
PAIR_CAP = NODE_CAP


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
        self.children = Rows(self.child_ptr, self.child)
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

    def terminal_members(self) -> tuple[np.ndarray, np.ndarray]:
        """(base node, terminal rank) for each base node and terminal it
        involves, by node; the rank orders the normalized terminals."""
        terms = np.array(sorted(self.norm.inst.terminals), dtype=np.int64)
        node, vert = self.involved
        hit = np.isin(vert, terms)
        return node[hit], np.searchsorted(terms, vert[hit])

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


def _pack(cols: np.ndarray, top: int) -> np.ndarray:
    """The rows of ``cols`` (entries in 0..top) packed into as few int64
    words as hold them, so that rows are equal just when their words
    are."""
    bits = top.bit_length()
    per = WORD_BITS // bits
    words = []
    for a in range(0, cols.shape[1], per):
        word = cols[:, a]
        for c in range(a + 1, min(a + per, cols.shape[1])):
            word = word << bits | cols[:, c]
        words.append(word)
    return np.column_stack(words)


def _join(lkey: np.ndarray, rkey: np.ndarray):
    """Every index pair (i, j) with ``lkey[i] == rkey[j]``, by i, then j,
    as ``(i, j)`` arrays of about ``JOIN_BLOCK`` pairs each."""
    order = np.argsort(rkey, kind="stable")
    sorted_key = rkey[order]
    lo = np.searchsorted(sorted_key, lkey, "left")
    count = np.searchsorted(sorted_key, lkey, "right") - lo
    ends = np.cumsum(count)
    total = ends[-1] if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(JOIN_BLOCK, total, JOIN_BLOCK),
                           "right")
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(lkey)]):
        c = count[a:b]
        i = np.repeat(np.arange(a, b), c)
        step = np.repeat(lo[a:b] - np.cumsum(c) + c, c)
        yield i, order[np.arange(len(i)) + step]


def _intern(code: np.ndarray, new: np.ndarray) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """Ids of the rows of ``new`` among the distinct rows of ``code``:
    an equal row of ``code`` gives its index, the other distinct rows of
    ``new`` get ``len(code)``, ``len(code) + 1``, ...  Also returns, per
    fresh id, the first row of ``new`` that has it."""
    both = np.concatenate([code, new])
    order = np.lexsort(both.T[::-1])
    ordered = both[order]
    start = np.ones(len(both), dtype=bool)
    start[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    # lexsort is stable, so a group starts at its lowest row
    first = order[start]
    fresh = first >= len(code)
    ids = np.where(fresh, len(code) + np.cumsum(fresh) - 1, first)
    out = np.empty(len(both), dtype=np.int64)
    out[order] = ids[np.cumsum(start) - 1]
    return out[len(code):], first[fresh] - len(code)


@dataclass
class _Table:
    """The live-state table as per-state arrays.  State s is rooted at
    ``root[s]``; its portals ascend along ``port[s]`` with their degrees in
    ``deg[s]``, and the rows are padded by vertex n with degree 0.  ``md[s]``
    is its min depth, its base payloads are
    ``payloads[pay_ptr[s]:pay_ptr[s + 1]]`` with costs ``pay_cost``, and its
    child pairs are ``(left[j], right[j])`` for j in
    ``pair_ptr[s]:pair_ptr[s + 1]``, in arena order, with the larger min
    depth of the two in ``depth[j]``.  ``nodes[b][s]`` counts the subtree a
    state node of s spans with b = 0..h levels to go: itself, its base
    nodes, and per pair of depth below b a virtual node and both child
    subtrees.  ``roots`` are the states (root, {root}, rho), by rho, and
    ``keys(ids)`` renders the keys of the states ``ids``."""

    root: np.ndarray
    port: np.ndarray
    deg: np.ndarray
    md: np.ndarray
    payloads: list
    pay_cost: np.ndarray
    pay_ptr: np.ndarray
    left: np.ndarray
    right: np.ndarray
    depth: np.ndarray
    pair_ptr: np.ndarray
    roots: np.ndarray
    nodes: list

    def __len__(self):
        return len(self.md)

    def keys(self, ids: np.ndarray) -> list[StateKey]:
        """The keys of the states ``ids``, in that order."""
        deg = self.deg[ids]
        s, slot = np.nonzero(deg)
        ptr = _offsets(np.bincount(s, minlength=len(ids))).tolist()
        verts = self.port[ids][s, slot].tolist()
        items = list(zip(verts, deg[s, slot].tolist()))
        return [(r, frozenset(verts[a:b]), tuple(items[a:b]))
                for r, a, b in zip(self.root[ids].tolist(), ptr, ptr[1:])]


def live_states(norm: NormalizedInstance, h: int,
                node_cap: int = NODE_CAP) -> _Table:
    """Every live state up to h, with the children the super-tree gives it.

    A state is live when it admits a good sub-state-tree within h, and its
    min depth is the least depth of one.  Its base payloads are the
    agreeing edges ``("e", (r', v))`` and triples ``("xi", (r', v, v'))``
    with their costs, edges first; its child pairs are every (left, right)
    pair of live states it joins from, in arena order.  A base state's
    portal v takes no degree above the number of original edges a tree can
    hang below v: a larger one never meets a state rooted at v.

    The table has a closed form.  Base states have min depth 0.  A left
    state l and a right state r rooted at a non-root portal v of l join
    into the state rooted at l's root with degree vector rho_l + rho_r off
    v when they agree at v and their portals meet only at v, at the height
    ``|S_l| + |S_r| - 2 + max(md_l, md_r) <= h`` (the parent's level
    bound); a joined state's min depth is 1 + the least ``max(md_l, md_r)``
    over its pairs.  So one round per height t = 0..h and depth
    d = 0..t-1 finds every pair of height t whose deeper state has min
    depth d, by one sorted join of (state, non-root portal, its degree)
    against (state, root, its degree), and interns their parents by a
    packed integer code of the root and the portal slots: parents not seen
    before get min depth d + 1 and join in later rounds.  The join is
    filtered ``JOIN_BLOCK`` candidates at a time.  CapExceededError is
    raised before any base state is made when the edges and triples would
    start more than ``PAIR_CAP`` of them in all, by a round that
    joins more than ``PAIR_CAP`` pairs before they are interned, and after
    the last round of each height t by a super-tree of height t over
    ``node_cap`` nodes.
    """
    inst = norm.inst
    K = inst.terminals
    n = inst.n
    # a tree uses at most the original edges whose gadget paths leave v, so
    # a portal v guesses its degree in 1..min(d_v, that count); a larger
    # guess never meets a state rooted at v
    most = Counter(u for path in norm.edge_path.values() for u, _ in path)
    guess = {v: min(inst.degree_bound[v], most[v]) for v in range(n)}
    # every edge and triple out of a non-terminal with its non-terminal
    # tails; a state with |S| portals sits at level >= |S| - 1
    leaves = []
    for r1 in sorted(set(range(n)) - K):
        edges = sorted(inst.out_edges(r1))
        for tails, payload, cost in (
                [((v,), ("e", (r1, v)), c) for v, c in edges]
                + [((v, v2), ("xi", (r1, v, v2)), c + c2)
                   for (v, c), (v2, c2) in itertools.combinations(edges, 2)]):
            free = [v for v in tails if v not in K]
            if len(free) <= h:
                leaves.append((r1, tails, free, payload, cost))
    # the base states of each root vertex, counted before any is made
    count = Counter()
    for r1, tails, _, _, _ in leaves:
        count[r1] += _agreeing(norm, tails, guess, inst.degree_bound[r1])
    if count.total() > PAIR_CAP:
        r1, most = count.most_common(1)[0]
        o = norm.origin[r1]
        where = f"vertex {o}" if o == r1 else f"the gadget of vertex {o}"
        raise CapExceededError(
            f"the edges and triples start {count.total()} base states, over "
            f"the pair cap {PAIR_CAP}, {most} of them out of {where}; lower "
            f"the degree bounds")
    # base states in the order they are first met, and each payload's state
    index: dict[StateKey, int] = {}
    pay_state, payloads, pay_cost = [], [], []
    for r1, tails, free, payload, cost in leaves:
        # every degree vector the edge/triple agrees with
        for combo in itertools.product(
                *(range(1, guess[v] + 1) for v in free)):
            rho = dict(zip(free, combo))
            rho[r1] = sum(_contrib(norm, v, rho) for v in tails)
            if rho[r1] <= inst.degree_bound[r1]:
                key = make_key(r1, {r1, *free}, rho)
                pay_state.append(index.setdefault(key, len(index)))
                payloads.append(payload)
                pay_cost.append(cost)

    # a joined state copies its degrees from its children, so no degree
    # exceeds the base states' largest; a portal u of degree x is the slot
    # u * radix + x, a state's slots ascend along its row, padded by n * radix
    radix = 1 + max((x for _, _, items in index for _, x in items), default=0)
    pad = n * radix
    width = max((len(items) for _, _, items in index), default=1)
    root = np.array([r for r, _, _ in index], dtype=np.int64)
    slot = np.full((len(index), width), pad, dtype=np.int64)
    for s, (_, _, items) in enumerate(index):
        slot[s, :len(items)] = [u * radix + x for u, x in items]
    root_slot = np.array([r * radix + dict(items)[r] for r, _, items in index],
                         dtype=np.int64)

    def joined(lefts, rights, t, d):
        # (left, right, the parent's slots) in blocks, for every left state
        # and right state whose root slot is a non-root slot of the left
        # one, that make a pair of height t and meet only there
        lefts, rights = np.flatnonzero(lefts), np.flatnonzero(rights)
        s, at = np.nonzero(slot[lefts] < pad)
        s = lefts[s]
        key = slot[s, at]
        keep = key != root_slot[s]
        s, key = s[keep], key[keep]
        for i, j in _join(key, root_slot[rights]):
            l, r = s[i], rights[j]
            keep = size[l] + size[r] - 2 + d == t
            l, r = l[keep], r[keep]
            # both rows merged without the shared slot; a repeated portal
            # means the two meet outside it
            merged = np.concatenate([slot[l], slot[r]], axis=1)
            merged[merged == root_slot[r][:, None]] = pad
            merged.sort(axis=1)
            port = merged // radix
            keep = ~np.any((port[:, 1:] == port[:, :-1])
                           & (merged[:, 1:] < pad), axis=1)
            yield l[keep], r[keep], merged[keep]

    md = np.zeros(len(root), dtype=np.int64)
    size = np.count_nonzero(slot < pad, axis=1)
    none = np.zeros(0, dtype=np.int64)
    joins, nodes = [(none, none, none)], []
    for t in range(h + 1):
        # a pair of height t in round d has |S_l| + |S_r| = t + 2 - d, and
        # a parent found in round d joins only in later rounds
        for d in range(max(0, t + 2 - 2 * int(size.max(initial=0))), t):
            if d > md.max():
                break
            fresh = md == d
            lefts = (md <= d) & (size <= t + 1 - d)
            rights = (md <= d) & (size <= t - d)
            found, pairs = [], 0
            for block in itertools.chain(
                    joined(lefts, rights & fresh, t, d),
                    joined(lefts & fresh, rights & ~fresh, t, d)):
                pairs += len(block[0])
                if pairs > PAIR_CAP:
                    raise CapExceededError(
                        f"live states join at least {pairs} child pairs in "
                        f"depth pass {d} at height {h}, over the pair cap "
                        f"{PAIR_CAP}; lower n, the height, or the degree "
                        f"bounds")
                found.append(block)
            if not pairs:
                continue
            nodes = []
            l, r, merged = map(np.concatenate, zip(*found))
            psize = size[l] + size[r] - 2
            width = max(width, int(psize.max()))
            merged = merged[:, :width]
            slot = np.pad(slot, ((0, 0), (0, width - slot.shape[1])),
                          constant_values=pad)
            # a state is its root and slots
            p, first = _intern(_pack(np.column_stack([root, slot]), pad),
                               _pack(np.column_stack([root[l], merged]), pad))
            joins.append((p, l, r))
            root = np.concatenate([root, root[l[first]]])
            slot = np.concatenate([slot, merged[first]])
            root_slot = np.concatenate([root_slot, root_slot[l[first]]])
            md = np.concatenate([md, np.full(len(first), d + 1)])
            size = np.concatenate([size, psize[first]])
        if not nodes:  # subtree sizes, cleared by every pair found
            p, l, r = map(np.concatenate, zip(*joins))
            depth = np.maximum(md[l], md[r])
            nodes = [1 + np.bincount(pay_state, minlength=len(md))]
        for b in range(len(nodes), t + 1):
            span = np.where(depth < b, 1 + nodes[-1][l] + nodes[-1][r], 0)
            sub = nodes[0] + np.bincount(p, weights=span, minlength=len(md))
            nodes.append(np.minimum(sub, SIZE_LIMIT).astype(np.int64))
        # the states (root, {root}, rho), by rho
        roots = np.flatnonzero((root == inst.root) & (size == 1))
        roots = roots[np.argsort(slot[roots, 0])]
        total = 1 + int(nodes[t][roots].sum())
        if total > node_cap:
            raise CapExceededError(
                f"super-tree has {total} nodes at height {t}, over the "
                f"node cap {node_cap}; lower n, the height, or the degree "
                f"bounds")

    port, deg = np.divmod(slot, radix)
    # arena order: right root r'', then the left child's portals as a bit
    # mask, then the degree at r''.  Masks compare as their portals do,
    # listed downwards and padded by -1 (the parent's root and r'' are in
    # every left portal set of the parent and r''); no two pairs of one
    # parent tie
    down = np.sort(np.where(deg[l] > 0, port[l], -1), axis=1)[:, ::-1]
    order = np.lexsort((root_slot[r], *down.T[::-1], root[r], p))
    pair_ptr, left, right, depth = csr(len(md), p[order], l[order],
                                       r[order], depth[order])
    pay_ptr, pay = csr(len(md), pay_state, np.arange(len(payloads)))
    return _Table(root, port, deg, md, [payloads[k] for k in pay.tolist()],
                  np.array(pay_cost, dtype=np.int64)[pay], pay_ptr,
                  left, right, depth, pair_ptr, roots, nodes)


def build_super_tree(norm: NormalizedInstance, h: int | None = None,
                     node_cap: int = NODE_CAP) -> SuperTree:
    """Construct the pruned super-tree containing all good extended state
    trees of state-depth at most h.

    Each state node lists its agreeing edges and triples, then one virtual
    node per child pair whose two states stay live within the remaining
    depth.  ``live_states`` checks the exact node count against
    ``node_cap`` at every height up to h before any node exists.  The arena
    is then written one level at a time: every node's preorder offset
    follows from the subtree sizes.
    """
    if h is None:
        h = height_budget(norm.inst.n)
    tab = live_states(norm, h, node_cap)
    # the state nodes of one level: state, preorder offset, parent node
    s = tab.roots
    span = tab.nodes[h][s]
    at = 1 + np.cumsum(span) - span
    up = np.zeros(len(s), dtype=np.int64)
    total = 1 + int(span.sum())
    kind = np.full(total, SUPER, dtype=np.int8)
    parent = np.full(total, -1, dtype=np.int64)
    level = np.full(total, -1, dtype=np.int64)
    cost = np.zeros(total, dtype=np.int64)
    state_id = np.full(total, -1, dtype=np.int64)
    payload_id = np.full(total, -1, dtype=np.int64)
    nbase = np.diff(tab.pay_ptr)
    for lv in range(h + 1):
        kind[at], parent[at], level[at], state_id[at] = STATE, up, lv, s
        pos, entry = expand(tab.pay_ptr, s)
        node = at[pos] + 1 + entry - tab.pay_ptr[s[pos]]
        kind[node], parent[node], level[node] = BASE, at[pos], lv
        payload_id[node], cost[node] = entry, tab.pay_cost[entry]
        budget = h - lv
        if budget == 0 or s.size == 0:
            break
        # each state node's kept pairs, laid out after its base nodes
        pair = np.flatnonzero(tab.depth < budget)
        pos, j = expand(np.searchsorted(pair, tab.pair_ptr), s)
        left, right = tab.left[pair[j]], tab.right[pair[j]]
        below = tab.nodes[budget - 1]
        span = 1 + below[left] + below[right]
        ends = np.cumsum(span)
        first = np.searchsorted(pos, np.arange(len(s)))
        before = np.concatenate([[0], ends])[first][pos]
        virtual = at[pos] + 1 + nbase[s[pos]] + ends - span - before
        kind[virtual], parent[virtual], level[virtual] = VIRTUAL, at[pos], lv
        s = np.concatenate([left, right])
        at = np.concatenate([virtual + 1, virtual + 1 + below[left]])
        up = np.concatenate([virtual, virtual])
    # only the arena's own states get a key
    on = state_id >= 0
    used, state_id[on] = np.unique(state_id[on], return_inverse=True)
    return SuperTree(norm, h, kind, parent, level, cost, state_id,
                     tab.keys(used), payload_id, tab.payloads)


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
