"""Instance data model, file IO and preprocessing for both problem variants.

Two input formats are supported (UTF-8, line based, 0-based ids):

DBDST::

    DBDST 1
    n m k
    root <id>
    n lines:  vertex <id> <d>
    m lines:  edge <u> <v> <cost>
    k lines:  terminal <id>

DBGST::

    DBGST 1
    n k
    root <id>
    n lines:  vertex <id> <parent|-1> <cost> <d>
    k lines:  group <t> <size> <ids...>

Costs are non-negative integers in files; LP work downstream uses floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvariantError
from .rounding import Rows, csr, expand

PHI_CONST_ONE = "one"
PHI_IDENTITY = "identity"


@dataclass
class DirectedInstance:
    """Digraph with edge costs, a root, terminals and per-vertex degree bounds."""

    n: int
    edges: list[tuple[int, int, int]]
    root: int
    terminals: frozenset[int]
    degree_bound: dict[int, int]

    def __post_init__(self):
        self.terminals = frozenset(self.terminals)
        self.validate()
        self._out = {v: [] for v in range(self.n)}
        self._in = {v: [] for v in range(self.n)}
        for (u, v, c) in self.edges:
            self._out[u].append((v, c))
            self._in[v].append((u, c))
        self.cost = {(u, v): c for (u, v, c) in self.edges}

    def validate(self):
        def check_id(x, what):
            if not (0 <= x < self.n):
                raise FormatError(f"{what} id out of range: {x} (n={self.n})")

        check_id(self.root, "root")
        for t in self.terminals:
            check_id(t, "terminal")
        if self.root in self.terminals:
            raise FormatError("root must not be a terminal")
        seen = set()
        for (u, v, c) in self.edges:
            check_id(u, "edge tail")
            check_id(v, "edge head")
            if u == v:
                raise FormatError(f"self-loop at {u}")
            if (u, v) in seen:
                raise FormatError(f"duplicate edge ({u}, {v})")
            if c < 0:
                raise FormatError(f"negative cost on edge ({u}, {v})")
            seen.add((u, v))
        for v in range(self.n):
            d = self.degree_bound.get(v)
            if d is None or d < 0:
                raise FormatError(f"missing or negative degree bound for {v}")

    def out_edges(self, u: int) -> list[tuple[int, int]]:
        return self._out[u]

    def in_edges(self, v: int) -> list[tuple[int, int]]:
        return self._in[v]


def _counts(lines: list[list[str]], names: str) -> list[int]:
    """The non-negative counts on line 2, named like ``'n m k'``."""
    try:
        vals = [int(x) for x in lines[1]]
    except (ValueError, IndexError):
        vals = []
    if len(vals) != len(names.split()) or min(vals) < 0:
        raise FormatError(f"expected '{names}' on line 2")
    return vals


def _fields(ln: list[str], tag: str, count: int) -> list[int]:
    """The ``count`` integers following ``tag`` on one line, each one that
    an int64 holds."""
    if ln[0] != tag or len(ln) != count + 1:
        raise FormatError(f"malformed {tag} line: {' '.join(ln)}")
    try:
        vals = [int(x) for x in ln[1:]]
    except ValueError:
        raise FormatError(f"malformed {tag} line: {' '.join(ln)}") from None
    if min(vals) < -2 ** 63 or max(vals) >= 2 ** 63:
        raise FormatError(f"{tag} line holds an integer beyond int64: "
                          f"{' '.join(ln)}")
    return vals


def _check_cost_sum(lines: list[list[str]], costs: list[int], tag: str):
    """Costs, one per line, must sum below 2^53: the LP objective and every
    tree cost are sums of them in float64, which holds each integer below
    2^53 exactly (and 2^62 next to small costs made HiGHS fail)."""
    if sum(costs) < 2 ** 53:
        return
    for ln, total in zip(lines, itertools.accumulate(costs)):
        if total >= 2 ** 53:
            raise FormatError(f"{tag} costs sum to 2^53 or more by line: "
                              f"{' '.join(ln)}")


def parse_dst(text: str) -> DirectedInstance:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ["DBDST", "1"]:
        raise FormatError("expected header 'DBDST 1'")
    n, m, k = _counts(lines, "n m k")
    if len(lines) != 3 + n + m + k:
        raise FormatError(f"expected {3 + n + m + k} lines, got {len(lines)}")
    (root,) = _fields(lines[2], "root", 1)
    degree = dict(_fields(ln, "vertex", 2) for ln in lines[3:3 + n])
    if sorted(degree) != list(range(n)):
        raise FormatError("vertex lines must cover ids 0..n-1 exactly once")
    edges = [tuple(_fields(ln, "edge", 3)) for ln in lines[3 + n:3 + n + m]]
    terminals = {t for ln in lines[3 + n + m:]
                 for t in _fields(ln, "terminal", 1)}
    if len(terminals) != k:
        raise FormatError("duplicate terminal ids")
    _check_cost_sum(lines[3 + n:3 + n + m], [c for _, _, c in edges],
                    "edge")
    return DirectedInstance(n, edges, root, frozenset(terminals), degree)


def serialize_dst(inst: DirectedInstance) -> str:
    out = ["DBDST 1", f"{inst.n} {len(inst.edges)} {len(inst.terminals)}",
           f"root {inst.root}"]
    for v in range(inst.n):
        out.append(f"vertex {v} {inst.degree_bound[v]}")
    for (u, v, c) in sorted(inst.edges):
        out.append(f"edge {u} {v} {c}")
    for t in sorted(inst.terminals):
        out.append(f"terminal {t}")
    return "\n".join(out) + "\n"


@dataclass
class NormalizedInstance:
    """A DirectedInstance in the normalized form used by the DST pipeline.

    Every terminal has exactly one incoming and no outgoing edge; every
    non-terminal has at most two outgoing edges.  `origin` maps each vertex
    back to the original vertex it stands for (a binarization gadget vertex
    maps to the gadget owner).  `edge_origin` maps each edge to the original
    edge whose cost it carries, or None for zero-cost structural edges.
    `edge_path` maps each original edge (u, w), and the sink edge (t, t') of
    each split terminal, to the normalized edges from u (or t) through its
    gadget that realize it, in order from the top.
    """

    inst: DirectedInstance
    original: DirectedInstance
    origin: dict[int, int]
    phi_kind: dict[int, str]
    edge_origin: dict[tuple[int, int], tuple[int, int] | None]
    terminal_origin: dict[int, int] = field(default_factory=dict)
    edge_path: dict[tuple[int, int], tuple[tuple[int, int], ...]] = field(
        default_factory=dict)

    def phi(self, v: int, rho: int) -> int:
        if self.phi_kind[v] == PHI_CONST_ONE:
            return 1
        return rho

    @property
    def cost(self):
        return self.inst.cost


def normalize(inst: DirectedInstance) -> NormalizedInstance:
    """Apply the terminal-split and binarization transforms.

    A terminal t with more than one incoming edge or any outgoing edge is
    replaced in K by a fresh sink t' with the zero-cost edge (t, t'); d_t is
    incremented and d_{t'} = 0.  A non-terminal with b >= 3 out-edges has its
    out-star replaced by a balanced full binary tree over the out-neighbors
    sorted by id; gadget-internal edges cost 0 and the edge entering leaf w
    carries the original cost c_{(u,w)}.  A solution of cost C exists in the
    original instance iff one exists in the normalized instance.
    """
    n = inst.n
    edges = {(u, v): c for (u, v, c) in inst.edges}
    degree = dict(inst.degree_bound)
    origin = {v: v for v in range(n)}
    phi_kind = {v: PHI_CONST_ONE for v in range(n)}
    edge_origin = {(u, v): (u, v) for (u, v) in edges}
    edge_path = {(u, v): ((u, v),) for (u, v) in edges}
    terminals = set(inst.terminals)
    terminal_origin = {}
    heads = {u: [v for (v, _) in inst.out_edges(u)] for u in range(n)}

    for t in sorted(inst.terminals):
        if len(inst.in_edges(t)) == 1 and not heads[t]:
            terminal_origin[t] = t
            continue
        tp = n
        n += 1
        edges[(t, tp)] = 0
        edge_origin[(t, tp)] = None
        edge_path[(t, tp)] = ((t, tp),)
        degree[t] = degree[t] + 1
        degree[tp] = 0
        origin[tp] = t
        # t' stands for the original terminal, so it counts as one child of t
        phi_kind[tp] = PHI_CONST_ONE
        terminals.discard(t)
        terminals.add(tp)
        terminal_origin[tp] = t
        heads[t].append(tp)

    d_max = max(degree.values()) if degree else 1

    # u is an original vertex and no gadget writes an edge out of a later
    # one, so heads[u] are u's out-edges
    for u in sorted(set(range(n)) - terminals):
        out = sorted(heads[u])
        if len(out) <= 2:
            continue
        leaf_cost = {v: edges.pop((u, v)) for v in out}
        leaf_orig = {v: edge_origin.pop((u, v)) for v in out}

        def attach(parent, leaves, path):
            # give `parent`, reached from u along `path`, one child covering
            # `leaves`: the leaf itself, or a fresh gadget vertex whose
            # subtree covers the halves
            nonlocal n
            if len(leaves) == 1:
                w = leaves[0]
                edges[(parent, w)] = leaf_cost[w]
                edge_origin[(parent, w)] = leaf_orig[w]
                edge_path[(u, w)] = path + ((parent, w),)
                return
            g = n
            n += 1
            degree[g] = d_max
            origin[g] = u
            phi_kind[g] = PHI_IDENTITY
            edges[(parent, g)] = 0
            edge_origin[(parent, g)] = None
            path = path + ((parent, g),)
            mid = (len(leaves) + 1) // 2
            attach(g, leaves[:mid], path)
            attach(g, leaves[mid:], path)

        mid = (len(out) + 1) // 2
        attach(u, out[:mid], ())
        attach(u, out[mid:], ())

    norm = DirectedInstance(
        n,
        [(u, v, c) for ((u, v), c) in sorted(edges.items())],
        inst.root,
        frozenset(terminals),
        degree,
    )
    return NormalizedInstance(norm, inst, origin, phi_kind, edge_origin,
                              terminal_origin, edge_path)


class MultiTree:
    """Tree whose nodes carry vertex labels; edges are copies of graph edges."""

    def __init__(self):
        self.label: list[int] = []
        self.parent: list[int | None] = []
        self.children: list[list[int]] = []

    def add_node(self, label: int, parent: int | None = None) -> int:
        a = len(self.label)
        self.label.append(label)
        self.parent.append(parent)
        self.children.append([])
        if parent is not None:
            self.children[parent].append(a)
        return a

    def __len__(self):
        return len(self.label)

    @property
    def root(self) -> int:
        roots = [a for a, p in enumerate(self.parent) if p is None]
        if len(roots) != 1:
            raise FormatError(f"multi-tree must have one root, found {roots}")
        return roots[0]

    def edge_labels(self):
        for a, p in enumerate(self.parent):
            if p is not None:
                yield (self.label[p], self.label[a])

    def cost(self, norm: NormalizedInstance) -> int:
        cost = norm.cost
        return sum(cost[e] for e in self.edge_labels())

    def check_edges(self, norm: NormalizedInstance):
        cost = norm.cost
        for e in self.edge_labels():
            if e not in cost:
                raise FormatError(f"tree edge {e} is not a graph edge")


def lift_tree(norm: NormalizedInstance,
              edges: set[tuple[int, int]]) -> MultiTree:
    """Map an original-graph solution tree into the normalized instance.

    `edges` must form an out-arborescence rooted at the original root.  Each
    original edge (u, v) becomes its `edge_path` through u's binarization
    gadget, and a split terminal of the tree gains the path to its sink.
    The result is a multi-tree over the normalized instance with the same
    cost.  An edge that is no original edge, or an edge set that is not one
    tree from the root, raises InvariantError.
    """
    inst = norm.original
    for e in sorted(edges):
        if e not in inst.cost:
            raise InvariantError(f"edge {e} is not an edge of the instance")
    on_tree = {w for e in edges for w in e}
    sinks = [(t, tp) for tp, t in norm.terminal_origin.items()
             if tp != t and t in on_tree]
    lifted: dict[int, set[int]] = {}
    for e in [*edges, *sinks]:
        for (a, b) in norm.edge_path[e]:
            lifted.setdefault(a, set()).add(b)

    mt = MultiTree()
    seen = set()
    stack = [(inst.root, None)]
    while stack:
        v, parent = stack.pop()
        if v in seen:
            raise InvariantError(f"vertex {v} is reached twice from the root")
        seen.add(v)
        a = mt.add_node(v, parent)
        for w in sorted(lifted.get(v, []), reverse=True):
            stack.append((w, a))
    missed = sorted(e for e in edges if e[0] not in seen)
    if missed:
        raise InvariantError(f"edge {missed[0]} is not reached from the root")
    return mt


def original_degree(norm: NormalizedInstance, tree: MultiTree) -> list[int]:
    """Original degrees: rho=0 at leaves, else the sum of phi(child rho)."""
    rho = [0] * len(tree)
    # add_node puts every parent before its children
    for a in reversed(range(len(tree))):
        if tree.children[a]:
            rho[a] = sum(norm.phi(tree.label[b], rho[b])
                         for b in tree.children[a])
    return rho


@dataclass
class GroupTreeInstance:
    """Rooted tree with vertex costs, groups and degree bounds.

    ``parent`` is an int64 array, -1 at the root.  The tree is built once
    here: the children of u are ``child[child_ptr[u]:child_ptr[u + 1]]`` in
    increasing id order and ``children[u]`` lists them, and ``levels`` holds
    the vertices level by level from the root, each level in increasing id
    order.  ``member`` and ``group`` list every (member, group) pair, by
    group and then ascending member: the one membership table that the LP
    rows, the P3/P4 checks, the group masses and the trial hit counts read.
    A group may hold internal vertices and share members with another;
    after ``preprocess_gst`` the groups are disjoint sets of leaves."""

    n: int
    parent: np.ndarray
    cost: list[int]
    groups: list[frozenset[int]]
    degree_bound: list[int]
    synthetic_leaf: list[bool] = None

    def __post_init__(self):
        if self.synthetic_leaf is None:
            self.synthetic_leaf = [False] * self.n
        self.groups = [frozenset(g) for g in self.groups]
        self.member = np.array([o for g in self.groups for o in sorted(g)],
                               dtype=np.int64)
        self.group = np.repeat(np.arange(len(self.groups)),
                               [len(g) for g in self.groups])
        self.parent = parent = np.array(self.parent, dtype=np.int64)
        out = np.flatnonzero((parent < -1) | (parent >= self.n))
        if len(out):
            raise FormatError(f"parent id out of range for {out[0]}")
        roots = np.flatnonzero(parent == -1).tolist()
        if len(roots) != 1:
            raise FormatError(f"tree must have one root, found {roots}")
        self.root = roots[0]
        kid = np.flatnonzero(parent >= 0)
        self.child_ptr, self.child = csr(self.n, parent[kid], kid)
        self.children = Rows(self.child_ptr, self.child)
        # every vertex has one parent, so the expansion from the root meets
        # each vertex at most once and misses exactly those on or below a
        # cycle
        self.levels = [np.array(roots)]
        while len(level := self.child[expand(self.child_ptr,
                                             self.levels[-1])[1]]):
            self.levels.append(np.sort(level))
        if sum(map(len, self.levels)) != self.n:
            raise FormatError("parent mapping does not form a rooted tree")

    def rises(self, x: np.ndarray, tol: float) -> list[tuple[int, int]]:
        """The edges (u, v), in increasing order, on which x of the child v
        exceeds x of its parent u by more than ``tol``."""
        up = self.parent[self.child]
        rise = x[self.child] > x[up] + tol
        return list(zip(up[rise].tolist(), self.child[rise].tolist()))

    def child_mass(self, x: np.ndarray) -> np.ndarray:
        """Per vertex, the sum of x over its children in increasing order."""
        return np.bincount(self.parent[self.child], weights=x[self.child],
                           minlength=self.n)

    def validate_groups(self):
        leaf = (np.diff(self.child_ptr) == 0).tolist()
        used = set()
        for t, g in enumerate(self.groups):
            for o in g:
                if not (0 <= o < self.n):
                    raise FormatError(f"group member id out of range: {o}")
                if not leaf[o]:
                    raise FormatError(f"group {t} member {o} is not a leaf")
                if o in used:
                    raise FormatError(f"groups overlap at {o}")
                used.add(o)


def parse_gst(text: str) -> GroupTreeInstance:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ["DBGST", "1"]:
        raise FormatError("expected header 'DBGST 1'")
    n, k = _counts(lines, "n k")
    if len(lines) != 3 + n + k:
        raise FormatError(f"expected {3 + n + k} lines, got {len(lines)}")
    (root,) = _fields(lines[2], "root", 1)
    if not (0 <= root < n):
        raise FormatError(f"root id out of range: {root} (n={n})")
    parent = [0] * n
    cost = [0] * n
    degree = [0] * n
    seen = set()
    line_costs = []
    for ln in lines[3:3 + n]:
        v, p, c, d = _fields(ln, "vertex", 4)
        if not (0 <= v < n):
            raise FormatError(f"vertex id out of range: {v}")
        if c < 0 or d < 0:
            raise FormatError(f"negative cost or degree bound for {v}")
        parent[v], cost[v], degree[v] = p, c, d
        line_costs.append(c)
        seen.add(v)
    if len(seen) != n:
        raise FormatError("vertex lines must cover ids 0..n-1 exactly once")
    _check_cost_sum(lines[3:3 + n], line_costs, "vertex")
    groups = [None] * k
    for ln in lines[3 + n:]:
        # 'group <t> <size>' and then any number of ids
        t, size, *ids = _fields(ln, "group", max(len(ln) - 1, 2))
        if len(ids) != size or not (0 <= t < k) or groups[t] is not None:
            raise FormatError(f"malformed group line: {' '.join(ln)}")
        for o in ids:
            if not (0 <= o < n):
                raise FormatError(f"group member id out of range: {o}")
        if len(set(ids)) != size:
            raise FormatError(f"repeated group member: {' '.join(ln)}")
        groups[t] = frozenset(ids)
    inst = GroupTreeInstance(n, parent, cost, groups, degree)
    if parent[root] != -1:
        raise FormatError("declared root has a parent")
    return inst


def serialize_gst(inst: GroupTreeInstance) -> str:
    out = ["DBGST 1", f"{inst.n} {len(inst.groups)}", f"root {inst.root}"]
    for v in range(inst.n):
        out.append(f"vertex {v} {inst.parent[v]} {inst.cost[v]} "
                   f"{inst.degree_bound[v]}")
    for t, g in enumerate(inst.groups):
        ids = " ".join(str(o) for o in sorted(g))
        out.append(f"group {t} {len(g)} {ids}".rstrip())
    return "\n".join(out) + "\n"


def preprocess_gst(inst: GroupTreeInstance) -> GroupTreeInstance:
    """Push group members to leaves.

    A group membership of an internal vertex v, or of a leaf shared between
    groups, is replaced by a fresh zero-cost synthetic leaf child of v; d_v is
    incremented per synthetic leaf so the budget for real children stays
    unchanged.
    """
    n = inst.n
    parent = inst.parent.tolist()
    cost = list(inst.cost)
    degree = list(inst.degree_bound)
    synthetic = list(inst.synthetic_leaf)
    groups = [set(g) for g in inst.groups]

    membership = {}
    for t, g in enumerate(groups):
        for o in g:
            membership.setdefault(o, []).append(t)
    has_children = set(p for p in parent if p != -1)

    for v in sorted(membership):
        ts = sorted(membership[v])
        if v not in has_children and len(ts) == 1:
            continue
        for t in ts:
            w = n
            n += 1
            parent.append(v)
            cost.append(0)
            degree.append(1)
            synthetic.append(True)
            groups[t].discard(v)
            groups[t].add(w)
            degree[v] += 1
        has_children.add(v)

    out = GroupTreeInstance(n, parent, cost,
                            [frozenset(g) for g in groups], degree, synthetic)
    out.validate_groups()
    return out
