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

from dataclasses import dataclass, field

from .errors import FormatError

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

    @property
    def cost(self) -> dict[tuple[int, int], int]:
        return {(u, v): c for (u, v, c) in self.edges}


def parse_dst(text: str) -> DirectedInstance:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ["DBDST", "1"]:
        raise FormatError("expected header 'DBDST 1'")
    try:
        n, m, k = map(int, lines[1])
    except (ValueError, IndexError):
        raise FormatError("expected 'n m k' on line 2")
    if len(lines) != 3 + n + m + k:
        raise FormatError(f"expected {3 + n + m + k} lines, got {len(lines)}")
    if lines[2][0] != "root":
        raise FormatError("expected 'root <id>' on line 3")
    root = int(lines[2][1])
    degree = {}
    for ln in lines[3:3 + n]:
        if ln[0] != "vertex" or len(ln) != 3:
            raise FormatError(f"malformed vertex line: {' '.join(ln)}")
        degree[int(ln[1])] = int(ln[2])
    if sorted(degree) != list(range(n)):
        raise FormatError("vertex lines must cover ids 0..n-1 exactly once")
    edges = []
    for ln in lines[3 + n:3 + n + m]:
        if ln[0] != "edge" or len(ln) != 4:
            raise FormatError(f"malformed edge line: {' '.join(ln)}")
        edges.append((int(ln[1]), int(ln[2]), int(ln[3])))
    terminals = set()
    for ln in lines[3 + n + m:]:
        if ln[0] != "terminal" or len(ln) != 2:
            raise FormatError(f"malformed terminal line: {' '.join(ln)}")
        terminals.add(int(ln[1]))
    if len(terminals) != k:
        raise FormatError("duplicate terminal ids")
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
    """

    inst: DirectedInstance
    original: DirectedInstance
    origin: dict[int, int]
    phi_kind: dict[int, str]
    edge_origin: dict[tuple[int, int], tuple[int, int] | None]
    terminal_origin: dict[int, int] = field(default_factory=dict)

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
        # t' stands for the original terminal, so it counts as one child of t
        phi_kind[tp] = PHI_CONST_ONE
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
            # give `parent` one child covering `leaves`: the leaf itself, or
            # a fresh gadget vertex whose subtree covers the halves
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
        n,
        [(u, v, c) for ((u, v), c) in sorted(edges.items())],
        inst.root,
        frozenset(terminals),
        degree,
    )
    return NormalizedInstance(norm, inst, origin, phi_kind, edge_origin,
                              terminal_origin)


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

    `edges` must form an out-arborescence rooted at the original root whose
    leaves are terminals.  Each original edge (u, v) becomes the path through
    u's binarization gadget ending in the leaf edge that carries (u, v); a
    split terminal additionally gains its zero-cost sink edge.  The result is
    a multi-tree over the normalized instance with the same cost.
    """
    inst = norm.original
    kids: dict[int, set[int]] = {}
    for (u, v) in edges:
        kids.setdefault(u, set()).add(v)

    split_of = {t: tp for tp, t in norm.terminal_origin.items() if tp != t}
    out_adj: dict[int, list[int]] = {}
    for (a, b, _) in norm.inst.edges:
        out_adj.setdefault(a, []).append(b)

    def gadget_edges(u: int) -> list[tuple[int, int]]:
        # normalized edges realizing u's chosen out-edges (and its sink edge
        # when u is a split terminal), pruned to the needed gadget paths
        want = kids.get(u, set())
        want_sink = u in split_of
        keep: list[tuple[int, int]] = []

        def walk(a: int) -> bool:
            used = False
            for b in sorted(out_adj.get(a, [])):
                e = (a, b)
                oe = norm.edge_origin.get(e)
                if oe is not None:
                    hit = oe[0] == u and oe[1] in want
                elif norm.origin[b] == u and norm.phi_kind[b] == PHI_IDENTITY:
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
        return keep

    lifted: dict[int, list[int]] = {}
    for u in {inst.root} | {w for e in edges for w in e}:
        for (a, b) in gadget_edges(u):
            lifted.setdefault(a, []).append(b)

    mt = MultiTree()
    stack = [(inst.root, None)]
    while stack:
        v, parent = stack.pop()
        a = mt.add_node(v, parent)
        for w in sorted(lifted.get(v, []), reverse=True):
            stack.append((w, a))
    mt.check_edges(norm)
    return mt


def original_degree(norm: NormalizedInstance, tree: MultiTree) -> list[int]:
    """Original degrees: rho=0 at leaves, else the sum of phi(child rho)."""
    depth = [0] * len(tree)
    for a in range(len(tree)):
        p = tree.parent[a]
        if p is not None:
            depth[a] = depth[p] + 1  # parents precede children by construction
    rho = [0] * len(tree)
    for a in sorted(range(len(tree)), key=lambda a: -depth[a]):
        if tree.children[a]:
            rho[a] = sum(norm.phi(tree.label[b], rho[b])
                         for b in tree.children[a])
    return rho


@dataclass
class GroupTreeInstance:
    """Rooted tree with vertex costs, disjoint leaf groups and degree bounds."""

    n: int
    parent: list[int]          # parent[v], -1 for the root
    cost: list[int]
    groups: list[frozenset[int]]
    degree_bound: list[int]
    synthetic_leaf: list[bool] = None

    def __post_init__(self):
        if self.synthetic_leaf is None:
            self.synthetic_leaf = [False] * self.n
        self.groups = [frozenset(g) for g in self.groups]
        self.children = [[] for _ in range(self.n)]
        roots = []
        for v, p in enumerate(self.parent):
            if p == -1:
                roots.append(v)
            else:
                if not (0 <= p < self.n):
                    raise FormatError(f"parent id out of range for {v}")
                self.children[p].append(v)
        if len(roots) != 1:
            raise FormatError(f"tree must have one root, found {roots}")
        self.root = roots[0]
        # reachability doubles as the acyclicity check
        seen, stack = {self.root}, [self.root]
        while stack:
            u = stack.pop()
            for w in self.children[u]:
                seen.add(w)
                stack.append(w)
        if len(seen) != self.n:
            raise FormatError("parent mapping does not form a rooted tree")

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    def validate_groups(self):
        used = set()
        for t, g in enumerate(self.groups):
            for o in g:
                if not (0 <= o < self.n):
                    raise FormatError(f"group member id out of range: {o}")
                if not self.is_leaf(o):
                    raise FormatError(f"group {t} member {o} is not a leaf")
                if o in used:
                    raise FormatError(f"groups overlap at {o}")
                used.add(o)


def parse_gst(text: str) -> GroupTreeInstance:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ["DBGST", "1"]:
        raise FormatError("expected header 'DBGST 1'")
    try:
        n, k = map(int, lines[1])
    except (ValueError, IndexError):
        raise FormatError("expected 'n k' on line 2")
    if len(lines) != 3 + n + k:
        raise FormatError(f"expected {3 + n + k} lines, got {len(lines)}")
    if lines[2][0] != "root":
        raise FormatError("expected 'root <id>' on line 3")
    root = int(lines[2][1])
    parent = [0] * n
    cost = [0] * n
    degree = [0] * n
    seen = set()
    for ln in lines[3:3 + n]:
        if ln[0] != "vertex" or len(ln) != 5:
            raise FormatError(f"malformed vertex line: {' '.join(ln)}")
        v = int(ln[1])
        if not (0 <= v < n):
            raise FormatError(f"vertex id out of range: {v}")
        parent[v], cost[v], degree[v] = int(ln[2]), int(ln[3]), int(ln[4])
        seen.add(v)
    if len(seen) != n:
        raise FormatError("vertex lines must cover ids 0..n-1 exactly once")
    groups = [None] * k
    for ln in lines[3 + n:]:
        if ln[0] != "group":
            raise FormatError(f"malformed group line: {' '.join(ln)}")
        t, size = int(ln[1]), int(ln[2])
        ids = [int(x) for x in ln[3:]]
        if len(ids) != size or not (0 <= t < k) or groups[t] is not None:
            raise FormatError(f"malformed group line: {' '.join(ln)}")
        for o in ids:
            if not (0 <= o < n):
                raise FormatError(f"group member id out of range: {o}")
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
    parent = list(inst.parent)
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
