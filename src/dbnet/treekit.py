"""Rooted-tree utilities and the balanced tree partitioning primitive."""

from __future__ import annotations

import math

from .errors import InvariantError


class RootedTree:
    """Rooted tree over arbitrary hashable node ids, given as a parent map."""

    def __init__(self, parent: dict):
        self.parent = dict(parent)
        self.children = {u: [] for u in self.parent}
        roots = []
        for u, p in self.parent.items():
            if p is None:
                roots.append(u)
            else:
                self.children[p].append(u)
        if len(roots) != 1:
            raise InvariantError(f"tree must have exactly one root, got {roots}")
        self.root = roots[0]
        for u in self.children:
            self.children[u].sort()

    def __len__(self):
        return len(self.parent)

    def subtree_sizes(self) -> dict:
        size = {u: 1 for u in self.parent}
        for u in self._postorder():
            for v in self.children[u]:
                size[u] += size[v]
        if size[self.root] != len(self.parent):
            raise InvariantError("tree is not connected")
        return size

    def subtree_nodes(self, v) -> list:
        out, stack = [], [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(self.children[u])
        return out

    def _postorder(self):
        order, stack = [], [self.root]
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(self.children[u])
        return reversed(order)


def height_budget(n: int) -> int:
    """Depth bound for the recursive balanced partition: ceil(log_1.5 n) + 2."""
    if n <= 1:
        return 2
    return math.ceil(math.log(n) / math.log(1.5)) + 2


def find_balanced_separator(tree: RootedTree):
    """Vertex v with n/3 < |subtree(v)| <= 2n/3 + 1 on a binary tree, n >= 3.

    Constructive descent from the root: while the current vertex is too
    heavy, move to the child with the largest subtree (smaller id on ties).
    For the 3-node path the middle vertex is returned so that splitting at
    it partitions the tree into two edges.
    """
    n = len(tree)
    if n < 3:
        raise InvariantError(f"separator needs n >= 3, got {n}")
    size = tree.subtree_sizes()
    if n == 3 and len(tree.children[tree.root]) == 1:
        return tree.children[tree.root][0]
    u = tree.root
    while size[u] > 2 * n / 3 + 1:
        best = None
        for v in tree.children[u]:  # sorted, so ties pick the smaller id
            if best is None or size[v] > size[best]:
                best = v
        u = best
    return u


def split_at(tree: RootedTree, v) -> tuple[RootedTree, RootedTree]:
    """Partition edges at v: T2 = subtree of v, T1 = rest with v kept as leaf."""
    if v == tree.root:
        raise InvariantError("cannot split at the root")
    sub = set(tree.subtree_nodes(v))
    t2 = RootedTree({u: (None if u == v else tree.parent[u]) for u in sub})
    t1 = RootedTree({u: tree.parent[u] for u in tree.parent
                     if u not in sub or u == v})
    return t1, t2
