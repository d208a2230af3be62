"""The balanced tree partitioning primitive, on parts of a multi-tree.

A part of a tree is given by its root and the set ``cut`` of nodes that are
leaves in it: it holds every node below the root that lies below no node of
``cut``.  Splitting the part ``(root, cut)`` at v gives the parts
``(root, cut | {v})`` and ``(v, cut)``, which share only v and partition the
part's edges.
"""

from __future__ import annotations

import math

from .errors import InvariantError


def part_nodes(tree, root, cut) -> list:
    """The nodes of the part ``(root, cut)`` of ``tree``, in preorder."""
    out, stack = [], [root]
    while stack:
        u = stack.pop()
        out.append(u)
        if u not in cut:
            stack.extend(reversed(tree.children[u]))
    return out


def height_budget(n: int) -> int:
    """Depth bound for the recursive balanced partition: ceil(log_1.5 n) + 2."""
    if n <= 1:
        return 2
    return math.ceil(math.log(n) / math.log(1.5)) + 2


def find_balanced_separator(tree, root, cut=frozenset()):
    """Node v of the part ``(root, cut)`` of a binary tree, n >= 3 nodes,
    whose subtree in the part has n/3 < size <= 2n/3 + 1 nodes.

    Constructive descent from the root: while the current node is too
    heavy, move to the child with the largest subtree (smaller id on ties,
    since ``tree.children`` lists ascend).  For the 3-node path the middle
    node is returned so that splitting at it partitions the part into two
    edges.
    """
    nodes = part_nodes(tree, root, cut)
    n = len(nodes)
    if n < 3:
        raise InvariantError(f"separator needs n >= 3, got {n}")
    kids = tree.children[root]
    if n == 3 and len(kids) == 1:
        return kids[0]
    size = dict.fromkeys(nodes, 1)
    for u in reversed(nodes[1:]):
        size[tree.parent[u]] += size[u]
    u = root
    while size[u] > 2 * n / 3 + 1:
        u = max(tree.children[u], key=size.__getitem__)  # first on ties
    return u
