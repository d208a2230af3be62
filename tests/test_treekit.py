import numpy as np
import pytest

from conftest import multi_tree, random_binary_tree
from dbnet.errors import InvariantError
from dbnet.treekit import find_balanced_separator, height_budget, part_nodes


def _edges(tree, root, cut):
    return {(tree.parent[u], u) for u in part_nodes(tree, root, cut)[1:]}


def test_path_of_three():
    t = multi_tree({0: None, 1: 0, 2: 1})
    assert find_balanced_separator(t, 0) == 1


def test_complete_binary_seven():
    t = multi_tree({0: None, 1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2})
    assert find_balanced_separator(t, 0) in (1, 2)


def test_too_small_rejected():
    with pytest.raises(InvariantError):
        find_balanced_separator(multi_tree({0: None, 1: 0}), 0)


def test_separator_bound_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(4, 65))
        t = multi_tree(random_binary_tree(rng, n))
        v = find_balanced_separator(t, 0)
        size = len(part_nodes(t, v, frozenset()))
        assert n / 3 < size <= 2 * n / 3 + 1
        # exhaustive scan: some vertex satisfies the bound, and ours does
        assert any(n / 3 < len(part_nodes(t, u, frozenset())) <= 2 * n / 3 + 1
                   for u in range(n))


def test_split_path():
    t = multi_tree({0: None, 1: 0, 2: 1})
    assert part_nodes(t, 0, {1}) == [0, 1]
    assert part_nodes(t, 1, frozenset()) == [1, 2]


def test_split_partitions_edges():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(4, 40))
        t = multi_tree(random_binary_tree(rng, n))
        # split the whole tree, then its upper part once more
        for root, cut in ((0, frozenset()),
                          (0, frozenset({find_balanced_separator(t, 0)}))):
            m = len(part_nodes(t, root, cut))
            if m < 3:
                continue
            v = find_balanced_separator(t, root, cut)
            p1, p2 = (root, cut | {v}), (v, cut)
            e1, e2 = _edges(t, *p1), _edges(t, *p2)
            assert e1 | e2 == _edges(t, root, cut) and not (e1 & e2)
            assert set(part_nodes(t, *p1)) & set(part_nodes(t, *p2)) == {v}
            assert len(part_nodes(t, *p1)) <= 2 * m / 3 + 1
            assert len(part_nodes(t, *p2)) <= 2 * m / 3 + 1


def test_recursion_depth_budget():
    rng = np.random.default_rng(3)

    def depth(t, root, cut):
        n = len(part_nodes(t, root, cut))
        if n <= 2:
            return 0
        if n == 3 and len(t.children[root]) == 2:
            return 0
        v = find_balanced_separator(t, root, cut)
        return 1 + max(depth(t, root, cut | {v}), depth(t, v, cut))

    for _ in range(100):
        n = int(rng.integers(3, 120))
        t = multi_tree(random_binary_tree(rng, n))
        assert depth(t, 0, frozenset()) <= height_budget(n)


def test_height_budget_values():
    assert height_budget(1) == 2
    assert height_budget(3) >= 3
