import numpy as np
import pytest

from dbnet.generators import gen_dst, gen_gst
from dbnet.instances import (GroupTreeInstance, lift_tree, normalize,
                             preprocess_gst)
from dbnet.oracle import exact_dst
from dbnet.states import gen_state_tree


def oracle_height(norm, oracle_edges):
    """Depth of the balanced decomposition of the oracle tree; the smallest
    height at which that solution certainly embeds into the super-tree."""
    mt = lift_tree(norm, set(map(tuple, oracle_edges)))
    return gen_state_tree(norm, mt).depth()


def small_dst(seed, n=6, m=8, k=3, d_max=3):
    """A generated instance together with its oracle answer and a
    sufficient decomposition height."""
    inst = gen_dst(n, m, k, d_max=d_max, seed=seed)
    res = exact_dst(inst)
    assert res.status == "OPTIMAL"
    norm = normalize(inst)
    return inst, norm, res, oracle_height(norm, res.edges)


def random_binary_tree(rng, n):
    """Random rooted tree with at most two children per node, as a parent
    map over ids 0..n-1 with root 0."""
    parent = {0: None}
    nkids = {0: 0}
    for v in range(1, n):
        open_slots = [u for u in parent if nkids[u] < 2]
        u = int(open_slots[rng.integers(len(open_slots))])
        parent[v] = u
        nkids[u] += 1
        nkids[v] = 0
    return parent


def broom(depth):
    """Complete binary tree with every leaf in one group and d == 1, with a
    modified LP solution x~ that halves at every level."""
    n = 2 ** (depth + 1) - 1
    parent = [-1] + [(v - 1) // 2 for v in range(1, n)]
    leaves = frozenset(range(2 ** depth - 1, n))
    inst = GroupTreeInstance(n, parent, [0] * n, [leaves], [1] * n)
    xt = np.ldexp(1.0, -np.floor(np.log2(np.arange(n) + 1)).astype(int))
    return inst, xt


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def gst_suite():
    """Shared corpus of preprocessed group-tree instances."""
    out = []
    for seed in range(20):
        inst = gen_gst(20 + 2 * seed, 2 + seed % 4, depth=4, d_max=3,
                       seed=seed)
        out.append(preprocess_gst(inst))
    return out
