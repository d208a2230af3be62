import numpy as np
import pytest

from dbnet.generators import gen_dst, gen_gst
from dbnet.instances import GroupTreeInstance, normalize, preprocess_gst
from dbnet.oracle import exact_dst
from dbnet.states import oracle_height


def small_dst(seed, n=6, m=8, k=3, d_max=3):
    """A generated instance together with its oracle answer and a
    sufficient decomposition height."""
    inst = gen_dst(n, m, k, d_max=d_max, seed=seed)
    res = exact_dst(inst)
    assert res.status == "OPTIMAL"
    norm = normalize(inst)
    return inst, norm, res, oracle_height(norm, res.edges)


def state_tree_cost(norm, tau) -> int:
    """Cost of the leaf edges and triples of a state tree."""
    total = 0
    for o in tau.nodes():
        if o.is_leaf:
            r1, *tails = o.edge or o.triple
            total += sum(norm.cost[(r1, v)] for v in tails)
    return total


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


def set_cover_triangle() -> GroupTreeInstance:
    """Root 0, hubs a, b, c = 1, 2, 3 of cost 10, two unit leaves per hub
    (a1, a2 = 4, 5; b2, b3 = 6, 7; c1, c3 = 8, 9), and groups {a1, c1},
    {a2, b2}, {b3, c3}: every group hangs below two hubs and every hub
    serves two groups, so a tree needs two hubs."""
    return GroupTreeInstance(10, [-1, 0, 0, 0, 1, 1, 2, 2, 3, 3],
                             [0, 10, 10, 10, 1, 1, 1, 1, 1, 1],
                             [{4, 8}, {5, 6}, {7, 9}],
                             [3, 2, 2, 2, 1, 1, 1, 1, 1, 1])


# gen_dst(7, 14, 4, d_max=1) at h=4: seeds whose LP optimum is fractional
# (seed 3: 32.67), with state nodes that split their mass between children,
# so that the rounding's draws matter
FRACTIONAL_SEEDS = (3, 9, 12, 13, 15, 17, 22, 30, 38)


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
