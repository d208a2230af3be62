import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from dbnet.errors import FormatError
from dbnet.generators import gen_dst, gen_gst
from dbnet.instances import (DirectedInstance, GroupTreeInstance,
                             serialize_dst, serialize_gst)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def reference_gen_gst(n, k, depth=4, d_max=3, cost_range=(1, 20), seed=0):
    """``gen_gst`` as first written: the eligible parents of every vertex
    found by a scan of all earlier vertices."""
    if n < 2 or k < 1 or depth < 1 or d_max < 1:
        raise FormatError("inconsistent generator parameters")
    rng = np.random.default_rng(seed)
    lo, hi = cost_range
    parent = [-1] * n
    level = [0] * n
    fanout = [0] * n
    for v in range(1, n):
        ok = [u for u in range(v)
              if level[u] < depth and fanout[u] < d_max]
        if not ok:
            raise FormatError("depth/d_max too tight for n vertices")
        u = int(ok[rng.integers(len(ok))])
        parent[v] = u
        level[v] = level[u] + 1
        fanout[u] += 1
    children = [[] for _ in range(n)]
    for v in range(1, n):
        children[parent[v]].append(v)
    leaves = [v for v in range(n) if not children[v] and v != 0]
    if len(leaves) < k:
        raise FormatError(f"only {len(leaves)} leaves for {k} groups")
    order = [leaves[i] for i in rng.permutation(len(leaves))]
    groups = [{order[t]} for t in range(k)]
    for o in order[k:]:
        t = int(rng.integers(k + 1))
        if t < k:
            groups[t].add(o)
    cost = [int(rng.integers(lo, hi + 1)) for _ in range(n)]
    cost[0] = 0
    on_path = set()
    for t in range(k):
        v = order[t]
        while v != -1 and v not in on_path:
            on_path.add(v)
            v = parent[v]
    need = [0] * n
    for v in on_path:
        if parent[v] != -1:
            need[parent[v]] += 1
    bounds = [max(int(rng.integers(1, d_max + 1)), need[v], 1)
              for v in range(n)]
    return GroupTreeInstance(n, parent, cost,
                             [frozenset(g) for g in groups], bounds)


def reference_gen_dst(n, m, k, d_max=3, cost_range=(1, 20), seed=0):
    """``gen_dst`` as first written: the eligible parents of every vertex
    found by a scan of all earlier vertices."""
    if n < 2 or k < 1 or k > n - 1 or m < n - 1 or d_max < 1:
        raise FormatError("inconsistent generator parameters")
    if m > (n - 1) * (n - 1):
        raise FormatError("too many edges requested")
    rng = np.random.default_rng(seed)
    lo, hi = cost_range
    fanout = [0] * n
    edges = {}
    for v in range(1, n):
        ok = [u for u in range(v) if fanout[u] < d_max]
        u = int(ok[rng.integers(len(ok))])
        fanout[u] += 1
        edges[(u, v)] = int(rng.integers(lo, hi + 1))
    while len(edges) < m:
        u = int(rng.integers(n))
        v = int(rng.integers(1, n))
        if u != v and (u, v) not in edges:
            edges[(u, v)] = int(rng.integers(lo, hi + 1))
    terminals = sorted(int(t) for t in
                       rng.choice(np.arange(1, n), size=k, replace=False))
    bounds = {v: max(int(rng.integers(1, d_max + 1)), fanout[v])
              for v in range(n)}
    triples = [(u, v, c) for (u, v), c in sorted(edges.items())]
    return DirectedInstance(n, triples, 0, frozenset(terminals), bounds)


def outcome(gen, *args, **kwargs) -> str:
    serialize = serialize_dst if "dst" in gen.__name__ else serialize_gst
    try:
        return serialize(gen(*args, **kwargs))
    except FormatError as e:
        return f"FormatError: {e}"


@pytest.mark.parametrize("args,kwargs", [
    ((25, 3), {"seed": 7}),
    ((40, 3), {"depth": 4, "d_max": 3, "seed": 5}),
    ((300, 6), {"depth": 2, "d_max": 20, "seed": 1}),
    ((500, 8), {"depth": 9, "d_max": 1, "seed": 2}),
    ((2, 1), {"depth": 1, "d_max": 1, "seed": 0}),
    ((800, 5), {"depth": 12, "d_max": 4, "cost_range": (0, 3), "seed": 3}),
    # too tight: 1 + 2 + 4 vertices fit, the eighth does not
    ((8, 1), {"depth": 2, "d_max": 2, "seed": 0}),
    # enough vertices, too few leaves
    ((4, 3), {"depth": 3, "d_max": 1, "seed": 0})],
    ids=["default", "perfbench-mc", "shallow", "path", "pair", "deep",
         "too-tight", "few-leaves"])
def test_gen_gst_matches_reference(args, kwargs):
    assert outcome(gen_gst, *args, **kwargs) == \
        outcome(reference_gen_gst, *args, **kwargs)


def test_gen_gst_20k_is_the_benchmark_instance():
    # the scan of all earlier vertices took about 17 s at this size
    start = time.perf_counter()
    text = serialize_gst(gen_gst(20000, 10, 10, 4, seed=0))
    assert time.perf_counter() - start < 5.0
    recorded = json.loads(REFERENCE.read_text())["instances"]
    (want,) = [entry["sha256"] for path, entry in recorded.items()
               if path.endswith("/gst-20000-10-10-4-s0.gst")]
    assert hashlib.sha256(text.encode()).hexdigest() == want


@pytest.mark.parametrize("args,kwargs", [
    ((8, 14, 4), {"seed": 0}),
    ((6, 8, 3), {"seed": 4}),
    ((7, 14, 4), {"d_max": 1, "seed": 3}),
    ((300, 450, 20), {"seed": 1}),
    ((200, 199, 5), {"d_max": 1, "seed": 2}),
    ((2, 1, 1), {"d_max": 1, "seed": 0}),
    ((500, 2000, 10), {"d_max": 6, "cost_range": (0, 3), "seed": 5}),
    ((5, 17, 2), {"seed": 0}),
    ((5, 3, 2), {"seed": 0})],
    ids=["dst-h4", "mc", "fractional", "sparse", "path", "pair", "dense",
         "too-many-edges", "too-few-edges"])
def test_gen_dst_matches_reference(args, kwargs):
    assert outcome(gen_dst, *args, **kwargs) == \
        outcome(reference_gen_dst, *args, **kwargs)


def test_gen_dst_is_not_quadratic():
    # the scan of all earlier vertices took about 14 s at this size
    start = time.perf_counter()
    gen_dst(20000, 30000, 20, seed=0)
    assert time.perf_counter() - start < 3.0
