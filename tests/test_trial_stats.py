"""``run --trials`` statistics, counted per kept component, against the
per-node statistics they replace.

The reference functions expand every kept component into its nodes and
count over every node; the statistics must equal theirs exactly.  An
all-sure table must cost one component head per repetition.
"""
import math

import numpy as np
import pytest

from conftest import FRACTIONAL_SEEDS, small_dst
from dbnet import cli
from dbnet.cli import TRIAL_STREAM, _dst_trial_stats, _gst_trial_stats, _stat
from dbnet.dst_round import run_dst
from dbnet.generators import gen_dst, gen_gst
from dbnet.gst_round import run_gst
from dbnet.instances import normalize, preprocess_gst
from dbnet.rounding import blocks, csr, pair_counts

TRIALS = 2500       # two full engine blocks and a partial one


def reference_dst_trial_stats(report, trials: int) -> dict:
    """Hit rate per terminal and sample cost, counted over every sampled
    node."""
    sampler = report.sampler
    st = sampler.st
    norm = st.norm
    terms = sorted(norm.inst.terminals)
    node_cost = st.cost.astype(float)
    terminals_of = csr(len(st), *st.terminal_members())
    hits = np.zeros(len(terms), dtype=np.int64)
    costs = np.zeros(trials)
    for start, stop in blocks(trials):
        rep, node = sampler.sample((report.seed, TRIAL_STREAM), start, stop)
        rep -= start
        costs[start:stop] = np.bincount(rep, weights=node_cost[node],
                                        minlength=stop - start)
        copies = pair_counts(*terminals_of, len(terms), rep, node,
                             stop - start)
        hits += np.count_nonzero(copies, axis=0)
    return {"per_terminal_hit": {str(norm.origin[t]):
                                 _stat(int(c), trials)
                                 for t, c in zip(terms, hits)},
            "cost": {"mean": float(np.mean(costs)),
                     "stddev": float(np.std(costs) / math.sqrt(trials)),
                     "trials": trials}}


def reference_gst_trial_stats(report, trials: int) -> dict:
    """Hit rate per group, counted over every sampled vertex."""
    rounder = report.rounder
    inst = rounder.inst
    k = len(inst.groups)
    pairs = np.array([(o, g) for g, grp in enumerate(inst.groups)
                      for o in grp], dtype=np.int64).reshape(-1, 2)
    groups_of = csr(inst.n, pairs[:, 0], pairs[:, 1])
    hits = np.zeros(k, dtype=np.int64)
    for start, stop in blocks(trials):
        rep, node = rounder.sample((report.seed, TRIAL_STREAM), start, stop)
        copies = pair_counts(*groups_of, k, rep - start, node, stop - start)
        hits += np.count_nonzero(copies, axis=0)
    return {"per_group_hit": {str(g): _stat(int(c), trials)
                              for g, c in enumerate(hits)}}


@pytest.mark.parametrize("seed", FRACTIONAL_SEEDS)
def test_dst_trial_stats_equal_per_node_counts(seed):
    norm = normalize(gen_dst(7, 14, 4, d_max=1, seed=seed))
    report = run_dst(norm, h=4, seed=seed)
    assert _dst_trial_stats(report, TRIALS) == \
        reference_dst_trial_stats(report, TRIALS)


def test_gst_trial_stats_equal_per_node_counts(gst_suite):
    corpus = list(gst_suite) + [preprocess_gst(gen_gst(80, 4, depth=5,
                                                       seed=seed))
                                for seed in range(5)]
    for i, inst in enumerate(corpus):
        report = run_gst(inst, seed=i)
        assert _gst_trial_stats(report, TRIALS) == \
            reference_gst_trial_stats(report, TRIALS), i


def _count_nodes(monkeypatch) -> list[int]:
    """Replace ``pair_counts`` where the trial statistics call it by a
    wrapper that adds up the nodes it is passed; the sum is the one list
    entry."""
    count = [0]

    def counted(ptr, col, ncol, rep, node, nrep):
        count[0] += len(node)
        return pair_counts(ptr, col, ncol, rep, node, nrep)

    monkeypatch.setattr(cli, "pair_counts", counted)
    return count


def _gst_report(seed):
    return run_gst(preprocess_gst(gen_gst(40, 3, depth=4, d_max=3,
                                          seed=seed)), seed=1)


def test_all_sure_tables_pass_one_head_per_repetition(monkeypatch):
    _, norm, _, h = small_dst(0)
    dst = run_dst(norm, h=h, seed=1)
    gst = _gst_report(0)
    count = _count_nodes(monkeypatch)
    _dst_trial_stats(dst, TRIALS)
    assert count[0] == TRIALS
    count[0] = 0
    _gst_trial_stats(gst, TRIALS)
    assert count[0] == TRIALS


def test_drawn_tables_pass_more_heads(monkeypatch):
    dst = run_dst(normalize(gen_dst(7, 14, 4, d_max=1, seed=3)), h=4, seed=1)
    gst = _gst_report(5)
    assert len(dst.sampler.table.child) and len(gst.rounder.table.child)
    count = _count_nodes(monkeypatch)
    _dst_trial_stats(dst, TRIALS)
    assert count[0] > TRIALS
    count[0] = 0
    _gst_trial_stats(gst, TRIALS)
    assert count[0] > TRIALS
