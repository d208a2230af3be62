"""The one report serializer against the hand-written documents it replaced."""

import json

import pytest

import dbnet.cli
import dbnet.report
from conftest import small_dst
from dbnet.cli import main
from dbnet.dst_round import run_dst
from dbnet.generators import gen_dst, gen_gst
from dbnet.gst_round import run_gst
from dbnet.instances import (normalize, parse_dst, parse_gst, preprocess_gst,
                             serialize_dst, serialize_gst)

# gen_dst(7, 14, 4, d_max=1) seeds whose LP optimum at h=4 is fractional
FRACTIONAL_SEEDS = (3, 9, 12, 13, 15, 17, 22, 30, 38)


def reference_dst_dict(rep) -> dict:
    """The DB-DST report document as it was first written out by hand."""
    return {
        "schema_version": 2,
        "problem": "dst",
        "instance": rep.instance,
        "seed": rep.seed,
        "h": rep.h,
        "Q": rep.Q,
        "lp_cost": rep.lp_cost,
        "repetition_costs": rep.repetition_costs,
        "union_cost": rep.union_cost,
        "tree_cost": rep.tree_cost,
        "tree_edges": [list(e) for e in rep.tree_edges],
        "covered": rep.covered,
        "coverage": rep.coverage,
        "degree_violations": {str(v): r for v, r in
                              sorted(rep.degree_violations.items())},
        "mgf_stats": {str(v): d for v, d in sorted(rep.mgf_stats.items())},
        "s": rep.s,
        "h_prime": rep.h_prime,
    }


def reference_gst_dict(rep) -> dict:
    """The DB-GST-T report document as it was first written out by hand."""
    return {
        "schema_version": 2,
        "problem": "gst",
        "instance": rep.instance,
        "seed": rep.seed,
        "L": rep.L,
        "gamma": rep.gamma,
        "alpha": rep.alpha,
        "alpha0": rep.alpha[0],
        "M": rep.M,
        "lp_cost": rep.lp_cost,
        "modified_cost": rep.modified_cost,
        "repetition_costs": rep.repetition_costs,
        "union_cost": rep.union_cost,
        "union_vertices": rep.union_vertices,
        "coverage": rep.coverage,
        "degree_violations": {str(v): r for v, r in
                              sorted(rep.degree_violations.items())},
        "z_root": rep.z_root,
    }


def same_document(got: dict, want: dict):
    """Equal as data and as the text the CLI writes."""
    assert got == want
    assert json.dumps(got, sort_keys=True, indent=2) == \
        json.dumps(want, sort_keys=True, indent=2)


@pytest.mark.parametrize("seed", range(4))
def test_dst_document_matches_reference(seed):
    _, norm, _, h = small_dst(seed)
    rep = run_dst(norm, h=h, Q=7, seed=seed, label=f"s{seed}")
    same_document(rep.to_dict(), reference_dst_dict(rep))


@pytest.mark.parametrize("seed", FRACTIONAL_SEEDS)
def test_dst_document_matches_reference_fractional(seed):
    norm = normalize(gen_dst(7, 14, 4, d_max=1, seed=seed))
    rep = run_dst(norm, h=4, seed=seed)
    same_document(rep.to_dict(), reference_dst_dict(rep))


@pytest.mark.parametrize("seed", range(4))
def test_gst_document_matches_reference(seed):
    inst = preprocess_gst(gen_gst(30, 3, seed=seed))
    rep = run_gst(inst, M=12, seed=seed, label=f"s{seed}")
    same_document(rep.to_dict(), reference_gst_dict(rep))


def test_gst_document_with_synthetic_leaves():
    # the internal member 1 of group 0 gets a synthetic leaf
    inst = preprocess_gst(parse_gst(
        "DBGST 1\n4 2\nroot 0\nvertex 0 -1 0 2\nvertex 1 0 3 1\n"
        "vertex 2 1 4 1\nvertex 3 0 5 1\ngroup 0 1 1\ngroup 1 1 2\n"))
    assert any(inst.synthetic_leaf)
    rep = run_gst(inst, seed=3)
    same_document(rep.to_dict(), reference_gst_dict(rep))


def test_documents_without_terminals_or_groups():
    dst = parse_dst("DBDST 1\n2 1 0\nroot 0\nvertex 0 1\nvertex 1 0\n"
                    "edge 0 1 5\n")
    rep = run_dst(normalize(dst))
    assert rep.Q == 0
    same_document(rep.to_dict(), reference_dst_dict(rep))
    gst = preprocess_gst(parse_gst("DBGST 1\n3 0\nroot 0\nvertex 0 -1 0 2\n"
                                   "vertex 1 0 3 1\nvertex 2 0 4 1\n"))
    rep = run_gst(gst)
    assert rep.M == 0
    same_document(rep.to_dict(), reference_gst_dict(rep))


@pytest.mark.parametrize("problem", ["dst", "gst"])
def test_run_with_trials_writes_the_reference_document(tmp_path, monkeypatch,
                                                       problem):
    reports = []
    solver = {"dst": "run_dst", "gst": "run_gst"}[problem]
    real = getattr(dbnet.cli, solver)

    def keep(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(dbnet.cli, solver, keep)
    path = tmp_path / f"a.{problem}"
    if problem == "dst":
        inst, _, _, h = small_dst(2)
        path.write_text(serialize_dst(inst))
        extra = ["--height", str(h)]
        reference = reference_dst_dict
    else:
        path.write_text(serialize_gst(gen_gst(25, 3, seed=4)))
        extra = []
        reference = reference_gst_dict
    out = tmp_path / "rep.json"
    assert main(["run", "--problem", problem, "--instance", str(path),
                 "--seed", "5", "--trials", "50", "--out", str(out)]
                + extra) == 0
    doc = json.loads(out.read_text())
    assert set(doc.pop("stats")) and doc.pop("oracle")["status"] == "OPTIMAL"
    (rep,) = reports
    assert doc == json.loads(json.dumps(reference(rep)))


def test_schema_version_has_one_source(monkeypatch):
    monkeypatch.setattr(dbnet.report, "SCHEMA_VERSION", 99)
    _, norm, _, h = small_dst(0)
    assert run_dst(norm, h=h, Q=2).to_dict()["schema_version"] == 99
    inst = preprocess_gst(gen_gst(20, 2, seed=1))
    assert run_gst(inst, M=2).to_dict()["schema_version"] == 99
