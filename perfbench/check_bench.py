"""The benchmark's own tests, on the seconds-long ``tiny`` workload.

    PYTHONPATH=src python3 -m pytest -q perfbench/check_bench.py

The file name keeps these out of the repository's default test collection;
naming the file runs them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import load_reference, materialize  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_NAMES = ["solve_s", "wall_s", "samples_per_s", "setup_s", "peak_rss_mb",
             "coverage", "cost_ratio", "fail_rate"]


def bench(trace: int) -> tuple[list[str], dict]:
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                        "tiny", "--seed", "3", "--seconds", "0", "--trace",
                        str(trace)], cwd=ROOT, capture_output=True, text=True,
                       timeout=120)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_smoke_untraced_emits_every_end_to_end_metric():
    lines, result = bench(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in BENCH["end_to_end"]}
    printed = {ln.split()[1]: ln.split()[3] for ln in lines
               if ln.startswith("metric ")}
    assert sorted(printed) == sorted(E2E_NAMES)
    assert all(printed.values())                       # every one has a unit
    assert printed["fail_rate"] and "fail_rate 0/2" in lines
    assert any(ln.startswith("env ") and '"highs"' in ln for ln in lines)


def test_smoke_traced_emits_every_layer_metric_with_parent():
    lines, result = bench(1)
    assert result["correct"]
    names = [m["name"] for m in BENCH["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert set(run.LAYERS) | {"trace.overhead_s"} == set(names)
    layer_lines = {ln.split()[1]: ln for ln in lines if ln.startswith("layer ")}
    assert sorted(layer_lines) == sorted(names)
    for name in run.LAYERS:                 # tiny reaches every layer
        assert " parent=" in layer_lines[name]
        assert "parent=(not reached)" not in layer_lines[name], name


def _drop_one(report: Path, problem: str):
    doc = json.loads(report.read_text())
    key = "tree_edges" if problem == "dst" else "union_vertices"
    assert doc[key]
    doc[key] = doc[key][:-1]
    report.write_text(json.dumps(doc))


@pytest.mark.parametrize("problem", ["dst", "gst"])
def test_corrupted_report_counts_as_failed(monkeypatch, problem):
    from dbnet import cli
    insts = materialize("tiny", ROOT, load_reference())
    verify_insts = [run.parse_for_verify(i) for i in insts]
    real_main = cli.main

    def corrupting_main(argv):
        rc = real_main(argv)
        if argv[argv.index("--problem") + 1] == problem:
            _drop_one(ROOT / argv[argv.index("--out") + 1], problem)
        return rc

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(cli, "main", corrupting_main)
    wall, results = run.run_pass(cli, insts, verify_insts, seed=3)
    bad = [r for r in results if not r.ok]
    assert [r.instance.endswith("." + problem) for r in bad] == [True]
    assert run.end_to_end(results, [wall], [1.0])["fail_rate"] == 0.5


def test_lp_cost_off_reference_counts_as_failed(monkeypatch):
    from dbnet import cli
    insts = materialize("tiny", ROOT, load_reference())
    insts[0].ref = dict(insts[0].ref, lp_cost=insts[0].ref["lp_cost"] + 1)
    monkeypatch.chdir(ROOT)
    res = run.run_op(cli, insts[0], run.parse_for_verify(insts[0]), seed=3)
    assert not res.ok and "differs from reference" in res.problems[0]
