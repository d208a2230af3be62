#!/usr/bin/env python3
"""dbnet solve benchmark.

    python3 perfbench/run.py --workload dst_h4 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; nothing is installed, ``src/`` is put
on ``sys.path``.  One process, one caller, closed loop: each operation is one
in-process ``dbnet.cli.main(["run", ...])`` on one instance file, and the next
starts only after the previous report has been written and checked.  Whole
passes over the workload's instances repeat until ``--seconds`` have elapsed.

Every report is checked: exit code, ``verify_dst_report``/``verify_gst_report``
and ``lp_cost`` against ``reference.json``.  An operation that fails any check
counts in ``failed``.  Report digests are compared with the recorded ones and
a change is flagged, not failed.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes until the traced ones add
up to ``--seconds``, and prints the per-layer metrics (self times from spans
recorded by ``spans.Tracer`` around dbnet's public functions) and the tracing
overhead.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported (here or in a probe).
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import (WORK_DIR, WORKLOADS, Instance, load_reference,  # noqa: E402
                       materialize)

SETUP_PROBES = 15
LP_RTOL = 1e-6

# Per-layer metrics: name -> (how it is computed, spans or counter it reads,
# the end-to-end metric and workload it should move).
LAYERS = {
    "instances.parse_s": ("self", ["instances.parse_dst", "instances.parse_gst"],
                          "setup_s, mainly on gst_20k"),
    "instances.normalize_s": ("self", ["instances.normalize"],
                              "setup_s on dst_h4 and mc_trials"),
    "instances.preprocess_gst_s": ("self", ["instances.preprocess_gst"],
                                   "setup_s, mainly on gst_20k"),
    "states.live_states_s": ("self", ["states.live_states"],
                             "solve_s and peak_rss_mb on dst_h4"),
    "states.expand_s": ("self", ["states.build_super_tree"],
                        "solve_s and peak_rss_mb on dst_h4"),
    "states.stitch_s": ("self", ["states.selection_to_state_tree",
                                 "states.stitch_multi_tree"],
                        "solve_s on dst_h4"),
    "states.live_state_count": ("count", ["states.live_states"],
                                "solve_s and peak_rss_mb on dst_h4"),
    "states.super_tree_nodes": ("count", ["states.build_super_tree"],
                                "solve_s and peak_rss_mb on dst_h4"),
    "states.build_super_tree_calls": ("per_dst_run", ["states.build_super_tree"],
                                      "samples_per_s on mc_trials"),
    "lpcore.build_dst_lp_s": ("self", ["lpcore.build_dst_lp"],
                              "solve_s on dst_h4"),
    "lpcore.build_gst_lp_s": ("self", ["lpcore.build_gst_lp"],
                              "solve_s on gst_20k"),
    "lpcore.check_modified_solution_s": (
        "self", ["lpcore.check_modified_solution"], "solve_s on gst_20k"),
    "lpcore.solve_lp_s": ("self", ["lpcore.solve_lp"],
                          "solve_s on gst_20k and dst_h4"),
    "lpcore.max_violation_s": ("self", ["lpcore.LPModel.max_violation"],
                               "solve_s on gst_20k and dst_h4"),
    "lpcore.lp_rows": ("count", ["lpcore.build_dst_lp", "lpcore.build_gst_lp"],
                       "solve_s on gst_20k and dst_h4"),
    "lpcore.lp_cols": ("count", ["lpcore.build_dst_lp", "lpcore.build_gst_lp"],
                       "solve_s on gst_20k and dst_h4"),
    "lpcore.lp_nnz": ("count", ["lpcore.build_dst_lp", "lpcore.build_gst_lp"],
                      "solve_s on gst_20k and dst_h4"),
    "lpcore.simplex_iters": ("count", ["lpcore.solve_lp"],
                             "solve_s on gst_20k and dst_h4"),
    "dst_round.sample_us": ("per_call_us", ["dst_round.Sampler.sample"],
                            "samples_per_s on mc_trials; not dst_h4"),
    "dst_round.sampler_init_s": ("self", ["dst_round.Sampler.__init__"],
                                 "samples_per_s on mc_trials; not dst_h4"),
    "dst_round.round_super_tree_s": ("self", ["dst_round.round_super_tree"],
                                     "solve_s on dst_h4"),
    "dst_round.extract_tree_s": ("self", ["dst_round.extract_tree"],
                                 "solve_s on dst_h4"),
    "dst_round.concentration_stats_s": (
        "self", ["dst_round.concentration_stats"], "solve_s on dst_h4"),
    "gst_round.sample_us": ("per_call_us", ["gst_round.Rounder.sample"],
                            "samples_per_s on mc_trials; not gst_20k"),
    "gst_round.build_scaled_s": ("self", ["gst_round.build_scaled"],
                                 "solve_s on gst_20k"),
    "gst_round.check_branching_mass_s": (
        "self", ["gst_round.check_branching_mass"], "solve_s on gst_20k"),
    "oracle.exact_dst_s": ("self", ["oracle.exact_dst"],
                           "solve_s on mc_trials and dst_h4"),
    "oracle.exact_gst_s": ("self", ["oracle.exact_gst"],
                           "solve_s on mc_trials and dst_h4"),
    "cli.trial_stats_s": ("total", ["cli._dst_trial_stats",
                                    "cli._gst_trial_stats"],
                          "samples_per_s and solve_s on mc_trials"),
    "cli.verify_s": ("self", ["cli.verify_dst_report", "cli.verify_gst_report"],
                     "solve_s on every workload"),
}


@dataclass
class OpResult:
    instance: str
    main_s: float               # in cli.main
    wall_s: float               # instance text to written, verified report
    problems: list = field(default_factory=list)
    coverage: float = 0.0
    cost_ratio: float = 0.0
    samples: int = 0
    digest: str = ""
    digest_status: str = ""     # same / changed / unrecorded

    @property
    def ok(self) -> bool:
        return not self.problems


def check_report(cli, inst: Instance, verify_inst, doc) -> list[str]:
    """The per-operation correctness gate, after a zero exit code."""
    if not isinstance(doc, dict) or doc.get("problem") != inst.op.problem:
        return [f"report is not a {inst.op.problem} report"]
    verify = (cli.verify_dst_report if inst.op.problem == "dst"
              else cli.verify_gst_report)
    try:
        bad = list(verify(verify_inst, doc))
    except Exception as e:      # a malformed report is a failed check
        bad = [f"verification raised {type(e).__name__}: {e}"]
    lp, ref = doc.get("lp_cost"), inst.ref.get("lp_cost")
    if not isinstance(lp, (int, float)) or ref is None:
        bad.append(f"lp_cost {lp!r} not comparable with reference {ref!r}")
    elif abs(lp - ref) > LP_RTOL * abs(ref):
        bad.append(f"lp_cost {lp} differs from reference {ref}")
    return bad


def run_op(cli, inst: Instance, verify_inst, seed: int) -> OpResult:
    out = f"{inst.path}.report.json"
    t0 = perf_counter()
    problems = []
    try:
        rc = cli.main(inst.op.cli_args(inst.path, seed, out))
    except SystemExit as e:     # argparse rejects its arguments
        rc = e.code
    except Exception as e:      # any traceback is a failed operation
        rc = None
        problems.append(f"raised {type(e).__name__}: {e}")
    t_main = perf_counter()
    doc, data = None, b""
    if rc != 0 and not problems:
        problems.append(f"exit code {rc}")
    if not problems:
        try:
            data = (ROOT / out).read_bytes()
            doc = json.loads(data)
        except (OSError, ValueError) as e:
            problems.append(f"unreadable report: {e}")
        else:
            problems += check_report(cli, inst, verify_inst, doc)
    t1 = perf_counter()
    res = OpResult(inst.path, t_main - t0, t1 - t0, problems)
    if res.ok:
        dst = inst.op.problem == "dst"
        # verified fields only: DST ``covered`` and GST ``coverage`` flags
        res.coverage = (len(doc["covered"]) / len(verify_inst.terminals)
                        if dst else sum(doc["coverage"]) / len(doc["coverage"]))
        res.cost_ratio = ((doc["tree_cost"] if dst else doc["union_cost"])
                          / doc["lp_cost"])
        res.samples = (doc["Q"] if dst else doc["M"]) + inst.op.trials
        res.digest = hashlib.sha256(data).hexdigest()
        want = inst.ref.get("digests", {}).get(str(seed))
        res.digest_status = ("unrecorded" if want is None
                             else "same" if want == res.digest else "changed")
    return res


def run_pass(cli, insts, verify_insts, seed) -> tuple[float, list[OpResult]]:
    t0 = perf_counter()
    results = [run_op(cli, i, v, seed) for i, v in zip(insts, verify_insts)]
    return perf_counter() - t0, results


def parse_for_verify(inst: Instance):
    from dbnet.instances import parse_dst, parse_gst, preprocess_gst
    if inst.op.problem == "dst":
        return parse_dst(inst.text)
    return preprocess_gst(parse_gst(inst.text))


def probe_setup(specs: list[str]) -> float:
    """One fresh interpreter, timed until every instance is parsed and
    normalized or preprocessed."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), *specs],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        t1 = perf_counter()
        p.stdout.read()
    if p.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {p.returncode})")
    return t1 - t0


def untraced_run(cli, insts, verify_insts, seed, seconds):
    """Whole passes until the operations add up to ``seconds``.

    The ``SETUP_PROBES`` set-up probes are spread between operations in step
    with the operation time measured so far (the rest follow the last pass),
    so ``setup_s`` samples the host over the whole run, not in one burst.
    Probe time is in no operation and no pass."""
    specs = [f"{i.op.problem}:{i.path}" for i in insts]
    setup_times, results, pass_walls = [], [], []
    measured = 0.0
    while True:
        wall = 0.0
        for inst, vinst in zip(insts, verify_insts):
            due = SETUP_PROBES * min(measured / seconds, 1) if seconds else 0
            while len(setup_times) < int(due):
                setup_times.append(probe_setup(specs))
            res = run_op(cli, inst, vinst, seed)
            results.append(res)
            wall += res.wall_s
            measured += res.wall_s
        pass_walls.append(wall)
        if measured >= seconds:
            break
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(probe_setup(specs))
    return results, pass_walls, setup_times


def environment() -> dict:
    import numpy
    import scipy
    try:
        from scipy.optimize._highspy import _core as highs
        highs_version = "%d.%d.%d" % (highs.HIGHS_VERSION_MAJOR,
                                      highs.HIGHS_VERSION_MINOR,
                                      highs.HIGHS_VERSION_PATCH)
    except (ImportError, AttributeError):
        highs_version = "unknown"
    git_sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src = hashlib.sha256()
    for f in sorted((SRC / "dbnet").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "highs": highs_version,
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha,
            "src_sha256": src.hexdigest(), "threads": PINNED_THREADS,
            "processes": 1}


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values (for two or four, their median).

    ``solve_s`` uses it instead of the median because ``mc_trials`` mixes
    two clusters of operation times (GST ~0.6 s, DST ~0.9 s): their median
    falls in the gap and follows the noise of the one or two operations at
    its edges."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


def end_to_end(results, pass_walls, setup_times) -> dict[str, float]:
    ok = [r for r in results if r.ok]
    main_s = sum(r.main_s for r in ok)
    return {
        "solve_s": interquartile_mean(r.wall_s for r in results),
        "wall_s": statistics.median(pass_walls),
        "samples_per_s": sum(r.samples for r in ok) / main_s if main_s else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "coverage": statistics.fmean(r.coverage for r in ok) if ok else 0.0,
        "cost_ratio": statistics.fmean(r.cost_ratio for r in ok) if ok else 0.0,
        "fail_rate": (len(results) - len(ok)) / len(results),
    }


def layer_values(agg, counts, n_dst_ops) -> dict[str, float]:
    """Per-layer values of one traced pass (``per_call_us`` is done over
    all passes by the caller)."""
    out = {}
    for name, (how, spans, _) in LAYERS.items():
        if how == "self":
            out[name] = sum(agg[s]["self_s"] for s in spans if s in agg)
        elif how == "total":
            out[name] = sum(agg[s]["total_s"] for s in spans if s in agg)
        elif how == "count":
            out[name] = counts.get(name, 0)
        elif how == "per_dst_run":
            out[name] = (counts.get("states.build_super_tree_calls", 0)
                         / n_dst_ops if n_dst_ops else 0)
    return out


def merge_agg(total: dict, agg: dict):
    for name, a in agg.items():
        t = total.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "parents": {}})
        for k in ("calls", "total_s", "self_s"):
            t[k] += a[k]
        for p, s in a["parents"].items():
            t["parents"][p] = t["parents"].get(p, 0.0) + s


def traced_run(cli, insts, verify_insts, seed, seconds):
    """A warm-up operation per problem kind, then pairs of one untraced and
    one traced pass until the traced passes add up to ``seconds``.

    ``trace.overhead_s`` is the median over pairs of traced minus untraced
    pass time: adjacent passes share the host's speed of the moment."""
    first = {}
    for i, v in zip(insts, verify_insts):
        first.setdefault(i.op.problem, (i, v))
    results = [run_op(cli, i, v, seed) for i, v in first.values()]
    tracer = Tracer()
    traced_op = tracer.wrap(run_op, "bench.op")
    walls, diffs, per_pass, total = [], [], [], {}
    n_dst = sum(i.op.problem == "dst" for i in insts)
    while True:
        base_wall, res = run_pass(cli, insts, verify_insts, seed)
        results += res
        tracer.install()
        try:
            t0 = perf_counter()
            results += [traced_op(cli, i, v, seed)
                        for i, v in zip(insts, verify_insts)]
            walls.append(perf_counter() - t0)
        finally:
            tracer.uninstall()
        diffs.append(walls[-1] - base_wall)
        agg, counts = tracer.fold()
        merge_agg(total, agg)
        per_pass.append(layer_values(agg, counts, n_dst))
        if sum(walls) >= seconds:
            break
    values = {name: statistics.median(p[name] for p in per_pass)
              for name in per_pass[0]}
    for name, (how, spans, _) in LAYERS.items():
        if how == "per_call_us":
            calls = sum(total[s]["calls"] for s in spans if s in total)
            busy = sum(total[s]["self_s"] for s in spans if s in total)
            values[name] = busy / calls * 1e6 if calls else 0.0
    values["trace.overhead_s"] = statistics.median(diffs)
    return values, total, results, {"traced_pass_s": walls,
                                    "overhead_s": diffs}


def parent_of(total: dict, spans: list[str]) -> str:
    parents: dict[str, float] = {}
    for s in spans:
        for p, t in total.get(s, {}).get("parents", {}).items():
            parents[p] = parents.get(p, 0.0) + t
    return max(parents, key=parents.get) if parents else "(not reached)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dbnet" / "cli.py").is_file():
        print(f"perfbench: no dbnet sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from dbnet import cli

    try:
        insts = materialize(args.workload, ROOT, load_reference())
    except ValueError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    verify_insts = [parse_for_verify(i) for i in insts]
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"instances={len(insts)}")
    print("env " + json.dumps(env, sort_keys=True))

    detail = {"env": env, "workload": args.workload, "seed": args.seed,
              "trace": args.trace}
    if args.trace:
        values, total, results, detail["passes"] = traced_run(
            cli, insts, verify_insts, args.seed, args.seconds)
        detail["spans"] = total
        declared = bench["per_layer"]
        for m in declared:
            how, spans, moves = LAYERS.get(m["name"], ("", [], ""))
            where = parent_of(total, spans) if spans else "untraced - traced"
            print(f"layer {m['name']} {values[m['name']]!r} {m['unit']} "
                  f"parent={where} moves={moves or 'nothing'}")
    else:
        results, pass_walls, setup_times = untraced_run(
            cli, insts, verify_insts, args.seed, args.seconds)
        values = end_to_end(results, pass_walls, setup_times)
        detail["setup_s"] = setup_times
        detail["pass_s"] = pass_walls
        declared = bench["end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        for name, v in values.items():
            print(f"metric {name} {v!r} {units.get(name, 'fraction')}")

    failed = sum(not r.ok for r in results)
    for r in results:
        if not r.ok:
            print(f"FAILED {r.instance}: {'; '.join(r.problems)}")
    digests = {}
    for r in results:
        if r.ok:
            digests.setdefault(r.instance, set()).add(r.digest)
    unstable = sorted(p for p, d in digests.items() if len(d) > 1)
    changed = sorted({r.instance for r in results
                      if r.digest_status == "changed"})
    unrecorded = sorted({r.instance for r in results
                         if r.digest_status == "unrecorded"})
    print(f"digests changed={len(changed)} unrecorded={len(unrecorded)} "
          f"differing_between_passes={len(unstable)}")
    for p in changed:
        print(f"DIGEST CHANGED {p} (seed {args.seed}); a declared draw-order "
              f"change allows this")
    for p in unstable:
        print(f"DIGEST UNSTABLE {p}: reports differ between passes")
    print(f"fail_rate {failed}/{len(results)}")

    detail["ops"] = [asdict(r) for r in results]
    detail["metrics"] = values
    out = (ROOT / WORK_DIR /
           f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
