"""Command-line front end: generators, solvers, oracles, verification.

The subcommands that exist for both problems share one body each and look
up what differs in ``PROBLEMS``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DbnetError, FormatError, InvariantError
from .generators import gen_dst, gen_gst
from .gst_round import GstParams, run_gst, union_degree_ratios
from .instances import (DirectedInstance, GroupTreeInstance, normalize,
                        parse_dst, parse_gst, preprocess_gst, serialize_dst,
                        serialize_gst)
from .lpcore import build_dst_lp, build_gst_lp, dump_lp
from .dst_round import DstParams, run_dst
from .oracle import exact_dst, exact_gst
from .rounding import blocks, membership, pair_counts
from .states import build_super_tree
from .treekit import height_budget

EPS_OBJ = 1e-7
# stream key that keeps the --trials draws apart from the report's repetitions
TRIAL_STREAM = 1 << 32


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}")


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w") as f:
                f.write(text)
        except OSError as e:
            raise FormatError(f"cannot write {out}: {e}")
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, out: str | None):
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", out)


def _load_dst(path: str) -> DirectedInstance:
    return parse_dst(_read(path))


def _load_gst(path: str) -> GroupTreeInstance:
    inst = parse_gst(_read(path))
    inst.validate_groups()
    return inst


def _parse_gen_spec(spec: str) -> dict[str, int]:
    out = {}
    for part in spec.split(","):
        if "=" not in part:
            raise FormatError(f"bad generator spec item: {part!r}")
        key, val = part.split("=", 1)
        try:
            out[key.strip()] = int(val)
        except ValueError:
            raise FormatError(f"bad generator value: {part!r}")
    return out


def _cost_range(args) -> tuple[int, int]:
    lo, _, hi = args.cost_range.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise FormatError(f"bad cost range: {args.cost_range!r}")


def cmd_gen_dst(args) -> int:
    inst = gen_dst(args.n, args.m, args.k, args.d_max, _cost_range(args),
                   args.seed)
    _emit(serialize_dst(inst), args.out)
    return 0


def cmd_gen_gst(args) -> int:
    inst = gen_gst(args.n, args.k, args.depth, args.d_max, _cost_range(args),
                   args.seed)
    _emit(serialize_gst(inst), args.out)
    return 0


def cmd_solve(args) -> int:
    problem = PROBLEMS[args.problem]
    report = problem.solve(problem.prepare(problem.load(args.instance)),
                           args, args.instance)
    _emit_json(report.to_dict(), args.out)
    return 0


def cmd_oracle(args) -> int:
    problem = PROBLEMS[args.problem]
    res = problem.oracle(problem.load(args.instance))
    _emit_json(res.to_dict(), args.out)
    return 0 if res.status == "OPTIMAL" else 2


def cmd_dump_supertree(args) -> int:
    norm = normalize(_load_dst(args.instance))
    _emit(build_super_tree(norm, args.height, args.node_cap).dump(), args.out)
    return 0


def cmd_dump_lp(args) -> int:
    problem = PROBLEMS[args.problem]
    model = problem.lp(problem.prepare(problem.load(args.instance)), args)
    _emit(dump_lp(model), args.out)
    return 0


def _stat(hits: int, trials: int) -> dict:
    mean = hits / trials
    return {"mean": mean,
            "stddev": math.sqrt(mean * (1 - mean) / trials),
            "trials": trials}


def cmd_run(args) -> int:
    problem = PROBLEMS[args.problem]
    if args.gen:
        spec = _parse_gen_spec(args.gen)
        inst = problem.gen(spec, spec.pop("seed", args.seed))
        if spec:
            raise FormatError(f"unknown generator keys: {sorted(spec)}")
        label = f"gen:{args.gen}"
    elif args.instance:
        label = args.instance
        inst = problem.load(args.instance)
    else:
        raise FormatError("run needs --instance or --gen")

    prep = problem.prepare(inst)
    report = problem.solve(prep, args, label)
    doc = report.to_dict()
    if (args.strict_coverage and args.problem == "dst"
            and report.coverage < 1.0):
        raise InvariantError("extracted tree does not cover all terminals")
    try:
        res = problem.oracle(inst)
    except DbnetError:
        res = None
    if res is not None:
        doc["oracle"] = res.to_dict()
        if (res.status == "OPTIMAL" and problem.relaxes(prep, report)
                and report.lp_cost > res.cost + EPS_OBJ * (1 + res.cost)):
            raise InvariantError(
                f"LP cost {report.lp_cost} exceeds oracle {res.cost}")
    if args.trials:
        doc["stats"] = problem.trial_stats(report, args.trials)
    _emit_json(doc, args.out)
    return 0


def _dst_trial_stats(report, trials: int) -> dict:
    """Hit rate per terminal and sample cost over fresh roundings of the
    report's own LP solution."""
    sampler = report.sampler
    st = sampler.st
    norm = st.norm
    terms = sorted(norm.inst.terminals)
    node_cost = np.asarray(st.cost, dtype=float)
    col = {t: j for j, t in enumerate(terms)}
    terminals_of = membership(len(st), [
        (o, col[v]) for o in st.base_nodes() for v in st.involved_vertices(o)
        if v in col])
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
    return {"per_terminal_hit": {str(norm.terminal_origin[t]):
                                 _stat(int(c), trials)
                                 for t, c in zip(terms, hits)},
            "cost": {"mean": float(np.mean(costs)),
                     "stddev": float(np.std(costs) / math.sqrt(trials)),
                     "trials": trials}}


def _gst_trial_stats(report, trials: int) -> dict:
    """Hit rate per group over fresh roundings of the report's scaled
    solution."""
    rounder = report.rounder
    inst = rounder.inst
    k = len(inst.groups)
    groups_of = membership(inst.n, [(o, g) for g, grp in enumerate(inst.groups)
                                     for o in grp])
    hits = np.zeros(k, dtype=np.int64)
    for start, stop in blocks(trials):
        rep, node = rounder.sample((report.seed, TRIAL_STREAM), start, stop)
        copies = pair_counts(*groups_of, k, rep - start, node, stop - start)
        hits += np.count_nonzero(copies, axis=0)
    return {"per_group_hit": {str(g): _stat(int(c), trials)
                              for g, c in enumerate(hits)}}


def cmd_verify(args) -> int:
    try:
        doc = json.loads(_read(args.tree))
    except json.JSONDecodeError as e:
        raise FormatError(f"bad report JSON: {e}")
    kind = doc.get("problem")
    problem = PROBLEMS.get(kind) if isinstance(kind, str) else None
    if problem is None:
        raise FormatError(f"unknown problem kind: {kind!r}")
    bad = problem.verify(problem.load(args.instance), doc)
    if bad:
        for msg in bad:
            print(f"verify: {msg}", file=sys.stderr)
        raise InvariantError(f"{len(bad)} verification failure(s)")
    print("verify: ok")
    return 0


def verify_dst_report(inst: DirectedInstance, doc: dict) -> list[str]:
    bad = []
    edges = [tuple(e) for e in doc.get("tree_edges", [])]
    cost = inst.cost
    parent = {}
    for (u, v) in edges:
        if (u, v) not in cost:
            bad.append(f"edge ({u}, {v}) not in the instance")
        if v in parent:
            bad.append(f"vertex {v} has two parents")
        parent[v] = u
    reach = {inst.root}
    frontier = [inst.root]
    adj = {}
    for (u, v) in edges:
        adj.setdefault(u, []).append(v)
    while frontier:
        u = frontier.pop()
        for v in adj.get(u, []):
            if v not in reach:
                reach.add(v)
                frontier.append(v)
    if any(v not in reach for (_, v) in edges):
        bad.append("tree has edges unreachable from the root")
    covered = sorted(set(inst.terminals) & reach)
    if covered != doc.get("covered"):
        bad.append(f"covered set mismatch: {covered} vs {doc.get('covered')}")
    total = sum(cost.get(e, 0) for e in edges)
    if total != doc.get("tree_cost"):
        bad.append(f"tree cost mismatch: {total} vs {doc.get('tree_cost')}")
    outdeg = {}
    for (u, _) in edges:
        outdeg[u] = outdeg.get(u, 0) + 1
    want = {str(u): d / max(inst.degree_bound[u], 1)
            for u, d in outdeg.items()}
    got = doc.get("degree_violations", {})
    if {k: round(v, 9) for k, v in want.items()} != \
            {k: round(v, 9) for k, v in got.items()}:
        bad.append("degree violation ratios mismatch")
    return bad


def verify_gst_report(inst: GroupTreeInstance, doc: dict) -> list[str]:
    bad = []
    union = set(doc.get("union_vertices", []))
    for v in sorted(union):
        if not (0 <= v < inst.n):
            bad.append(f"vertex {v} out of range")
        elif inst.parent[v] != -1 and inst.parent[v] not in union:
            bad.append(f"vertex {v} in union without its parent")
    if inst.root not in union:
        bad.append("root missing from the union")
    coverage = [any(o in union for o in g) for g in inst.groups]
    if coverage != doc.get("coverage"):
        bad.append("coverage flags mismatch")
    total = sum(inst.cost[v] for v in union if 0 <= v < inst.n)
    if total != doc.get("union_cost"):
        bad.append(f"union cost mismatch: {total} vs {doc.get('union_cost')}")
    want = {str(u): r for u, r in union_degree_ratios(inst, union).items()}
    got = doc.get("degree_violations", {})
    if {k: round(v, 9) for k, v in want.items()} != \
            {k: round(v, 9) for k, v in got.items()}:
        bad.append("degree violation ratios mismatch")
    return bad


@dataclass(frozen=True)
class Problem:
    """What the shared subcommand bodies do for one problem kind.

    Every entry is a lambda, so the functions it calls are looked up on this
    module at call time and a replacement installed there (a test double, a
    timing wrapper) is the one that runs.
    """
    load: Callable      # path -> instance that the oracle and verify read
    gen: Callable       # (spec, seed) -> instance; pops the keys it knows
    prepare: Callable   # instance -> solver input
    lp: Callable        # (solver input, args) -> LP model
    solve: Callable     # (solver input, args, label) -> run report
    relaxes: Callable   # (solver input, report) -> LP cost <= optimum holds
    oracle: Callable    # instance -> exact result
    trial_stats: Callable  # (report, trials) -> "stats" section
    verify: Callable    # (instance, report doc) -> failure messages


PROBLEMS = {
    "dst": Problem(
        load=lambda path: _load_dst(path),
        gen=lambda spec, seed: gen_dst(spec.pop("n", 8), spec.pop("m", 12),
                                       spec.pop("k", 3), spec.pop("d", 3),
                                       seed=seed),
        prepare=lambda inst: normalize(inst),
        lp=lambda norm, args: build_dst_lp(
            build_super_tree(norm, args.height, args.node_cap)),
        solve=lambda norm, args, label: run_dst(
            norm, DstParams(h=args.height, Q=args.q, seed=args.seed,
                            node_cap=args.node_cap), label),
        # below the height budget the super-tree may miss every optimal tree
        relaxes=lambda norm, report: report.h >= height_budget(norm.inst.n),
        oracle=lambda inst: exact_dst(inst),
        trial_stats=lambda report, trials: _dst_trial_stats(report, trials),
        verify=lambda inst, doc: verify_dst_report(inst, doc)),
    "gst": Problem(
        load=lambda path: preprocess_gst(_load_gst(path)),
        gen=lambda spec, seed: preprocess_gst(
            gen_gst(spec.pop("n", 20), spec.pop("k", 3),
                    spec.pop("depth", 4), spec.pop("d", 3), seed=seed)),
        prepare=lambda pre: pre,
        lp=lambda pre, args: build_gst_lp(pre),
        solve=lambda pre, args, label: run_gst(
            pre, GstParams(M=args.m, seed=args.seed), label),
        relaxes=lambda pre, report: True,
        oracle=lambda pre: exact_gst(pre),
        trial_stats=lambda report, trials: _gst_trial_stats(report, trials),
        verify=lambda pre, doc: verify_gst_report(pre, doc)),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dbnet",
                                description="degree-bounded network design "
                                            "experiment driver")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, instance=True):
        if instance:
            sp.add_argument("--instance", required=True)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out")

    sp = sub.add_parser("gen-dst")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d-max", type=int, default=3)
    sp.add_argument("--cost-range", default="1:20")
    common(sp, instance=False)
    sp.set_defaults(func=cmd_gen_dst)

    sp = sub.add_parser("gen-gst")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--depth", type=int, default=4)
    sp.add_argument("--d-max", type=int, default=3)
    sp.add_argument("--cost-range", default="1:20")
    common(sp, instance=False)
    sp.set_defaults(func=cmd_gen_gst)

    sp = sub.add_parser("solve-dst")
    common(sp)
    sp.add_argument("--q", type=int)
    sp.add_argument("--height", type=int)
    sp.add_argument("--node-cap", type=int, default=5_000_000)
    sp.set_defaults(func=cmd_solve, problem="dst")

    sp = sub.add_parser("solve-gst")
    common(sp)
    sp.add_argument("--m", type=int)
    sp.set_defaults(func=cmd_solve, problem="gst")

    for kind in PROBLEMS:
        sp = sub.add_parser(f"oracle-{kind}")
        common(sp)
        sp.set_defaults(func=cmd_oracle, problem=kind)

    sp = sub.add_parser("run")
    sp.add_argument("--problem", choices=["dst", "gst"], required=True)
    sp.add_argument("--instance")
    sp.add_argument("--gen")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=0)
    sp.add_argument("--q", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--height", type=int)
    sp.add_argument("--node-cap", type=int, default=5_000_000)
    sp.add_argument("--strict-coverage", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("verify")
    sp.add_argument("--tree", required=True)
    sp.add_argument("--instance", required=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("dump-supertree")
    common(sp)
    sp.add_argument("--height", type=int)
    sp.add_argument("--node-cap", type=int, default=5_000_000)
    sp.set_defaults(func=cmd_dump_supertree)

    sp = sub.add_parser("dump-lp")
    sp.add_argument("--problem", choices=["dst", "gst"], required=True)
    common(sp)
    sp.add_argument("--height", type=int)
    sp.add_argument("--node-cap", type=int, default=5_000_000)
    sp.set_defaults(func=cmd_dump_lp)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DbnetError as e:
        print(f"dbnet: error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
