"""Command-line front end: generators, solvers, oracles, verification.

The subcommands that exist for both problems share one body each and look
up what differs in ``PROBLEMS``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (CapExceededError, DbnetError, FormatError,
                     InvariantError)
from .generators import gen_dst, gen_gst
from .gst_round import (alpha_sequence, global_params, run_gst,
                        union_degree_ratios)
from .instances import (DirectedInstance, GroupTreeInstance, normalize,
                        parse_dst, parse_gst, preprocess_gst, serialize_dst,
                        serialize_gst)
from .lpcore import build_dst_lp, build_gst_lp, dump_lp
from .dst_round import run_dst
from .oracle import exact_dst, exact_gst
from .report import SCHEMA_VERSION
from .rounding import blocks, csr, pair_counts
from .states import NODE_CAP, build_super_tree, oracle_height
from .treekit import height_budget

EPS_OBJ = 1e-7
# count, seed and height options that take no negative value, checked before
# any work
NON_NEGATIVE = ("seed", "trials", "q", "m", "node_cap", "height")
# stream key that keeps the --trials draws apart from the report's repetitions
TRIAL_STREAM = 1 << 32


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path} is not UTF-8 text: {e}")


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


def _parse_gen_spec(spec: str) -> dict[str, int]:
    out = {}
    for part in spec.split(","):
        key, eq, val = part.partition("=")
        key = key.strip()
        if not eq:
            raise FormatError(f"bad generator spec item: {part!r}")
        if key in out:
            raise FormatError(f"repeated generator key: {key!r}")
        try:
            out[key] = int(val)
        except ValueError:
            raise FormatError(f"bad generator value: {part!r}")
        if out[key] < 0:
            raise FormatError(f"negative generator value: {part!r}")
    return out


def _cost_range(args) -> tuple[int, int]:
    lo, _, hi = args.cost_range.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise FormatError(f"bad --cost-range: {args.cost_range!r}")
    if not 0 <= lo <= hi:
        raise FormatError(f"--cost-range needs 0 <= low <= high, got "
                          f"{args.cost_range!r}")
    return lo, hi


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
    problem = _problem(args)
    report = problem.solve(problem.prepare(problem.load(args.instance)),
                           args, args.instance)
    _emit_json(report.to_dict(), args.out)
    return 0


def cmd_oracle(args) -> int:
    problem = _problem(args)
    res = problem.oracle(problem.load(args.instance))
    _emit_json(res.to_dict(), args.out)
    return 0 if res.status == "OPTIMAL" else 2


def cmd_dump_supertree(args) -> int:
    norm = normalize(PROBLEMS["dst"].load(args.instance))
    _emit(build_super_tree(norm, args.height, _node_cap(args)).dump(),
          args.out)
    return 0


def cmd_dump_lp(args) -> int:
    problem = _problem(args)
    model = problem.lp(problem.prepare(problem.load(args.instance)), args)
    _emit(dump_lp(model), args.out)
    return 0


def _stat(hits: int, trials: int) -> dict:
    mean = hits / trials
    return {"mean": mean,
            "stddev": math.sqrt(mean * (1 - mean) / trials),
            "trials": trials}


def cmd_run(args) -> int:
    problem = _problem(args)
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
    try:
        res = problem.oracle(inst)
    except DbnetError:
        res = None
    if res is not None:
        doc["oracle"] = res.to_dict()
        if (res.status == "OPTIMAL"
                and report.lp_cost > res.cost + EPS_OBJ * (1 + res.cost)
                and problem.relaxes(prep, report, res)):
            raise InvariantError(
                f"LP cost {report.lp_cost} exceeds oracle {res.cost}")
    if args.trials:
        doc["stats"] = problem.trial_stats(report, args.trials)
    _emit_json(doc, args.out)
    return 0


def _dst_trial_stats(report, trials: int) -> dict:
    """Hit rate per terminal and sample cost over fresh roundings of the
    report's own LP solution, summed per kept component rather than per
    node."""
    table = report.sampler.table
    st = report.sampler.st
    norm = st.norm
    terms = sorted(norm.inst.terminals)
    head_cost = table.head_sums(st.cost.astype(float))
    terminals_of = table.head_rows(*csr(len(st), *st.terminal_members()))
    hits = np.zeros(len(terms), dtype=np.int64)
    costs = np.zeros(trials)
    for start, stop in blocks(trials):
        rep, head = table.heads((report.seed, TRIAL_STREAM), start, stop)
        rep -= start
        costs[start:stop] = np.bincount(rep, weights=head_cost[head],
                                        minlength=stop - start)
        copies = pair_counts(*terminals_of, len(terms), rep, head,
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
    solution, counted per kept component rather than per vertex."""
    table = report.rounder.table
    inst = report.rounder.inst
    k = len(inst.groups)
    groups_of = table.head_rows(*csr(inst.n, inst.member, inst.group))
    hits = np.zeros(k, dtype=np.int64)
    for start, stop in blocks(trials):
        rep, head = table.heads((report.seed, TRIAL_STREAM), start, stop)
        copies = pair_counts(*groups_of, k, rep - start, head, stop - start)
        hits += np.count_nonzero(copies, axis=0)
    return {"per_group_hit": {str(g): _stat(int(c), trials)
                              for g, c in enumerate(hits)}}


def cmd_verify(args) -> int:
    try:
        doc = json.loads(_read(args.tree))
    except json.JSONDecodeError as e:
        raise FormatError(f"bad report JSON: {e}")
    if not isinstance(doc, dict):
        raise FormatError("a report must be a JSON object")
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


def _is_id(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _report_field(doc: dict, name: str, default, valid: Callable,
                  what: str):
    """``doc[name]`` (``default`` when absent), or a FormatError naming the
    field unless ``valid`` holds for it."""
    value = doc.get(name, default)
    if not valid(value):
        raise FormatError(f"report field {name!r} must be {what}")
    return value


def _ratios(doc: dict) -> dict:
    return _report_field(
        doc, "degree_violations", {},
        lambda d: isinstance(d, dict) and all(map(_is_number, d.values())),
        "an object of numbers")


def _number(doc: dict, name: str, integer: bool = False):
    """``doc[name]``, an integer if ``integer`` and else a number, or None
    when it is absent or null."""
    valid = _is_id if integer else _is_number
    return _report_field(doc, name, None, lambda v: v is None or valid(v),
                         "an integer" if integer else "a number")


def _mismatch(name: str, want, got) -> list[str]:
    return [] if got == want else [f"{name} mismatch: {want} vs {got}"]


def _run_fields(doc: dict, count: str) -> list[str]:
    """Mismatches of the schema version, and of the number of repetition
    costs against the repetition count ``doc[count]``."""
    bad = _mismatch("schema_version", SCHEMA_VERSION,
                    _number(doc, "schema_version", integer=True))
    reps = _number(doc, count, integer=True)
    costs = _report_field(doc, "repetition_costs", None,
                          lambda v: v is None or isinstance(v, list),
                          "a list")
    got = None if costs is None else len(costs)
    if reps is None or got != reps:
        bad.append(f"repetition count mismatch: {count} {reps} vs {got} "
                   f"repetition costs")
    return bad


def verify_dst_report(inst: DirectedInstance, doc: dict) -> list[str]:
    """Failure messages of a DB-DST report against its instance; a
    malformed report raises FormatError."""
    bad = []
    edges = [tuple(e) for e in _report_field(
        doc, "tree_edges", [],
        lambda es: isinstance(es, list) and all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_id, e))
            for e in es),
        "a list of [u, v] vertex pairs")]
    got = _ratios(doc)
    cost = inst.cost
    parent = {}
    for (u, v) in edges:
        if (u, v) not in cost:
            bad.append(f"edge ({u}, {v}) not in the instance")
        if v == inst.root:
            bad.append(f"edge ({u}, {v}) enters the root")
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
    k = len(inst.terminals)
    coverage = len(covered) / k if k else 1.0
    claimed = doc.get("coverage")
    # JSON true equals 1.0 in Python
    if isinstance(claimed, bool) or claimed != coverage:
        bad.append(f"coverage mismatch: {coverage} vs {claimed}")
    total = sum(cost.get(e, 0) for e in edges)
    if total != doc.get("tree_cost"):
        bad.append(f"tree cost mismatch: {total} vs {doc.get('tree_cost')}")
    union_cost = _number(doc, "union_cost")
    if union_cost is None or union_cost < total:
        bad.append(f"union cost {union_cost} below tree cost {total}")
    bad += _run_fields(doc, "Q")
    # the super-tree height h' and s as run_dst computes them
    h, h_prime = (_number(doc, name, integer=True)
                  for name in ("h", "h_prime"))
    if h is None or h_prime is None or h_prime > 2 * h + 2:
        bad.append(f"h_prime {h_prime} exceeds 2h + 2 for h {h}")
    if h_prime is not None:
        s = math.log(1 + 1 / (2 * h_prime)) if h_prime > 0 else math.log(2)
        bad += _mismatch("s", s, _number(doc, "s"))
    outdeg = Counter(u for u, _ in edges)
    # a tail that is no vertex is already reported as an edge not in the
    # instance
    want = {str(u): d / max(inst.degree_bound[u], 1)
            for u, d in outdeg.items() if u in inst.degree_bound}
    if {k: round(v, 9) for k, v in want.items()} != \
            {k: round(v, 9) for k, v in got.items()}:
        bad.append("degree violation ratios mismatch")
    return bad


def verify_gst_report(inst: GroupTreeInstance, doc: dict) -> list[str]:
    """Failure messages of a DB-GST-T report against its instance; a
    malformed report raises FormatError."""
    bad = []
    union = set(_report_field(
        doc, "union_vertices", [],
        lambda vs: isinstance(vs, list) and all(map(_is_id, vs)),
        "a list of vertex ids"))
    got = _ratios(doc)
    for v in sorted(union):
        if not (0 <= v < inst.n):
            bad.append(f"vertex {v} out of range")
        elif inst.parent[v] != -1 and inst.parent[v] not in union:
            bad.append(f"vertex {v} in union without its parent")
    union = {v for v in union if 0 <= v < inst.n}
    if inst.root not in union:
        bad.append("root missing from the union")
    hit = np.isin(inst.member, list(union))
    coverage = (np.bincount(inst.group[hit], minlength=len(inst.groups))
                > 0).tolist()
    claimed = doc.get("coverage")
    # JSON 1 equals true in Python
    if claimed != coverage or not all(isinstance(f, bool) for f in claimed):
        bad.append(f"coverage flags mismatch: {coverage} vs {claimed}")
    total = sum(inst.cost[v] for v in union)
    if total != doc.get("union_cost"):
        bad.append(f"union cost mismatch: {total} vs {doc.get('union_cost')}")
    want = {str(u): r for u, r in union_degree_ratios(inst, union).items()}
    if {k: round(v, 9) for k, v in want.items()} != \
            {k: round(v, 9) for k, v in got.items()}:
        bad.append("degree violation ratios mismatch")
    bad += _run_fields(doc, "M")
    # the parameters run_gst derives from the instance
    L, gamma = global_params(inst.n)
    alpha = alpha_sequence(L, gamma)
    for name, want in (("L", L), ("gamma", gamma), ("alpha0", alpha[0])):
        bad += _mismatch(name, want,
                         _number(doc, name, integer=isinstance(want, int)))
    bad += _mismatch("alpha", alpha, _report_field(
        doc, "alpha", None,
        lambda v: v is None or isinstance(v, list) and all(map(_is_number, v)),
        "a list of numbers"))
    return bad


@dataclass(frozen=True)
class Problem:
    """What the shared subcommand bodies do for one problem kind.

    Every callable entry is a lambda, so the functions it calls are looked
    up on this module at call time and a replacement installed there (a test
    double, a timing wrapper) is the one that runs.
    """
    options: tuple      # the solver options that lp and solve read
    load: Callable      # path -> instance that the oracle and verify read
    gen: Callable       # (spec, seed) -> instance; pops the keys it knows
    prepare: Callable   # instance -> solver input
    lp: Callable        # (solver input, args) -> LP model
    solve: Callable     # (solver input, args, label) -> run report
    relaxes: Callable   # (solver input, report, oracle) -> LP <= optimum
    oracle: Callable    # instance -> exact result
    trial_stats: Callable  # (report, trials) -> "stats" section
    verify: Callable    # (instance, report doc) -> failure messages


# the options that size the DB-DST super-tree
SUPER_TREE = ("--height", "--node-cap")


def _node_cap(args) -> int:
    # the default cap when --node-cap is not given
    return NODE_CAP if args.node_cap is None else args.node_cap


PROBLEMS = {
    "dst": Problem(
        options=("--q",) + SUPER_TREE,
        load=lambda path: parse_dst(_read(path)),
        gen=lambda spec, seed: gen_dst(spec.pop("n", 8), spec.pop("m", 12),
                                       spec.pop("k", 3), spec.pop("d", 3),
                                       seed=seed),
        prepare=lambda inst: normalize(inst),
        lp=lambda norm, args: build_dst_lp(
            build_super_tree(norm, args.height, _node_cap(args))),
        solve=lambda norm, args, label: run_dst(
            norm, h=args.height, Q=args.q, seed=args.seed,
            node_cap=_node_cap(args), label=label),
        # the super-tree holds every tree whose decomposition fits in h: the
        # height budget bounds that depth for every tree, oracle_height for
        # the oracle's
        relaxes=lambda norm, report, res: (
            report.h >= height_budget(norm.inst.n)
            or report.h >= oracle_height(norm, res.edges)),
        oracle=lambda inst: exact_dst(inst),
        trial_stats=lambda report, trials: _dst_trial_stats(report, trials),
        verify=lambda inst, doc: verify_dst_report(inst, doc)),
    "gst": Problem(
        options=("--m",),
        load=lambda path: preprocess_gst(parse_gst(_read(path))),
        gen=lambda spec, seed: preprocess_gst(
            gen_gst(spec.pop("n", 20), spec.pop("k", 3),
                    spec.pop("depth", 4), spec.pop("d", 3), seed=seed)),
        prepare=lambda pre: pre,
        lp=lambda pre, args: build_gst_lp(pre),
        solve=lambda pre, args, label: run_gst(
            pre, M=args.m, seed=args.seed, label=label),
        relaxes=lambda pre, report, res: True,
        oracle=lambda pre: exact_gst(pre),
        trial_stats=lambda report, trials: _gst_trial_stats(report, trials),
        verify=lambda pre, doc: verify_gst_report(pre, doc)),
}
# every solver option: each problem's own, then the super-tree options
OPTIONS = (*(flag for problem in PROBLEMS.values()
             for flag in problem.options if flag not in SUPER_TREE),
           *SUPER_TREE)


def _problem(args) -> Problem:
    """The chosen problem, or a FormatError naming the first solver option
    of ``OPTIONS`` that was given and that the problem does not read."""
    problem = PROBLEMS[args.problem]
    for flag in OPTIONS:
        if (flag not in problem.options and getattr(
                args, flag[2:].replace("-", "_"), None) is not None):
            raise FormatError(f"--problem {args.problem} does not read "
                              f"{flag}")
    return problem


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dbnet",
                                description="degree-bounded network design "
                                            "experiment driver")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, flags, **defaults):
        # a flag is (option, argparse keywords), or a solver option: an
        # integer without a default, so that a given one shows
        sp = sub.add_parser(name)
        for flag in flags:
            option, kw = (flag if isinstance(flag, tuple)
                          else (flag, {"type": int}))
            sp.add_argument(option, **kw)
        sp.set_defaults(**defaults)

    instance, out = ("--instance", {"required": True}), ("--out", {})
    seed = ("--seed", {"type": int, "default": 0})
    problem = ("--problem", {"choices": list(PROBLEMS), "required": True})
    size = {"type": int, "required": True}
    gen_tail = [("--d-max", {"type": int, "default": 3}),
                ("--cost-range", {"default": "1:20"}), seed, out]
    add("gen-dst", [("--n", size), ("--m", size), ("--k", size), *gen_tail],
        func=cmd_gen_dst)
    add("gen-gst", [("--n", size), ("--k", size),
                    ("--depth", {"type": int, "default": 4}), *gen_tail],
        func=cmd_gen_gst)
    for kind, entry in PROBLEMS.items():
        add(f"solve-{kind}", [instance, seed, out, *entry.options],
            func=cmd_solve, problem=kind)
    for kind in PROBLEMS:
        add(f"oracle-{kind}", [instance, out], func=cmd_oracle, problem=kind)
    add("run", [problem, ("--instance", {}), ("--gen", {}), seed,
                ("--trials", {"type": int, "default": 0}), *OPTIONS, out],
        func=cmd_run)
    add("verify", [("--tree", {"required": True}), instance], func=cmd_verify)
    add("dump-supertree", [instance, out, *SUPER_TREE],
        func=cmd_dump_supertree)
    add("dump-lp", [problem, instance, out, *SUPER_TREE], func=cmd_dump_lp)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name in NON_NEGATIVE:
            value = getattr(args, name, None)
            if value is not None and value < 0:
                raise FormatError(f"--{name.replace('_', '-')} must not be "
                                  f"negative, got {value}")
        return args.func(args)
    except DbnetError as e:
        print(f"dbnet: error: {e}", file=sys.stderr)
        return e.exit_code
    except MemoryError:
        print(f"dbnet: error: {args.cmd} ran out of memory; lower n, the "
              f"height or the degree bounds", file=sys.stderr)
        return CapExceededError.exit_code


if __name__ == "__main__":
    sys.exit(main())
