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
from .lpcore import EPS_CHECK, build_gst_lp, dump_lp
from .dst_round import dst_lp, mgf_s, run_dst, tree_degree_ratios
from .oracle import exact_dst, exact_gst
from .report import INFEASIBLE, OPTIMAL, SCHEMA_VERSION
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
    return 0 if res.status == OPTIMAL else 2


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

    report = problem.solve(problem.prepare(inst), args, label)
    doc = report.to_dict()
    try:
        doc["oracle"] = problem.oracle(inst).to_dict()
    except CapExceededError:
        # the oracle refuses an input beyond its limits only this way
        pass
    # the report is checked as verify checks it, LP <= optimum included
    bad = problem.verify(inst, doc)
    if bad:
        raise InvariantError(f"the report fails verify: {'; '.join(bad)}")
    if args.trials:
        doc["stats"] = problem.trial_stats(report, args.trials)
    _emit_json(doc, args.out)
    return 0


def _trial_counts(table, seed: int, rows, k: int, trials: int, head_cost=None):
    """Over ``trials`` fresh roundings of ``table``: per target 0..k-1 of
    the head ``rows``, how many reach it, and each one's ``head_cost``."""
    hits = np.zeros(k, dtype=np.int64)
    costs = np.zeros(trials)
    for start, stop in blocks(trials):
        rep, head = table.heads((seed, TRIAL_STREAM), start, stop)
        rep -= start
        if head_cost is not None:
            costs[start:stop] = np.bincount(rep, weights=head_cost[head],
                                            minlength=stop - start)
        copies = pair_counts(*rows, k, rep, head, stop - start)
        hits += np.count_nonzero(copies, axis=0)
    return hits, costs


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
    hits, costs = _trial_counts(table, report.seed, terminals_of, len(terms),
                                trials, head_cost)
    return {"per_terminal_hit": {str(norm.origin[t]):
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
    hits, _ = _trial_counts(table, report.seed, groups_of, k, trials)
    return {"per_group_hit": {str(g): _stat(int(c), trials)
                              for g, c in enumerate(hits)}}


def _no_constant(name: str):
    # json reads NaN and +-Infinity, which no report holds and every bound
    # check would let through
    raise FormatError(f"bad report JSON: {name} is not a JSON number")


def _int64(text: str) -> int:
    # as in instance files, so no check overflows; int() takes <= 4300 digits
    if len(text) > 20 or not -2 ** 63 <= int(text) < 2 ** 63:
        raise FormatError(f"bad report JSON: {text[:40]} is beyond int64")
    return int(text)


def _double(text: str) -> float:
    # json reads 1e400 as inf, which parse_constant never sees
    if not math.isfinite(float(text)):
        raise FormatError(f"bad report JSON: {text[:40]} is beyond a double")
    return float(text)


def cmd_verify(args) -> int:
    try:
        doc = json.loads(_read(args.tree), parse_constant=_no_constant,
                         parse_int=_int64, parse_float=_double)
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


def _each(kind: type, valid: Callable) -> Callable:
    # a JSON list or object whose items or values all hold valid
    return lambda v: isinstance(v, kind) and all(
        map(valid, v.values() if kind is dict else v))


INTEGER = (_is_id, "an integer")
NUMBER = (_is_number, "a number")
IDS = (_each(list, _is_id), "a list of vertex ids")
PAIRS = (_each(list, lambda e: _each(list, _is_id)(e) and len(e) == 2),
         "a list of [u, v] vertex pairs")
NUMBERS = (_each(list, _is_number), "a list of numbers")
# (form, description) of each report field that verify reads as a value;
# the fields it compares whole with what it computes (DB-DST covered,
# coverage and tree_cost, DB-GST-T coverage and union_cost) are not here
SHARED_FORMS = {
    "schema_version": INTEGER, "seed": INTEGER, "lp_cost": NUMBER,
    "instance": (lambda v: isinstance(v, str), "a string"),
    "repetition_costs": (_each(list, _is_id), "a list of integers"),
    "degree_violations": (_each(dict, _is_number), "an object of numbers"),
    "oracle": (lambda v: isinstance(v, dict), "an object")}
FORMS = {
    "dst": {**SHARED_FORMS, "h": INTEGER, "Q": INTEGER, "h_prime": INTEGER,
            "s": NUMBER, "union_cost": NUMBER, "tree_edges": PAIRS,
            "mgf_stats": (_each(dict, lambda e: _each(dict, _is_number)(e)
                                and e.keys() == {"max_copies", "mgf"}
                                and _is_id(e["max_copies"])),
                          'an object of {"max_copies": integer, "mgf": '
                          'number} objects')},
    "gst": {**SHARED_FORMS, "L": INTEGER, "gamma": INTEGER, "M": INTEGER,
            "alpha": NUMBERS, "alpha0": NUMBER, "modified_cost": NUMBER,
            "union_vertices": IDS, "z_root": NUMBERS},
}


def _fields(doc: dict, kind: str) -> dict:
    """Each field of ``FORMS[kind]`` in the report, None when absent; a
    field of the wrong form raises a FormatError naming it."""
    for name, (valid, what) in FORMS[kind].items():
        if name in doc and not valid(doc[name]):
            raise FormatError(f"report field {name!r} must be {what}")
    return {name: doc.get(name) for name in FORMS[kind]}


def _mismatch(name: str, want, got) -> list[str]:
    return [] if got == want else [f"{name} mismatch: {want} vs {got}"]


def _ratios_mismatch(want: dict, got: dict | None) -> list[str]:
    """The report's degree ratios ``got`` against ``want``, to 9 places."""
    same = {str(u): round(r, 9) for u, r in want.items()} == {
        u: round(r, 9) for u, r in (got or {}).items()}
    return [] if same else ["degree violation ratios mismatch"]


def _lp_over_oracle(lp_cost, oracle_cost: int) -> list[str]:
    """The LP <= optimum check of run, with the slack ``EPS_OBJ``."""
    if lp_cost is None or lp_cost > oracle_cost + EPS_OBJ * (1 + oracle_cost):
        return [f"LP cost {lp_cost} exceeds oracle {oracle_cost}"]
    return []


def _oracle(oracle: dict | None, items: str, form: tuple):
    """(cost, ``items``) of the report's ``oracle`` block when the oracle
    found an optimum, else (None, None); a malformed block raises
    FormatError naming the field."""
    if oracle is None or oracle.get("status") == INFEASIBLE:
        return None, None
    for name, (valid, want) in (
            ("status", (lambda s: s == OPTIMAL, f"{OPTIMAL} or {INFEASIBLE}")),
            ("cost", INTEGER), (items, form)):
        if not valid(oracle.get(name)):
            raise FormatError(f"report field 'oracle.{name}' must be {want}")
    return oracle["cost"], oracle[items]


def _run_fields(f: dict, count: str) -> list[str]:
    """Mismatches of the schema version, and of the number of repetition
    costs against the repetition count ``f[count]``."""
    bad = _mismatch("schema_version", SCHEMA_VERSION, f["schema_version"])
    reps, costs = f[count], f["repetition_costs"]
    got = None if costs is None else len(costs)
    if reps is None or got != reps:
        bad.append(f"repetition count mismatch: {count} {reps} vs {got} "
                   f"repetition costs")
    return bad


def _arborescence(inst: DirectedInstance, edges: list[tuple],
                  prefix: str) -> tuple[list[str], dict]:
    """Failure messages, each starting with ``prefix``, of ``edges`` as an
    out-arborescence of ``inst`` from its root (an edge not in the instance
    or into the root, two parents, an edge unreachable from the root); and
    ``inst.parents(edges)``."""
    bad = []
    heads = set()
    for (u, v) in edges:
        if (u, v) not in inst.cost:
            bad.append(f"{prefix}edge ({u}, {v}) not in the instance")
        if v == inst.root:
            bad.append(f"{prefix}edge ({u}, {v}) enters the root")
        if v in heads:
            bad.append(f"{prefix}vertex {v} has two parents")
        heads.add(v)
    reach = inst.parents(edges)
    if any(v not in reach for (_, v) in edges):
        bad.append(f"{prefix}tree has edges unreachable from the root")
    return bad, reach


def _mgf_faults(stats: dict | None, n: int, Q: int, s: float) -> list[str]:
    """Failure messages of ``mgf_stats`` over Q repetitions: keyed by the n
    vertices (none at Q = 0), each mgf, a mean of Q terms exp(s c) with c at
    most m = max_copies, lies in [1 + expm1(s m)/Q, exp(s m)] (EPS_CHECK)."""
    want = n if Q else 0
    if stats is None or stats.keys() != set(map(str, range(want))):
        return [f"mgf_stats keys are not the vertex ids below {want}"]
    bad = []
    for v in range(want):
        mgf, m = stats[str(v)]["mgf"], stats[str(v)]["max_copies"]
        if not (mgf >= 1 and math.log(mgf - EPS_CHECK) <= s * m
                <= math.log1p(Q * (mgf - 1 + EPS_CHECK))):
            bad.append(f"mgf_stats[{v}]: mgf {mgf} outside the bounds of "
                       f"max_copies {m} over Q {Q}")
    return bad


def verify_dst_report(inst: DirectedInstance, doc: dict) -> list[str]:
    """Failure messages of a DB-DST report against its instance; a
    malformed report raises FormatError."""
    f = _fields(doc, "dst")
    edges = [tuple(e) for e in f["tree_edges"] or ()]
    bad, reach = _arborescence(inst, edges, "")
    covered = sorted(t for t in inst.terminals if t in reach)
    if covered != doc.get("covered"):
        bad.append(f"covered set mismatch: {covered} vs {doc.get('covered')}")
    k = len(inst.terminals)
    coverage = len(covered) / k if k else 1.0
    claimed = doc.get("coverage")
    # JSON true equals 1.0 in Python
    if isinstance(claimed, bool) or claimed != coverage:
        bad.append(f"coverage mismatch: {coverage} vs {claimed}")
    total = sum(inst.cost.get(e, 0) for e in edges)
    if total != doc.get("tree_cost"):
        bad.append(f"tree cost mismatch: {total} vs {doc.get('tree_cost')}")
    if f["union_cost"] is None or f["union_cost"] < total:
        bad.append(f"union cost {f['union_cost']} below tree cost {total}")
    bad += _run_fields(f, "Q")
    # h' and s as run_dst computes them: every leaf is a base node at depth
    # 2l + 2, and without terminals the super node is the whole super-tree
    h, h_prime = f["h"], f["h_prime"]
    if h is None or h_prime is None or h_prime > 2 * h + 2:
        bad.append(f"h_prime {h_prime} exceeds 2h + 2 for h {h}")
    elif h_prime % 2 or h_prime < 0 or (h_prime == 0) != (k == 0):
        bad.append(f"h_prime {h_prime} is not a super-tree height: even, "
                   f"and 0 exactly without terminals")
    norm = normalize(inst)
    if h_prime is not None:
        s = mgf_s(h_prime)
        bad += _mismatch("s", s, f["s"])
        bad += _mgf_faults(f["mgf_stats"], norm.inst.n,
                           len(f["repetition_costs"] or ()), s)
    # a tail that is no vertex is already reported as an edge not in the
    # instance
    bad += _ratios_mismatch(tree_degree_ratios(inst, edges),
                            f["degree_violations"])
    oracle_cost, oracle_edges = _oracle(f["oracle"], "edges", PAIRS)
    if oracle_cost is not None:
        # a feasible tree: an arborescence that reaches every terminal
        # within the out-degree bounds that exact_dst keeps
        oracle_edges = [tuple(e) for e in oracle_edges]
        faults, reach = _arborescence(inst, oracle_edges, "oracle ")
        faults += [f"oracle tree misses terminal {t}"
                   for t in sorted(inst.terminals) if t not in reach]
        outdeg = Counter(u for u, _ in oracle_edges)
        faults += [f"oracle vertex {u} has out-degree {d} above its bound "
                   f"{inst.degree_bound[u]}"
                   for u, d in sorted(outdeg.items())
                   if d > inst.degree_bound.get(u, d)]
        faults += _mismatch("oracle cost",
                            sum(inst.cost.get(e, 0) for e in oracle_edges),
                            oracle_cost)
        bad += faults
        # the LP <= optimum check of run, where the LP relaxes the oracle's
        # tree: the super-tree holds every tree whose decomposition fits in
        # h, and the height budget bounds that depth for every tree,
        # oracle_height for this one
        over = _lp_over_oracle(f["lp_cost"], oracle_cost)
        if over and not faults and h is not None and (
                h >= height_budget(norm.inst.n)
                or h >= oracle_height(norm, oracle_edges)):
            bad += over
    return bad


def _subtree(inst: GroupTreeInstance, vertices: list[int], prefix: str,
             name: str) -> tuple[list[str], set[int], list[bool]]:
    """Failure messages of ``vertices``, named ``prefix + name``, as a
    subtree of ``inst`` that holds its root: a vertex out of range or
    without its parent, the root missing; the vertices in range; and
    whether they hit each group."""
    bad = []
    vertices = set(vertices)
    for v in sorted(vertices):
        if not (0 <= v < inst.n):
            bad.append(f"{prefix}vertex {v} out of range")
        elif inst.parent[v] != -1 and inst.parent[v] not in vertices:
            bad.append(f"{prefix}vertex {v} in {name} without its parent")
    vertices = {v for v in vertices if 0 <= v < inst.n}
    if inst.root not in vertices:
        bad.append(f"root missing from the {prefix}{name}")
    hit = np.isin(inst.member, list(vertices))
    return bad, vertices, (np.bincount(inst.group[hit],
                                       minlength=len(inst.groups))
                           > 0).tolist()


def verify_gst_report(inst: GroupTreeInstance, doc: dict) -> list[str]:
    """Failure messages of a DB-GST-T report against its instance; a
    malformed report raises FormatError."""
    f = _fields(doc, "gst")
    bad, union, coverage = _subtree(inst, f["union_vertices"] or [], "",
                                    "union")
    claimed = doc.get("coverage")
    # JSON 1 equals true in Python
    if claimed != coverage or not all(isinstance(c, bool) for c in claimed):
        bad.append(f"coverage flags mismatch: {coverage} vs {claimed}")
    total = sum(inst.cost[v] for v in union)
    if total != doc.get("union_cost"):
        bad.append(f"union cost mismatch: {total} vs {doc.get('union_cost')}")
    bad += _ratios_mismatch(union_degree_ratios(inst, union),
                            f["degree_violations"])
    bad += _run_fields(f, "M")
    # each repetition holds the root and lies in the union
    low = inst.cost[inst.root]
    bad += [f"repetition {i} cost {c} outside [{low}, {total}], the root "
            f"and union costs"
            for i, c in enumerate(f["repetition_costs"] or ())
            if not low <= c <= total]
    # the parameters run_gst derives from the instance
    L, gamma = global_params(inst.n)
    alpha = alpha_sequence(L, gamma)
    for name, want in (("L", L), ("gamma", gamma), ("alpha0", alpha[0]),
                       ("alpha", alpha)):
        bad += _mismatch(name, want, f[name])
    # P3 and P6 with the slack of check_modified_solution
    z_root = f["z_root"] or []
    bad += _mismatch("z_root length", len(inst.groups), len(z_root))
    bad += [f"P3: group {t} mass {z} outside [1/2, 2]"
            for t, z in enumerate(z_root)
            if not 0.5 - EPS_CHECK <= z <= 2 + EPS_CHECK]
    lp_cost, modified = f["lp_cost"], f["modified_cost"]
    if (lp_cost is None or modified is None
            or modified > 2 * lp_cost + EPS_CHECK * max(1, lp_cost)):
        bad.append(f"modified cost {modified} exceeds 2 * LP cost {lp_cost}")
    oracle_cost, oracle_vertices = _oracle(f["oracle"], "vertices", IDS)
    if oracle_cost is not None:
        # a feasible tree: a subtree that hits every group with at most as
        # many children per vertex as exact_gst lets it choose
        faults, tree, hits = _subtree(inst, oracle_vertices, "oracle ",
                                      "tree")
        bad += faults
        bad += [f"oracle tree misses group {t}"
                for t, hit in enumerate(hits) if not hit]
        kids = Counter(inst.parent[v].item() for v in tree if v != inst.root)
        bad += [f"oracle vertex {u} has {c} children above its bound "
                f"{inst.degree_bound[u]}"
                for u, c in sorted(kids.items())
                if c > inst.degree_bound[u]]
        bad += _mismatch("oracle cost", sum(
            inst.cost[v] for v in oracle_vertices if 0 <= v < inst.n),
            oracle_cost)
        # the LP <= optimum check of run
        bad += _lp_over_oracle(lp_cost, oracle_cost)
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
        lp=lambda norm, args: dst_lp(norm, args.height, _node_cap(args))[1],
        solve=lambda norm, args, label: run_dst(
            norm, h=args.height, Q=args.q, seed=args.seed,
            node_cap=_node_cap(args), label=label),
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
