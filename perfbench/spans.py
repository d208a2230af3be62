"""Timing wrappers installed from outside the program, and span bookkeeping.

``Tracer.install`` replaces each traced dbnet function with a wrapper in every
``dbnet.*`` module namespace (and class) that refers to it, so calls made
from any caller are seen.  A wrapper records one span per call
``(name, start, end, parent span index)`` and may add to named counters from
the call's result.  ``fold`` turns the spans recorded so far into per-name
aggregates (calls, inclusive time, self time = duration minus the time
covered by child spans, time per parent) and clears them, so memory stays
bounded however many calls a pass makes.  No file under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

NO_PARENT = -1


def _lp_size(model) -> dict[str, int]:
    rows = model.eq + model.ub
    return {"lpcore.lp_rows": len(rows), "lpcore.lp_cols": model.nvar,
            "lpcore.lp_nnz": sum(len(cols) for cols, _, _ in rows)}


# (module, attribute path, counters from the result)
TARGETS = [
    ("dbnet.instances", "parse_dst", None),
    ("dbnet.instances", "parse_gst", None),
    ("dbnet.instances", "normalize", None),
    ("dbnet.instances", "preprocess_gst", None),
    ("dbnet.states", "live_states",
     lambda r: {"states.live_state_count": len(r)}),
    ("dbnet.states", "build_super_tree",
     lambda r: {"states.super_tree_nodes": len(r),
                "states.build_super_tree_calls": 1}),
    ("dbnet.states", "selection_to_state_tree", None),
    ("dbnet.states", "stitch_multi_tree", None),
    ("dbnet.lpcore", "build_dst_lp", _lp_size),
    ("dbnet.lpcore", "build_gst_lp", _lp_size),
    ("dbnet.lpcore", "check_modified_solution", None),
    ("dbnet.lpcore", "solve_lp", None),
    ("dbnet.lpcore", "LPModel.max_violation", None),
    ("dbnet.dst_round", "run_dst", None),
    ("dbnet.dst_round", "Sampler.__init__", None),
    ("dbnet.dst_round", "Sampler.sample", None),
    ("dbnet.dst_round", "round_super_tree", None),
    ("dbnet.dst_round", "extract_tree", None),
    ("dbnet.dst_round", "concentration_stats", None),
    ("dbnet.gst_round", "run_gst", None),
    ("dbnet.gst_round", "Rounder.sample", None),
    ("dbnet.gst_round", "build_scaled", None),
    ("dbnet.gst_round", "check_branching_mass", None),
    ("dbnet.oracle", "exact_dst", None),
    ("dbnet.oracle", "exact_gst", None),
    ("dbnet.cli", "main", None),
    ("dbnet.cli", "_dst_trial_stats", None),
    ("dbnet.cli", "_gst_trial_stats", None),
    ("dbnet.cli", "verify_dst_report", None),
    ("dbnet.cli", "verify_gst_report", None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index)
        self.stack = [NO_PARENT]
        self.counts: dict[str, int] = {}
        self._undo: list = []

    def add_counts(self, delta: dict[str, int]):
        for k, v in delta.items():
            self.counts[k] = self.counts.get(k, 0) + v

    def wrap(self, fn, name: str, counter=None):
        """``fn`` recording one span per call under ``name``."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if counter is not None:
                self.add_counts(counter(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target wherever a dbnet module or class refers to it,
        and count HiGHS simplex iterations at the ``linprog`` call."""
        for module, path, counter in TARGETS:
            mod = importlib.import_module(module)
            name = module.split(".", 1)[1] + "." + path
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, attr,
                            self.wrap(cls.__dict__[attr], name, counter))
                continue
            orig = getattr(mod, path)
            traced = self.wrap(orig, name, counter)
            for mname, m in list(sys.modules.items()):
                if mname == "dbnet" or mname.startswith("dbnet."):
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, key, traced)

        import scipy.optimize
        linprog = scipy.optimize.linprog

        def counted_linprog(*args, **kwargs):
            res = linprog(*args, **kwargs)
            self.add_counts({"lpcore.simplex_iters": int(res.nit)})
            return res

        self._patch(scipy.optimize, "linprog", counted_linprog)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def fold(self) -> tuple[dict[str, dict], dict[str, int]]:
        """Aggregate and clear the spans and counts recorded so far.

        Returns ``({name: {calls, total_s, self_s, parents: {name: s}}},
        counts)``.  Must be called between root spans."""
        if len(self.stack) != 1:
            raise RuntimeError("fold() inside an open span")
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent != NO_PARENT:
                child[parent] += t1 - t0
        agg: dict[str, dict] = {}
        for i, (name, t0, t1, parent) in enumerate(spans):
            a = agg.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "parents": {}})
            dur = t1 - t0
            a["calls"] += 1
            a["total_s"] += dur
            a["self_s"] += dur - child[i]
            pname = spans[parent][0] if parent != NO_PARENT else "(root)"
            a["parents"][pname] = a["parents"].get(pname, 0.0) + dur
        counts = self.counts
        spans.clear()
        self.counts = {}
        return agg, counts
