#!/usr/bin/env python3
"""Rewrite ``perfbench/reference.json`` from the current program.

    python3 perfbench/record.py

For every instance of every workload it records the SHA-256 of the instance
text, the ``lp_cost`` of its report, and the SHA-256 of the report for each of
``RECORDED_SEEDS``.  Every report must pass
``verify_dst_report``/``verify_gst_report`` and every seed must give the same
``lp_cost``.  Run it only when the inputs or the report format change on
purpose, and say so in CHANGES.md: the benchmark checks each run against this
file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from run import ROOT, SRC, parse_for_verify   # pins thread pools first
from workloads import RECORDED_SEEDS, REFERENCE, WORKLOADS, materialize


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from dbnet import cli

    ref = {"instances": {}}
    for w in sorted(WORKLOADS):
        for inst in materialize(w, ROOT, None):
            vinst = parse_for_verify(inst)
            verify = (cli.verify_dst_report if inst.op.problem == "dst"
                      else cli.verify_gst_report)
            out = inst.path + ".report.json"
            lp_cost, digests = None, {}
            for seed in RECORDED_SEEDS:
                rc = cli.main(inst.op.cli_args(inst.path, seed, out))
                data = (ROOT / out).read_bytes()
                doc = json.loads(data)
                bad = verify(vinst, doc) if rc == 0 else [f"exit code {rc}"]
                if bad:
                    raise SystemExit(f"{inst.path} seed {seed}: {bad}")
                if lp_cost is not None and doc["lp_cost"] != lp_cost:
                    raise SystemExit(f"{inst.path}: lp_cost depends on seed")
                lp_cost = doc["lp_cost"]
                digests[str(seed)] = hashlib.sha256(data).hexdigest()
            ref["instances"][inst.path] = {"sha256": inst.sha256,
                                           "lp_cost": lp_cost,
                                           "digests": digests}
            print(f"{inst.path} lp_cost={lp_cost}", flush=True)
    ref["instances"] = dict(sorted(ref["instances"].items()))
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
