"""Workload corpora: which instances each workload solves, and how.

Every operation is one ``dbnet run`` on one instance.  The instance text is
generated here from fixed generator seeds (``gen.py``) and checked against the
SHA-256 recorded in ``reference.json``; the benchmark's ``--seed`` is passed
to ``run --seed`` and so selects the random draws of the rounding, never the
instances.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from gen import gen_dst_text, gen_gst_text

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORK_DIR = ".perfbench_work"        # relative to the checkout root
RECORDED_SEEDS = range(10)          # seeds whose report digests are recorded


@dataclass(frozen=True)
class Op:
    name: str                   # instance file name, unique in the workload
    problem: str                # "dst" or "gst"
    gen: tuple                  # ("dst", n, m, k, seed) / ("gst", n, k, depth, d_max, seed)
    args: tuple = ()            # extra ``dbnet run`` arguments
    trials: int = 0

    def text(self) -> str:
        if self.gen[0] == "dst":
            _, n, m, k, seed = self.gen
            return gen_dst_text(n, m, k, seed=seed)
        _, n, k, depth, d_max, seed = self.gen
        return gen_gst_text(n, k, depth=depth, d_max=d_max, seed=seed)

    def cli_args(self, path: str, seed: int, out: str) -> list[str]:
        return (["run", "--problem", self.problem, "--instance", path,
                 "--seed", str(seed), "--out", out] + list(self.args)
                + (["--trials", str(self.trials)] if self.trials else []))


def _dst(n, m, k, seed, h, trials=0):
    return Op(f"dst-{n}-{m}-{k}-s{seed}-h{h}.dst", "dst",
              ("dst", n, m, k, seed), ("--height", str(h)), trials)


def _gst(n, k, depth, d_max, seed, trials=0):
    return Op(f"gst-{n}-{k}-{depth}-{d_max}-s{seed}.gst", "gst",
              ("gst", n, k, depth, d_max, seed), (), trials)


# gen_dst(6, 8, 3) seed 4 is left out of mc_trials: at h=3, below its height
# budget of 9, the height-restricted LP (52) exceeds the exact optimum (42)
# and ``run`` exits 4 by design.  Seeds 0-3 and 5-8 are the first eight that
# run.
MC_DST_SEEDS = (0, 1, 2, 3, 5, 6, 7, 8)

WORKLOADS: dict[str, list[Op]] = {
    "dst_h4": [_dst(8, 14, 4, s, h=4) for s in range(4)],
    "gst_20k": [_gst(20000, 10, 10, 4, 0)],
    "mc_trials": ([_dst(6, 8, 3, s, h=3, trials=10_000)
                   for s in MC_DST_SEEDS]
                  + [_gst(40, 3, 4, 3, s, trials=10_000) for s in range(8)]),
    # seconds-long corpus for the benchmark's own tests; not in BENCHMARK.json
    "tiny": [_dst(5, 6, 2, 0, h=3, trials=200),
             _gst(30, 2, 3, 3, 0, trials=200)],
}


@dataclass
class Instance:
    op: Op
    path: str                   # relative to the checkout root
    text: str
    sha256: str
    ref: dict = field(default_factory=dict)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def materialize(workload: str, root: Path, reference: dict | None
                ) -> list[Instance]:
    """Generate, hash and write the workload's instances under the work
    directory.  With a reference, a hash that differs from it raises
    ``ValueError``: the inputs are no longer the benchmark's."""
    out = []
    wdir = root / WORK_DIR / workload
    wdir.mkdir(parents=True, exist_ok=True)
    for op in WORKLOADS[workload]:
        text = op.text()
        digest = hashlib.sha256(text.encode()).hexdigest()
        rel = f"{WORK_DIR}/{workload}/{op.name}"
        ref = {}
        if reference is not None:
            ref = reference["instances"].get(rel)
            if ref is None or ref["sha256"] != digest:
                raise ValueError(f"instance {rel} does not match the "
                                 f"recorded SHA-256")
        (root / rel).write_text(text)
        out.append(Instance(op, rel, text, digest, ref))
    return out
