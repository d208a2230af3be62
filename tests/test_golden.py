"""Golden output: SHA-256 digests of ``run --trials``, ``dump-lp`` and
``dump-supertree`` on fixed generated instances.

Any change to a byte of these outputs fails here.  A deliberate change
updates the digests and is declared in CHANGES.md (with a ``schema_version``
bump where the report changes).  Instance files are passed by relative path,
so the report's ``instance`` label does not depend on the test directory.
"""

import hashlib

import pytest

from dbnet.cli import main
from dbnet.generators import gen_dst, gen_gst
from dbnet.instances import serialize_dst, serialize_gst

# a GST tree whose groups share leaf 3 and leaf 6 and hold the internal
# vertex 1, so that preprocessing adds synthetic leaves
OVERLAP_GST = """DBGST 1
7 3
root 0
vertex 0 -1 0 2
vertex 1 0 3 2
vertex 2 0 4 2
vertex 3 1 1 1
vertex 4 1 2 1
vertex 5 2 1 1
vertex 6 2 5 1
group 0 2 3 5
group 1 2 3 6
group 2 2 1 6
"""

INSTANCES = {
    "small.dst": lambda: serialize_dst(gen_dst(6, 8, 3, seed=0)),
    # fractional LP optimum at h=4, so the rounding's draws matter
    "frac.dst": lambda: serialize_dst(gen_dst(7, 14, 4, d_max=1, seed=3)),
    "mid.gst": lambda: serialize_gst(gen_gst(40, 3, 4, 3, seed=7)),
    "overlap.gst": lambda: OVERLAP_GST,
}

RUNS = {
    "small-run": ["run", "--problem", "dst", "--instance", "small.dst",
                  "--height", "3", "--seed", "1", "--trials", "500"],
    "small-lp": ["dump-lp", "--problem", "dst", "--instance", "small.dst",
                 "--height", "3"],
    "small-supertree": ["dump-supertree", "--instance", "small.dst",
                        "--height", "3"],
    "frac-run": ["run", "--problem", "dst", "--instance", "frac.dst",
                 "--height", "4", "--seed", "2", "--trials", "500"],
    "frac-lp": ["dump-lp", "--problem", "dst", "--instance", "frac.dst",
                "--height", "4"],
    "frac-supertree": ["dump-supertree", "--instance", "frac.dst",
                       "--height", "4"],
    "mid-run": ["run", "--problem", "gst", "--instance", "mid.gst",
                "--seed", "1", "--trials", "500"],
    "mid-lp": ["dump-lp", "--problem", "gst", "--instance", "mid.gst"],
    "overlap-run": ["run", "--problem", "gst", "--instance", "overlap.gst",
                    "--seed", "3", "--trials", "500"],
    "overlap-lp": ["dump-lp", "--problem", "gst", "--instance",
                   "overlap.gst"],
}

GOLDEN = {
    "frac-lp":
        "461f3357e2633ac3c7baa86aed900faa1a8c1125b7f49a792c3282bef9f71a2b",
    "frac-run":
        "c187e7f24b50e058facfcfc74cd84bb2ecd36346b13a2adc6b70d677e9dbe259",
    "frac-supertree":
        "55bcccaf50640806f3be6a8959000d1d4e4054197f03bfa4645062fc7e2638b6",
    "mid-lp":
        "9ea9e24b4d9de3cc14c8575e1273a1397194727841cb2b0441f1a701ac213982",
    "mid-run":
        "4c6bcfd0f5f5ca2b99ae9094bf039c501159aeedf99574b2df4f4d42bfcc9c14",
    "overlap-lp":
        "42333b666be9143e900e747a476a1d3f97acc389930ab8070e9cfe665af738a8",
    "overlap-run":
        "8c862eab8c9c77145fa64fc7da5f271d8ebc097c47bb906223a8fb1a91cc6283",
    "small-lp":
        "88e025e6c46e7002252a8c739b18543fc2d2ca36c42ab8ec49d0f1276bad6989",
    "small-run":
        "cbcbe72651279a53ff048015dc7d401a9fc299097e5993fb80f3d383fc7daef1",
    "small-supertree":
        "14afd5f500cdf9e0c9c01b6f0ad6c4e47438488c80b097c7ceacbe1435a99629",
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    where = tmp_path_factory.mktemp("golden")
    for name, text in INSTANCES.items():
        (where / name).write_text(text())
    return where


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_digest(workdir, monkeypatch, name):
    monkeypatch.chdir(workdir)
    assert main(RUNS[name] + ["--out", f"{name}.out"]) == 0
    digest = hashlib.sha256((workdir / f"{name}.out").read_bytes())
    assert digest.hexdigest() == GOLDEN[name]
