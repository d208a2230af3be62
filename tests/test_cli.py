import contextlib
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import small_dst
from test_golden import OVERLAP_GST
from dbnet import cli, states
from dbnet.cli import build_parser, main
from dbnet.generators import gen_dst, gen_gst
from dbnet.instances import (normalize, parse_dst, parse_gst, preprocess_gst,
                             serialize_dst, serialize_gst)
from dbnet.lpcore import solve_lp
from dbnet.states import build_super_tree, oracle_height
from dbnet.treekit import height_budget


@pytest.fixture()
def dst_file(tmp_path):
    inst, _, _, h = small_dst(3)
    p = tmp_path / "a.dst"
    p.write_text(serialize_dst(inst))
    return str(p), h


@pytest.fixture()
def gst_file(tmp_path):
    inst = gen_gst(25, 3, seed=4)
    p = tmp_path / "a.gst"
    p.write_text(serialize_gst(inst))
    return str(p)


def test_gen_commands_deterministic(tmp_path):
    a = tmp_path / "x1.dst"
    b = tmp_path / "x2.dst"
    for out in (a, b):
        assert main(["gen-dst", "--n", "7", "--m", "10", "--k", "2",
                     "--seed", "5", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_gst_writes_the_generated_instance(tmp_path):
    out = tmp_path / "g.gst"
    assert main(["gen-gst", "--n", "15", "--k", "2", "--depth", "3",
                 "--d-max", "2", "--cost-range", "2:9", "--seed", "4",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text == serialize_gst(gen_gst(15, 2, 3, 2, (2, 9), seed=4))
    assert serialize_gst(parse_gst(text)) == text


def test_dump_supertree_defaults_to_the_height_budget(tmp_path):
    inst = gen_dst(4, 4, 1, seed=0)
    path = tmp_path / "t.dst"
    path.write_text(serialize_dst(inst))
    h = height_budget(normalize(inst).inst.n)
    dumps = []
    for extra in ([], ["--height", str(h)]):
        out = tmp_path / f"st{len(dumps)}.txt"
        assert main(["dump-supertree", "--instance", str(path),
                     "--out", str(out)] + extra) == 0
        dumps.append(out.read_text())
    assert dumps[0] == dumps[1]


def test_solve_and_verify_dst(tmp_path, dst_file):
    path, h = dst_file
    out = tmp_path / "rep.json"
    assert main(["solve-dst", "--instance", path, "--seed", "1",
                 "--height", str(h), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 2
    assert main(["verify", "--tree", str(out), "--instance", path]) == 0


def test_report_byte_identical(tmp_path, dst_file):
    path, h = dst_file
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["solve-dst", "--instance", path, "--seed", "9",
                     "--height", str(h), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_solve_and_verify_gst(tmp_path, gst_file):
    out = tmp_path / "rep.json"
    assert main(["solve-gst", "--instance", gst_file, "--seed", "1",
                 "--out", str(out)]) == 0
    assert main(["verify", "--tree", str(out), "--instance", gst_file]) == 0


def test_verify_rejects_broken_tree(tmp_path, dst_file, capsys):
    path, h = dst_file
    out = tmp_path / "rep.json"
    main(["solve-dst", "--instance", path, "--seed", "1",
          "--height", str(h), "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["tree_edges"] = doc["tree_edges"] + [[0, 0]]
    out.write_text(json.dumps(doc))
    assert main(["verify", "--tree", str(out), "--instance", path]) == 4


def test_verify_rejects_an_edge_into_the_root(tmp_path, capsys):
    path = tmp_path / "a.dst"
    path.write_text("DBDST 1\n3 3 1\nroot 0\nvertex 0 2\nvertex 1 2\n"
                    "vertex 2 2\nedge 0 1 3\nedge 1 0 4\nedge 1 2 5\n"
                    "terminal 2\n")
    out = tmp_path / "rep.json"
    assert main(["run", "--problem", "dst", "--instance", str(path),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["tree_edges"] == [[0, 1], [1, 2]]
    # the cycle 0 -> 1 -> 0, with a matching cost and degree ratios
    doc.update(tree_edges=[[0, 1], [1, 0], [1, 2]], tree_cost=12,
               degree_violations={"0": 0.5, "1": 1.0})
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--tree", str(out), "--instance", str(path)]) == 4
    assert capsys.readouterr().err.splitlines()[0] == \
        "verify: edge (1, 0) enters the root"


@pytest.mark.parametrize("doc,code,says", [
    ([1, 2], 5, "JSON object"),
    ({"problem": "dst", "tree_edges": [[0]]}, 5, "'tree_edges'"),
    ({"problem": "dst", "tree_edges": [["a", "b"]]}, 5, "'tree_edges'"),
    ({"problem": "dst", "degree_violations": {"0": "a"}}, 5,
     "'degree_violations'"),
    ({"problem": "dst", "tree_edges": [[999, 1]]}, 4, "not in the instance"),
    ({"problem": "gst", "union_vertices": 5}, 5, "'union_vertices'"),
    ({"problem": "gst", "degree_violations": [1]}, 5, "'degree_violations'"),
    ({"problem": "gst", "union_vertices": [999]}, 4,
     "vertex 999 out of range"),
])
def test_verify_malformed_report(tmp_path, dst_file, gst_file, capsys, doc,
                                 code, says):
    instance = dst_file[0] if "dst" in str(doc) else gst_file
    out = tmp_path / "rep.json"
    out.write_text(json.dumps(doc))
    assert main(["verify", "--tree", str(out), "--instance", instance]) == code
    assert says in capsys.readouterr().err


@pytest.fixture(scope="module")
def real_reports(tmp_path_factory):
    """A solved report of each problem with its instance file."""
    where = tmp_path_factory.mktemp("reports")
    out = []
    for problem, text, argv in (
            ("dst", serialize_dst(gen_dst(5, 6, 2, seed=0)), ["--height", "3"]),
            ("gst", serialize_gst(gen_gst(12, 2, depth=3, seed=0)), [])):
        path = where / f"a.{problem}"
        path.write_text(text)
        rep = where / f"{problem}.json"
        assert main([f"solve-{problem}", "--instance", str(path), "--out",
                     str(rep)] + argv) == 0
        out.append((str(path), json.loads(rep.read_text())))
    return where, out


JSON_VALUES = hs.recursive(
    hs.none() | hs.booleans() | hs.integers(-3, 10 ** 20) | hs.floats()
    | hs.text(max_size=3),
    lambda inner: hs.lists(inner, max_size=3)
    | hs.dictionaries(hs.text(max_size=2), inner, max_size=3),
    max_leaves=6)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(hs.integers(0, 1), hs.data())
def test_verify_is_total(real_reports, which, data):
    where, reports = real_reports
    instance, doc = reports[which]
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(hs.integers(1, 3))):
        key = data.draw(hs.sampled_from(sorted(doc)))
        op = data.draw(hs.sampled_from(["set", "drop", "set_item"]))
        if op == "set":
            doc[key] = data.draw(JSON_VALUES)
        elif op == "drop":
            del doc[key]
        elif isinstance(doc[key], list) and doc[key]:
            i = data.draw(hs.integers(0, len(doc[key]) - 1))
            doc[key][i] = data.draw(JSON_VALUES)
        if not doc:
            break
    out = where / "mutated.json"
    out.write_text(json.dumps(doc))
    assert main(["verify", "--tree", str(out), "--instance", instance]) in (
        0, 4, 5)


# most mutants stop at parsing; 500 of them take about 3 s
MUTANTS = 500
FUZZ_TOKENS = [str(2 ** 62), str(2 ** 63 - 1), str(10 ** 25), "-1", "1.5",
               "0", "1", "2", "3", "DBDST", "DBGST", "root", "vertex",
               "edge", "terminal", "group"]
FUZZ_TEXTS = {"dst": [serialize_dst(gen_dst(5, 7, 2, seed=s))
                      for s in range(4)],
              # generated groups are disjoint leaves; OVERLAP_GST has shared
              # and internal members, which preprocessing moves to leaves
              "gst": [serialize_gst(gen_gst(12, 2, depth=3, seed=s))
                      for s in range(4)] + [OVERLAP_GST]}


def run_mutant(argv):
    # an option the problem does not read would stop every mutant before
    # its instance is read, so the fuzz must never see that exit 5
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert "does not read" not in err.getvalue()
    return code


@settings(derandomize=True, deadline=None, max_examples=MUTANTS)
@given(hs.sampled_from(sorted(FUZZ_TEXTS)), hs.data())
def test_run_on_a_mutated_instance_exits_with_a_documented_code(
        tmp_path_factory, problem, data):
    # tokens replaced by huge, negative, float, small and keyword tokens;
    # lines inserted, deleted and duplicated
    texts = FUZZ_TEXTS[problem]
    which = data.draw(hs.integers(0, len(texts) - 1))
    lines = [ln.split() for ln in texts[which].splitlines()]
    for _ in range(data.draw(hs.integers(1, 3))):
        i = data.draw(hs.integers(0, len(lines) - 1))
        # a line op changes the line count, which parsing rejects at once,
        # so token ops come four times as often
        op = data.draw(hs.sampled_from(["token"] * 4 + ["insert", "delete",
                                                     "duplicate"]))
        if op == "token":
            j = data.draw(hs.integers(0, len(lines[i]) - 1))
            lines[i][j] = data.draw(hs.sampled_from(FUZZ_TOKENS))
        elif op == "insert":
            lines.insert(i, data.draw(hs.lists(hs.sampled_from(FUZZ_TOKENS)
                                               | hs.integers(0, 12).map(str),
                                               min_size=1, max_size=4)))
        elif op == "delete" and len(lines) > 1:
            del lines[i]
        else:
            lines.insert(i, list(lines[i]))
    where = tmp_path_factory.getbasetemp()
    path = where / f"mutant.{problem}"
    path.write_text("\n".join(" ".join(ln) for ln in lines) + "\n")
    code = run_mutant(["run", "--problem", problem, "--instance", str(path),
                       "--out", str(where / "mutant.json")]
                      + ["--height", "3"] * (problem == "dst"))
    assert code in (0, 2, 3, 4, 5)


# integers in and out of range, and the limits of int64 and of float64
# integers
FUZZ_VALUES = (hs.integers(-2, 13)
               | hs.sampled_from([2 ** 53, 2 ** 62, 2 ** 63 - 1, 2 ** 63]))
# most value mutants reach the solvers; 300 of them take about 5 s
VALUE_MUTANTS = 300


@settings(derandomize=True, deadline=None, max_examples=VALUE_MUTANTS)
@given(hs.sampled_from(sorted(FUZZ_TEXTS)), hs.data())
def test_run_on_a_value_mutant_gives_a_report_that_verifies(
        tmp_path_factory, problem, data):
    # one integer of a well-formed line replaced, so that the mutant parses
    # far more often than a token or line mutant
    text = data.draw(hs.sampled_from(FUZZ_TEXTS[problem]))
    lines = [ln.split() for ln in text.splitlines()]
    i, j = data.draw(hs.sampled_from(
        [(i, j) for i, ln in enumerate(lines) for j, tok in enumerate(ln)
         if tok.lstrip("-").isdigit()]))
    lines[i][j] = str(data.draw(FUZZ_VALUES))
    where = tmp_path_factory.getbasetemp()
    path = where / f"value-mutant.{problem}"
    path.write_text("\n".join(" ".join(ln) for ln in lines) + "\n")
    out = where / "value-mutant.json"
    code = run_mutant(["run", "--problem", problem, "--instance", str(path),
                       "--out", str(out)]
                      + ["--height", "3"] * (problem == "dst"))
    assert code in (0, 2, 3, 4, 5)
    if code == 0:
        assert main(["verify", "--tree", str(out),
                     "--instance", str(path)]) == 0


def test_oracle_commands(tmp_path, dst_file, gst_file):
    path, _ = dst_file
    out = tmp_path / "o.json"
    assert main(["oracle-dst", "--instance", path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "OPTIMAL" and doc["cost"] > 0
    assert main(["oracle-gst", "--instance", gst_file,
                 "--out", str(out)]) == 0


def test_run_dst_with_oracle_dominance(tmp_path, dst_file):
    path, h = dst_file
    out = tmp_path / "run.json"
    assert main(["run", "--problem", "dst", "--instance", path,
                 "--seed", "1", "--height", str(h), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["oracle"]["status"] == "OPTIMAL"
    assert doc["lp_cost"] <= doc["oracle"]["cost"] + 1e-6


def _count_calls(monkeypatch, fn) -> list:
    """Replace ``fn`` wherever a dbnet module refers to it; one list entry
    per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "dbnet" or name.startswith("dbnet."):
            for key, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_run_below_height_budget_keeps_oracle(tmp_path):
    # h=3 is below this instance's height budget, where the LP (52) may
    # exceed the optimum (42) without anything being wrong
    path = tmp_path / "s4.dst"
    path.write_text(serialize_dst(gen_dst(6, 8, 3, seed=4)))
    out = tmp_path / "run.json"
    assert main(["run", "--problem", "dst", "--instance", str(path),
                 "--height", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["oracle"]["status"] == "OPTIMAL"
    assert doc["lp_cost"] > doc["oracle"]["cost"]
    # nor does the oracle tree fit: its decomposition needs more than h=3
    norm = normalize(gen_dst(6, 8, 3, seed=4))
    assert oracle_height(norm, doc["oracle"]["edges"]) > 3


def test_lp_above_oracle_under_its_certificate_exits_4(tmp_path, dst_file,
                                                        monkeypatch, capsys):
    # h is the oracle tree's decomposition height, below the height budget:
    # that tree embeds into the super-tree, so the LP cannot cost more
    path, h = dst_file
    with open(path) as f:
        assert h < height_budget(normalize(parse_dst(f.read())).inst.n)
    real = cli.run_dst

    def inflated(*args, **kwargs):
        report = real(*args, **kwargs)
        report.lp_cost += 1
        return report

    monkeypatch.setattr(cli, "run_dst", inflated)
    out = tmp_path / "run.json"
    assert main(["run", "--problem", "dst", "--instance", path,
                 "--height", str(h), "--out", str(out)]) == 4
    assert "exceeds oracle" in capsys.readouterr().err


def test_run_dst_trials_reuse_the_solve(tmp_path, dst_file, monkeypatch):
    path, h = dst_file
    builds = _count_calls(monkeypatch, build_super_tree)
    solves = _count_calls(monkeypatch, solve_lp)
    out = tmp_path / "run.json"
    assert main(["run", "--problem", "dst", "--instance", path,
                 "--seed", "3", "--height", str(h), "--trials", "300",
                 "--out", str(out)]) == 0
    assert (len(builds), len(solves)) == (1, 1)
    stats = json.loads(out.read_text())["stats"]
    with open(path) as f:
        terms = parse_dst(f.read()).terminals
    assert sorted(stats["per_terminal_hit"]) == sorted(map(str, terms))
    assert all(entry["trials"] == 300
               for entry in stats["per_terminal_hit"].values())
    assert stats["cost"]["trials"] == 300


def test_run_gst_with_trials(tmp_path, gst_file, monkeypatch):
    solves = _count_calls(monkeypatch, solve_lp)
    out = tmp_path / "run.json"
    assert main(["run", "--problem", "gst", "--instance", gst_file,
                 "--seed", "7", "--trials", "500", "--out", str(out)]) == 0
    assert len(solves) == 1
    doc = json.loads(out.read_text())
    stats = doc["stats"]["per_group_hit"]
    for entry in stats.values():
        assert set(entry) == {"mean", "stddev", "trials"}
        assert entry["trials"] == 500


@pytest.mark.parametrize("problem,text", [
    ("dst", "DBDST 1\n2 1 0\nroot 0\nvertex 0 1\nvertex 1 0\n"
            "edge 0 1 5\n"),
    ("gst", "DBGST 1\n3 0\nroot 0\nvertex 0 -1 0 2\nvertex 1 0 3 1\n"
            "vertex 2 0 4 1\n")], ids=["dst", "gst"])
def test_no_terminals_gives_empty_tree(tmp_path, problem, text):
    path = tmp_path / f"k0.{problem}"
    path.write_text(text)
    out = tmp_path / "rep.json"
    assert main([f"solve-{problem}", "--instance", str(path),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    if problem == "dst":
        assert (doc["Q"], doc["tree_edges"], doc["coverage"]) == (0, [], 1.0)
    else:
        assert (doc["M"], doc["union_vertices"], doc["coverage"]) == \
            (0, [0], [])
    assert main(["verify", "--tree", str(out), "--instance", str(path)]) == 0
    assert main(["run", "--problem", problem, "--instance", str(path),
                 "--trials", "20", "--out", str(out)]) == 0
    assert main(["verify", "--tree", str(out), "--instance", str(path)]) == 0


def test_run_generated(tmp_path):
    out = tmp_path / "run.json"
    assert main(["run", "--problem", "dst", "--gen", "n=5,m=6,k=2,d=2",
                 "--seed", "1", "--height", "4", "--out", str(out)]) == 0


def test_exit_codes(tmp_path):
    # parse error
    bad = tmp_path / "bad.dst"
    bad.write_text("not a file\n")
    assert main(["solve-dst", "--instance", str(bad)]) == 5
    # missing file
    assert main(["solve-dst", "--instance", str(tmp_path / "no.dst")]) == 5
    # infeasible oracle
    infeasible = tmp_path / "inf.dst"
    infeasible.write_text(
        "DBDST 1\n3 2 2\nroot 0\nvertex 0 1\nvertex 1 0\nvertex 2 0\n"
        "edge 0 1 1\nedge 0 2 1\nterminal 1\nterminal 2\n")
    assert main(["oracle-dst", "--instance", str(infeasible)]) == 2
    # node cap exceeded
    big = tmp_path / "big.dst"
    big.write_text(serialize_dst(gen_dst(8, 14, 4, d_max=3, seed=0)))
    assert main(["solve-dst", "--instance", str(big), "--height", "9",
                 "--node-cap", "2000"]) == 3


PATH3 = ("DBDST 1\n3 {m} {k}\nroot 0\nvertex 0 2\nvertex 1 1\nvertex 2 0\n"
         "edge 0 1 1\n{edges}{terminals}")
TREE3 = ("DBGST 1\n3 1\nroot {root}\nvertex 0 -1 0 2\nvertex 1 0 1 1\n"
         "vertex 2 1 1 1\n{group}\n")
RUN = ["run", "--problem"]


@pytest.mark.parametrize("name,text,argv,code,says", [
    ("loop.dst", PATH3.format(m=2, k=1, edges="edge 1 1 1\n",
                              terminals="terminal 2\n"),
     RUN + ["dst"], 5, "self-loop at 1"),
    ("neg.dst", PATH3.format(m=2, k=1, edges="edge 1 2 -1\n",
                             terminals="terminal 2\n"),
     RUN + ["dst"], 5, "negative cost on edge (1, 2)"),
    ("twice.dst", PATH3.format(m=2, k=2, edges="edge 1 2 1\n",
                               terminals="terminal 2\nterminal 2\n"),
     RUN + ["dst"], 5, "duplicate terminal ids"),
    ("root.gst", TREE3.format(root=1, group="group 0 1 2"),
     RUN + ["gst"], 5, "declared root has a parent"),
    ("empty.gst", TREE3.format(root=0, group="group 0 0"),
     RUN + ["gst"], 2, "group 0 is empty"),
    (None, None, RUN + ["dst"], 5, "run needs --instance or --gen"),
    (None, None, RUN + ["dst", "--gen", "n"], 5,
     "bad generator spec item: 'n'"),
    (None, None, RUN + ["gst", "--gen", "n=x"], 5,
     "bad generator value: 'n=x'"),
    (None, None, RUN + ["dst", "--gen", "n=5,z=1"], 5,
     "unknown generator keys: ['z']"),
    (".", None, ["gen-dst", "--n", "3", "--m", "2", "--k", "1"], 5,
     "cannot write ."),
    ("two.dst", PATH3.format(m=3, k=1, edges="edge 0 2 1\nedge 1 2 1\n",
                             terminals="terminal 2\n"),
     ["verify", "--tree", "two.json"], 4, "vertex 2 has two parents"),
    ("orphan.gst", TREE3.format(root=0, group="group 0 1 2"),
     ["verify", "--tree", "orphan.json"], 4,
     "vertex 2 in union without its parent"),
    # the instance file itself is no JSON report
    ("plain.gst", TREE3.format(root=0, group="group 0 1 2"),
     ["verify", "--tree", "plain.gst"], 5, "bad report JSON"),
])
def test_error_path_exit_code_and_message(tmp_path, monkeypatch, capsys, name,
                                          text, argv, code, says):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two.json").write_text(json.dumps(
        {"problem": "dst", "tree_edges": [[0, 1], [0, 2], [1, 2]],
         "covered": [2], "tree_cost": 3, "degree_violations": {}}))
    (tmp_path / "orphan.json").write_text(json.dumps(
        {"problem": "gst", "union_vertices": [0, 2], "coverage": [True],
         "union_cost": 1, "degree_violations": {}}))
    if text is not None:
        (tmp_path / name).write_text(text)
    # a named case reads that instance file, or without text writes to it
    if name is not None:
        argv = argv + (["--out", name] if text is None
                       else ["--instance", name])
    assert main(argv) == code
    assert says in capsys.readouterr().err


def test_verify_checks_dst_coverage(tmp_path, capsys):
    path = tmp_path / "c.dst"
    out = tmp_path / "rep.json"
    assert main(["gen-dst", "--n", "6", "--m", "8", "--k", "3", "--seed", "1",
                 "--out", str(path)]) == 0
    assert main(["run", "--problem", "dst", "--instance", str(path),
                 "--height", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    want = doc["coverage"]
    assert want == 1.0
    for wrong in (0.123, True):
        doc["coverage"] = wrong
        out.write_text(json.dumps(doc))
        assert main(["verify", "--tree", str(out),
                     "--instance", str(path)]) == 4
        assert (f"coverage mismatch: {want} vs {wrong}"
                in capsys.readouterr().err)
    # without terminals the coverage is 1.0
    path.write_text("DBDST 1\n2 1 0\nroot 0\nvertex 0 1\nvertex 1 0\n"
                    "edge 0 1 5\n")
    assert main(["run", "--problem", "dst", "--instance", str(path),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["coverage"] == 1.0
    assert main(["verify", "--tree", str(out), "--instance", str(path)]) == 0


def test_verify_wants_boolean_gst_coverage(tmp_path, capsys):
    path = tmp_path / "g.gst"
    out = tmp_path / "rep.json"
    verify = ["verify", "--tree", str(out), "--instance", str(path)]
    assert main(["gen-gst", "--n", "20", "--k", "2", "--seed", "1",
                 "--out", str(path)]) == 0
    assert main(["run", "--problem", "gst", "--instance", str(path),
                 "--out", str(out)]) == 0
    assert main(verify) == 0
    doc = json.loads(out.read_text())
    assert doc["coverage"] == [True, True]
    # JSON 1 equals true in Python
    doc["coverage"] = [1, 1]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(verify) == 4
    assert ("coverage flags mismatch: [True, True] vs [1, 1]"
            in capsys.readouterr().err)


# one derived field of a solved report changed: (field, value, message)
TAMPERS = {
    "dst-schema_version": lambda d: (
        "schema_version", 7, "schema_version mismatch: 2 vs 7"),
    "dst-repetition_costs": lambda d: (
        "repetition_costs", d["repetition_costs"][1:],
        f"repetition count mismatch: Q {d['Q']} vs {d['Q'] - 1} "
        f"repetition costs"),
    "dst-Q": lambda d: (
        "Q", d["Q"] + 1, f"repetition count mismatch: Q {d['Q'] + 1} vs "
        f"{d['Q']} repetition costs"),
    "dst-s": lambda d: ("s", 0.5, f"s mismatch: {d['s']} vs 0.5"),
    "dst-h_prime": lambda d: (
        "h_prime", 2 * d["h"] + 3,
        f"h_prime {2 * d['h'] + 3} exceeds 2h + 2 for h {d['h']}"),
    "dst-union_cost": lambda d: (
        "union_cost", d["tree_cost"] - 1,
        f"union cost {d['tree_cost'] - 1} below tree cost {d['tree_cost']}"),
    "gst-schema_version": lambda d: (
        "schema_version", 7, "schema_version mismatch: 2 vs 7"),
    "gst-repetition_costs": lambda d: (
        "repetition_costs", d["repetition_costs"][1:],
        f"repetition count mismatch: M {d['M']} vs {d['M'] - 1} "
        f"repetition costs"),
    "gst-M": lambda d: (
        "M", d["M"] + 1, f"repetition count mismatch: M {d['M'] + 1} vs "
        f"{d['M']} repetition costs"),
    "gst-L": lambda d: ("L", d["L"] + 1,
                        f"L mismatch: {d['L']} vs {d['L'] + 1}"),
    "gst-gamma": lambda d: (
        "gamma", d["gamma"] + 1,
        f"gamma mismatch: {d['gamma']} vs {d['gamma'] + 1}"),
    "gst-alpha": lambda d: (
        "alpha", d["alpha"][:-1] + [0.5],
        f"alpha mismatch: {d['alpha']} vs {d['alpha'][:-1] + [0.5]}"),
    "gst-alpha0": lambda d: (
        "alpha0", 0.5, f"alpha0 mismatch: {d['alpha0']} vs 0.5"),
}


@pytest.mark.parametrize("case", sorted(TAMPERS))
def test_verify_checks_derived_fields(real_reports, capsys, case):
    where, reports = real_reports
    instance, doc = reports[case.startswith("gst")]
    out = where / "tampered.json"
    verify = ["verify", "--tree", str(out), "--instance", instance]
    out.write_text(json.dumps(doc))
    assert main(verify) == 0
    name, value, says = TAMPERS[case](doc)
    out.write_text(json.dumps({**doc, name: value}))
    capsys.readouterr()
    assert main(verify) == 4
    assert f"verify: {says}" in capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("problem,name,value,what", [
    ("dst", "h_prime", "3", "an integer"),
    ("dst", "s", True, "a number"),
    ("dst", "repetition_costs", {}, "a list"),
    ("gst", "gamma", True, "an integer"),
    ("gst", "alpha", [0.5, "x"], "a list of numbers"),
    ("gst", "schema_version", 2.0, "an integer")])
def test_verify_derived_field_of_the_wrong_type(real_reports, capsys,
                                                problem, name, value, what):
    where, reports = real_reports
    instance, doc = reports[problem == "gst"]
    out = where / "wrong-type.json"
    out.write_text(json.dumps({**doc, name: value}))
    assert main(["verify", "--tree", str(out), "--instance", instance]) == 5
    assert f"report field {name!r} must be {what}" in capsys.readouterr().err


# a synthetic leaf below vertex 0 lifts its bound to 2^63, beyond int64
WRAP_GST = ("DBGST 1\n3 1\nroot 0\nvertex 0 -1 0 9223372036854775807\n"
            "vertex 1 0 1 1\nvertex 2 0 1 1\ngroup 0 2 0 1\n")


def test_degree_bound_beyond_int64_after_preprocessing(tmp_path):
    assert preprocess_gst(parse_gst(WRAP_GST)).degree_bound[0] == 2 ** 63
    path = tmp_path / "wrap.gst"
    path.write_text(WRAP_GST)
    out = tmp_path / "rep.json"
    assert main(["run", "--problem", "gst", "--instance", str(path),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["union_vertices"], doc["coverage"]) == ([0, 3], [True])
    assert main(["verify", "--tree", str(out), "--instance", str(path)]) == 0


@pytest.mark.parametrize("argv,flag", [
    (["solve-gst", "--seed", "-1"], "--seed"),
    (["solve-dst", "--q", "-2"], "--q"),
    (["solve-dst", "--node-cap", "-1"], "--node-cap"),
    (["run", "--problem", "gst", "--gen", "n=20,k=2", "--trials", "-3"],
     "--trials"),
    (["run", "--problem", "dst", "--gen", "n=6,k=2", "--trials", "-3"],
     "--trials"),
    (["run", "--problem", "gst", "--gen", "n=20,k=2", "--m", "-1"], "--m"),
    (["gen-dst", "--n", "5", "--m", "-3", "--k", "2"], "--m"),
    (["run", "--problem", "dst", "--gen", "n=6,k=2", "--height", "-1"],
     "--height"),
    (["solve-dst", "--height", "-1"], "--height"),
    (["dump-supertree", "--height", "-1"], "--height"),
    (["dump-lp", "--problem", "dst", "--height", "-1"], "--height")])
def test_negative_option_is_format_error(tmp_path, capsys, argv, flag):
    # a missing instance file: the option is rejected before it is read
    if argv[0].startswith(("solve", "dump")):
        argv = argv + ["--instance", str(tmp_path / "none.txt")]
    assert main(argv) == 5
    assert f"{flag} must not be negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["run", "--problem", "gst", "--q", "7"], "--q"),
    (["run", "--problem", "gst", "--height", "3"], "--height"),
    (["run", "--problem", "gst", "--node-cap", "1"], "--node-cap"),
    (["run", "--problem", "dst", "--m", "5"], "--m"),
    (["dump-lp", "--problem", "gst", "--height", "1"], "--height"),
    (["dump-lp", "--problem", "gst", "--node-cap", "1"], "--node-cap")])
def test_option_the_problem_does_not_read_is_format_error(
        tmp_path, capsys, dst_file, gst_file, argv, flag):
    path = gst_file if argv[2] == "gst" else dst_file[0]
    out = tmp_path / "out"
    assert main(argv + ["--instance", path, "--out", str(out)]) == 5
    assert f"--problem {argv[2]} does not read {flag}" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(cli.PROBLEMS))
def test_solve_takes_exactly_the_options_its_problem_reads(capsys, kind):
    parse = build_parser().parse_args
    taken = []
    for flag in cli.OPTIONS:
        try:
            args = parse([f"solve-{kind}", "--instance", "x", flag, "1"])
        except SystemExit:
            continue
        assert getattr(args, flag[2:].replace("-", "_")) == 1
        taken.append(flag)
    assert taken == list(cli.PROBLEMS[kind].options)


@pytest.mark.parametrize("cmd", [["gen-dst", "--n", "6", "--m", "8", "--k", "2"],
                                 ["gen-gst", "--n", "20", "--k", "2"]])
@pytest.mark.parametrize("cost_range", ["5:1", "-3:2", "1-4"])
def test_bad_cost_range_is_format_error(capsys, cmd, cost_range):
    assert main(cmd + [f"--cost-range={cost_range}"]) == 5
    assert "--cost-range" in capsys.readouterr().err


def test_negative_generator_value_is_format_error(capsys):
    assert main(["run", "--problem", "gst", "--gen", "n=20,k=2,seed=-1"]) == 5
    assert "negative generator value: 'seed=-1'" in capsys.readouterr().err


@pytest.mark.parametrize("problem,spec", [("dst", "n=5,n=7"),
                                          ("gst", "n=20,k=2,k=3"),
                                          ("dst", "seed=1,n=6,seed=1")])
def test_repeated_generator_key_is_format_error(capsys, problem, spec):
    # a later value would silently win over an earlier one
    assert main(["run", "--problem", problem, "--gen", spec]) == 5
    assert "repeated generator key" in capsys.readouterr().err


@pytest.mark.parametrize("height,cause", [
    ("2", "DST LP is infeasible"),
    ("1", "terminal 3 appears in no base node")])
def test_height_below_budget_is_a_cap_error(tmp_path, capsys, height, cause):
    # the instance solves at --height 3; its height budget is 8
    path = tmp_path / "s1.dst"
    path.write_text(serialize_dst(gen_dst(6, 8, 3, seed=1)))
    assert main(["run", "--problem", "dst", "--instance", str(path),
                 "--height", height]) == 3
    err = capsys.readouterr().err
    assert f"height {height} is below the height budget 8" in err
    assert cause in err


def test_height_above_budget_checks_the_stitch_at_that_height(tmp_path):
    # a 14-vertex unit path with every bound 1: its height budget is 9, and
    # at --height 12 the rounded state tree is 10 deep
    path = tmp_path / "path.dst"
    path.write_text("\n".join(
        ["DBDST 1", "14 13 1", "root 0"]
        + [f"vertex {v} 1" for v in range(14)]
        + [f"edge {v} {v + 1} 1" for v in range(13)]
        + ["terminal 13"]) + "\n")
    out = tmp_path / "path.json"
    assert main(["run", "--problem", "dst", "--instance", str(path),
                 "--height", "12", "--out", str(out)]) == 0
    assert main(["verify", "--tree", str(out), "--instance", str(path)]) == 0


def test_infeasible_at_budget_names_original_terminal(tmp_path, capsys):
    # terminal 2 has an out-edge, so it is split; nothing reaches it
    path = tmp_path / "unreach.dst"
    path.write_text("DBDST 1\n4 2 2\nroot 0\nvertex 0 1\nvertex 1 0\n"
                    "vertex 2 1\nvertex 3 0\nedge 0 1 1\nedge 2 3 1\n"
                    "terminal 1\nterminal 2\n")
    assert main(["solve-dst", "--instance", str(path)]) == 2
    assert "terminal 2 appears in no base node" in capsys.readouterr().err


def test_dump_commands(tmp_path, dst_file, gst_file):
    path, h = dst_file
    out = tmp_path / "dump.txt"
    assert main(["dump-supertree", "--instance", path, "--height", str(h),
                 "--out", str(out)]) == 0
    assert "state" in out.read_text()
    assert main(["dump-lp", "--problem", "dst", "--instance", path,
                 "--height", str(h), "--out", str(out)]) == 0
    assert "ENDATA" in out.read_text()
    assert main(["dump-lp", "--problem", "gst", "--instance", gst_file,
                 "--out", str(out)]) == 0


GST_HEAD = "DBGST 1\n4 {k}\nroot 0\nvertex 0 -1 0 2\nvertex 1 0 3 1\n"


@pytest.mark.parametrize("text,ratios", [
    # group member 1 has a child
    (GST_HEAD.format(k=1) + "vertex 2 1 4 1\nvertex 3 0 5 1\ngroup 0 1 1\n",
     {"0": 0.5}),
    # two groups share the leaf 1
    (GST_HEAD.format(k=2) + "vertex 2 0 4 1\nvertex 3 0 5 1\ngroup 0 1 1\n"
     "group 1 1 1\n", {"0": 0.5}),
    # 1 keeps its one real child under its bound 1 beside a synthetic leaf
    (GST_HEAD.format(k=2) + "vertex 2 1 4 1\nvertex 3 0 5 1\ngroup 0 1 1\n"
     "group 1 1 2\n", {"0": 0.5, "1": 1.0})],
    ids=["internal-member", "shared-leaf", "ratio-of-file-bound"])
def test_run_gst_members_preprocessed(tmp_path, text, ratios):
    path = tmp_path / "a.gst"
    path.write_text(text)
    out = tmp_path / "run.json"
    assert main(["run", "--problem", "gst", "--instance", str(path),
                 "--out", str(out)]) == 0
    assert main(["verify", "--tree", str(out), "--instance", str(path)]) == 0
    doc = json.loads(out.read_text())
    assert doc["oracle"]["status"] == "OPTIMAL"
    assert doc["lp_cost"] <= doc["oracle"]["cost"] + 1e-6
    assert doc["degree_violations"] == ratios


def test_memory_error_is_a_cap_error(dst_file, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("dbnet.states.live_states", exhausted)
    path, h = dst_file
    assert main(["run", "--problem", "dst", "--instance", path,
                 "--height", str(h)]) == 3
    err = capsys.readouterr().err
    assert "run ran out of memory" in err and "height" in err


NOT_UTF8 = b"DBDST 1\n\xff\n"


@pytest.mark.parametrize("argv", [
    ["solve-dst", "--instance", "{bad}"],
    ["solve-gst", "--instance", "{bad}"],
    ["oracle-dst", "--instance", "{bad}"],
    ["oracle-gst", "--instance", "{bad}"],
    ["run", "--problem", "dst", "--instance", "{bad}"],
    ["run", "--problem", "gst", "--instance", "{bad}"],
    ["dump-lp", "--problem", "gst", "--instance", "{bad}"],
    ["verify", "--tree", "{report}", "--instance", "{bad}"],
    ["verify", "--tree", "{bad}", "--instance", "{dst}"]],
    ids=["solve-dst", "solve-gst", "oracle-dst", "oracle-gst", "run-dst",
         "run-gst", "dump-lp", "verify-instance", "verify-report"])
def test_file_not_utf8_is_format_error(tmp_path, dst_file, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    path, h = dst_file
    report = tmp_path / "rep.json"
    assert main(["solve-dst", "--instance", path, "--height", str(h),
                 "--out", str(report)]) == 0
    capsys.readouterr()
    argv = [a.format(bad=bad, report=report, dst=path) for a in argv]
    assert main(argv) == 5
    err = capsys.readouterr().err
    assert f"{bad} is not UTF-8 text" in err and "Traceback" not in err


HUGE = 10 ** 25
PATH_DST = ("DBDST 1\n3 2 1\nroot 0\nvertex 0 2\nvertex 1 2\nvertex 2 0\n"
            "edge 0 1 {c}\nedge 1 2 3\nterminal 2\n")
STAR_DST = ("DBDST 1\n3 2 2\nroot 0\nvertex 0 2\nvertex 1 0\nvertex 2 0\n"
            "edge 0 1 {c}\nedge 0 2 {c}\nterminal 1\nterminal 2\n")
STAR_GST = ("DBGST 1\n3 1\nroot 0\nvertex 0 -1 0 2\nvertex 1 {p} 3 1\n"
            "vertex 2 0 {c} 1\ngroup 0 1 2\n")


@pytest.mark.parametrize("problem,text,cause", [
    ("dst", PATH_DST.format(c=HUGE), f"edge line holds an integer beyond "
     f"int64: edge 0 1 {HUGE}"),
    # each cost fits in int64, but not below the 2^53 of float64 integers
    ("dst", STAR_DST.format(c=2 ** 62), "edge costs sum to 2^53 or more by "
     f"line: edge 0 1 {2 ** 62}"),
    ("gst", STAR_GST.format(p=HUGE, c=4), f"vertex line holds an integer "
     f"beyond int64: vertex 1 {HUGE} 3 1"),
    ("gst", STAR_GST.format(p=0, c=HUGE), f"vertex line holds an integer "
     f"beyond int64: vertex 2 0 {HUGE} 1")],
    ids=["dst-cost", "dst-triple-cost", "gst-parent", "gst-cost"])
def test_integer_beyond_int64_is_format_error(tmp_path, capsys, problem,
                                              text, cause):
    path = tmp_path / f"big.{problem}"
    path.write_text(text)
    assert main(["run", "--problem", problem, "--instance", str(path)]) == 5
    assert cause in capsys.readouterr().err


def with_cost(text: str, edge: str, cost: int) -> str:
    """``text`` with the cost of the line ``edge u v ...`` set to ``cost``."""
    return "\n".join(f"{edge} {cost}" if ln.rsplit(" ", 1)[0] == edge
                     else ln for ln in text.splitlines()) + "\n"


@pytest.mark.parametrize("seed,edge", [(1, "edge 0 4"), (3, "edge 0 3"),
                                       (3, "edge 3 4")])
def test_cost_sum_from_2_to_the_53_is_format_error(tmp_path, capsys, seed,
                                                   edge):
    # an edge cost of 2^62 made HiGHS fail (exit 1) on these instances;
    # float64 holds every integer cost sum below 2^53, so that is the bound
    text = serialize_dst(gen_dst(5, 7, 2, seed=seed))
    others = sum(int(ln.split()[3]) for ln in text.splitlines()
                 if ln.startswith("edge ") and not ln.startswith(edge + " "))
    path = tmp_path / "big.dst"
    argv = ["run", "--problem", "dst", "--instance", str(path), "--height",
            "3", "--out", str(tmp_path / "r.json")]
    path.write_text(with_cost(text, edge, 2 ** 62))
    assert main(argv) == 5
    assert (f"edge costs sum to 2^53 or more by line: {edge} {2 ** 62}"
            in capsys.readouterr().err)
    path.write_text(with_cost(text, edge, 2 ** 53 - 1 - others))
    assert main(argv) == 0
    path.write_text(with_cost(text, edge, 2 ** 53 - others))
    assert main(argv) == 5


def test_gst_cost_sum_from_2_to_the_53_is_format_error(tmp_path, capsys):
    # vertex 1 costs 3
    path = tmp_path / "big.gst"
    argv = ["run", "--problem", "gst", "--instance", str(path), "--out",
            str(tmp_path / "r.json")]
    path.write_text(STAR_GST.format(p=0, c=2 ** 53 - 4))
    assert main(argv) == 0
    path.write_text(STAR_GST.format(p=0, c=2 ** 53 - 3))
    assert main(argv) == 5
    assert (f"vertex costs sum to 2^53 or more by line: vertex 2 0 "
            f"{2 ** 53 - 3} 1" in capsys.readouterr().err)


def test_absurd_height_costs_no_more_rounds(tmp_path, monkeypatch):
    # the path's table stops growing at a small height; above it the
    # fixpoint joins nothing and each height adds one level of subtree sizes
    path = tmp_path / "path.dst"
    path.write_text(PATH_DST.format(c=5))
    joins = _count_calls(monkeypatch, states._join)
    rounds = []
    for h in (10, 1000):
        start = time.perf_counter()
        assert main(["run", "--problem", "dst", "--instance", str(path),
                     "--height", str(h), "--out", str(tmp_path / "r")]) == 0
        rounds.append(len(joins))
    assert rounds[1] == 2 * rounds[0]
    assert time.perf_counter() - start < 3


@pytest.mark.parametrize("text,lp_cost", [
    # the root costs 3 and nothing asks for its child
    ("DBGST 1\n2 0\nroot 0\nvertex 0 -1 3 1\nvertex 1 0 4 1\n", 3.0),
    # the root alone
    ("DBGST 1\n1 0\nroot 0\nvertex 0 -1 0 1\n", 0.0)],
    ids=["costly-root", "root-only"])
def test_gst_without_groups_keeps_the_root(tmp_path, text, lp_cost):
    path = tmp_path / "k0.gst"
    path.write_text(text)
    out = tmp_path / "rep.json"
    for cmd in (["solve-gst"], ["run", "--problem", "gst", "--trials", "20"]):
        assert main(cmd + ["--instance", str(path), "--out", str(out)]) == 0
        assert main(["verify", "--tree", str(out),
                     "--instance", str(path)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["lp_cost"], doc["union_vertices"], doc["coverage"]) == \
        (lp_cost, [0], [])
    assert doc["union_cost"] == doc["oracle"]["cost"]
    assert doc["lp_cost"] <= doc["oracle"]["cost"] + 1e-9


def test_parser_built_once_gives_independent_namespaces(tmp_path, gst_file,
                                                        monkeypatch):
    parser = build_parser()
    assert build_parser() is parser
    seen = []
    parse = parser.parse_args

    def spy(argv):
        seen.append(parse(argv))
        return seen[-1]

    monkeypatch.setattr(parser, "parse_args", spy)
    outs = [tmp_path / f"{i}.json" for i in range(3)]
    assert main(["run", "--problem", "gst", "--instance", gst_file,
                 "--seed", "3", "--trials", "20", "--m", "5",
                 "--out", str(outs[0])]) == 0
    assert main(["solve-gst", "--instance", gst_file,
                 "--out", str(outs[1])]) == 0
    assert main(["run", "--problem", "gst", "--instance", gst_file,
                 "--out", str(outs[2])]) == 0
    first, second, third = map(vars, seen)
    assert (first["cmd"], first["seed"], first["trials"], first["m"]) == \
        ("run", 3, 20, 5)
    assert (second["cmd"], second["seed"], second["m"]) == \
        ("solve-gst", 0, None)
    assert "trials" not in second and "problem" in second
    assert (third["seed"], third["trials"], third["m"]) == (0, 0, None)
    docs = [json.loads(out.read_text()) for out in outs]
    assert [d["seed"] for d in docs] == [3, 0, 0]
    assert docs[0]["M"] == 5 and docs[2]["M"] == docs[1]["M"] != 5
    assert "stats" in docs[0] and "stats" not in docs[2]


def gst_bound_text(v, bound):
    """``gen-gst --n 12 --k 2 --depth 3 --seed 0`` with vertex v's degree
    bound set to ``bound``."""
    lines = serialize_gst(gen_gst(12, 2, depth=3, seed=0)).splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.split()[:2] == ["vertex", str(v)])
    lines[at] = " ".join(lines[at].split()[:-1] + [str(bound)])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("v", range(12))
def test_gst_degree_bound_near_int64_max_runs(tmp_path, v):
    # 4 d and 2 d x~ of a bound of 2^63 - 1 wrapped in int64 (exit 4), and
    # HiGHS rejected it as a coefficient (exit 2); a bound above n binds
    # nothing, so the LP is the one of bound n
    lp_cost = []
    for bound in (2 ** 63 - 1, 12):
        path, out = tmp_path / f"{bound}.gst", tmp_path / f"{bound}.json"
        path.write_text(gst_bound_text(v, bound))
        assert main(["run", "--problem", "gst", "--instance", str(path),
                     "--out", str(out)]) == 0
        lp_cost.append(json.loads(out.read_text())["lp_cost"])
    assert lp_cost[0] == lp_cost[1]
