"""The names that the benchmark's tracer (``perfbench/spans.py``) wraps must
exist in the program, so that a rename under ``src/`` fails here and not
only in a traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

from dbnet.generators import gen_dst, gen_gst
from dbnet.instances import normalize, preprocess_gst
from dbnet.lpcore import build_dst_lp, build_gst_lp
from dbnet.states import build_super_tree

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = load_spans()


@pytest.mark.parametrize("module,path",
                         [(module, path) for module, path, _ in spans.TARGETS],
                         ids=[f"{module}.{path}"
                              for module, path, _ in spans.TARGETS])
def test_traced_name_resolves(module, path):
    # as Tracer.install looks it up
    mod = importlib.import_module(module)
    if "." in path:
        cls_name, attr = path.split(".")
        target = getattr(mod, cls_name).__dict__[attr]
    else:
        target = getattr(mod, path)
    assert callable(target)


@pytest.mark.parametrize("problem", ["dst", "gst"])
def test_lp_size_counts(problem):
    if problem == "dst":
        model = build_dst_lp(build_super_tree(
            normalize(gen_dst(5, 6, 2, seed=0)), 3))
    else:
        model = build_gst_lp(preprocess_gst(gen_gst(12, 2, depth=3, seed=0)))
    blocks = model.blocks()
    assert spans._lp_size(model) == {
        "lpcore.lp_rows": sum(len(b) for b in blocks),
        "lpcore.lp_cols": model.nvar,
        "lpcore.lp_nnz": sum(len(b.col) for b in blocks)}
