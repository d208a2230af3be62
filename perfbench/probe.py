"""Set-up probe, run in a fresh interpreter by ``run.py`` to time ``setup_s``.

Usage: ``python3 perfbench/probe.py dst:PATH gst:PATH ...`` from the checkout
root.  Imports dbnet (and with it numpy and scipy), then parses and
normalizes every DST instance and parses and preprocesses every GST instance,
exactly as ``dbnet run`` does, and prints ``ready`` once all are done.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dbnet.cli  # noqa: E402,F401  (numpy, scipy.optimize, scipy.sparse)
from dbnet.instances import (normalize, parse_dst, parse_gst,  # noqa: E402
                             preprocess_gst)


def main(specs: list[str]) -> None:
    for spec in specs:
        problem, path = spec.split(":", 1)
        text = Path(path).read_text()
        if problem == "dst":
            normalize(parse_dst(text))
        else:
            inst = parse_gst(text)
            inst.validate_groups()
            preprocess_gst(inst)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
