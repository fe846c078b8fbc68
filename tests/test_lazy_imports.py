"""The program loads no scipy: importing the CLI and running each
subcommand, the Perron and Hankel checks and the suite among them, loads
no module of scipy, and every subcommand runs with scipy blocked. Checked
by the modules loaded in a fresh interpreter, not by timings."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import congaps

SRC = str(Path(congaps.__file__).resolve().parents[1])

SCRIPT = """
import contextlib, io, json, sys
from congaps import cli
argv = json.loads(sys.argv[1])
rc = 0
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
print(json.dumps({"rc": rc, "loaded": sorted(
    m for m in sys.modules if m.partition(".")[0] == "scipy")}))
"""


NO_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from congaps import cli
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps(rcs))
"""


def run_fresh(script, argv):
    """The JSON that `script` prints, run in a fresh interpreter with argv."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", [
    [],
    ["census", "--q", "3", "--a", "2", "--x", "1000"],
    ["shiu", "--h", "1000", "--q", "3", "--a", "2"],
    ["contour", "--mode", "gamma"],
    ["contour", "--mode", "perron"],
    ["constants", "--q", "7"],
    ["mertens", "--q", "3", "--x", "1000"],
    ["count", "--q", "3", "--x", "1000"],
    ["contour", "--mode", "hankel"],
    ["suite", "--scale", "small"],
], ids=["import", "census", "shiu", "contour-gamma", "contour-perron", "constants",
        "mertens", "count", "contour-hankel", "suite"])
def test_scipy_loaded_only_where_called(argv):
    # scipy is called nowhere now, so no argv may load any of it
    assert run_fresh(SCRIPT, argv) == {"rc": 0, "loaded": []}


def test_runs_without_scipy():
    argvs = [
        ["constants", "--q", "7"],
        ["mertens", "--q", "3", "--x", "1000"],
        ["count", "--q", "3", "--x", "1000"],
        ["census", "--q", "3", "--a", "2", "--x", "1000"],
        ["shiu", "--h", "1000", "--q", "3", "--a", "2"],
        ["contour", "--mode", "hankel"],
        ["contour", "--mode", "perron"],
        ["contour", "--mode", "gamma"],
        ["suite", "--scale", "small"],
    ]
    assert run_fresh(NO_SCIPY, argvs) == [0] * len(argvs)
