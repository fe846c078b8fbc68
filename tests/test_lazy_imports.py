"""Each subcommand loads only the part of scipy it calls: importing the
CLI loads none, census and shiu load none, and the constants-based
subcommands, the closed-form Perron and Hankel checks and the suite load
scipy.special; none loads scipy.integrate. Checked by the modules loaded
in a fresh interpreter, not by timings."""

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
    m for m in ("scipy.integrate", "scipy.special") if m in sys.modules)}))
"""


def loaded_after(argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("CONGAPS_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv, loaded", [
    ([], []),
    (["census", "--q", "3", "--a", "2", "--x", "1000"], []),
    (["shiu", "--h", "1000", "--q", "3", "--a", "2"], []),
    (["contour", "--mode", "gamma"], []),
    (["contour", "--mode", "perron"], ["scipy.special"]),
    (["constants", "--q", "7"], ["scipy.special"]),
    (["count", "--q", "3", "--x", "1000"], ["scipy.special"]),
    (["contour", "--mode", "hankel"], ["scipy.special"]),
    (["suite", "--scale", "small"], ["scipy.special"]),
], ids=["import", "census", "shiu", "contour-gamma", "contour-perron", "constants",
        "count", "contour-hankel", "suite"])
def test_scipy_loaded_only_where_called(argv, loaded):
    assert loaded_after(argv) == {"rc": 0, "loaded": loaded}
