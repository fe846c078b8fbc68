"""Peak memory of the streaming subcommands. census and mertens fold over
the windows of primes.segments, so at X = 10^8 (5.76 M primes, 46 MB as
one array) each holds a few windows at a time: its peak RSS stays close to
the same command's at X = 10^4. The Perron check folds over fixed blocks
of its terms, so at N = 10^6 it holds the coefficients (8 MB) and one
block's work arrays: its peak RSS stays close to that at N = 20. Each
command runs in a fresh interpreter with no prime cache, and its peak RSS
is read from os.wait4."""

import os
import pathlib
import subprocess
import sys

import pytest

from congaps import primes

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MAX_GROWTH_MB = 30


def peak_rss_mb(*argv: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(primes.CACHE_ENV, None)
    proc = subprocess.Popen([sys.executable, "-m", "congaps.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, err.decode()
    return usage.ru_maxrss / 1024  # KiB on Linux


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.parametrize("argv", [
    ("census", "--q", "3", "--a", "2"),
    ("mertens", "--q", "3"),
], ids=["census", "mertens"])
def test_peak_rss_at_1e8_close_to_1e4(argv):
    small = peak_rss_mb(*argv, "--x", "10000")
    large = peak_rss_mb(*argv, "--x", "100000000")
    assert large - small <= MAX_GROWTH_MB, (small, large)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_perron_peak_rss_at_1e6_close_to_20():
    small = peak_rss_mb("contour", "--mode", "perron", "--n", "20")
    large = peak_rss_mb("contour", "--mode", "perron", "--n", "1000000")
    assert large - small <= MAX_GROWTH_MB, (small, large)
