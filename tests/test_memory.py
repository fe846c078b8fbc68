"""Peak memory of the streaming subcommands. census, mertens, count and
shiu fold over the windows of primes.segments, so at X = 10^8 (5.76 M
primes, 46 MB as one array) each holds a few windows at a time, plus
count's walk over the primes up to sqrt(X) and shiu's 135 k modulus primes
(1 MB): its peak RSS stays within MAX_GROWTH_MB of the same command's at
X = 10^4. suite holds the windows of the primes to 10^7 (5.3 MB) for its
folds, so its full scale stays within MAX_GROWTH_MB of its small one. The
Perron check folds over fixed blocks
of its terms, and the CLI's coefficients are one broadcast value, so at
N = 10^6 it holds one block's work arrays: its peak RSS stays within
PERRON_GROWTH_MB of that at N = 20. Each
command runs in a fresh interpreter with no prime cache, spawned from a
bare one that reads its peak RSS from os.wait4."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
# From 10^4 to 10^8: census 4.2 MB, mertens 3.2, count 4.4 and shiu 5.7; a
# count holding its class-1 primes grows 25, a shiu holding the table 160
# (2 vCPUs, peak RSS from os.wait4)
MAX_GROWTH_MB = 10
# The blocked fold grows 10.7 MB from N = 20 to 10^6; a fold that builds n
# and log(X/n) for all N at once grows 26 MB, as any N-length float array
# takes 8 MB (2 vCPUs, peak RSS from os.wait4)
PERRON_GROWTH_MB = 16


# A process's peak RSS counts the pages of the process it was forked from,
# so a command forked from pytest (numpy and the tests loaded, 40 MB or
# more) would read at least that much at any size. A bare interpreter
# spawns the command instead and prints its exit code and peak RSS (KiB).
LAUNCHER = """
import os, sys
devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=devnull)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(*argv: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-m", "congaps.cli",
                           *argv], env=env, capture_output=True, text=True, check=True)
    code, kib = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return kib / 1024  # KiB on Linux


@pytest.mark.skipif(not hasattr(os, "posix_spawn"), reason="needs os.posix_spawn")
@pytest.mark.parametrize("argv, size", [
    (("census", "--q", "3", "--a", "2"), "--x"),
    (("mertens", "--q", "3"), "--x"),
    (("count", "--q", "3", "--y", "10"), "--x"),
    (("shiu", "--q", "3", "--a", "2"), "--h"),
], ids=["census", "mertens", "count", "shiu"])
def test_peak_rss_at_1e8_close_to_1e4(argv, size):
    small = peak_rss_mb(*argv, size, "10000")
    large = peak_rss_mb(*argv, size, "100000000")
    assert large - small <= MAX_GROWTH_MB, (small, large)


@pytest.mark.skipif(not hasattr(os, "posix_spawn"), reason="needs os.posix_spawn")
def test_list_pairs_peak_rss_at_3e7_close_to_1e4():
    # 353 k rows at 3*10^7: written window by window they grow 5.4 MB;
    # held as Python tuples until the end, 51 MB (2 vCPUs)
    argv = ("census", "--q", "3", "--a", "2", "--epsilon", "2", "--list-pairs", "--x")
    small = peak_rss_mb(*argv, "10000")
    large = peak_rss_mb(*argv, "30000000")
    assert large - small <= MAX_GROWTH_MB, (small, large)


@pytest.mark.skipif(not hasattr(os, "posix_spawn"), reason="needs os.posix_spawn")
def test_perron_peak_rss_at_1e6_close_to_20():
    small = peak_rss_mb("contour", "--mode", "perron", "--n", "20")
    large = peak_rss_mb("contour", "--mode", "perron", "--n", "1000000")
    assert large - small <= PERRON_GROWTH_MB, (small, large)


@pytest.mark.skipif(not hasattr(os, "posix_spawn"), reason="needs os.posix_spawn")
def test_suite_full_peak_rss_close_to_small():
    """Catches a suite that holds a table with cached residue classes: its
    table to 10^7 and the classes mod 3, 4 and 5 it cached grew 18.3 MB
    from small to full scale, where the windows grow 7.4 MB (2 vCPUs)."""
    small = peak_rss_mb("suite", "--scale", "small")
    full = peak_rss_mb("suite", "--scale", "full")
    assert full - small <= MAX_GROWTH_MB, (small, full)
