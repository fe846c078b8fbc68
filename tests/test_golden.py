"""Golden reports: each case runs one subcommand through cli.main and
compares its report with the file committed under tests/golden/, exactly,
after dropping wall_time_ms (the only field that varies between runs).

A change that moves a float on purpose regenerates the goldens with

    PYTHONPATH=src python tests/test_golden.py

which prints, for each file, the largest absolute and relative deviation
of its numbers from the committed version (or `unchanged`) before
overwriting it; the change records those deviations.
"""

import csv
import io
import json
import math
import os
import pathlib
import sys
import tempfile

import pytest

from congaps import cli, primes

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "constants_q4.json": ["constants", "--q", "4"],
    "constants_q840.json": ["constants", "--q", "840"],
    "constants_q1009.json": ["constants", "--q", "1009"],
    "mertens_q3_x1e6.json": ["mertens", "--q", "3", "--x", "1000000"],
    "mertens_q3_x1e6.csv": ["mertens", "--q", "3", "--x", "1000000", "--format", "csv"],
    "count_q3_x1e6.json": ["count", "--q", "3", "--x", "1000000"],
    "count_q3_x1e6.csv": ["count", "--q", "3", "--x", "1000000", "--format", "csv"],
    "shiu_h1e5_q3_a2.json": ["shiu", "--h", "100000", "--q", "3", "--a", "2"],
    "census_q3_a2_x1e6.json": ["census", "--q", "3", "--a", "2", "--x", "1000000"],
    "census_q3_a2_x1e5_pairs.csv": ["census", "--q", "3", "--a", "2", "--x", "100000",
                                    "--list-pairs"],
    "contour_hankel.json": ["contour", "--mode", "hankel"],
    "contour_perron.json": ["contour", "--mode", "perron"],
    "contour_gamma.json": ["contour", "--mode", "gamma"],
    "suite_small.json": ["suite", "--scale", "small"],
}


def without_wall_time(value):
    """The report with every wall_time_ms key removed, at any depth."""
    if isinstance(value, dict):
        return {k: without_wall_time(v) for k, v in value.items() if k != "wall_time_ms"}
    if isinstance(value, list):
        return [without_wall_time(v) for v in value]
    return value


def report(name: str, out: pathlib.Path):
    """Run the case `name`, writing to `out`; the parsed JSON report
    without wall_time_ms, or the CSV text."""
    cli.main([*CASES[name], "--out", str(out)])
    text = out.read_text()
    return text if name.endswith(".csv") else without_wall_time(json.loads(text))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    golden = (GOLDEN / name).read_text()
    want = golden if name.endswith(".csv") else json.loads(golden)
    assert report(name, tmp_path / name) == want


def leaves(value, path=""):
    """(path, value) of every scalar in a report (parsed JSON, or CSV rows),
    strings read as numbers where they parse as one."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from leaves(item, f"{path}/{key}")
        return
    try:
        value = float(value) if isinstance(value, str) else value
    except ValueError:
        pass
    yield path, value


def parsed(name: str, text: str):
    return list(csv.reader(io.StringIO(text))) if name.endswith(".csv") else json.loads(text)


def deviation(old, new) -> str:
    """The largest absolute and relative change of a number between two
    reports, `unchanged`, or what else changed."""
    old, new = dict(leaves(old)), dict(leaves(new))
    if old == new:
        return "unchanged"
    if old.keys() != new.keys():
        return f"keys changed: {sorted(old.keys() ^ new.keys())}"
    worst_abs, worst_rel = (0.0, ""), (0.0, "")
    for path, a in old.items():
        b = new[path]
        if a == b:
            continue
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
            return f"{path} changed: {a!r} -> {b!r}"
        worst_abs = max(worst_abs, (abs(b - a), path))
        worst_rel = max(worst_rel, (abs(b - a) / abs(a) if a else math.inf, path))
    return (f"max abs dev {worst_abs[0]:.3g} at {worst_abs[1]}, "
            f"max rel dev {worst_rel[0]:.3g} at {worst_rel[1]}")


def regenerate() -> None:
    os.environ.pop(primes.CACHE_ENV, None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(CASES):
            got = report(name, pathlib.Path(scratch) / name)
            path = GOLDEN / name
            text = got if name.endswith(".csv") else json.dumps(got, indent=1) + "\n"
            if path.exists():
                print(f"{name}: {deviation(parsed(name, path.read_text()), parsed(name, text))}",
                      file=sys.stderr)
            path.write_text(text)


if __name__ == "__main__":
    regenerate()
