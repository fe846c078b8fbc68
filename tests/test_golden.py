"""Golden reports: each case runs one subcommand through cli.main and
compares its report with the file committed under tests/golden/, exactly,
after dropping wall_time_ms (the only field that varies between runs).

A change that moves a float on purpose regenerates the goldens with

    PYTHONPATH=src python tests/test_golden.py

and records the largest deviation it caused.
"""

import json
import os
import pathlib
import sys

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
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv(primes.CACHE_ENV, raising=False)
    golden = (GOLDEN / name).read_text()
    want = golden if name.endswith(".csv") else json.loads(golden)
    assert report(name, tmp_path / name) == want


def regenerate() -> None:
    os.environ.pop(primes.CACHE_ENV, None)
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        got = report(name, GOLDEN / name)
        if not name.endswith(".csv"):
            (GOLDEN / name).write_text(json.dumps(got, indent=1) + "\n")
        print(f"wrote {GOLDEN / name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
