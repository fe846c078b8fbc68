"""Self-tests of the benchmark's checks: each accepts a real congaps report
at a small size and rejects a perturbed copy of it.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent


def congaps(*argv) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CONGAPS_CACHE_DIR", None)
    out = subprocess.run([sys.executable, "-m", "congaps.cli", *map(str, argv)],
                         capture_output=True, text=True, env=env, cwd=ROOT, check=True)
    return checks.strict_json(out.stdout)


@pytest.fixture(scope="module")
def primes():
    return checks.sieve(10**7)


def rejects(check, report, primes, **params) -> bool:
    try:
        check(report, primes, **params)
    except checks.CheckFailed:
        return True
    return False


def bump_real(report, index, delta):
    out = copy.deepcopy(report)
    out["l_values"][index][0] += delta
    return out


def drop_last(report):
    out = copy.deepcopy(report)
    out["l_values"].pop()
    return out


def nudge_complex(report):
    out = copy.deepcopy(report)
    k = next(i for i, (_, im) in enumerate(out["l_values"]) if abs(im) > 1e-3)
    out["l_values"][k][1] += 1e-4
    return out


def negate_real(report):
    """Negate one real value; 7, 32 and 60 each have an odd number of real
    non-principal characters, so the product turns negative."""
    out = copy.deepcopy(report)
    k = next(i for i, (_, im) in enumerate(out["l_values"]) if abs(im) < 1e-12)
    out["l_values"][k][0] *= -1
    return out


def scale(key, factor):
    def perturb(report):
        out = copy.deepcopy(report)
        out[key] *= factor
        return out
    return perturb


CONSTANTS_PERTURBATIONS = {
    checks.constants_length: drop_last,
    checks.constants_conjugate: nudge_complex,
    checks.constants_digamma_sum: lambda r: bump_real(r, 0, 1e-4),
    checks.constants_product_positive: negate_real,
    checks.constants_c_q: scale("c_q", 1 + 1e-6),
    checks.constants_theta: scale("theta1", 1 + 1e-4),
    checks.constants_gamma: scale("gamma_recip", 1 + 1e-9),
}


@pytest.mark.parametrize("q", [7, 32, 60])
def test_constants_checks(q, primes):
    report = congaps("constants", "--q", q)
    checks.constants(report, primes, q)
    for check, perturb in CONSTANTS_PERTURBATIONS.items():
        assert rejects(check, perturb(report), primes, q=q), check.__name__


def test_theta_matches_a_direct_loop(primes):
    q = 7
    log_theta = 0.0
    for p in primes.upto(10**5).tolist():
        if q % p and p % q != 1:
            d = next(d for d in range(2, q) if pow(p, d, q) == 1)
            log_theta += math.log1p(-float(p) ** -d) / d
    # the two sums differ by the tail between 10^5 and 10^7, below 2 / 10^5
    assert checks.theta_one(q, primes) == pytest.approx(math.exp(log_theta), abs=2e-5)


def test_mertens_check(primes):
    report = congaps("mertens", "--q", 3, "--x", 10**5)
    checks.mertens(report, primes, q=3, x=10**5)
    assert rejects(checks.mertens, scale("actual", 1 + 1e-8)(report), primes, q=3, x=10**5)


def test_count_check(primes):
    report = congaps("count", "--q", 3, "--x", 10**5, "--y", 10.0)
    checks.count(report, primes, q=3, x=10**5, y=10.0)
    bad = dict(report, actual=report["actual"] + 1)
    assert rejects(checks.count, bad, primes, q=3, x=10**5, y=10.0)


def test_restricted_count_matches_factoring(primes):
    x = 3000
    want = sum(1 for n in range(1, x + 1)
               if all(p % 3 == 1 and p > 10 for p in primes.upto(n).tolist() if n % p == 0))
    assert checks.restricted_count(primes, 3, x, 10.0) == want


def test_census_check(primes):
    params = dict(q=3, a=2, x=10**5, eps=2.0)
    report = congaps("census", "--q", 3, "--a", 2, "--x", 10**5, "--epsilon", 2.0)
    checks.census(report, primes, **params)
    assert rejects(checks.census, dict(report, pair_count=report["pair_count"] - 1),
                   primes, **params)
    swapped = dict(report, sample_pairs=report["sample_pairs"][::-1])
    assert rejects(checks.census, swapped, primes, **params)


@pytest.mark.parametrize("a", [1, 2])
def test_shiu_check(a, primes):
    report = congaps("shiu", "--h", 10**4, "--q", 3, "--a", a)
    checks.shiu(report, primes, h=10**4, q=3, a=a)
    for key in ("P_size", "S_count", "T_count"):
        bad = dict(report, **{key: report[key] + 1})
        assert rejects(checks.shiu, bad, primes, h=10**4, q=3, a=a), key


def test_suite_check(primes):
    report = congaps("suite", "--scale", "small")
    report["scale"] = "full"  # the checks it recounts run at the same size on both scales
    checks.suite(report, primes)
    failing = copy.deepcopy(report)
    failing["checks"][3]["ok"] = False
    census = copy.deepcopy(report)
    census["checks"][-1]["pair_count"] += 1
    shiu = copy.deepcopy(report)
    next(iter(shiu["checks"][8]["cases"].values()))["S"] += 1
    missing = dict(report, checks=report["checks"][:-1])
    for bad in (failing, census, shiu, missing):
        assert rejects(checks.suite, bad, primes)


def test_sieved_tables(primes):
    checks.sieved_tables([(10**6, 78498)], primes)
    assert rejects(checks.sieved_tables, [(10**6, 78497)], primes)


def test_strict_json_rejects_nan():
    with pytest.raises(ValueError):
        checks.strict_json('{"bound_shiu": NaN}')


def test_sieve_counts():
    assert checks.sieve(10**6).array.size == 78498
    assert checks.sieve(2).array.tolist() == [2]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    traced = {m for _, _, t, c, _ in tracing.TRACED for m in (t, c) if m}
    assert traced <= set(tracing.PER_LAYER)
