"""Acceptance battery: one test per criterion, so `pytest -v` prints one
pass/fail line for each.  The large-scale criteria share the session-scoped
1e7 prime table; everything else is self-contained."""

import json
import math
import time

import numpy as np
import pytest

from congaps import (
    asymptotics,
    census,
    characters,
    constants,
    contour,
    shiu,
    suite,
)


def test_criterion_01_character_orthogonality():
    start = time.perf_counter()
    for q in range(3, 51):
        table = characters.build_character_table(q)
        for n in range(1, q + 1):
            exact = characters.orthogonality_sum(table, n)
            expect = table.phi_q if n % q == 1 else 0
            assert exact == complex(expect), (q, n)
            approx = sum(chi(n) for chi in table.characters)
            assert abs(approx - expect) <= 1e-9, (q, n)
    assert time.perf_counter() - start < 5.0


def test_criterion_02_l_one_closed_forms():
    start = time.perf_counter()
    (l3,) = constants.l_one(3)
    (l4,) = constants.l_one(4)
    assert abs(l3 - math.pi / (3 * math.sqrt(3))) <= 1e-8
    assert abs(l4 - math.pi / 4) <= 1e-8
    assert time.perf_counter() - start < 5.0


def test_criterion_03_c_of_q_anchors():
    assert constants.c_of_q(1) == 1.0
    assert constants.c_of_q(2) == 0.5
    for q in range(3, 31):
        assert constants.c_of_q(q, theta_tol=1e-4) > 0, q
        assert 0 < constants.theta_at_one(q, tol=1e-4) <= 1, q


def test_criterion_04_mertens_in_progression(table7):
    start = time.perf_counter()
    for q in (3, 4, 5):
        bundle = constants.constants_bundle(q)
        devs = []
        for X in (10**4, 10**7):
            ratio = asymptotics.mertens_ap_product(q, X, table7) / \
                asymptotics.mertens_prediction(q, X, bundle)
            devs.append(abs(ratio - 1.0))
        assert devs[1] <= 0.05, (q, devs)
        assert devs[1] < devs[0], (q, devs)
    assert time.perf_counter() - start < 60.0


def test_criterion_05_restricted_count(table7, spf5):
    start = time.perf_counter()
    for q, Y in ((3, 1), (3, 10), (4, 1)):
        bundle = constants.constants_bundle(q)
        ratios = []
        for X in (10**4, 10**7):
            ratios.append(
                asymptotics.count_restricted(X, q, Y, table7)
                / asymptotics.lemma33_prediction(X, q, Y, bundle, table7)
            )
        assert 0.8 <= ratios[1] <= 1.2, (q, Y, ratios)
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0), (q, Y, ratios)
    # exact agreement with the per-n factorization oracle for all X <= 1e5
    members = asymptotics.enumerate_restricted(10**5, 3, 1, table7)
    oracle = [
        n for n in range(1, 10**5 + 1)
        if all(p % 3 == 1 for p in spf5.factor(n))
    ]
    assert members == oracle
    assert time.perf_counter() - start < 120.0


def test_criterion_06_hankel_quadrature():
    start = time.perf_counter()
    X = math.exp(20)
    for beta in (0.5, 1.0 / 3.0, 0.25):
        params = contour.default_params(X, beta, eta=0.6)
        closed = contour.hankel_closed_form(X, beta)
        rel = abs(contour.hankel_main(params) - closed) / closed
        assert rel <= 1e-4, (beta, rel)
    for theta in (1.0 / 6.0, 1.0 / 3.0, 0.5):
        assert contour.gamma_reflection_check(theta) <= 1e-10, theta
    assert abs(contour.residue_circle(X) - X) / X <= 1e-8
    assert time.perf_counter() - start < 30.0


def test_criterion_07_effective_perron():
    start = time.perf_counter()
    coeffs = [1.0] * 20
    errs = []
    for T in (1e2, 1e3, 1e4, 1e5):
        _, partial, err = contour.perron_check(coeffs, 10.5, T, 1.1)
        assert partial == 10.0
        errs.append(abs(err))
    increases = sum(1 for a, b in zip(errs, errs[1:]) if b > a)
    assert increases <= 1, errs
    assert errs[-1] <= 0.5, errs
    assert time.perf_counter() - start < 60.0


def test_criterion_08_shiu_construction(table5):
    start = time.perf_counter()
    for H in (10**4, 10**5):
        for q, a in ((3, 1), (3, 2), (4, 1), (4, 3), (6, 1), (6, 5)):
            con = shiu.build_construction(H, q, a, 1, table5)
            sets = shiu.compute_S_T(con)
            # brute-force oracle: strike multiples of every modulus prime
            keep = np.ones(H + 1, dtype=bool)
            keep[0] = False
            for p in con.modulus_primes():
                keep[p::p] = False
            h = np.arange(H + 1)
            brute_s = int(np.count_nonzero(keep & (h % q == a % q)))
            brute_t = int(np.count_nonzero(keep)) - brute_s
            assert (sets.S_count, sets.T_count) == (brute_s, brute_t), (H, q, a)
            # all primes up to log H belong to the engineered set
            sp = set(con.script_p.tolist())
            for p in table5.primes[table5.primes <= math.log(H)]:
                assert int(p) in sp, (H, q, a, int(p))
            # outcomes are reported, never asserted, for the asymptotic
            # inequalities themselves
            rep = shiu.lemma34_check(con, sets)
            assert rep.params["regime"] in (
                "ok", "asymptotic regime not reached"
            )
            tb = shiu.t_bound_report(con, sets)
            assert tb.passed is None and tb.ratio > 0
    # rejection of invalid removed primes
    with pytest.raises(Exception):
        shiu.build_construction(10**4, 3, 1, 8, table5)
    with pytest.raises(Exception):
        shiu.build_construction(10**5, 3, 1, 7, table5)
    assert time.perf_counter() - start < 120.0


def test_criterion_09_census(table5, table7):
    start = time.perf_counter()
    res = census.find_congruent_pairs(10**5, 3, 2, 2.0, table5)

    def trial_is_prime(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    recount = 0
    prev, n = 2, 3
    while prev <= 10**5:
        while not trial_is_prime(n):
            n += 1
        if prev % 3 == 2 and n % 3 == 2 and (n - prev) < 2.0 * math.log(prev):
            recount += 1
        prev, n = n, n + 1
    assert res.pair_count == recount

    for p, nxt in res.pairs:
        assert trial_is_prime(p) and trial_is_prime(nxt)
        assert all(not trial_is_prime(m) for m in range(p + 1, nxt))
        assert p % 3 == 2 and nxt % 3 == 2
        assert (nxt - p) < 2.0 * math.log(p)

    big = census.find_congruent_pairs(10**7, 3, 2, 2.0, table7, keep_pairs=False)
    assert big.pair_count >= res.pair_count
    wide = census.find_congruent_pairs(10**5, 3, 2, 3.0, table5, keep_pairs=False)
    assert wide.pair_count >= res.pair_count
    assert time.perf_counter() - start < 60.0


def test_criterion_10_suite_determinism():
    first = suite.run_suite("small")
    second = suite.run_suite("small")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert all(record["ok"] for record in first)
