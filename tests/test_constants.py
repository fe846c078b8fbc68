import math
import time

import mpmath
import numpy as np
import pytest

from congaps import constants, primes, suite
from congaps.characters import build_character_table, totient
from congaps.errors import DomainError


def nonprincipal(q):
    return build_character_table(q).non_principal()


def test_l_one_closed_forms():
    assert abs(constants.l_one(3)[0] - math.pi / (3 * math.sqrt(3))) <= constants.L_TOL
    assert abs(constants.l_one(4)[0] - math.pi / 4) <= constants.L_TOL


@pytest.mark.parametrize("q", [*range(3, 61), 720, 840, 1009, 1024])
def test_l_one_against_digamma_identity(q):
    # L(1, chi) = -(1/q) sum_r chi(r) psi(r/q) for non-principal chi, with
    # psi from mpmath at 25 digits and chi from the character table: no FFT
    with mpmath.workdps(25):
        psi = np.array([float(mpmath.digamma(mpmath.mpf(r) / q)) for r in range(1, q)])
    want = np.array([-(chi.values()[1:] @ psi) / q for chi in nonprincipal(q)])
    assert np.abs(constants.l_one(q) - want).max() <= constants.L_TOL


def class_number(q):
    """h(-q) for a prime q = 3 mod 4 (q > 3): the reduced forms (a, b, c) of
    discriminant b^2 - 4ac = -q, |b| <= a <= c, counted in integers
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 5.3.5)."""
    h, b = 0, 1
    while 3 * b * b <= q:
        m = (b * b + q) // 4  # = ac
        a = b
        while a * a <= m:
            if m % a == 0:
                h += 1 if a == b or a * a == m else 2  # (a, +-b, c) distinct
            a += 1
        b += 2
    return h


@pytest.mark.parametrize("q", [7, 11, 23, 1019, 10007, 100003])
def test_l_one_class_number_formula(q):
    # L(1, (./q)) = pi h(-q) / sqrt(q); the Legendre symbol has exponent
    # (q - 1)/2 over a primitive root, so index (q - 1)/2 - 1 past chi_0
    got = constants.l_one(q)[(q - 1) // 2 - 1]
    assert abs(got - math.pi * class_number(q) / math.sqrt(q)) <= 1e-13


def test_class_number_known_values():
    assert [class_number(q) for q in (7, 11, 23, 47, 10007, 100003)] == [1, 1, 3, 5, 77, 39]


def test_l_one_conjugate_pair():
    vals = constants.l_one(5)
    # complex characters come in conjugate pairs, so the product is real
    prod = math.prod(vals, start=1 + 0j)
    assert abs(prod.imag) <= 1e-9
    assert prod.real > 0


def test_l_one_domain():
    # moduli with only the principal character, and moduli out of range
    for q in (-3, 0, 1, 2, 10**6 + 1):
        with pytest.raises(DomainError):
            constants.l_one(q)


def theta_oracle(q, table):
    # direct double sum over p and explicit exponents m >= 2 with
    # p^m = 1 mod q, no order collapse
    total = 0.0
    for p in table.primes:
        p = int(p)
        if q % p == 0 or p % q == 1:
            continue
        m, pm = 2, p * p
        while pm <= 10**18:
            if pm % q == 1:
                total += 1.0 / (m * pm)
            m += 1
            pm *= p
    return math.exp(-total)


def test_theta_against_double_sum(table5):
    for q in (3, 4, 5, 7, 12):
        got = constants.theta_at_one(q)
        # oracle truncation at 1e5 leaves a tail below sum p^-2 ~ 1e-5
        assert abs(got - theta_oracle(q, table5)) <= 1e-4


def theta_order_walk(q, tol):
    # log Theta(1) = sum_p log(1 - p^-d)/d, with the order d of each prime
    # found by walking its powers mod q
    log_theta = 0.0
    for p in primes.sieve_primes(max(100, math.ceil(2.0 / tol))).primes:
        p = int(p)
        if q % p == 0 or p % q == 1:
            continue
        d, x = 1, p % q
        while x != 1:
            x = x * p % q
            d += 1
        log_theta += math.log1p(-float(p) ** (-d)) / d
    return math.exp(log_theta)


@pytest.mark.parametrize("q", [991, 1009, 1024])
def test_theta_against_order_walk(q):
    got = constants.theta_at_one(q, tol=1e-3)
    assert got == pytest.approx(theta_order_walk(q, 1e-3), rel=1e-13)


def test_theta_frozen_values():
    assert constants.theta_at_one(3) == pytest.approx(0.8409407745122501, abs=1e-5)
    assert constants.theta_at_one(4) == pytest.approx(0.9252615822432513, abs=1e-5)


def test_theta_sieves_once_per_cutoff(monkeypatch):
    limits = []

    def counting_sieve(limit):
        limits.append(limit)
        return primes.sieve_primes(limit)

    monkeypatch.setattr(constants, "sieve_primes", counting_sieve)
    constants._primes_below.cache_clear()
    first = [constants.theta_at_one(q, tol=1e-4) for q in (3, 4, 5)]
    again = [constants.theta_at_one(q, tol=1e-4) for q in (3, 4, 5)]
    assert limits == [20000]
    assert first == again
    assert not constants._primes_below(20000).flags.writeable


def test_theta_range_and_domain():
    for q in range(3, 31):
        th = constants.theta_at_one(q, tol=1e-4)
        assert 0 < th <= 1
    with pytest.raises(DomainError):
        constants.theta_at_one(2)


def test_c_of_q_anchors():
    assert constants.c_of_q(1) == 1.0
    assert constants.c_of_q(2) == 0.5


def test_c_of_q_frozen_values():
    assert constants.c_of_q(3) == pytest.approx(0.5338924470281853, abs=1e-6)
    assert constants.c_of_q(4) == pytest.approx(0.5798217112030226, abs=1e-6)
    assert constants.c_of_q(5) == pytest.approx(0.7064948404398089, abs=1e-6)


def test_c_of_q_composition():
    # rebuild c(3) from its factors evaluated independently
    expect = constants.theta_at_one(3) * math.sqrt(
        (2.0 / 3.0) * math.pi / (3 * math.sqrt(3))
    )
    assert constants.c_of_q(3) == pytest.approx(expect, abs=1e-6)


def test_c_of_q_positive_small_moduli():
    for q in range(3, 31):
        assert constants.c_of_q(q, theta_tol=1e-4) > 0


def test_c_of_q_domain():
    for q in (0, -3):
        with pytest.raises(DomainError):
            constants.c_of_q(q)
        with pytest.raises(DomainError):
            constants.constants_bundle(q)


def test_gamma_recip_against_mpmath():
    for q in (3, 5, 7, 720, 1009):
        got = constants.constants_bundle(q).gamma_recip
        expect = mpmath.rgamma(mpmath.mpf(1) / totient(q))
        assert got == pytest.approx(float(expect), rel=1e-14), q


def test_bundle_contents():
    b = constants.constants_bundle(4)
    assert b.q == 4
    assert len(b.l_values) == totient(4) - 1
    assert b.l_values[0] == pytest.approx(math.pi / 4, abs=1e-8)
    assert b.l_values.dtype == complex and not b.l_values.flags.writeable
    assert b.theta1 == pytest.approx(constants.theta_at_one(4), abs=1e-9)
    assert b.c_q == pytest.approx(constants.c_of_q(4), abs=1e-6)
    assert b.gamma_recip == pytest.approx(1.0 / math.gamma(0.5), rel=1e-12)
    assert b.gamma_euler == pytest.approx(0.5772156649015329, abs=1e-15)


def test_bundle_small_moduli():
    assert constants.constants_bundle(1).c_q == 1.0
    b2 = constants.constants_bundle(2)
    assert b2.c_q == 0.5
    assert b2.theta1 is None
    assert b2.l_values.size == 0


def test_c_anchors_compute_theta_once_per_q(monkeypatch):
    calls = []

    def counting_theta(q, tol=1e-6):
        calls.append(q)
        return 0.5

    monkeypatch.setattr(constants, "theta_at_one", counting_theta)
    record = suite._check_c_anchors()
    assert sorted(calls) == list(range(3, 31))
    assert record["c_values"]["3"] == pytest.approx(
        0.5 * math.sqrt((2.0 / 3.0) * math.pi / (3 * math.sqrt(3))), abs=1e-8
    )


def test_bundle_q100003_time_budget():
    # 100,002 characters: one transform, and c(q) in log space
    start = time.perf_counter()
    b = constants.constants_bundle(100003)
    assert time.perf_counter() - start < 2.0
    assert len(b.l_values) == totient(100003) - 1
    assert math.isfinite(b.c_q) and b.c_q > 0


def test_q1009_time_budget():
    # one discrete-log table serves all 1008 characters, L(1, chi) and Theta(1)
    start = time.perf_counter()
    build_character_table(1009)
    assert time.perf_counter() - start < 5.0
    start = time.perf_counter()
    constants.constants_bundle(1009)
    assert time.perf_counter() - start < 5.0
