import json
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congaps import cli, constants, primes, suite
from congaps.characters import MAX_MODULUS, build_character_table, totient, unit_group
from congaps.errors import DomainError


EPS = float(np.finfo(float).eps)


def nonprincipal(q):
    return build_character_table(q).characters[1:]


def l_one_bound(q):
    # l_one's derived error bound (its docstring): each -psi(r/q)/q within
    # (24/q + 5.5 R) eps, and the transform within (7 + 3 log2 phi) eps of
    # their sum, at most gamma + log q
    phi = totient(q)
    return EPS * (24 * phi / q + (7 + 3 * math.log2(phi)) * (constants.EULER_GAMMA + math.log(q)))


def test_l_one_closed_forms():
    # each closed form is within 2 eps of itself: pi and three roundings
    for q, want in ((3, math.pi / (3 * math.sqrt(3))), (4, math.pi / 4)):
        assert abs(constants.l_one(q)[0] - want) <= l_one_bound(q) + 2 * EPS * want


@pytest.mark.parametrize("q", [*range(3, 61), 720, 840, 1009, 1024])
def test_l_one_against_digamma_identity(q):
    # L(1, chi) = -(1/q) sum_r chi(r) psi(r/q) for non-principal chi, with
    # psi from mpmath at 25 digits and chi from the character table, summed
    # exactly by fsum: no FFT. chi's float phase 2 pi k/m is off by at most
    # 1.5 eps 2 pi, so each chi(r) by 10.5 eps; psi and each product add 1,
    # and the sum and the division 1 of |L|: within 13 eps (gamma + log q)
    with mpmath.workdps(25):
        psi = np.array([float(mpmath.digamma(mpmath.mpf(r) / q)) for r in range(1, q)])
    want = []
    for chi in nonprincipal(q):
        terms = chi.values()[1:] * psi
        want.append(-complex(math.fsum(terms.real), math.fsum(terms.imag)) / q)
    oracle = 13 * EPS * (constants.EULER_GAMMA + math.log(q))
    assert np.abs(constants.l_one(q) - want).max() <= l_one_bound(q) + oracle


@pytest.mark.parametrize("q", [10007, 99991])
def test_l_one_against_scipy_digamma_route(q):
    # the route before Gauss's theorem: psi(r/q) from scipy.special.digamma
    # laid on the same discrete-log grid. Each input is within 4 eps R (r/q's
    # rounding moves psi by at most 2.85 times its half eps, scipy's own
    # evaluation 2, the division by q a half), inside l_one's (24/q + 5.5 R)
    # eps, and the transform is the same: the oracle is within l_one_bound too
    from scipy.special import digamma
    orders, dlog, units = unit_group(q)
    r = np.flatnonzero(units)
    grid = np.zeros(orders)
    grid[tuple(dlog[r].T)] = -digamma(r / q) / q
    want = len(r) * np.fft.ifftn(grid).ravel()[1:]
    assert np.abs(constants.l_one(q) - want).max() <= 2 * l_one_bound(q)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 60, 1009, 1024])
def test_l_values_principal_entry(q):
    # entry 0 of the s = 1 transform, which l_one drops, is
    # -(1/q) sum_{(r,q)=1} psi(r/q): a sum of positive inputs, so the s = 1
    # lead term of _hurwitz_zeta does not cancel in it as it does in every
    # non-principal sum. It is within l_one_bound too. unit_group, not the
    # cached _unit_group, leaves the count in test_bundle_builds_unit_group_once
    got = constants._l_values(unit_group(q), q, 1).ravel()[0]
    with mpmath.workdps(40):
        units = [r for r in range(1, q) if math.gcd(r, q) == 1]
        want = -sum(mpmath.digamma(mpmath.mpf(r) / q) for r in units) / q
        assert abs(mpmath.mpc(got) - want) <= l_one_bound(q)


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


@pytest.mark.parametrize("q", [7, 11, 23, 1019, 10007, 100003, 999983])
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
    for q in (-3, 0, 1, 2, 10**6 + 1, 2**32, 10**18 + 3):
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


# _hurwitz_zeta's stated bounds (its docstring): for s >= 2, one pow per
# direct term, nine additions of positive terms, the tail's roundings (b's
# and the bracket's) and the Euler-Maclaurin remainder;
# at s = 1, the same roundings scaled by the cancellation of the negative
# tail against the direct terms, worst at r = q
HURWITZ_ULPS = 6
HURWITZ_ULPS_AT_ONE = 43
LANDAU_RAMANUJAN = "0.764223653589220662990698731250092328116790541"


def hurwitz_cases():
    # s = 2..9, then s = 1, against moduli from 1 (zeta(s) itself) to near
    # MAX_MODULUS, at both ends of r, the middle and a seeded sample; s = 1
    # adds r = 2 and q - 2, next to the ends
    rng = np.random.default_rng(5)
    cases = {q: np.unique([1, q, max(1, q - 1), max(1, q // 2), *rng.integers(1, q + 1, 8)])
             for q in (1, 2, 3, 4, 7, 30, 1009, 16381, 999983)}
    for q, r in cases.items():
        for s in range(2, 10):
            yield s, q, r
    for q, r in cases.items():
        yield 1, q, np.unique([*r, min(2, q), max(1, q - 2)])


def hurwitz_ulps(s, q, r):
    # _hurwitz_zeta's relative deviation in ulps from q^-s zeta(s, r/q) at 30
    # digits, and at s = 1 from the constant term -psi(r/q)/q of its Laurent
    # series at the pole
    got = constants._hurwitz_zeta(s, r, q)
    with mpmath.workdps(30):
        x = [mpmath.mpf(int(k)) / q for k in r]
        want = ([-mpmath.digamma(a) / q for a in x] if s == 1
                else [mpmath.zeta(s, a) / mpmath.mpf(q) ** s for a in x])
        return np.array([float(abs(g / w - 1)) for g, w in zip(got, want)]) / EPS


@pytest.mark.parametrize("s, q, r", hurwitz_cases())
def test_hurwitz_zeta_against_mpmath(s, q, r):
    ulps = hurwitz_ulps(s, q, r)
    assert np.all(ulps <= (HURWITZ_ULPS_AT_ONE if s == 1 else HURWITZ_ULPS)), ulps.max()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, MAX_MODULUS).flatmap(lambda q: st.tuples(st.just(q), st.integers(1, q))))
def test_hurwitz_zeta_at_one_property(qr):
    q, r = qr
    assert hurwitz_ulps(1, q, [r])[0] <= HURWITZ_ULPS_AT_ONE


@pytest.mark.parametrize("q", [1, 3, 4, 30, 1009, 16381])
def test_hurwitz_zeta_against_scipy(q):
    # scipy takes a = r/q rounded, which moves zeta(s, a) by up to s/2 ulps;
    # q^-s and the product add 1.5, scipy's own evaluation 2
    from scipy.special import zeta
    r = np.arange(1, q + 1)
    for s in range(2, 10):
        want = zeta(s, r / q) * float(q) ** -s
        rel = np.abs(constants._hurwitz_zeta(s, r, q) / want - 1)
        assert np.all(rel <= (HURWITZ_ULPS + s / 2 + 3.5) * EPS), (s, rel.max() / EPS)


def test_theta_q4_landau_ramanujan():
    # Theta(1) mod 4 = prod_{p = 3 mod 4} (1 - p^-2)^(1/2) = 1/(sqrt 2 K)
    with mpmath.workdps(30):
        want = 1 / (mpmath.sqrt(2) * mpmath.mpf(LANDAU_RAMANUJAN))
        assert abs(constants.theta_at_one(4) - want) <= 4 * mpmath.mpf(EPS) / 2 * want


def theta_mpmath(q, split=50, dps=30):
    """Theta(1) at dps digits, from its classes: log Theta(1) is the sum over
    p < split of log(1 - p^-d)/d, minus sum_{m>=2} (1/m) sum_a S(m, a) over
    the units a != 1 with a^m = 1, where S(s, a) = sum_{p>=split, p=a} p^-s
    = (1/phi) sum_chi conj(chi(a)) sum_k mu(k)/k log L_split(ks, chi^k), with
    each L(s, chi) a sum of mpmath Hurwitz zetas and chi(n) from its exact
    turn. The orders come from walking powers; the split and the sum over
    classes differ from the program's."""
    table = build_character_table(q)
    chars, orders = table.characters, table.orders
    units = [r for r in range(1, q) if math.gcd(r, q) == 1]
    small = [p for p in range(2, split) if q % p and all(p % k for k in range(2, p))]

    def order(a):
        d, x = 1, a % q
        while x != 1:
            x, d = x * a % q, d + 1
        return d

    with mpmath.workdps(dps):
        def value(c, n):
            t = c.turn(n)
            return mpmath.expjpi(2 * mpmath.mpf(t.numerator) / t.denominator)

        chi = {(i, n): value(c, n) for i, c in enumerate(chars)
               for n in {*units, *(p % q for p in small)}}
        tmax = int(dps / math.log10(split)) + 1  # split^-tmax < 10^-dps
        zeta = {(t, r): mpmath.zeta(t, mpmath.mpf(r) / q) / mpmath.mpf(q) ** t
                for t in range(2, tmax + 1) for r in units}
        log_lm = {(t, i): mpmath.log(mpmath.fsum(chi[i, r] * zeta[t, r] for r in units))
                  + mpmath.fsum(mpmath.log(1 - chi[i, p % q] * mpmath.mpf(p) ** -t) for p in small)
                  for t in range(2, tmax + 1) for i in range(len(chars))}
        index = {c.exponents: i for i, c in enumerate(chars)}
        mobius = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0}

        def prime_sum(s, i):  # sum_{p >= split} chi_i(p) p^-s
            return mpmath.fsum(
                mpmath.mpf(mobius[k]) / k * log_lm[k * s, index[tuple(
                    e * k % d for e, d in zip(chars[i].exponents, orders))]]
                for k in range(1, tmax // s + 1) if mobius[k])

        def class_sum(s, a):
            return mpmath.fsum(mpmath.conj(chi[i, a]) * prime_sum(s, i)
                               for i in range(len(chars))) / len(chars)

        head = mpmath.fsum(mpmath.log(1 - mpmath.mpf(p) ** -order(p)) / order(p)
                           for p in small if order(p) > 1)
        tail = mpmath.fsum(class_sum(m, a) / m for m in range(2, tmax + 1)
                           for a in units if a != 1 and pow(a, m, q) == 1)
        return float(mpmath.exp(mpmath.re(head - tail)))


# q = 7, 9 and 13 have units of order 3: dropping the t = 3 tail term moves
# Theta(1) by 1.1e-12, 1.1e-12 and 5.5e-13. abs=0, as approx's default
# absolute tolerance, 1e-12, would hide the last.
@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 12, 13, 30])
def test_theta_against_mpmath_classes(q):
    assert constants.theta_at_one(q) == pytest.approx(theta_mpmath(q), rel=constants.THETA_TOL,
                                                      abs=0)


WALK_ORDERS = 64  # orders walked; the primes of higher order give below 2^-64 in all


def theta_order_walk(q, cutoff):
    """Theta(1) truncated at the primes <= cutoff: sum_p log(1 - p^-d)/d,
    with the order d of each prime found by walking its powers mod q, up
    to WALK_ORDERS; the primes of higher order are left out."""
    p = primes.sieve_primes(cutoff).primes
    p = p[(q % p != 0) & (p % q != 1)]
    d, x = np.zeros_like(p), p % q
    for k in range(1, WALK_ORDERS + 1):
        d[(d == 0) & (x == 1)] = k
        x = x * p % q
    p, d = p[d > 0], d[d > 0]
    return math.exp(math.fsum(np.log1p(-p.astype(float) ** -d.astype(float)) / d))


def walk_tail(q, cutoff):
    """A bound on log(walk / Theta(1)) >= 0, the terms the walk leaves out.
    Past the cutoff P, the primes of order 2 lie in the n2 - 1 classes of
    the units x != 1 with x^2 = 1, each giving at most
    (1/2)(1/P^2 + 1/(qP))(1 + 2/P^2); those of order >= 3 at most
    (1/3)(1/P^3 + 1/(2P^2))(1 + 2/P^3). The primes of order above
    WALK_ORDERS give at most sum_p p^-65 < 2^-64."""
    x = np.arange(1, q)
    n2 = np.count_nonzero((np.gcd(x, q) == 1) & (x * x % q == 1))
    P = cutoff
    return ((n2 - 1) * (1 / P**2 + 1 / (q * P)) / 2 * (1 + 2 / P**2)
            + (1 / P**3 + 1 / (2 * P**2)) / 3 * (1 + 2 / P**3) + 2.0**-WALK_ORDERS)


def assert_within_walk(q, cutoff, got):
    # the walk omits negative terms only: walk >= Theta(1), by at most its tail
    dev = theta_order_walk(q, cutoff) / got - 1
    slack = constants.THETA_TOL + 1e-15  # got's own bound; the walk's rounding
    assert -slack <= dev <= math.expm1(walk_tail(q, cutoff)) + slack, (q, dev)


@pytest.mark.parametrize("q", [3, 5, 7, 8, 12, 30, 210, 840, 991, 1009, 1024,
                               16381, 16411, 99991, 999983])
def test_theta_against_order_walk(q):
    # to 10^6 the bracket is 1.2e-12 wide at q = 999983
    assert_within_walk(q, 10**6, constants.theta_at_one(q))


def test_theta_frozen_values():
    # theta_mpmath(3) and theta_mpmath(4) to 20 digits
    # abs=0: approx's default absolute tolerance, 1e-12, is ten times THETA_TOL
    tol = dict(rel=constants.THETA_TOL, abs=0)
    assert constants.theta_at_one(3) == pytest.approx(0.84094076770909818355, **tol)
    assert constants.theta_at_one(4) == pytest.approx(0.92526157475704862263, **tol)


@settings(max_examples=10, deadline=None)
@given(st.integers(3, MAX_MODULUS))
def test_theta_property(q):
    # one path up to MAX_MODULUS: within (0, 1) and within the order walk's
    # tail at 10^5, with THETA_TOL to spare on the low side
    got = constants.theta_at_one(q)
    assert 0 < got < 1
    assert_within_walk(q, 10**5, got)


@pytest.mark.parametrize("q", [4, 16411, 99991])
def test_constants_reports_theta_tol(q, capsys):
    # one bound for every q, on either side of phi(q) = 2^14
    assert cli.main(["constants", "--q", str(q)]) == 0
    assert json.loads(capsys.readouterr().out)["tolerances"]["theta_tol"] == constants.THETA_TOL


def test_theta_sieves_split_primes_once(monkeypatch, tmp_path):
    # at most once per process, read-only, and never through the prime
    # cache: a mertens run under $CONGAPS_CACHE_DIR writes its own file only
    limits = []

    def counting_sieve(limit):
        limits.append(limit)
        return primes.sieve_primes(limit)

    monkeypatch.setattr(constants, "sieve_primes", counting_sieve)
    monkeypatch.setenv(primes.CACHE_ENV, str(tmp_path))
    constants._split_primes.cache_clear()
    first = [constants.theta_at_one(q) for q in (3, 4, 5, 16411)]
    assert cli.main(["mertens", "--q", "3", "--x", "1000", "--out", str(tmp_path / "out.json")]) == 0
    again = [constants.theta_at_one(q) for q in (3, 4, 5, 16411)]
    assert limits == [constants.THETA_SPLIT - 1]
    assert first == again
    split = constants._split_primes()
    assert split.size == 6542 and split[-1] < constants.THETA_SPLIT <= primes.next_prime(int(split[-1]))
    assert not split.flags.writeable
    assert sorted(f.name for f in tmp_path.iterdir()) == ["out.json", "primes_1000.bin"]


def test_bundle_builds_unit_group_once(monkeypatch):
    # l_one and theta_at_one share one read-only discrete-log table
    calls = []

    def counting_group(q):
        calls.append(q)
        return unit_group(q)

    monkeypatch.setattr(constants, "unit_group", counting_group)
    constants._unit_group.cache_clear()
    constants.constants_bundle(16411)
    assert calls == [16411]
    assert constants._unit_group.cache_info().currsize == 0  # held no longer than the bundle
    _, dlog, units = constants._unit_group(16411)
    assert not dlog.flags.writeable and not units.flags.writeable


def test_theta_range_and_domain():
    for q in range(3, 31):
        th = constants.theta_at_one(q)
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
        assert constants.c_of_q(q) > 0


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
        assert got == pytest.approx(float(expect), rel=1e-14, abs=0), q


def test_bundle_contents():
    b = constants.constants_bundle(4)
    assert b.q == 4
    assert len(b.l_values) == totient(4) - 1
    assert b.l_values[0] == pytest.approx(math.pi / 4, abs=1e-8)
    assert b.l_values.dtype == complex and not b.l_values.flags.writeable
    assert b.theta1 == pytest.approx(constants.theta_at_one(4), abs=1e-9)
    assert b.c_q == pytest.approx(constants.c_of_q(4), abs=1e-6)
    assert b.gamma_recip == pytest.approx(1.0 / math.gamma(0.5), rel=1e-12)
    assert constants.EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-15)


def test_bundle_small_moduli():
    assert constants.constants_bundle(1).c_q == 1.0
    b2 = constants.constants_bundle(2)
    assert b2.c_q == 0.5
    assert b2.theta1 is None
    assert b2.l_values.size == 0


def test_c_anchors_compute_theta_once_per_q(monkeypatch):
    calls = []

    def counting_theta(q):
        calls.append(q)
        return 0.5

    monkeypatch.setattr(constants, "theta_at_one", counting_theta)
    # the whole battery: the Mertens and Lemma 3.3 checks read the same bundles
    record = next(r for r in suite.run_suite("small") if r["name"] == "c_of_q_anchors")
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
