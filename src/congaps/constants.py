"""Numerical constants attached to a modulus q: L(1, chi) for the
non-principal characters, the prime-power correction factor Theta(1), the
Mertens-in-progression constant c(q), and 1/Gamma(1/phi(q)).

Every L(s, chi), s = 1, 2, 3, comes from one kernel and one transform:
q^-s zeta(s, r/q) from Euler-Maclaurin (at s = 1 the constant term
-psi(r/q)/q at the pole, DLMF 25.11), laid out on the discrete-log grid,
and one inverse FFT gives sum_r chi(r) q^-s zeta(s, r/q) for every chi.

Theta(1) sums its Euler factors at the primes p < M = THETA_SPLIT = 2^16
one by one, and gets the rest from log L(t, chi) at t = 2 and 3 (Languasco
and Zaccagnini, arXiv:0906.2132; Ettahri, Ramare and Surel, Math. Comp. 90,
2021). One path serves every q <= MAX_MODULUS, within THETA_TOL. numpy does
it all: this module loads no scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .characters import check_modulus, element_orders, totient, unit_group
from .errors import DomainError
from .primes import log_euler, sieve_primes

EULER_GAMMA = 0.5772156649015329
L_TOL = 1e-12  # bound on the rounding error of each L(1, chi) from l_one
THETA_SPLIT = 2**16  # M: Theta(1) takes its Euler factors at p < M one by one
THETA_TOL = 1e-13  # bound on the relative error of Theta(1), for every q <= MAX_MODULUS

_TAIL_T = (2, 3)  # the terms past t = 3 sum below sum_{p>=M} p^-4 = 1.04e-16
_EM_DIRECT = 9  # Hurwitz zeta terms summed directly before Euler-Maclaurin
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


@functools.lru_cache(maxsize=1)
def _unit_group(q: int):
    """unit_group(q), read-only, kept for the last q asked: the l_one and
    theta_at_one of one bundle share one build, which the bundle drops."""
    group = unit_group(q)
    for table in group[1:]:
        table.flags.writeable = False
    return group


def _hurwitz_zeta(s: int, r, q: int) -> np.ndarray:
    """q^-s zeta(s, r/q) = sum_{n>=0} (nq + r)^-s for an integer s >= 2,
    elementwise over the integers r in [1, q]; at s = 1, the constant term
    -psi(r/q)/q of its Laurent series at the pole.

    The terms n < N = _EM_DIRECT are summed directly, smallest first; each
    nq + r is an exact integer, so each term is one pow. The rest is
    Euler-Maclaurin at b = N + r/q, scaled by q^-s:
    (Nq + r)^-s (b/(s-1) + 1/2 + sum_{j=1}^{8} B_2j/(2j)! (s)_(2j-1) b^(1-2j)),
    where b/(s-1) becomes -b log b at s = 1, the constant term of
    b^(1-s)/(s-1).

    s >= 2: (Nq + r)^-s is completely monotone in b, so the remainder is
    below the first omitted term, B_18/18! (s)_17 b^(-s-17), which is 0.2 ulp
    of the sum at s = 2 and less for larger s. The tail, at most
    zeta(s, 10)/zeta(s) = 0.064 of the sum, is within 3.8 ulps (b's rounding
    0.56, the bracket's three 1.5, poly/b's 0.15, the pow 1, the product 0.5):
    0.25 ulp. With one pow per direct term (< 1 ulp) and nine additions of
    positive terms (<= 4.5 ulps), the result is within 5.95 ulps: 6.

    s = 1: the tail T = -psi(b)/q < 0 cancels against the direct terms, which
    sum to R + |T| for the result R = -psi(r/q)/q >= gamma/q; |T|/R is at most
    psi(10)/gamma = 3.90, at r = q. T is within 5 ulps (b's rounding, 0.56
    ulp, moves b psi(b) by 1.5 times that; the pow 1 ulp, the log 1 times
    1.03 for its cancellation against 1/2; four roundings 2), each direct
    term within 1, and the nine additions within half an ulp each of
    max(|T|, R), as the partial sums rise from T to R. So 6|T| + R +
    4.5 max(|T|, R) ulps of R, at most 42, and the remainder
    (B_18/18 b^-18/q) adds 0.16: within 43 ulps.
    """
    s = float(s)
    r = np.asarray(r, dtype=float)
    b = _EM_DIRECT + r / q
    w = b**-2
    terms, rising, fact = [], s, 2.0  # (s)_(2j-1) and (2j)! at j = 1
    for j, bernoulli in enumerate(_BERNOULLI, start=1):
        terms.append(bernoulli / fact * rising)
        rising = rising * (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
    poly = 0.0
    for c in reversed(terms):  # Horner in b^-2
        poly = poly * w + c
    lead = -b * np.log(b) if s == 1 else b / (s - 1)
    total = (_EM_DIRECT * q + r) ** -s * (lead + 0.5 + poly / b)
    for n in range(_EM_DIRECT - 1, -1, -1):
        total = total + (n * q + r) ** -s
    return total


def _l_values(group, q: int, s: int) -> np.ndarray:
    """L(s, chi) = sum_r chi(r) q^-s zeta(s, r/q) for every chi mod q, given
    q's unit group (orders, dlog, units): phi(q) * ifftn(F)[e], with
    F[x(r)] = _hurwitz_zeta(s, r, q) on the d_1 x ... x d_k discrete-log grid,
    is the sum for the character with exponent vector e. At s = 1, entry 0
    (chi_0) is no L-value."""
    orders, dlog, units = group
    r = np.flatnonzero(units)
    grid = np.zeros(orders)
    grid[tuple(dlog[r].T)] = _hurwitz_zeta(s, r, q)
    return r.size * np.fft.ifftn(grid)


def l_one(q: int) -> np.ndarray:
    """L(1, chi) for every non-principal chi mod q, in table order, within
    L_TOL: _l_values at s = 1, that is -(1/q) sum_r chi(r) psi(r/q).

    The inputs R = -psi(r/q)/q > 0 sum to S <= gamma + log q (Gauss's
    multiplication formula). With eps the machine epsilon, each is off by
    (24/q + 5.5 R) eps (_hurwitz_zeta's count, with |T| <= psi(10)/q), the
    transform adds 3 log2(phi) eps S (as for Theta(1)) and its scalings
    1.5 eps |L| <= 1.5 eps S: each L(1, chi) is within
    (24 phi/q + (7 + 3 log2 phi)(gamma + log q)) eps, 7.3e-15 at q = 3 and
    at most 2.2e-13 for q <= MAX_MODULUS."""
    check_modulus(q)
    return _l_values(_unit_group(q), q, 1).ravel()[1:]


@functools.cache
def _split_primes() -> np.ndarray:
    """The primes below THETA_SPLIT, sieved once per process (read-only)."""
    primes = sieve_primes(THETA_SPLIT - 1).primes
    primes.flags.writeable = False
    return primes


def theta_at_one(q: int) -> float:
    """Theta(1): exp of minus the double sum over primes p not dividing q
    with p not congruent to 1 mod q, and exponents m >= 2 with p^m
    congruent to 1 mod q.

    For such p with multiplicative order d (necessarily >= 2), the inner
    sum collapses to -(1/d) * log(1 - p^-d), so
    log Theta(1) = sum_p (1/d) * log(1 - p^-d); the order of p depends only
    on p mod q and is read from the discrete-log table. The sum is taken
    over the 6,542 primes p < M = THETA_SPLIT, and the primes above come
    from L-values (_theta_tail).

    THETA_TOL bounds the relative error for every q <= MAX_MODULUS. The
    truncation after t = 3 costs below sum_{p>=M} p^-4 = 1.04e-16. Each
    _hurwitz_zeta value is within 6 ulps, and each character sum of the
    transform within 3 log2(phi) ulps of the L(t, chi0) <= zeta(t) its
    terms sum to, while |L(t, chi)| >= zeta(2t)/zeta(t); so each
    log L(t, chi) is off by at most (zeta(t)^2/zeta(2t)) (7 + 3 log2 phi)
    ulps, counting the log, and each mean of them by log2(phi) ulps more.
    Two means enter with weight 1/t at each t = 2, 3: the weights
    (2/t) zeta(t)^2/zeta(2t) sum to 3.45 and the 2/t to 5/3, so the tail
    is off by at most 3.45 (7 + 3 log2 phi) + (5/3) log2 phi ulps, 263 at
    phi = 10^6. The Euler sums (pairwise, over terms of total size below
    1) and the exp add fewer than 40: 6.7e-14 in all.
    """
    check_modulus(q)
    group = _unit_group(q)
    orders, dlog, _ = group
    p = _split_primes()
    cls, inv = np.unique(p % q, return_inverse=True)  # one order per class that occurs
    d = element_orders(dlog[cls], orders)[inv]  # 1 for p = 1 mod q and for p | q
    return math.exp(log_euler(p[d > 1], d[d > 1]) + _theta_tail(q, group, p, d))


def _theta_tail(q: int, group, p: np.ndarray, d: np.ndarray) -> float:
    """log Theta(1)'s sum over the primes >= M = THETA_SPLIT, given the
    primes p < M and their orders d (1 for p | q and for p = 1 mod q).

    With 1[p^m = 1] = (1/phi) sum_chi chi^m(p), the sum is
    -sum_{m>=2} (1/(m phi)) sum_chi [P_M(m, chi^m) - P_M(m, chi)], where
    P_M(s, psi) = sum_{p>=M} psi(p) p^-s is log L_M(s, psi) up to its
    prime-square terms, below sum_{p>=M} p^-2s, and L_M is L with its
    Euler factors at p < M divided out. Kept to m = t = 2, 3:
    -sum_t (1/t) [A_t(t) - A_t(1)], with A_t(j) the mean over chi of
    log L_M(t, chi^j), of size M^-t.

    log L(t, chi) for every chi comes from one grid transform (_l_values)
    per t. chi -> chi^t maps the exponent vectors onto the multiples of
    gcd(t, d_i) on each axis, evenly, so the mean over chi of
    log L(t, chi^t) is the mean over that strided subgrid. The Euler factor
    at p takes the values chi^j(p), which run evenly over the roots of unity
    of order d_j = d / gcd(d, j), so its mean over chi is
    log(1 - p^(-t d_j)) / d_j: one term per prime. t is prime, so
    d_t = d_1 = d unless t | d, and only those primes enter.
    """
    orders = group[0]
    total = 0.0
    for t in _TAIL_T:
        # the real part of log L: the means are real
        log_l = np.log(np.abs(_l_values(group, q, t)))
        powers = log_l[tuple(slice(None, None, math.gcd(t, n)) for n in orders)]
        pt, dt = p[d % t == 0], d[d % t == 0]
        euler = t * (log_euler(pt, dt) - log_euler(pt, t * dt))
        total += (float(powers.mean()) - float(log_l.mean()) + euler) / t
    return -total


def c_of_q(q: int) -> float:
    """The Mertens-in-progression constant c(q), as constants_bundle forms it."""
    return constants_bundle(q).c_q


@dataclass(frozen=True)
class ConstantsBundle:
    """Everything the asymptotic predictions for one modulus need."""

    q: int
    l_values: np.ndarray  # read-only complex, one per non-principal chi, table order
    theta1: float | None  # None for q = 1, 2
    c_q: float
    gamma_recip: float  # 1 / Gamma(1/phi(q))


def constants_bundle(q: int) -> ConstantsBundle:
    """Build the constants for modulus q.

    c(1) = 1 and c(2) = 1/2 are fixed; for q >= 3,
    c(q) = Theta(1) * ((phi(q)/q) * prod_{chi != chi0} L(1, chi))^(1/phi(q)),
    taking the real positive phi(q)-th root, formed in log space (the
    product of 10^5 values overflows).
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    # Theta(1) first: it checks q before totient factors it, and ahead of l_one peaks 3.5 MB lower
    theta1 = theta_at_one(q) if q >= 3 else None
    phi_q = totient(q)
    l_values = np.empty(0, dtype=complex)
    c_q = 1.0 if q == 1 else 0.5
    if q >= 3:
        l_values = l_one(q)
        _unit_group.cache_clear()  # built once for both, and held no longer
        phase = math.remainder(float(np.angle(l_values).sum()), 2 * math.pi)
        if abs(phase) > 1e-9:
            raise DomainError(
                f"L(1, chi) product for q={q} is not real positive: argument {phase}"
            )
        log_prod = float(np.log(np.abs(l_values)).sum())
        c_q = theta1 * math.exp((math.log(phi_q / q) + log_prod) / phi_q)
    l_values.flags.writeable = False
    return ConstantsBundle(
        q=q,
        l_values=l_values,
        theta1=theta1,
        c_q=c_q,
        gamma_recip=1.0 / math.gamma(1.0 / phi_q),
    )
