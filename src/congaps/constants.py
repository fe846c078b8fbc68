"""Numerical constants attached to a modulus q: L(1, chi) for the
non-principal characters, the prime-power correction factor Theta(1), the
Mertens-in-progression constant c(q), and 1/Gamma(1/phi(q)).

The digamma values psi(r/q) behind L(1, chi) come from Gauss's digamma
theorem (DLMF 5.4.19), whose cosine sums are one real FFT of
log sin(pi n/q); cot(pi r/q) is taken at min(r, q - r) with its sign
flipped above q/2, so no argument near pi is rounded. numpy does it all:
this module loads no scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .characters import element_orders, totient, unit_group
from .errors import DomainError
from .primes import log_euler, sieve_primes

EULER_GAMMA = 0.5772156649015329
L_TOL = 1e-12  # bound on the rounding error of each L(1, chi) from l_one
THETA_TOL = 1e-6  # bound on the truncation error of Theta(1)


def _psi_fractions(q: int) -> np.ndarray:
    """psi(r/q) for r = 0..q-1 (entry 0 is nan), by Gauss's digamma theorem:
    psi(r/q) = -gamma - log 2q - (pi/2) cot(pi r/q)
               + 2 sum_{0<n<q/2} cos(2 pi n r/q) log sin(pi n/q).

    The cosine sums are the real part of one rfft, and r and q - r share
    theirs. cot(pi r/q) = -cot(pi (q - r)/q) is used above q/2: rounding
    pi r/q near pi would cost 1e-5 absolute at r = q - 1, q = 999983.
    """
    n = np.arange(1, (q + 1) // 2)  # 0 < n < q/2
    log_sin = np.zeros(q)
    log_sin[n] = np.log(np.sin(np.pi * n / q))
    cos_sums = np.fft.rfft(log_sin).real
    r = np.arange(1, q)
    m = np.minimum(r, q - r)
    psi = np.full(q, np.nan)
    psi[1:] = (-EULER_GAMMA - math.log(2 * q) + 2 * cos_sums[m]
               - (np.pi / 2) * np.sign(q - 2 * r) / np.tan(np.pi * m / q))
    return psi


def l_one(q: int) -> np.ndarray:
    """L(1, chi) for every non-principal chi mod q, in table order.

    Exact up to rounding (within L_TOL), from the identity
    L(1, chi) = -(1/q) sum_r chi(r) psi(r/q), with psi(r/q) from Gauss's
    digamma theorem and the cot fold (_psi_fractions): F[x(r)] =
    -psi(r/q)/q on the d_1 x ... x d_k discrete-log grid, and
    phi(q) * ifftn(F)[e] is the sum for the character with exponent
    vector e, every e at once.
    """
    if q < 3:
        raise DomainError(f"every character mod {q} is principal; L(1, chi) needs q >= 3")
    orders, dlog, units = unit_group(q)
    r = np.flatnonzero(units)
    grid = np.zeros(orders)
    grid[tuple(dlog[r].T)] = -_psi_fractions(q)[r] / q
    return len(r) * np.fft.ifftn(grid).ravel()[1:]


@functools.lru_cache(maxsize=4)
def _primes_below(cutoff: int) -> np.ndarray:
    """The primes <= cutoff, sieved once per cutoff (read-only)."""
    primes = sieve_primes(cutoff).primes
    primes.flags.writeable = False
    return primes


def theta_at_one(q: int) -> float:
    """Theta(1): exp of minus the double sum over primes p not dividing q
    with p not congruent to 1 mod q, and exponents m >= 2 with p^m
    congruent to 1 mod q.

    For such p with multiplicative order d (necessarily >= 2), the inner
    sum collapses to -(1/d) * log(1 - p^-d), so
    log Theta(1) = sum_p (1/d) * log(1 - p^-d), truncated at a prime
    cutoff P with tail below 2/P <= THETA_TOL.  The order of p depends only on
    p mod q and is read from the discrete-log table.
    """
    if q < 3:
        raise DomainError(f"Theta(1) needs q >= 3, got {q}")
    orders, dlog, _ = unit_group(q)
    cutoff = max(100, int(math.ceil(2.0 / THETA_TOL)))
    primes = _primes_below(cutoff)
    if q > primes.size:  # fewer primes than residues: find only the orders they need
        d = element_orders(dlog[primes % q], orders)
    else:
        d = element_orders(dlog, orders)[primes % q]
    # d is 1 for p = 1 mod q and for p | q
    return math.exp(log_euler(primes[d > 1], d[d > 1]))


def c_of_q(q: int) -> float:
    """The Mertens-in-progression constant c(q), as constants_bundle forms it."""
    return constants_bundle(q).c_q


@dataclass(frozen=True)
class ConstantsBundle:
    """Everything the asymptotic predictions for one modulus need."""

    q: int
    l_values: np.ndarray  # read-only complex, one per non-principal chi, table order
    theta1: float | None  # None for q < 3
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
    phi_q = totient(q)
    l_values = np.empty(0, dtype=complex)
    theta1 = None
    c_q = 1.0 if q == 1 else 0.5
    if q >= 3:
        l_values = l_one(q)
        phase = math.remainder(float(np.angle(l_values).sum()), 2 * math.pi)
        if abs(phase) > 1e-9:
            raise DomainError(
                f"L(1, chi) product for q={q} is not real positive: argument {phase}"
            )
        theta1 = theta_at_one(q)
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
