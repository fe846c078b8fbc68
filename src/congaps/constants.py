"""Numerical constants attached to a modulus q: L(1, chi) for the
non-principal characters, the prime-power correction factor Theta(1), the
Mertens-in-progression constant c(q), and 1/Gamma(1/phi(q)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .characters import element_orders, totient, unit_group
from .errors import DomainError
from .primes import sieve_primes

EULER_GAMMA = 0.5772156649015329
L_TOL = 1e-12  # bound on the rounding error of each L(1, chi) from l_one


def l_one(q: int) -> np.ndarray:
    """L(1, chi) for every non-principal chi mod q, in table order.

    Exact up to rounding (within L_TOL), from the identity
    L(1, chi) = -(1/q) sum_r chi(r) psi(r/q): F[x(r)] = -psi(r/q)/q on the
    d_1 x ... x d_k discrete-log grid, and phi(q) * ifftn(F)[e] is the sum
    for the character with exponent vector e, every e at once.
    """
    if q < 3:
        raise DomainError(f"every character mod {q} is principal; L(1, chi) needs q >= 3")
    from scipy.special import digamma  # deferred: census and shiu never load scipy

    orders, dlog, units = unit_group(q)
    r = np.flatnonzero(units)
    grid = np.zeros(orders)
    grid[tuple(dlog[r].T)] = -digamma(r / q) / q
    return len(r) * np.fft.ifftn(grid).ravel()[1:]


@functools.lru_cache(maxsize=4)
def _primes_below(cutoff: int) -> np.ndarray:
    """The primes <= cutoff, sieved once per cutoff (read-only)."""
    primes = sieve_primes(cutoff).primes
    primes.flags.writeable = False
    return primes


def theta_at_one(q: int, tol: float = 1e-6) -> float:
    """Theta(1): exp of minus the double sum over primes p not dividing q
    with p not congruent to 1 mod q, and exponents m >= 2 with p^m
    congruent to 1 mod q.

    For such p with multiplicative order d (necessarily >= 2), the inner
    sum collapses to -(1/d) * log(1 - p^-d), so
    log Theta(1) = sum_p (1/d) * log(1 - p^-d), truncated at a prime
    cutoff P with tail below 2/P <= tol.  The order of p depends only on
    p mod q and is read from the discrete-log table.
    """
    if q < 3:
        raise DomainError(f"Theta(1) needs q >= 3, got {q}")
    orders, dlog, _ = unit_group(q)
    cutoff = max(100, int(math.ceil(2.0 / tol)))
    primes = _primes_below(cutoff)
    d = element_orders(dlog[primes % q], orders)  # 1 for p = 1 mod q and for p | q
    p, d = primes[d > 1].astype(float), d[d > 1]
    terms = np.log1p(-(p ** -d)) / d
    return math.exp(np.cumsum(terms)[-1])  # left to right, as a loop over p rounds


def c_of_q(q: int, theta_tol: float = 1e-6) -> float:
    """The Mertens-in-progression constant c(q), as constants_bundle forms
    it with Theta(1) to theta_tol."""
    return constants_bundle(q, theta_tol).c_q


@dataclass(frozen=True)
class ConstantsBundle:
    """Everything the asymptotic predictions for one modulus need."""

    q: int
    gamma_euler: float
    l_values: np.ndarray  # read-only complex, one per non-principal chi, table order
    theta1: float | None  # None for q < 3
    c_q: float
    gamma_recip: float  # 1 / Gamma(1/phi(q))
    tolerances: dict = field(default_factory=dict)


def constants_bundle(q: int, theta_tol: float = 1e-6) -> ConstantsBundle:
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
        theta1 = theta_at_one(q, theta_tol)
        log_prod = float(np.log(np.abs(l_values)).sum())
        c_q = theta1 * math.exp((math.log(phi_q / q) + log_prod) / phi_q)
    l_values.flags.writeable = False
    return ConstantsBundle(
        q=q,
        gamma_euler=EULER_GAMMA,
        l_values=l_values,
        theta1=theta1,
        c_q=c_q,
        gamma_recip=1.0 / math.gamma(1.0 / phi_q),
        tolerances={"l_tol": L_TOL, "theta_tol": theta_tol},
    )
