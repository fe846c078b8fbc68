"""Numerical constants attached to a modulus q: L(1, chi) for the
non-principal characters, the prime-power correction factor Theta(1), the
Mertens-in-progression constant c(q), and the Gamma function on (0, 2].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .characters import (
    Character, build_character_table, element_orders, totient, unit_group,
)
from .errors import DomainError
from .primes import sieve_primes

EULER_GAMMA = 0.5772156649015329


@functools.lru_cache(maxsize=4)
def _digamma_partials(q: int, tol: float) -> np.ndarray:
    """f(r) = sum_{n <= N, n = r mod q} 1/n for r = 0..q-1 (f(0) = 0), with
    N the l_one truncation for (q, tol), through the digamma identity
    sum_{k<K} 1/(r+kq) = (digamma(r/q+K) - digamma(r/q))/q."""
    from scipy.special import digamma  # deferred: census and shiu never load scipy

    tail_bound = 2.0 * math.sqrt(q) * math.log(q)
    n_terms = max(q, int(math.ceil(tail_bound / tol)))
    r = np.arange(1, q)
    f = np.zeros(q)
    f[1:] = (digamma(r / q + ((n_terms - r) // q + 1)) - digamma(r / q)) / q
    f.flags.writeable = False
    return f


def l_one(chi: Character, tol: float = 1e-8) -> complex:
    """L(1, chi) for non-principal chi, within tol.

    Computed as the partial sum of chi(n)/n up to N, with N chosen so the
    Abel-summation tail bound 2*sqrt(q)*log(q)/N (from Polya-Vinogradov)
    is at most tol: sum_r chi(r) f(r) over the residue-class partial sums
    f, which depend only on (q, tol) and are formed once for all chi.
    """
    if chi.is_principal:
        raise DomainError("L(1, chi) diverges for the principal character")
    if not 1e-12 < tol < 1e-2:
        raise DomainError(f"tol must lie in (1e-12, 1e-2), got {tol}")
    terms = chi.values() * _digamma_partials(chi.modulus, tol)
    return complex(np.cumsum(terms)[-1])  # left to right, as a loop over r rounds


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


def c_of_q(q: int, tol: float = 1e-6, l_tol: float = 1e-8) -> float:
    """The Mertens-in-progression constant c(q), as constants_bundle forms
    it with Theta(1) to tol and each L(1, chi) to l_tol."""
    return constants_bundle(q, l_tol, tol).c_q


def gamma_function(x: float) -> float:
    """Gamma(x) on (0, 2] (relative error well below 1e-10)."""
    if x <= 0:
        raise DomainError(f"Gamma requires x > 0, got {x}")
    if x > 2:
        raise DomainError(f"Gamma is only exposed on (0, 2], got {x}")
    return math.gamma(x)


@dataclass(frozen=True)
class ConstantsBundle:
    """Everything the asymptotic predictions for one modulus need."""

    q: int
    gamma_euler: float
    l_values: tuple[complex, ...]  # one per non-principal character, table order
    theta1: float | None  # None for q < 3
    c_q: float
    gamma_recip: float  # 1 / Gamma(1/phi(q))
    tolerances: dict = field(default_factory=dict)


def constants_bundle(
    q: int, l_tol: float = 1e-8, theta_tol: float = 1e-6
) -> ConstantsBundle:
    """Build the constants for modulus q.

    c(1) = 1 and c(2) = 1/2 are fixed; for q >= 3,
    c(q) = Theta(1) * ((phi(q)/q) * prod_{chi != chi0} L(1, chi))^(1/phi(q)),
    taking the real positive phi(q)-th root.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    phi_q = totient(q)
    l_values: tuple[complex, ...] = ()
    theta1 = None
    c_q = 1.0 if q == 1 else 0.5
    if q >= 3:
        table = build_character_table(q)
        l_values = tuple(l_one(chi, l_tol) for chi in table.non_principal())
        prod = math.prod(l_values, start=1 + 0j)
        if abs(prod.imag) > 1e-9 or prod.real <= 0:
            raise DomainError(
                f"L(1, chi) product for q={q} is not real positive: {prod}"
            )
        theta1 = theta_at_one(q, theta_tol)
        c_q = theta1 * ((phi_q / q) * prod.real) ** (1.0 / phi_q)
    return ConstantsBundle(
        q=q,
        gamma_euler=EULER_GAMMA,
        l_values=l_values,
        theta1=theta1,
        c_q=c_q,
        gamma_recip=1.0 / gamma_function(1.0 / phi_q),
        tolerances={"l_tol": l_tol, "theta_tol": theta_tol},
    )
