"""Numerical validation of the contour-integral machinery: the truncated
Hankel main term (slit and circle together one regularized incomplete
Gamma), the Cauchy residue on a circle by the trapezoid rule, the Gamma
reflection identity, and the truncated Perron integral on finite Dirichlet
polynomials (in closed form through E1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError

CBAR_DEFAULT = 1.0 / 6.41
# residue_circle's trapezoid rule: its aliasing error X sum_j (r log X)^(jM)/(jM)!
# stays below 3e-16 X for every double X at this radius r and node count M
RESIDUE_RADIUS = 1e-3
RESIDUE_NODES = 16
# coefficients of the cli's perron mode: N = 10^7 takes 18 s and 588 MB (2 vCPUs)
MAX_PERRON_TERMS = 10**7


@dataclass(frozen=True)
class HankelParams:
    """The truncated Hankel contour around s = 1: along the slit from
    1 - eta to s = 1 and back."""

    X: float
    beta: float  # the branch exponent 1/phi(q), in (0, 1)
    eta: float

    def __post_init__(self):
        for name, value in (("X", self.X), ("beta", self.beta), ("eta", self.eta)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.X <= math.e:
            raise DomainError(f"X must exceed e, got {self.X}")
        if not 0 < self.beta < 1:
            raise DomainError(f"beta must lie in (0, 1), got {self.beta}")
        if self.eta <= 0:
            raise DomainError(f"eta must be positive, got {self.eta}")


def default_params(X: float, beta: float, eta: float | None = None) -> HankelParams:
    """The contour for X and beta; eta defaults to cbar/(2 log T), with
    T = exp((1/4)(cbar log X)^(1/2)) and cbar = CBAR_DEFAULT."""
    if X <= math.e:  # log X must be positive below; HankelParams checks the rest
        raise DomainError(f"X must exceed e, got {X}")
    if eta is None:
        T = math.exp(0.25 * math.sqrt(CBAR_DEFAULT * math.log(X)))
        eta = CBAR_DEFAULT / (2.0 * math.log(T))
    return HankelParams(X=X, beta=beta, eta=eta)


def hankel_main(p: HankelParams) -> float:
    """(1/(2 pi i)) int over the truncated Hankel contour of
    X^s (s-1)^(-beta) ds, along the slit from 1 - eta around s = 1.

    Split at a circle of radius r about s = 1, the slit gives the closed
    form times P(1-beta, eta log X) - P(1-beta, r log X), with P the
    regularized lower incomplete Gamma, and the circle the closed form
    times P(1-beta, r log X). Whatever r (Cauchy), the sum is the closed
    form times P(1-beta, eta log X)."""
    from scipy.special import gammainc  # deferred: most subcommands never integrate

    return hankel_closed_form(p.X, p.beta) * gammainc(1.0 - p.beta, p.eta * math.log(p.X))


def hankel_closed_form(X: float, beta: float) -> float:
    """The r -> 0, eta -> infinity limit X (log X)^(beta-1) / Gamma(beta)."""
    return X * math.log(X) ** (beta - 1.0) / _gamma(beta, "beta")


def _gamma(x: float, name: str) -> float:
    """math.gamma(x), whose overflow (below x = 5.6e-309) names the argument."""
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"Gamma({name}) overflows a double at {name} = {x}") from None


def residue_circle(X: float) -> float:
    """(1/(2 pi i)) times the integral of X^s/(s-1) around the circle of
    radius RESIDUE_RADIUS about s = 1, by the periodic trapezoid rule on
    RESIDUE_NODES nodes: X times the mean of exp(r log X w^k) over the
    M-th roots of unity w^k. The Cauchy residue is X."""
    if not 1 < X < math.inf:
        raise DomainError(f"X must be finite and exceed 1, got {X}")
    roots = np.exp(2j * math.pi * np.arange(RESIDUE_NODES) / RESIDUE_NODES)
    return X * float(np.exp(RESIDUE_RADIUS * math.log(X) * roots).real.mean())


def gamma_reflection_check(theta: float) -> float:
    """|Gamma(theta) Gamma(1-theta) - pi/sin(pi theta)|."""
    if not 0 < theta < 1:
        raise DomainError(f"theta must lie in (0, 1), got {theta}")
    return abs(
        _gamma(theta, "theta") * math.gamma(1.0 - theta)
        - math.pi / math.sin(math.pi * theta)
    )


def perron_check(
    coeffs, X: float, T: float, kappa: float
) -> tuple[float, float, float]:
    """Truncated Perron integral of the finite Dirichlet polynomial with
    coefficients a_1..a_N against the exact partial sum over n <= X.

    Returns (integral_value, partial_sum, integral - partial).  With
    lambda = log(X/n), each term is in closed form:
    (1/(2 pi i)) int_{kappa-iT}^{kappa+iT} (X/n)^s/s ds
    = (E1(-(kappa-iT) lambda) - E1(-(kappa+iT) lambda))/(2 pi i) + [lambda > 0],
    the last term from the branch cut of E1, which the path crosses when
    lambda > 0.  By conjugate symmetry the difference is
    2i Im E1(-(kappa-iT) lambda)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise DomainError("coeffs must be a nonempty 1-d real sequence")
    for name, value in (("X", X), ("T", T), ("kappa", kappa)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if kappa <= 1:
        raise DomainError(f"kappa must exceed 1, got {kappa}")
    if T < 1:
        raise DomainError(f"T must be >= 1, got {T}")
    if X <= 0 or float(X).is_integer():
        raise DomainError(f"X must be positive and non-integer, got {X}")
    from scipy.special import exp1  # deferred: most subcommands never integrate

    n_vals = np.arange(1, coeffs.size + 1, dtype=float)
    partial = float(np.sum(coeffs[n_vals <= X]))

    lam = np.log(X / n_vals)
    with np.errstate(all="ignore"):  # a huge kappa overflows; caught just below
        terms = exp1(-(kappa - 1j * T) * lam).imag / math.pi + (lam > 0)
        integral = float(np.sum(coeffs * terms))
    if not math.isfinite(integral):
        raise NumericsError("Perron integral did not evaluate to a finite value")
    return integral, partial, integral - partial
