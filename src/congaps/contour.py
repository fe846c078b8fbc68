"""Numerical validation of the contour-integral machinery: the truncated
Hankel main term (its slit as a regularized incomplete Gamma, its circle by
quadrature), the Gamma reflection identity, and the truncated Perron
integral on finite Dirichlet polynomials (in closed form through E1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError

CBAR_DEFAULT = 1.0 / 6.41


@dataclass(frozen=True)
class HankelParams:
    """Geometry of the truncated Hankel contour around s = 1.

    Defaults follow kappa = 1 + 1/log X, T = exp((1/4)(cbar log X)^(1/2)),
    eta = cbar/(2 log T); the slit runs from 1 - eta to the circle of
    radius r around 1.
    """

    X: float
    beta: float  # the branch exponent 1/phi(q), in (0, 1)
    eta: float
    r: float
    kappa: float
    T: float
    cbar: float = CBAR_DEFAULT

    def __post_init__(self):
        if self.X <= math.e:
            raise DomainError(f"X must exceed e, got {self.X}")
        if not 0 < self.beta < 1:
            raise DomainError(f"beta must lie in (0, 1), got {self.beta}")
        if not 0 < self.r < self.eta:
            raise DomainError(f"need 0 < r < eta, got r={self.r}, eta={self.eta}")
        if self.kappa <= 1:
            raise DomainError(f"kappa must exceed 1, got {self.kappa}")


def default_params(
    X: float,
    beta: float,
    cbar: float = CBAR_DEFAULT,
    eta: float | None = None,
    r: float | None = None,
) -> HankelParams:
    log_x = math.log(X)
    kappa = 1.0 + 1.0 / log_x
    T = math.exp(0.25 * math.sqrt(cbar * log_x))
    if eta is None:
        eta = cbar / (2.0 * math.log(T))
    if r is None:
        r = min(eta, kappa - 1.0) / 10.0
    return HankelParams(X=X, beta=beta, eta=eta, r=r, kappa=kappa, T=T, cbar=cbar)


def _quad(f, a, b, **kw):
    from scipy.integrate import quad  # deferred: most subcommands never integrate

    val, err = quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=400, **kw)
    if not math.isfinite(val) or (val != 0 and err / abs(val) > 1e-6):
        raise NumericsError(
            f"quadrature on [{a}, {b}] did not converge: value={val}, err={err}"
        )
    return val


def _slit_integral(X: float, beta: float, r: float, eta: float) -> float:
    """(sin(pi beta)/pi) * int_r^eta X^(1-sigma) sigma^(-beta) dsigma.

    After u = sigma log X the integral is Gamma(1-beta) times the difference
    of the regularized lower incomplete Gamma P(1-beta, .) at eta log X and
    r log X."""
    from scipy.special import gammainc  # deferred: most subcommands never integrate

    log_x = math.log(X)
    a = 1.0 - beta
    core = math.gamma(a) * (gammainc(a, eta * log_x) - gammainc(a, r * log_x))
    return math.sin(math.pi * beta) / math.pi * X * log_x ** (beta - 1.0) * core


def _circle_integral(X: float, beta: float, r: float) -> float:
    """(1/(2 pi i)) times the circle part of the contour integral of
    X^s (s-1)^(-beta); real by conjugate symmetry."""
    log_x = math.log(X)

    def integrand(theta):
        z = r * complex(math.cos(theta), math.sin(theta))
        val = math.exp(log_x * (1.0 + z.real)) * complex(
            math.cos(log_x * z.imag), math.sin(log_x * z.imag)
        )
        val *= z ** (1.0 - beta) / (r**1.0)  # keep magnitudes tame
        return val.real

    core = _quad(integrand, -math.pi, math.pi)
    return core * r / (2.0 * math.pi)


def hankel_main(p: HankelParams) -> float:
    """(1/(2 pi i)) int over the truncated Hankel contour of
    X^s (s-1)^(-beta) ds: the slit from 1 - eta to the circle of radius r,
    plus the circle.  By Cauchy's theorem the sum does not depend on r."""
    return _slit_integral(p.X, p.beta, p.r, p.eta) + _circle_integral(p.X, p.beta, p.r)


def hankel_closed_form(X: float, beta: float) -> float:
    """The r -> 0, eta -> infinity limit X (log X)^(beta-1) / Gamma(beta)."""
    return X * math.log(X) ** (beta - 1.0) / math.gamma(beta)


def residue_circle(X: float, r: float = 1e-6) -> float:
    """Circle-only integral of X^s/(s-1) around s = 1, by quadrature at
    radius r: the Cauchy residue X, whatever r."""
    if X <= 1:
        raise DomainError(f"X must exceed 1, got {X}")
    log_x = math.log(X)
    core = _quad(lambda t: math.exp(r * math.cos(t) * log_x)
                 * math.cos(r * math.sin(t) * log_x), -math.pi, math.pi)
    return core * X / (2.0 * math.pi)


def gamma_reflection_check(theta: float) -> float:
    """|Gamma(theta) Gamma(1-theta) - pi/sin(pi theta)|."""
    if not 0 < theta < 1:
        raise DomainError(f"theta must lie in (0, 1), got {theta}")
    return abs(
        math.gamma(theta) * math.gamma(1.0 - theta)
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
    terms = exp1(-(kappa - 1j * T) * lam).imag / math.pi + (lam > 0)
    integral = float(np.sum(coeffs * terms))
    if not math.isfinite(integral):
        raise NumericsError("Perron integral did not evaluate to a finite value")
    return integral, partial, integral - partial
