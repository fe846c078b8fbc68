"""Numerical validation of the contour-integral machinery: the truncated
Hankel main term, the incomplete-Gamma approximation behind it, the Gamma
reflection identity, and the truncated Perron integral on finite Dirichlet
polynomials.
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
    """(sin(pi beta)/pi) * int_r^eta X^(1-sigma) sigma^(-beta) dsigma,
    evaluated after u = sigma log X."""
    log_x = math.log(X)
    u1, u2 = r * log_x, eta * log_x
    core = _quad(lambda u: math.exp(-u) * u ** (-beta), u1, u2)
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
    X^s (s-1)^(-beta) ds.

    Slit plus circle are evaluated at radii r and r/2 and Richardson
    extrapolated to r -> 0 (the leading r^(1-beta) pieces of the two
    contributions cancel; the residual scales like r^(2-beta))."""
    def total(r):
        return _slit_integral(p.X, p.beta, r, p.eta) + _circle_integral(
            p.X, p.beta, r
        )

    t_full = total(p.r)
    t_half = total(p.r / 2.0)
    theta = 0.5 ** (2.0 - p.beta)
    return (t_half - theta * t_full) / (1.0 - theta)


def hankel_closed_form(X: float, beta: float) -> float:
    """The r -> 0, eta -> infinity limit X (log X)^(beta-1) / Gamma(beta)."""
    return X * math.log(X) ** (beta - 1.0) / math.gamma(beta)


def residue_circle(X: float, r: float = 1e-6) -> float:
    """Circle-only integral of X^s/(s-1) around s = 1: the Cauchy residue X.

    Evaluated at r and r/2 and Richardson extrapolated (error is
    O((r log X)^2))."""
    if X <= 1:
        raise DomainError(f"X must exceed 1, got {X}")
    log_x = math.log(X)

    def one(rad):
        return (
            _quad(lambda t: math.exp(rad * math.cos(t) * log_x)
                  * math.cos(rad * math.sin(t) * log_x), -math.pi, math.pi)
            * X
            / (2.0 * math.pi)
        )

    t_full, t_half = one(r), one(r / 2.0)
    return (4.0 * t_half - t_full) / 3.0


def incomplete_gamma_check(beta: float, u_max: float) -> tuple[float, float]:
    """(int_0^{u_max} e^-u u^-beta du, Gamma(1 - beta)); the caller holds
    the difference against the e^{-u_max} u_max^{1-beta} tail envelope."""
    if not 0 < beta < 1:
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    if u_max <= 1:
        raise DomainError(f"u_max must exceed 1, got {u_max}")
    from scipy.integrate import quad

    # algebraic endpoint singularity on [0, 1], smooth tail beyond
    head, _ = quad(
        lambda u: math.exp(-u), 0.0, 1.0, weight="alg", wvar=(-beta, 0.0),
        epsabs=0.0, epsrel=1e-13, limit=400,
    )
    tail = _quad(lambda u: math.exp(-u) * u ** (-beta), 1.0, u_max)
    return head + tail, math.gamma(1.0 - beta)


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

    Returns (integral_value, partial_sum, integral - partial).  The
    vertical-line integrand is reduced to [0, T] by conjugate symmetry and
    integrated by composite Gauss-Legendre panels short enough to resolve
    the fastest oscillation |log(X/n)|."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise DomainError("coeffs must be a nonempty 1-d real sequence")
    if kappa <= 1:
        raise DomainError(f"kappa must exceed 1, got {kappa}")
    if T < 1:
        raise DomainError(f"T must be >= 1, got {T}")
    if X <= 0 or float(X).is_integer():
        raise DomainError(f"X must be positive and non-integer, got {X}")

    n_vals = np.arange(1, coeffs.size + 1, dtype=float)
    partial = float(np.sum(coeffs[n_vals <= X]))

    log_ratios = np.log(X / n_vals)  # oscillation frequencies
    max_freq = float(np.max(np.abs(log_ratios)))
    panel = min(1.0, (2.0 * math.pi / max_freq) / 6.0) if max_freq > 0 else 1.0
    n_panels = max(1, int(math.ceil(T / panel)))
    edges = np.linspace(0.0, T, n_panels + 1)
    nodes, weights = np.polynomial.legendre.leggauss(12)

    amp = coeffs * (X / n_vals) ** kappa  # a_n (X/n)^kappa
    total = 0.0
    chunk = 20000  # panels per block, bounds memory
    for i0 in range(0, n_panels, chunk):
        lo = edges[i0 : min(i0 + chunk, n_panels)]
        hi = edges[i0 + 1 : min(i0 + chunk, n_panels) + 1]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        tau = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        w = (half[:, None] * weights[None, :]).ravel()
        s_inv = 1.0 / (kappa + 1j * tau)
        acc = np.zeros(tau.size, dtype=complex)
        for a_amp, lr in zip(amp, log_ratios):
            if a_amp != 0.0:
                acc += a_amp * np.exp(1j * tau * lr)
        total += float(np.sum(w * (acc * s_inv).real))
    integral = total / math.pi
    if not math.isfinite(integral):
        raise NumericsError("Perron integral did not evaluate to a finite value")
    return integral, partial, integral - partial
