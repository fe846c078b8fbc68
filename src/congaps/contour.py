"""Numerical validation of the contour-integral machinery: the truncated
Hankel main term (slit and circle together one regularized incomplete
Gamma), the Cauchy residue on a circle by the trapezoid rule, the Gamma
reflection identity, and the truncated Perron integral on finite Dirichlet
polynomials (in closed form through E1).

Both special functions are evaluated here, in numpy, from standard
formulas. The regularized incomplete Gamma P(a, x): the power series
(DLMF 8.7.1) below x = a + 1, and above it 1 - Q with the continued
fraction for Q (DLMF 8.9.2) by modified Lentz. The exponential integral
E1(z): the power series (DLMF 6.6.2) where its terms cannot cancel badly,
and elsewhere the continued fraction (DLMF 6.9.1) evaluated bottom up.
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
# coefficients of the cli's perron mode: N = 10^7 takes 2.3 s and 41 MB (2 vCPUs)
MAX_PERRON_TERMS = 10**7

_EPS = float(np.finfo(float).eps)
_MAX_DEPTH = 1024  # cap on series terms and continued-fraction depth
_PERRON_BLOCK = 1 << 16  # terms per block of perron_check's fold


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
    return hankel_closed_form(p.X, p.beta) * _gamma_p(1.0 - p.beta, p.eta * math.log(p.X))


def _gamma_p(a: float, x: float) -> float:
    """The regularized lower incomplete Gamma P(a, x) for a in (0, 1] and
    x > 0. Both branches carry the prefactor x^a e^-x / Gamma(a)."""
    if x == math.inf:
        return 1.0
    prefactor = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:  # sum_k x^k / (a (a+1) ... (a+k)), DLMF 8.7.1
        term = total = 1.0 / a
        k = a
        while term > _EPS * total:
            k += 1.0
            term *= x / k
            total += term
        return prefactor * total
    # Q = prefactor / (x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...))), DLMF 8.9.2
    b = x + 1.0 - a
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, _MAX_DEPTH + 1):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    return 1.0 - prefactor * h


def _e1(z: np.ndarray) -> np.ndarray:
    """The exponential integral E1(z), elementwise, for z off (-inf, 0].

    Where |z| + Re z <= 2 and |z| < 40, a parabola about the negative real
    axis on which the continued fraction converges slowly, the power series
    E1 = -gamma - log z - sum_{k>=1} (-z)^k / (k k!) (DLMF 6.6.2): its
    terms outgrow E1 there by at most about e^(|z| + Re z) <= e^2, where
    on the disc |z| <= 5 they outgrow it by up to e^10. Elsewhere the
    continued fraction E1 = e^-z / (z+1- 1/(z+3- 4/(z+5- ...))) (DLMF
    6.9.1, contracted), evaluated bottom up at depths 2, 4, 8, ... until two
    depths agree, which rounds far less than a forward (Lentz) evaluation."""
    size = np.abs(z)
    series = (size + z.real <= 2.0) & (size < 40.0)
    out = np.empty_like(z)
    w = z[series]
    one = np.ones_like(w)
    total = _until_converged(_e1_series_step, _MAX_DEPTH, w, one, one)
    out[series] = -np.euler_gamma - np.log(w) + w * total
    w = z[~series]
    depth_one = w + 1.0 - 1.0 / (w + 3.0)
    out[~series] = np.exp(-w) / _until_converged(
        _e1_fraction_step, _MAX_DEPTH.bit_length() - 1, w, depth_one)
    return out


def _until_converged(step, steps: int, *state: np.ndarray) -> np.ndarray:
    """Each entry's value from the first of step(1, ...), step(2, ...), ...,
    step(steps, ...) that marks it done. A step maps the state arrays of the
    entries not yet done to (new state, value, done)."""
    out = np.empty_like(state[0])
    todo = np.arange(out.size)
    for i in range(1, steps + 1):
        if not todo.size:
            break
        state, value, done = step(i, *state)
        if i == steps:
            done[:] = True
        if done.any():
            out[todo[done]] = value[done]
            todo = todo[~done]
            state = [a[~done] for a in state]
    return out


def _e1_series_step(k: int, z, term, total):
    """The k-th term t_k = -t_(k-1) z k / (k+1)^2 of sum_{k>=0} t_k, t_0 = 1,
    which z times is -sum_{k>=1} (-z)^k / (k k!)."""
    term = term * z * (-k / (k + 1) ** 2)
    total = total + term
    return (z, term, total), total, np.abs(term) <= _EPS * np.abs(total)


def _e1_fraction_step(i: int, z, previous):
    """z+1- 1/(z+3- 4/(z+5- ...)) cut at depth 2^i, bottom up; done once it
    agrees with depth 2^(i-1) to 8 ulps."""
    depth = 2**i
    f = z + (2 * depth + 1)
    for j in range(depth - 1, -1, -1):
        f = z + (2 * j + 1) - (j + 1) ** 2 / f
    return (z, f), f, np.abs(f - previous) <= 8 * _EPS * np.abs(f)


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
    partial = float(np.sum(coeffs[: min(coeffs.size, math.floor(X))]))  # the n <= X

    slope = -(kappa - 1j * T)
    integral = 0.0
    with np.errstate(all="ignore"):  # a huge kappa overflows; caught just below
        for lo in range(0, coeffs.size, _PERRON_BLOCK):
            block = coeffs[lo:lo + _PERRON_BLOCK]
            lam = np.log(X / np.arange(lo + 1, lo + block.size + 1, dtype=float))
            terms = _e1(slope * lam).imag / math.pi + (lam > 0)
            integral += float(np.sum(block * terms))
    if not math.isfinite(integral):
        raise NumericsError("Perron integral did not evaluate to a finite value")
    return integral, partial, integral - partial
