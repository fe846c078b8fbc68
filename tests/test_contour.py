import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from congaps import contour
from congaps.errors import DomainError, NumericsError


X20 = math.exp(20)


def incomplete_gamma_quad(beta, u):
    """int_0^u e^-t t^-beta dt by quadrature: the algebraic endpoint
    singularity is weighted out on [0, min(u, 1)], the smooth rest
    integrated plainly."""
    head, _ = quad(lambda t: math.exp(-t), 0.0, min(u, 1.0), weight="alg",
                   wvar=(-beta, 0.0), epsabs=0.0, epsrel=1e-13, limit=400)
    if u <= 1.0:
        return head
    tail, _ = quad(lambda t: math.exp(-t) * t ** (-beta), 1.0, u,
                   epsabs=0.0, epsrel=1e-13, limit=400)
    return head + tail


def hankel_quad(X, beta, r, eta):
    """The truncated Hankel contour split at radius r: the slit from
    1 - eta to the circle of radius r about s = 1, through
    incomplete_gamma_quad, plus that circle by quadrature (real by
    conjugate symmetry)."""
    log_x = math.log(X)
    core = incomplete_gamma_quad(beta, eta * log_x) - incomplete_gamma_quad(beta, r * log_x)
    slit = math.sin(math.pi * beta) / math.pi * X * log_x ** (beta - 1.0) * core

    def integrand(theta):
        z = r * complex(math.cos(theta), math.sin(theta))
        return (X ** (1.0 + z) * z ** (1.0 - beta) / r).real

    circle, _ = quad(integrand, -math.pi, math.pi, epsabs=0.0, epsrel=1e-12, limit=400)
    return slit + circle * r / (2.0 * math.pi)


def perron_gauss_legendre(coeffs, X, T, kappa):
    """(1/pi) int_0^T Re sum_n a_n (X/n)^(kappa+i tau)/(kappa+i tau) dtau,
    one term at a time, by 12-node Gauss-Legendre panels no longer than
    1 and a sixth of the term's wavelength 2 pi/|log(X/n)|."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    total = 0.0
    for n, a in enumerate(coeffs, 1):
        lam = math.log(X / n)
        panel = min(1.0, (2.0 * math.pi / abs(lam)) / 6.0)
        edges = np.linspace(0.0, T, math.ceil(T / panel) + 1)
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        tau = (mid[:, None] + half[:, None] * nodes).ravel()
        w = (half[:, None] * weights).ravel()
        s = kappa + 1j * tau
        total += a * float(np.sum(w * (np.exp(s * lam) / s).real))
    return total / math.pi


def perron_mpmath(coeffs, X, T, kappa):
    """The same integral by mpmath's tanh-sinh quadrature, term by term,
    over one wavelength per subinterval."""
    total = mpmath.mpf(0)
    with mpmath.workdps(15):
        for n, a in enumerate(coeffs, 1):
            if not a:
                continue
            lam = mpmath.log(mpmath.mpf(X) / n)
            f = lambda t: mpmath.re(mpmath.exp(lam * (kappa + 1j * t)) / (kappa + 1j * t))
            pieces = int(mpmath.ceil(T * abs(lam) / (2 * mpmath.pi)))
            total += a * mpmath.quad(f, mpmath.linspace(0, T, pieces + 1))
        return float(total / mpmath.pi)


def test_default_params():
    p = contour.default_params(X20, 0.5)
    assert p.kappa == pytest.approx(1.0 + 1.0 / 20.0)
    assert p.T == pytest.approx(math.exp(0.25 * math.sqrt(20.0 / 6.41)))
    assert p.eta == pytest.approx(contour.CBAR_DEFAULT / (2.0 * math.log(p.T)))
    assert contour.default_params(X20, 0.5, eta=0.6).eta == 0.6


PARAMS = dict(X=X20, beta=0.5, eta=0.1, kappa=1.1, T=10.0)


def test_params_validation():
    for field, value in (("X", 2.0), ("beta", 1.5), ("eta", 0.0), ("eta", -0.1),
                         ("kappa", 0.9)):
        with pytest.raises(DomainError):
            contour.HankelParams(**{**PARAMS, field: value})
    for X in (-5.0, 0.5, 1.0, 2.0):  # X <= 1 was a math error inside default_params
        with pytest.raises(DomainError, match="exceed e"):
            contour.default_params(X, 0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["X", "beta", "eta"])
def test_params_reject_non_finite(field, value):
    with pytest.raises(DomainError, match=f"{field} must be finite, got {value}"):
        contour.HankelParams(**{**PARAMS, field: value})


def test_hankel_vs_closed_form():
    for beta in (0.5, 1.0 / 3.0, 0.25):
        p = contour.default_params(X20, beta, eta=0.6)
        closed = contour.hankel_closed_form(X20, beta)
        assert abs(contour.hankel_main(p) - closed) / closed <= 1e-4


def test_hankel_truncation_envelope():
    # with the short default slit the X^{-eta} truncation error dominates;
    # the deviation should sit under a loose multiple of that envelope
    p = contour.default_params(X20, 0.5)
    closed = contour.hankel_closed_form(X20, 0.5)
    dev = abs(contour.hankel_main(p) - closed) / closed
    assert dev <= 0.05
    assert dev > 1e-4  # the short slit really is the bottleneck


def test_closed_form_values():
    assert contour.hankel_closed_form(X20, 0.5) == pytest.approx(
        X20 / (math.sqrt(20.0) * math.sqrt(math.pi)), rel=1e-12
    )


def test_residue_circle():
    for X in (1.5, 1000.0, X20, 1e308):  # r log X up to 0.71 at the largest X
        assert abs(contour.residue_circle(X) - X) / X <= 1e-15
    for X in (0.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            contour.residue_circle(X)


def test_incomplete_gamma_check():
    # the slit's quadrature oracle, against Gamma(1 - beta) within the
    # e^{-u} u^{1-beta} tail it leaves out
    for beta, u_max in ((0.5, 20.0), (0.25, 30.0), (2.0 / 3.0, 25.0)):
        got = incomplete_gamma_quad(beta, u_max)
        tail = math.exp(-u_max) * u_max ** (1.0 - beta)
        assert abs(got - math.gamma(1.0 - beta)) <= tail + 1e-10


@pytest.mark.parametrize("beta", [0.5, 1.0 / 3.0, 0.25, 2.0 / 3.0])
@pytest.mark.parametrize("eta", [0.1767, 0.6, 1.5])
@pytest.mark.parametrize("r", [1e-4, 1e-3, 0.005, 0.05])
def test_slit_against_quadrature(r, eta, beta):
    # the slit-and-circle quadrature at every radius r gives the one closed
    # form (Cauchy); eta = 0.1767 is about the default at X = e^20
    got = contour.hankel_main(contour.default_params(X20, beta, eta=eta))
    assert got == pytest.approx(hankel_quad(X20, beta, r, eta), rel=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eta", [None, 0.6])
@pytest.mark.parametrize("beta", [0.5, 1.0 / 3.0, 0.25, 0.01, 0.99])
def test_hankel_against_mpmath(beta, eta):
    # the whole contour from 1 - eta: the closed form times the regularized
    # incomplete Gamma P(1 - beta, eta log X)
    for X in (X20, 1e12, 1e30, 1e308):
        p = contour.default_params(X, beta, eta=eta)
        with mpmath.workdps(30):
            expect = mpmath.mpf(contour.hankel_closed_form(X, beta)) * mpmath.gammainc(
                1 - mpmath.mpf(beta), 0, p.eta * mpmath.log(X), regularized=True)
            rel = abs((contour.hankel_main(p) - expect) / expect)
        assert rel <= 1e-13, X


def test_gamma_reflection():
    for theta in (1.0 / 6.0, 1.0 / 3.0, 0.5):
        assert contour.gamma_reflection_check(theta) <= 1e-10
    with pytest.raises(DomainError):
        contour.gamma_reflection_check(0.0)
    with pytest.raises(DomainError):
        contour.gamma_reflection_check(1.0)


def test_perron_partial_sum():
    coeffs = [1.0] * 20
    integral, partial, err = contour.perron_check(coeffs, 10.5, 1e3, 1.1)
    assert partial == 10.0
    assert err == integral - partial
    assert abs(err) <= 0.05


def test_perron_weighted_coeffs():
    coeffs = [0.0, 2.0, 0.0, -1.0]
    _, partial, err = contour.perron_check(coeffs, 4.5, 1e3, 1.2)
    assert partial == 1.0  # 2 - 1, the n = 1 and n = 3 coefficients vanish
    assert abs(err) <= 0.1


def test_perron_error_shrinks_with_T():
    coeffs = [1.0] * 20
    errs = [
        abs(contour.perron_check(coeffs, 10.5, T, 1.1)[2]) for T in (1e2, 1e4)
    ]
    assert errs[1] < errs[0]


def test_perron_domain():
    with pytest.raises(DomainError):
        contour.perron_check([1.0], 10.0, 1e3, 1.1)  # integer X
    with pytest.raises(DomainError):
        contour.perron_check([1.0], 10.5, 1e3, 1.0)
    with pytest.raises(DomainError):
        contour.perron_check([1.0], 10.5, 0.5, 1.1)
    with pytest.raises(DomainError):
        contour.perron_check([], 10.5, 1e3, 1.1)
    for X, T, kappa in ((math.nan, 1e3, 1.1), (math.inf, 1e3, 1.1),
                        (10.5, math.nan, 1.1), (10.5, math.inf, 1.1),
                        (10.5, 1e3, math.nan), (10.5, 1e3, math.inf)):
        with pytest.raises(DomainError, match="must be finite"):
            contour.perron_check([1.0], X, T, kappa)


@pytest.mark.filterwarnings("error")
def test_perron_huge_kappa_fails_without_warnings():
    # the E1 terms overflow: the NumericsError is the only signal, with no
    # numpy RuntimeWarning on the way
    with pytest.raises(NumericsError, match="finite"):
        contour.perron_check([1.0] * 20, math.exp(20), 1e4, 1e300)


@pytest.mark.parametrize("T", [1e2, 1e3, 1e4])
@pytest.mark.parametrize("coeffs, X", [
    ([1.0] * 20, 10.5), ([0.0, 2.0, 0.0, -1.0], 4.5), ([1.0] * 200, 57.3),
], ids=["ones20", "weighted", "ones200"])
def test_perron_against_gauss_legendre(coeffs, X, T):
    got = contour.perron_check(coeffs, X, T, 1.1)[0]
    assert abs(got - perron_gauss_legendre(coeffs, X, T, 1.1)) <= 1e-12


def test_perron_against_mpmath():
    coeffs = [0.0, 2.0, 0.0, -1.0]
    got = contour.perron_check(coeffs, 4.5, 1e3, 1.2)[0]
    assert abs(got - perron_mpmath(coeffs, 4.5, 1e3, mpmath.mpf(1.2))) <= 1e-12


def test_perron_time_budget():
    contour.perron_check([1.0], 10.5, 1e2, 1.1)  # pay scipy's import first
    start = time.perf_counter()
    contour.perron_check([1.0] * 20, 10.5, 1e5, 1.1)
    assert time.perf_counter() - start < 0.1
