import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1, gammainc

from congaps import contour
from congaps.errors import DomainError, NumericsError


X20 = math.exp(20)
# the kernels' bound, from the dtype: 2^5 ulps, 7.1e-15. The E1 series
# runs only where its terms outgrow E1 by at most e^2 < 2^3; the series
# sums, the bottom-up fraction and the prefactors (exp, log, lgamma) add a
# few ulps each
KERNEL_TOL = 32 * np.finfo(float).eps


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
    T = math.exp(0.25 * math.sqrt(20.0 / 6.41))
    assert p.eta == pytest.approx(contour.CBAR_DEFAULT / (2.0 * math.log(T)))
    assert contour.default_params(X20, 0.5, eta=0.6).eta == 0.6


PARAMS = dict(X=X20, beta=0.5, eta=0.1)


def test_params_validation():
    for field, value in (("X", 2.0), ("beta", 1.5), ("eta", 0.0), ("eta", -0.1)):
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
    contour.perron_check([1.0], 10.5, 1e2, 1.1)  # warm up once, outside the timing
    start = time.perf_counter()
    contour.perron_check([1.0] * 20, 10.5, 1e5, 1.1)
    assert time.perf_counter() - start < 0.1


def mp_gamma_p(a, x):
    with mpmath.workdps(40):
        return mpmath.gammainc(a, 0, x, regularized=True)


def mp_e1(z):
    with mpmath.workdps(40):
        return complex(mpmath.e1(mpmath.mpc(z.real, z.imag)))


# x = eta log X up to eta = 1.5 at X = 1e308, the largest the tests take
X_TOP = 1.5 * math.log(1e308)


@pytest.mark.parametrize("a", [2.0**-53, 0.01, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.99, 1.0])
def test_gamma_p_against_mpmath_and_scipy(a):
    # both branches and their seam at x = a + 1, where the series hands over
    # to the continued fraction for Q
    seam = a + 1.0
    xs = [*np.geomspace(1e-3, X_TOP, 40), math.nextafter(seam, 0.0), seam,
          math.nextafter(seam, math.inf), seam - 0.25, seam + 0.25]
    for x in xs:
        got = contour._gamma_p(a, x)
        assert abs(got - mp_gamma_p(a, x)) <= KERNEL_TOL * got, x
        # scipy's gammainc, now a test-only oracle, within the same bound of its own
        assert abs(got - gammainc(a, x)) <= 2 * KERNEL_TOL * got, x


def test_gamma_p_at_infinity():
    # eta log X overflows to inf at a finite eta: the whole slit, P = 1
    assert contour._gamma_p(0.5, math.inf) == 1.0
    p = contour.default_params(1e308, 0.5, eta=1e307)
    assert contour.hankel_main(p) == contour.hankel_closed_form(1e308, 0.5)


def perron_points(kappa, T, sizes):
    """z = -(kappa - iT) lambda at each |z| in sizes, for lambda of both
    signs, short of where E1 under- or overflows."""
    lam = np.asarray(sizes, dtype=float) / abs(complex(kappa, T))
    lam = np.concatenate([lam, -lam])
    return -(kappa - 1j * T) * lam[kappa * np.abs(lam) < 600]


# |z| on both sides of 5 and 40, scipy's switches between series and fraction
SIZES = [1e-3, 0.5, 1.0, 2.0, 4.99, 5.0, 5.01, 10.0, 39.9, 40.0, 40.1, 100.0, 1e4]


@pytest.mark.parametrize("kappa, T", [
    (1.1, 1e4), (1.1, 1e2), (1.1, 1.0), (2.0, 1.0), (5.0, 1.0), (1e3, 1.0),
], ids=["near-imaginary", "T=100", "T=1", "wedge-edge", "wedge", "near-negative-axis"])
def test_e1_against_mpmath_on_perron_contours(kappa, T):
    # with lambda > 0, kappa = 2T puts z on the edge Re z = -2|Im z| of the
    # wedge where scipy sums the series out to |z| = 40; kappa > 2T inside it
    z = perron_points(kappa, T, SIZES)
    got = contour._e1(z)
    for zi, gi in zip(z, got):
        want = mp_e1(zi)
        assert abs(gi - want) <= KERNEL_TOL * abs(want), zi


def test_e1_across_its_series_boundary():
    # |z| + Re z = 2 (and |z| = 40 near the negative axis), where the kernel
    # hands the series over to the continued fraction
    z = [r * complex(math.cos(t), math.sin(t)) * s
         for t in (0.0, 1.0, math.pi / 2, 2.5, 3.0)
         for r in (2.0 / (1.0 + math.cos(t)),)
         for s in (1 - 1e-12, 1 + 1e-12) if r * s < 60]
    z += [40.0 * s * complex(math.cos(t), math.sin(t))
          for t in (3.1, math.pi - 1e-6) for s in (1 - 1e-12, 1 + 1e-12)]
    z = np.array(z)
    for zi, gi in zip(z, contour._e1(z)):
        want = mp_e1(zi)
        assert abs(gi - want) <= KERNEL_TOL * abs(want), zi


def test_e1_against_scipy_where_scipy_uses_its_fraction():
    # scipy's exp1 sums its series out to |z| = 5, where the terms cancel
    # to about 1e-13 in the right half-plane; beyond it (and outside its
    # wedge) it takes the continued fraction, and serves as a second oracle
    z = np.concatenate([perron_points(kappa, T, np.geomspace(5.01, 1e5, 30))
                        for kappa, T in ((1.1, 1e4), (1.1, 1.0), (1.9, 1.0))])
    scipy_fraction = ~((z.real < -2 * np.abs(z.imag)) & (np.abs(z) < 40))
    z = z[scipy_fraction]
    got, want = contour._e1(z), exp1(z)
    assert np.all(np.abs(got - want) <= 2 * KERNEL_TOL * np.abs(want))


@settings(max_examples=150, deadline=None)
@given(kappa=st.floats(1.0, 50.0, exclude_min=True), T=st.floats(1.0, 1e5),
       lam=st.floats(-50.0, 50.0))
def test_e1_property_on_perron_contours(kappa, T, lam):
    assume(lam != 0.0 and kappa * abs(lam) < 600)
    z = -(kappa - 1j * T) * lam
    got = contour._e1(np.array([z]))[0]
    want = mp_e1(z)
    assert abs(got - want) <= KERNEL_TOL * abs(want)


@pytest.mark.parametrize("block", [1, 7, None])
def test_perron_fold_over_blocks(block, monkeypatch):
    # the blocked fold against one block holding every term: the sums
    # differ only in order, by at most (log2 N + blocks) ulps of sum |a_n t_n|
    N = 3 * contour._PERRON_BLOCK + 5 if block is None else 50
    coeffs = np.cos(np.arange(N))
    X = N // 2 + 0.5  # lambda of both signs
    if block is not None:
        monkeypatch.setattr(contour, "_PERRON_BLOCK", block)
    got = contour.perron_check(coeffs, X, 1e3, 1.1)
    monkeypatch.setattr(contour, "_PERRON_BLOCK", N)
    whole = contour.perron_check(coeffs, X, 1e3, 1.1)
    lam = np.log(X / np.arange(1, N + 1))
    terms = contour._e1(-(1.1 - 1e3j) * lam).imag / math.pi + (lam > 0)
    blocks = math.ceil(N / contour._PERRON_BLOCK) if block is None else math.ceil(N / block)
    bound = (math.log2(N) + blocks) * np.finfo(float).eps * np.sum(np.abs(coeffs * terms))
    assert abs(got[0] - whole[0]) <= bound
    assert got[1] == whole[1]  # the partial sum is one sum either way
