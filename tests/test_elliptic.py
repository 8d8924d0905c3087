import math
import warnings

import numpy as np
import pytest

from abcdwaves.elliptic import complete_k, eval_cn_series, jacobi_eval
from abcdwaves.errors import DomainError, UsageError

M_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 1.0]


def simpson_k(m, n=1_000_000):
    """Composite-Simpson quadrature of the defining integral of K."""
    t = np.linspace(0.0, math.pi / 2, n + 1)
    f = 1.0 / np.sqrt(1.0 - (m * np.sin(t)) ** 2)
    h = t[1] - t[0]
    return h / 3 * (f[0] + f[-1] + 4 * f[1::2].sum() + 2 * f[2:-1:2].sum())


def test_k_trivial_endpoints():
    assert complete_k(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    with pytest.raises(DomainError):
        complete_k(1.0)
    with pytest.raises(DomainError):
        complete_k(-0.1)
    with pytest.raises(DomainError):
        complete_k(1.5)


def test_k_against_quadrature():
    assert abs(complete_k(0.8) - simpson_k(0.8)) < 1e-12


@pytest.mark.parametrize("m", [0.3, 0.95])
def test_k_quadrature_more_moduli(m):
    assert abs(complete_k(m) - simpson_k(m, n=200_000)) < 1e-11


def test_jacobi_at_zero():
    for m in M_GRID:
        pt = jacobi_eval(0.0, m)
        assert (pt.sn, pt.cn, pt.dn) == (0.0, 1.0, 1.0)


def test_jacobi_trig_limit():
    pt = jacobi_eval(1.3, 0.0)
    assert pt.sn == pytest.approx(math.sin(1.3), abs=1e-15)
    assert pt.cn == pytest.approx(math.cos(1.3), abs=1e-15)
    assert pt.dn == 1.0


def test_jacobi_hyperbolic_limit():
    pt = jacobi_eval(2.0, 1.0)
    assert pt.sn == pytest.approx(math.tanh(2.0), abs=1e-15)
    assert pt.cn == pytest.approx(1.0 / math.cosh(2.0), abs=1e-15)
    assert pt.dn == pt.cn


def test_jacobi_identities_on_grid():
    vs = np.linspace(-10.0, 10.0, 81)
    for m in M_GRID:
        grid = jacobi_eval(vs, m)
        for i, v in enumerate(vs):
            pt = jacobi_eval(v, m)
            # one array call equals the scalar calls, bit for bit
            assert (grid.sn[i], grid.cn[i], grid.dn[i]) == (pt.sn, pt.cn, pt.dn)
            assert abs(pt.sn ** 2 + pt.cn ** 2 - 1.0) <= 1e-13
            assert abs(pt.dn ** 2 - (1.0 - m * m + (m * pt.cn) ** 2)) <= 1e-13
            assert abs(pt.sn) <= 1.0 + 1e-15
            assert abs(pt.cn) <= 1.0 + 1e-15
            assert math.sqrt(max(1.0 - m * m, 0.0)) - 1e-13 <= pt.dn <= 1.0 + 1e-15


def test_periodicity():
    for m in [0.1, 0.5, 0.8, 0.99]:
        period = 4.0 * complete_k(m)
        for v in np.linspace(-10.0, 10.0, 23):
            p0 = jacobi_eval(v, m)
            p1 = jacobi_eval(v + period, m)
            assert abs(p1.cn - p0.cn) <= 1e-10
            assert abs(p1.sn - p0.sn) <= 1e-10


def test_parity():
    for m in [0.0, 0.3, 0.77, 1.0]:
        for v in [0.17, 1.9, 5.3]:
            plus = jacobi_eval(v, m)
            minus = jacobi_eval(-v, m)
            assert minus.cn == pytest.approx(plus.cn, abs=1e-14)
            assert minus.sn == pytest.approx(-plus.sn, abs=1e-14)
            assert minus.dn == pytest.approx(plus.dn, abs=1e-14)


def test_sech_agreement_at_m1():
    for v in np.linspace(-10.0, 10.0, 101):
        assert abs(jacobi_eval(v, 1.0).cn - 1.0 / math.cosh(v)) <= 1e-12


def test_non_finite_argument():
    with pytest.raises(DomainError):
        jacobi_eval(float("nan"), 0.5)
    with pytest.raises(DomainError):
        jacobi_eval(float("inf"), 0.5)
    for m in (0.0, 0.5, 1.0):
        with pytest.raises(DomainError):
            jacobi_eval(np.array([0.0, 1.0, -np.inf]), m)
        with pytest.raises(DomainError):
            jacobi_eval(np.array([[0.3], [np.nan]]), m)


def test_huge_argument_refused():
    # the 4K reduction keeps ~|v|*1e-15 absolute accuracy: refused past
    # 2**16 periods, accurate just below
    mp = pytest.importorskip("mpmath")
    with pytest.raises(DomainError, match="periods"):
        jacobi_eval(1e16, 0.5)
    with pytest.raises(DomainError, match="periods"):
        jacobi_eval(np.array([0.0, -1e12]), 0.5)
    below = 2.0 ** 16 * 4.0 * complete_k(0.5) * (1.0 - 1e-9)
    with mp.workdps(60):
        ref = float(mp.ellipfun("cn", mp.mpf(below), m=mp.mpf(0.5) ** 2))
    assert abs(jacobi_eval(below, 0.5).cn - ref) <= 1e-11
    assert abs(jacobi_eval(1e16, 0.0).cn - math.cos(1e16)) <= 1e-12
    assert jacobi_eval(1e16, 1.0).cn == 0.0


MPMATH_MODULI = [0.05, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6]


@pytest.mark.parametrize("m", MPMATH_MODULI)
def test_kernel_against_mpmath(m):
    # seeded points over four periods each side, every multiple of K there
    # and arguments near zero down to the smallest subnormal; mpmath takes
    # the parameter m**2
    mp = pytest.importorskip("mpmath")
    k = complete_k(m)
    vs = np.concatenate([np.random.default_rng(7).uniform(-8.0 * k, 8.0 * k, 160),
                         k * np.arange(-8, 9),
                         [1e-9, -1e-9, 1e-200, -1e-200, 5e-324, 0.0, -0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pt = jacobi_eval(vs, m)
    got = np.stack([pt.sn, pt.cn, pt.dn])
    assert np.isfinite(got).all()
    with mp.workdps(40):
        ref = np.array([[float(mp.ellipfun(kind, mp.mpf(v), m=mp.mpf(m) ** 2)) for v in vs]
                        for kind in ("sn", "cn", "dn")])
    worst = np.max(np.abs(got - ref), axis=1)
    assert np.all(worst <= 8e-15), worst


def test_kernel_tiny_arguments():
    # below |sin| = 1e-150 the kernel returns (v, cos, 1) and never forms
    # the overflowing cotangent; sn is odd, so a zero keeps its sign, on the
    # scalar and the array path and through the 4K reduction
    vs = (1e-200, -1e-200, 5e-324, 0.0, -0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (0.0, 0.5, 1.0):
            arr = jacobi_eval(np.array(vs), m)
            for i, v in enumerate(vs):
                pt = jacobi_eval(v, m)
                for sn, cn, dn in ((pt.sn, pt.cn, pt.dn), (arr.sn[i], arr.cn[i], arr.dn[i])):
                    assert (sn, cn, dn) == (v, 1.0, 1.0)
                    assert math.copysign(1.0, sn) == math.copysign(1.0, v), (m, v)


# -- closed-form cn-power derivatives ------------------------------------

def cn_pow(r, lam, m, xi):
    return jacobi_eval(lam * xi, m).cn ** r


def central_diff(f, x, order, h):
    if order == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if order == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
    # O(h^4) stencil: third-order differences at the optimal naive step
    # already sit on the eps/h^3 roundoff floor
    return (-f(x + 3 * h) + 8 * f(x + 2 * h) - 13 * f(x + h)
            + 13 * f(x - h) - 8 * f(x - 2 * h) + f(x - 3 * h)) / (8 * h ** 3)


def cn_power_derivative(r, order, lam, m, xi):
    return eval_cn_series((0.0,) * r + (1.0,), jacobi_eval(lam * xi, m), lam, order)


def test_first_derivative_at_origin():
    assert cn_power_derivative(1, 1, 1.7, 0.5, 0.0) == 0.0


def test_second_derivative_vs_finite_difference():
    # the oracle runs in high precision so the 1e-5 step is not limited by
    # float64 cancellation (~4e-6 otherwise); mpmath takes the parameter
    # convention, hence m**2
    mp = pytest.importorskip("mpmath")
    dps = mp.mp.dps
    with mp.workdps(40):
        f = lambda x: mp.ellipfun("cn", x, m=mp.mpf(0.5) ** 2) ** 2
        h, x0 = mp.mpf("1e-5"), mp.mpf("0.7")
        ref = float((f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h ** 2)
    assert mp.mp.dps == dps
    got = cn_power_derivative(2, 2, 1.0, 0.5, 0.7)
    assert abs(got - ref) < 1e-6


def test_third_derivative_vs_sech_closed_form():
    # d^3/dxi^3 sech^3(2 xi) via the chain rule on
    # g''' = -27 sech^3 tanh^3 + 33 sech^5 tanh
    lam, xi = 2.0, 0.4
    u = lam * xi
    s, t = 1.0 / math.cosh(u), math.tanh(u)
    ref = lam ** 3 * (-27.0 * s ** 3 * t ** 3 + 33.0 * s ** 5 * t)
    got = cn_power_derivative(3, 3, lam, 1.0, xi)
    assert abs(got - ref) < 1e-9


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("order", [1, 2, 3])
def test_derivatives_vs_finite_differences(r, order):
    lam, m = 1.3, 0.6
    xis = [0.0, 0.31, 1.7]
    on_grid = cn_power_derivative(r, order, lam, m, np.array(xis))
    for xi, got_array in zip(xis, on_grid):
        got = cn_power_derivative(r, order, lam, m, xi)
        assert got == got_array
        h = {1: 1e-5, 2: 1e-4, 3: 2e-3}[order]
        ref = central_diff(lambda x: cn_pow(r, lam, m, x), xi, order, h)
        assert abs(got - ref) < 1e-6 * max(1.0, abs(ref))


def test_series_order_validation():
    with pytest.raises(UsageError, match=r"^derivative order must be 0, 1, 2 or 3, got 4$"):
        eval_cn_series([1.0, 2.0], jacobi_eval(0.3, 0.5), 1.0, order=4)


SERIES_CASES = [([0.3, -1.2, 0.8], 1.3, 0.6, 0.41),
                ([-2.5, 0.0, 4.0], 0.7, 0.9, 2.2),
                ([1.0, 0.5, -0.25, 2.0, -1.5], 2.1, 0.3, -0.9),
                ([0.0, 0.0, -3.0], 1.0, 0.99, 1.6),
                ([12.0, -7.0, 0.0, 0.0, 5.0], 0.45, 0.75, 5.3)]


@pytest.mark.parametrize("coeffs, lam, m, xi", SERIES_CASES)
def test_series_derivatives_against_mpmath(coeffs, lam, m, xi):
    # mpmath differentiates sum_r c_r cn^r(lam xi) at 30 digits; the worst
    # relative error over these cases was 1.5e-15
    mp = pytest.importorskip("mpmath")
    pt = jacobi_eval(lam * xi, m)
    with mp.workdps(30):
        def series(x):
            cn = mp.ellipfun("cn", lam * x, m=mp.mpf(m) ** 2)
            return sum(c * cn ** r for r, c in enumerate(coeffs))

        for order in (1, 2, 3):
            ref = mp.diff(series, mp.mpf(xi), order)
            got = eval_cn_series(coeffs, pt, lam, order)
            assert abs(float((got - ref) / ref)) <= 5e-15
