"""Analytic reference fields: evaluators vs independent closed forms."""

import math

import numpy as np
import pytest
from scipy.special import ive

from semfourier.cases import (
    burgers_profile,
    case_burgers_t,
    case_burgers_t0,
    case_legendre,
    case_rotated_series,
    case_sin,
    exact_spectrum,
)
from semfourier.cubature import TrigGrid, cubature_transform_fn
from semfourier.gll import gll_rule, legendre_eval
from semfourier.harness import fit_loglog_slope
from semfourier.transform import WaveSet


def test_legendre_case_evaluator_and_coefficients():
    case = case_legendre(4)
    x = np.linspace(-math.pi, math.pi, 9)
    np.testing.assert_allclose(
        case.func(x[:, None])[:, 0] if case.func(x[:, None]).ndim == 2
        else case.func(x[:, None]),
        legendre_eval(4, x / math.pi),
    )
    # mean of L_p vanishes for p >= 1; q = 0 of L_0 is 1
    assert case.exact_coeff((0,))[0] == 0.0
    assert case_legendre(0).exact_coeff((0,))[0] == 1.0
    with pytest.raises(ValueError):
        case_legendre(-1)


@pytest.mark.parametrize("p,q", [(2, 1), (3, 2), (5, 7)])
def test_legendre_case_coefficient_against_quadrature(p, q):
    # independent route: dense GLL quadrature of L_p(x/pi) e^{-iqx}
    case = case_legendre(p)
    rule = gll_rule(120)
    x = math.pi * rule.nodes
    vals = legendre_eval(p, rule.nodes) * np.exp(-1j * q * x)
    ref = np.sum(rule.weights * vals) / 2.0
    assert case.exact_coeff((q,))[0] == pytest.approx(ref, abs=1e-13)


def test_sin_case_spectrum():
    case = case_sin()
    waves = WaveSet.box(1, 2)
    spec = exact_spectrum(case, waves)
    assert spec.get((1,))[0] == -0.5j
    assert spec.get((-1,))[0] == 0.5j
    assert spec.get((2,))[0] == 0.0
    x = np.array([[0.3], [1.1]])
    np.testing.assert_allclose(case.func(x).ravel(), np.sin(x.ravel()))


def _poisson_kernel(y, b):
    rho = math.exp(b)
    return (1.0 - rho * rho) / (1.0 - 2.0 * rho * np.cos(y) + rho * rho)


def test_rotated_series_matches_poisson_closed_form():
    # the full cosine series sums to a Poisson kernel; the 96-term
    # truncation leaves ~1e-11 relative tail at b = -0.3
    case = case_rotated_series(b=(-0.4, -0.3), l=(1, 2))
    rng = np.random.default_rng(61)
    X = rng.uniform(-math.pi, math.pi, (200, 2))
    y1 = X[:, 0] + 2.0 * X[:, 1]
    y2 = -2.0 * X[:, 0] + X[:, 1]
    ref = _poisson_kernel(y1, -0.4) * _poisson_kernel(y2, -0.3)
    np.testing.assert_allclose(case.func(X), ref, rtol=5e-11)


def test_rotated_series_lattice_support():
    case = case_rotated_series(b=(-0.4, -0.4), l=(1, 2))
    # images of the unit lattice vectors under the rotation
    assert case.exact_coeff((0, 0))[0] == 1.0
    e = math.exp(-0.4)
    assert case.exact_coeff((1, 2))[0] == pytest.approx(e)
    assert case.exact_coeff((-2, 1))[0] == pytest.approx(e)
    assert case.exact_coeff((-1, 3))[0] == pytest.approx(e * e)  # m = (1, 1)
    # off the sublattice of index 5 everything vanishes
    for q in [(1, 0), (0, 1), (1, 1), (2, 2), (3, -1)]:
        assert case.exact_coeff(q)[0] == 0.0
    # the truncated series stops at |m| = n_trunc
    case_small = case_rotated_series(n_trunc=3)
    assert case_small.exact_coeff((4, 8))[0] == 0.0
    assert case_small.exact_coeff((3, 6))[0] != 0.0


def test_rotated_series_validates_parameters():
    with pytest.raises(ValueError):
        case_rotated_series(b=(0.1, -0.4))
    with pytest.raises(ValueError):
        case_rotated_series(l=(0, 0))


def test_rotated_series_coefficients_recovered_by_cubature():
    # truncated series is band-limited, so a wide enough grid nails the
    # coefficients to round-off
    case = case_rotated_series(n_trunc=24)  # support ||q||_inf <= 72
    waves = WaveSet.from_list([(0, 0), (1, 2), (-2, 1), (-1, 3), (2, 4)])
    spec = cubature_transform_fn(case.func, TrigGrid(2, 160), waves)
    exact = exact_spectrum(case, waves)
    assert np.max(np.abs(spec.values - exact.values)) < 1e-10


def test_burgers_t0_field_and_spectrum():
    case = case_burgers_t0(l=(1, 2))
    X = np.array([[0.2, -0.4], [1.0, 0.5]])
    s = X @ np.array([1, 2])
    ref = np.multiply.outer(-np.sin(s), np.array([1.0, 2.0]))
    np.testing.assert_allclose(case.func(X), ref)
    np.testing.assert_allclose(case.exact_coeff((1, 2)), [0.5j, 1.0j])
    np.testing.assert_allclose(case.exact_coeff((-1, -2)), [-0.5j, -1.0j])
    assert np.all(case.exact_coeff((1, 1)) == 0.0)
    with pytest.raises(ValueError):
        case_burgers_t0(l=(0, 0))


def test_profile_initial_condition_and_symmetries():
    s = np.linspace(-math.pi, math.pi, 101)
    np.testing.assert_array_equal(burgers_profile(s, 0.0, 0.01), -np.sin(s))
    v = burgers_profile(s, 1.6037, 0.01)
    # odd, 2 pi periodic, bounded by the initial amplitude
    np.testing.assert_allclose(v, -burgers_profile(-s, 1.6037, 0.01), atol=1e-13)
    np.testing.assert_allclose(
        v, burgers_profile(s + 2.0 * math.pi, 1.6037, 0.01), atol=1e-12
    )
    assert np.max(np.abs(v)) < 1.0
    with pytest.raises(ValueError):
        burgers_profile(s, -1.0, 0.01)
    with pytest.raises(ValueError):
        burgers_profile(s, 1.0, 0.0)


def test_profile_small_time_expansion():
    # V = -sin(s) + O(tau) uniformly
    s = np.linspace(-3, 3, 61)
    for tau in (1e-4, 1e-3):
        gap = np.max(np.abs(burgers_profile(s, tau, 0.01) + np.sin(s)))
        assert gap < 2.0 * tau


def _burgers_profile_series(s, tau: float, nu: float, n_max: int = 4000) -> np.ndarray:
    """Fourier-series form of the same profile (modified-Bessel weights).

    Only meaningful where the alternating denominator keeps significance,
    roughly nu (1 + tau) >~ 0.1; kept as an independent cross-check of
    ``burgers_profile``.
    """
    lam = 0.5 / nu
    n = np.arange(1, n_max + 1)
    rho = ((-1.0) ** n) * ive(n, lam) / ive(0, lam)
    coef = rho * np.exp(-nu * tau * n * n)
    keep = np.abs(coef) > 1e-300
    n, coef = n[keep], coef[keep]
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    phase = np.multiply.outer(s_arr, n)
    num = 4.0 * nu * np.einsum("n,mn->m", coef * n, np.sin(phase))
    den = 1.0 + 2.0 * np.einsum("n,mn->m", coef, np.cos(phase))
    return num / den


@pytest.mark.parametrize("tau,nu", [(0.3, 0.5), (1.0, 0.2), (2.0, 0.12)])
def test_profile_against_series_representation(tau, nu):
    # the quotient-of-series form keeps full significance at these
    # parameters and provides an independent route to the same solution
    s = np.linspace(-3, 3, 101)
    a = burgers_profile(s, tau, nu)
    b = _burgers_profile_series(s, tau, nu)
    assert np.max(np.abs(a - b)) < 1e-12


def test_profile_steepest_front_slope():
    # at the benchmark state the front slope reaches 152/pi
    h = 1e-4
    slope = (burgers_profile(h, 1.6037, 0.01) - burgers_profile(-h, 1.6037, 0.01)) / (2 * h)
    assert -slope == pytest.approx(152.0 / math.pi, rel=1e-3)


def test_burgers_t_defaults_hit_benchmark_state():
    case = case_burgers_t()
    assert case.params["tau"] == pytest.approx(1.6037)
    assert case.params["nu_s"] == pytest.approx(0.01)
    assert case.params["l"] == (1, 2)


def test_burgers_t_field_is_planar():
    case = case_burgers_t()
    rng = np.random.default_rng(67)
    X = rng.uniform(-math.pi, math.pi, (20, 2))
    vals = case.func(X)
    # u = l V(l.x): second component is exactly twice the first
    np.testing.assert_allclose(vals[:, 1], 2.0 * vals[:, 0], rtol=1e-14)


def test_burgers_t_coefficient_against_direct_quadrature():
    # independent route: midpoint Fourier integral of the 1D profile with
    # a grid size unrelated to the FFT length
    case = case_burgers_t()
    tau, nu_s = case.params["tau"], case.params["nu_s"]
    N = 3000
    grid = -math.pi + 2.0 * math.pi * (np.arange(N) + 0.5) / N
    vals = burgers_profile(grid, tau, nu_s)
    for m in (1, 2, 5):
        vhat = np.sum(vals * np.exp(-1j * m * grid)) / N
        got = case.exact_coeff((m, 2 * m))
        assert got[0] == pytest.approx(vhat, abs=1e-12)
        assert got[1] == pytest.approx(2.0 * vhat, abs=1e-12)
    # off the ray through l the spectrum vanishes identically
    for q in [(1, 0), (0, 2), (2, 1), (1, -2), (3, 5)]:
        assert np.all(case.exact_coeff(q) == 0.0)


def test_burgers_t_spectral_decay_is_near_first_order():
    case = case_burgers_t()
    m = np.arange(1, 41)
    mags = np.array([abs(case.exact_coeff((int(k), 2 * int(k)))[0]) for k in m])
    slope = fit_loglog_slope(m, mags)
    assert -1.6 <= slope <= -0.9


def test_exact_spectrum_requires_matching_dimension():
    case = case_sin()
    with pytest.raises(ValueError):
        exact_spectrum(case, WaveSet.box(2, 1))
