"""Oscillatory moment columns B_0..B_P and their defining integral."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import spherical_jn

from semfourier.bessel import bessel_column, bessel_identity_residual


def _closed_forms(r):
    b0 = math.sin(r) / r
    b1 = math.sin(r) / r**2 - math.cos(r) / r
    b2 = (3 / r**3 - 1 / r) * math.sin(r) - 3 / r**2 * math.cos(r)
    return b0, b1, b2


@pytest.mark.parametrize("r", [0.3, 1.0, 2.5, 7.0, 40.0])
def test_low_degrees_match_closed_forms(r):
    # the explicit forms themselves cancel badly below r ~ 0.3, so smaller
    # arguments are covered by the scipy cross-check instead
    col = bessel_column(r, 2)
    for p, ref in enumerate(_closed_forms(r)):
        assert col[p] == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_zero_argument_is_kronecker_delta():
    col = bessel_column(0.0, 10)
    assert col[0] == 1.0
    assert np.all(col[1:] == 0.0)


@pytest.mark.parametrize("r", [0.2, 0.499, 3.0, 17.5])
def test_negative_argument_parity_is_exact(r):
    pos = bessel_column(r, 9)
    neg = bessel_column(-r, 9)
    assert np.array_equal(neg[0::2], pos[0::2])
    assert np.array_equal(neg[1::2], -pos[1::2])


def test_split_point_continuity():
    # series side and recurrence side of the 0.5 split agree through scipy
    for r in (0.4999, 0.5001):
        ref = spherical_jn(np.arange(25), r)
        np.testing.assert_allclose(bessel_column(r, 24), ref, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize(
    "r",
    [0.01, 0.1, 0.5, 0.9, 2.0, math.pi, 5.0, 10.0, 31.4, 100.0,
     314.159, 1000.0, 16000.0],
)
def test_matches_scipy_where_significant(r):
    # Relative accuracy is only claimable away from the zeros of j_p: the
    # recurrence is normalized at p = 0/1, so entries sitting many orders
    # below the column peak keep absolute, not relative, accuracy.
    P = 64
    col = bessel_column(r, P)
    ref = spherical_jn(np.arange(P + 1), r)
    scale = np.max(np.abs(ref))
    err = np.abs(col - ref)
    assert np.all(err <= 1e-12 * np.maximum(np.abs(ref), 1e-2 * scale))


def test_boundedness_and_flush():
    # |j_p| <= 1 everywhere; deep evanescent entries flush to exact zero
    for r in (0.05, 1.0, 12.3, 200.0):
        col = bessel_column(r, 64)
        assert np.max(np.abs(col)) <= 1.0
    tiny = bessel_column(1e-20, 40)
    assert tiny[0] == 1.0
    assert np.all(tiny[20:] == 0.0)


@pytest.mark.parametrize("r", [1e-40, 1e-100, 1e-300])
def test_tiny_arguments_give_leading_terms_or_exact_zeros(r):
    # B_p(r) = r^p / (2p+1)!! to far below rounding here; the power series
    # must carry these arguments, where the downward recurrence alone fails
    col = bessel_column(r, 20)
    assert col[0] == 1.0
    for p in range(1, 21):
        lead = float(mpmath.mpf(r) ** p / mpmath.fac2(2 * p + 1))
        if lead >= 1e-291:
            assert col[p] == pytest.approx(lead, rel=1e-14)
        else:
            assert lead < 1e-293 and col[p] == 0.0


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bessel_column(1.0, -1)
    with pytest.raises(ValueError):
        bessel_column(1.0, 65)
    with pytest.raises(ValueError):
        bessel_column(math.inf, 4)
    with pytest.raises(ValueError):
        bessel_column(math.nan, 4)


def test_three_term_recurrence_holds():
    r = 7.3
    col = bessel_column(r, 20)
    for p in range(1, 20):
        lhs = col[p - 1] + col[p + 1]
        rhs = (2 * p + 1) / r * col[p]
        assert lhs == pytest.approx(rhs, abs=1e-13 * max(1.0, abs(rhs)))


@pytest.mark.parametrize(
    "r,p,degree",
    [
        (0.1, 0, 100),
        (1.0, 5, 120),
        (7.5, 18, 200),
        (10 * math.pi, 7, 160),
        (150.0, 18, 400),
    ],
)
def test_integral_identity_residual(r, p, degree):
    assert bessel_identity_residual(r, p, degree) <= 1e-10


def test_identity_rejects_coarse_oracle():
    # an oracle too coarse for the oscillation must be refused, not used
    with pytest.raises(ValueError):
        bessel_identity_residual(150.0, 18, 200)
    with pytest.raises(ValueError):
        bessel_identity_residual(1.0, 2, 99)


def test_large_argument_asymptotic_phase():
    # j_p(r) = [sin(r - p pi/2) + O(p^2 / r)] / r for r >> p
    r = 16000.0
    col = bessel_column(r, 4)
    for p in range(5):
        ref = math.sin(r - p * math.pi / 2) / r
        tail = (p * (p + 1) / 2 + 1e-3) / r**2
        assert col[p] == pytest.approx(ref, abs=tail)
