"""Spherical Bessel values B_p(r) = (i^p / 2) * integral of e^{-i r xi} L_p(xi).

These are the oscillatory moments that turn a per-element Legendre series
into global Fourier coefficients. B_p coincides with the spherical Bessel
function of the first kind, so B_0(r) = sin(r)/r and
B_1(r) = sin(r)/r^2 - cos(r)/r.

Evaluation strategy (one column B_0..B_P per argument):

* |r| < 0.5: ascending power series, term ratio ~ r^2, summed to 1e-18
  relative tail; at r = 0 (or -0.0) it gives exactly [1, 0, .., 0].
* |r| >= 0.5: Miller downward recurrence from a start degree safely above
  the turning point p ~ |r|, normalized against B_0 (or B_1 when sin(r)
  nearly vanishes), with an overflow rescale guard.
* B_p(-r) = (-1)^p B_p(r) handles negative arguments.

Values below 1e-292 in magnitude are flushed to exact zero so downstream
products cannot trap on subnormals.
"""

from __future__ import annotations

import math

import numpy as np

from .gll import gll_rule, legendre_eval

__all__ = ["bessel_column", "bessel_identity_residual"]

MAX_COLUMN_DEGREE = 64
_FLUSH = 1e-292
_RESCALE = 1e250
_SERIES_SPLIT = 0.5


def _column_series(r: float, P: int) -> np.ndarray:
    """Ascending series for small |r|; each degree converges in a few terms."""
    out = np.zeros(P + 1)
    r2half = 0.5 * r * r
    # t0 = r^p / (2p+1)!!, updated incrementally across degrees
    t0 = 1.0
    for p in range(P + 1):
        term = t0
        s = term
        m = 0
        while True:
            m += 1
            term *= -r2half / (m * (2 * p + 2 * m + 1))
            if term == 0.0 or abs(term) <= 1e-18 * abs(s):
                s += term
                break
            s += term
        out[p] = s
        t0 *= r / (2 * p + 3)
        if t0 == 0.0 and p + 1 <= P:
            break  # remaining degrees underflow to zero
    return out


def _column_miller(r: float, P: int) -> np.ndarray:
    """Downward recurrence for |r| >= 0.5, normalized by closed-form B_0/B_1.

    The start degree sits above the turning point p ~ r by a margin that
    grows like r^(1/3); a fixed margin loses relative accuracy once the
    transition zone widens at large r.
    """
    n_start = P + math.ceil(r) + 32 + math.ceil(12.0 * r ** (1.0 / 3.0))
    out = np.zeros(P + 1)
    tp1 = 0.0       # trial value at degree p+1
    tp = 1e-10      # trial value at degree p
    p = n_start - 1
    while p > 0:
        if p <= P:
            out[p] = tp
        tp1, tp = tp, (2 * p + 1) / r * tp - tp1
        p -= 1
        if abs(tp) > _RESCALE:
            tp *= 1.0 / _RESCALE
            tp1 *= 1.0 / _RESCALE
            out *= 1.0 / _RESCALE
    t0, t1 = tp, tp1
    out[0] = t0

    sin_r = math.sin(r)
    b0 = sin_r / r
    b1 = sin_r / (r * r) - math.cos(r) / r
    # Anchor on whichever closed form is better conditioned.
    if abs(b0) >= abs(b1):
        scale = b0 / t0
    else:
        scale = b1 / t1
    out *= scale
    return out


def bessel_column(r: float, P: int) -> np.ndarray:
    """Column of values B_0(r) .. B_P(r).

    Args:
        r: real argument, any magnitude.
        P: highest degree, 0 <= P <= 64.

    Returns:
        Array of shape (P+1,); entries with magnitude below 1e-292 are
        exactly zero.
    """
    if not 0 <= P <= MAX_COLUMN_DEGREE:
        raise ValueError(f"degree out of range [0, {MAX_COLUMN_DEGREE}]: {P}")
    r = float(r)
    if not math.isfinite(r):
        raise ValueError("argument must be finite")
    a = abs(r)
    if a < _SERIES_SPLIT:
        out = _column_series(a, P)
    else:
        out = _column_miller(a, P)
    if r < 0.0 and P >= 1:
        out[1::2] = -out[1::2]
    out[np.abs(out) < _FLUSH] = 0.0
    return out


def bessel_identity_residual(r: float, p: int, oracle_degree: int) -> float:
    """Gap between B_p(r) and direct quadrature of its defining integral.

    The oracle evaluates (i^p / 2) * sum_j w_j e^{-i r xi_j} L_p(xi_j) with
    a Gauss-Lobatto-Legendre rule fine enough to resolve the oscillation.

    Args:
        r: real argument.
        p: degree, 0 <= p <= 64.
        oracle_degree: quadrature degree, at least
            max(100, ceil(|r|) + 2p + 20).

    Returns:
        Absolute difference |B_p(r) - quadrature|.
    """
    r = float(r)
    floor = max(100, math.ceil(abs(r)) + 2 * p + 20)
    if oracle_degree < floor:
        raise ValueError(f"oracle degree {oracle_degree} below required {floor}")
    rule = gll_rule(oracle_degree)
    lp = legendre_eval(p, rule.nodes)
    quad = np.sum(rule.weights * np.exp(-1j * r * rule.nodes) * lp)
    ip = (1.0, 1j, -1.0, -1j)[p % 4]
    value = 0.5 * ip * quad
    return float(abs(bessel_column(r, p)[p] - value))
