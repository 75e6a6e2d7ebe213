"""Analytic reference fields with known global Fourier coefficients.

Each case bundles a vectorized evaluator over physical points with a
callable returning the exact coefficient vector at an integer wavevector,
so transforms can be checked end to end without quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .gll import legendre_eval
from .bessel import bessel_column
from .transform import Spectrum, WaveSet

__all__ = [
    "AnalyticCase",
    "exact_spectrum",
    "case_legendre",
    "case_sin",
    "case_rotated_series",
    "case_burgers_t0",
    "case_burgers_t",
    "burgers_profile",
]


@dataclass(frozen=True)
class AnalyticCase:
    """A reference field: evaluator plus exact spectrum.

    Attributes:
        name: short identifier used by the CLI.
        d: spatial dimension.
        components: number of field components C.
        func: vectorized callable, points (N, d) -> values (N, C).
        exact_coeff: callable mapping an integer wavevector tuple to the
            exact coefficient vector (C,) complex, or None when no exact
            spectrum is available.
        params: the constants the case was built with.
    """

    name: str
    d: int
    components: int
    func: Callable[[np.ndarray], np.ndarray]
    exact_coeff: Callable[[tuple], np.ndarray] | None
    params: dict = field(default_factory=dict)


def exact_spectrum(case: AnalyticCase, waves: WaveSet) -> Spectrum:
    """Exact coefficients of a case over a wave set."""
    if case.exact_coeff is None:
        raise ValueError(f"case {case.name!r} has no exact spectrum")
    if waves.d != case.d:
        raise ValueError("wave set dimension does not match case")
    values = np.array([case.exact_coeff(q) for q in waves.qs], dtype=complex)
    values = values.reshape(len(waves), case.components)
    return Spectrum(waves, values)


def case_legendre(p: int) -> AnalyticCase:
    """1D field L_p(x / pi); coefficient at q is i^{-p} B_p(pi q)."""
    if p < 0:
        raise ValueError("degree must be nonnegative")
    ip = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)[p % 4]

    def func(X: np.ndarray) -> np.ndarray:
        return np.asarray(legendre_eval(p, np.asarray(X)[:, 0] / math.pi))

    def coeff(q) -> np.ndarray:
        (q1,) = tuple(q)
        return np.array([ip * bessel_column(math.pi * q1, p)[p]], dtype=complex)

    return AnalyticCase("legendre", 1, 1, func, coeff, {"p": p})


def case_sin() -> AnalyticCase:
    """1D field sin(x); coefficients (delta_{q,1} - delta_{q,-1}) / 2i."""

    def func(X: np.ndarray) -> np.ndarray:
        return np.sin(np.asarray(X)[:, 0])

    def coeff(q) -> np.ndarray:
        (q1,) = tuple(q)
        if q1 == 1:
            return np.array([-0.5j])
        if q1 == -1:
            return np.array([0.5j])
        return np.array([0.0j])

    return AnalyticCase("sin", 1, 1, func, coeff, {})


def _cosine_series(y: np.ndarray, b: float, n_trunc: int) -> np.ndarray:
    """1 + 2 sum_{n=1}^{N} e^{bn} cos(n y), summed in closed form.

    The truncated geometric series is 1 + 2 Re(z (1 - z^N) / (1 - z)) with
    z = e^{b + iy}, and |z| < 1 since b < 0. Its error relative to
    max(1, |value|) grows like eps / |b|, up to about 1e-13 at b = -1e-3.
    """
    z = np.exp(b + 1j * y)
    return 1.0 + 2.0 * (z * (1.0 - z ** n_trunc) / (1.0 - z)).real


def case_rotated_series(b=(-0.4, -0.4), l=(1, 2), n_trunc: int = 96) -> AnalyticCase:
    """2D product of two exponentially weighted cosine series on rotated axes.

    The field is F_{b1}(y1) F_{b2}(y2) with y = (l1 x1 + l2 x2,
    -l2 x1 + l1 x2), each factor truncated at ``n_trunc`` terms. Its
    wavevector support is the sublattice {q : L q divisible by l1^2+l2^2}
    of index l1^2 + l2^2, with coefficient exp(b1 |m1| + b2 |m2|) at the
    lattice coordinates m. The truncation tail 2 e^{b (N+1)} / (1 - e^b)
    per factor is ~9e-17 at the defaults, so the truncated evaluator and
    its finitely supported spectrum are mutually exact.
    """
    b1, b2 = float(b[0]), float(b[1])
    l1, l2 = int(l[0]), int(l[1])
    if b1 >= 0 or b2 >= 0:
        raise ValueError("decay rates must be negative")
    if (l1, l2) == (0, 0):
        raise ValueError("lattice vector must be nonzero")
    if n_trunc < 0:
        raise ValueError(f"series truncation must be nonnegative: {n_trunc}")
    det = l1 * l1 + l2 * l2

    def func(X: np.ndarray) -> np.ndarray:
        X_arr = np.asarray(X)
        y1 = l1 * X_arr[:, 0] + l2 * X_arr[:, 1]
        y2 = -l2 * X_arr[:, 0] + l1 * X_arr[:, 1]
        return _cosine_series(y1, b1, n_trunc) * _cosine_series(y2, b2, n_trunc)

    def coeff(q) -> np.ndarray:
        q1, q2 = tuple(q)
        m1n = l1 * q1 + l2 * q2
        m2n = -l2 * q1 + l1 * q2
        if m1n % det or m2n % det:
            return np.array([0.0j])
        m1, m2 = abs(m1n // det), abs(m2n // det)
        if m1 > n_trunc or m2 > n_trunc:
            return np.array([0.0j])
        return np.array([complex(math.exp(b1 * m1 + b2 * m2))])

    return AnalyticCase(
        "rotated_series", 2, 1, func, coeff,
        {"b": (b1, b2), "l": (l1, l2), "n_trunc": n_trunc},
    )


def case_burgers_t0(l=(1, 2)) -> AnalyticCase:
    """2D vector field -l sin(l.x); support only at wavevectors +-l."""
    l_arr = np.array([int(l[0]), int(l[1])])
    if np.all(l_arr == 0):
        raise ValueError("direction must be nonzero")

    def func(X: np.ndarray) -> np.ndarray:
        s = np.asarray(X) @ l_arr
        return np.multiply.outer(-np.sin(s), l_arr.astype(float))

    def coeff(q) -> np.ndarray:
        qt = tuple(q)
        if qt == tuple(l_arr):
            return 0.5j * l_arr.astype(complex)
        if qt == tuple(-l_arr):
            return -0.5j * l_arr.astype(complex)
        return np.zeros(2, dtype=complex)

    return AnalyticCase("burgers_t0", 2, 2, func, coeff, {"l": tuple(l_arr)})


def burgers_profile(s, tau: float, nu: float, n_quad: int = 1600) -> np.ndarray:
    """Viscous Burgers profile V(tau, s) with V(0, s) = -sin(s), period 2 pi.

    Solves V_tau + V V_s = nu V_ss through the exact integral
    representation

        V(tau, s) = int (s - y)/tau W(y) dy / int W(y) dy,
        W(y) = exp(-[cos(y) + (s - y)^2 / (2 tau)] / (2 nu)),

    evaluated by a midpoint rule over y in [s - pi, s + pi] after
    subtracting the rowwise exponent maximum. The integrand is positive,
    so the quotient stays fully significant even at sharp fronts where
    alternating-series forms of the same solution cancel below double
    precision.

    Args:
        s: evaluation points (scalar or array), any real values.
        tau: time, >= 0.
        nu: viscosity, > 0.
        n_quad: base quadrature resolution; scaled up automatically when
            the heat kernel is narrower than the grid.

    Returns:
        Array of profile values with the shape of ``s``.
    """
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    if tau < 0:
        raise ValueError("time must be nonnegative")
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if tau == 0.0:
        out = -np.sin(s_arr)
        return out if np.ndim(s) else float(out[0])

    width = math.sqrt(2.0 * nu * tau)
    # window where exp(-eta^2/(4 nu tau)) still beats both the cosine
    # swing e^{1/nu} and the 1e-300 floor
    half_span = max(math.pi, math.sqrt(4.0 * tau + 1400.0 * nu * tau))
    n_eff = int(math.ceil(max(
        n_quad * half_span / math.pi, 16.0 * 2.0 * half_span / width
    )))
    eta = -half_span + (np.arange(n_eff) + 0.5) * (2.0 * half_span / n_eff)
    out = np.empty_like(s_arr)
    half = 0.5 / nu
    block = max(1, (1 << 21) // n_eff)  # keep work arrays around 16 MB
    for lo in range(0, s_arr.size, block):
        seg = s_arr[lo:lo + block]
        y = seg[:, None] + eta[None, :]
        g = -half * (np.cos(y) + eta[None, :] ** 2 / (2.0 * tau))
        g -= np.max(g, axis=1, keepdims=True)
        w = np.exp(g)
        num = np.einsum("mn,n->m", w, -eta / tau)
        den = np.einsum("mn->m", w)
        out[lo:lo + block] = num / den
    return out if np.ndim(s) else float(out[0])


_BENCH_TIME = 1.6037
_N_FFT = 8192


@lru_cache(maxsize=None)
def _profile_fft(tau: float, nu: float) -> np.ndarray:
    """Fourier coefficients of the 1D profile, index m in FFT layout."""
    grid = -math.pi + 2.0 * math.pi * np.arange(_N_FFT) / _N_FFT
    vals = burgers_profile(grid, tau, nu)
    sign = (-1.0) ** np.arange(_N_FFT)  # shift from grid start -pi
    out = sign * np.fft.fft(vals) / _N_FFT
    out.setflags(write=False)  # one cached array serves every caller
    return out


def case_burgers_t(l=(1, 2), t: float | None = None,
                   viscosity: float = 1e-2 / math.pi) -> AnalyticCase:
    """Planar viscous Burgers front along direction l at a chosen time.

    The field is u(t, x) = l V(tau, l.x) with V the 1D profile of
    ``burgers_profile`` at tau = pi |l|^2 t and viscosity pi * ``viscosity``.
    The default time t = 1.6037 / (5 pi) puts the profile at its
    steepest-front state for l = (1, 2), where the spectrum along l decays
    close to |q|^{-1} over the first decades.

    Coefficients live at wavevectors m l with value l * Vhat_m, where
    Vhat_m comes from an 8192-point Fourier analysis of the profile
    (accurate to roundoff at these parameters, though not closed form).
    """
    l_arr = np.array([int(l[0]), int(l[1])])
    if np.all(l_arr == 0):
        raise ValueError("direction must be nonzero")
    l2 = float(l_arr @ l_arr)
    if t is None:
        t = _BENCH_TIME / (math.pi * l2)
    tau = math.pi * l2 * float(t)
    nu_s = math.pi * float(viscosity)

    def func(X: np.ndarray) -> np.ndarray:
        s = np.asarray(X) @ l_arr
        v = burgers_profile(s, tau, nu_s)
        return np.multiply.outer(v, l_arr.astype(float))

    def coeff(q) -> np.ndarray:
        q1, q2 = tuple(q)
        # q must be an integer multiple of l
        if l_arr[0] != 0:
            m, rem = divmod(q1, l_arr[0])
        else:
            m, rem = divmod(q2, l_arr[1])
        if rem or (q1, q2) != (m * l_arr[0], m * l_arr[1]):
            return np.zeros(2, dtype=complex)
        if abs(m) > _N_FFT // 2 - 1:
            return np.zeros(2, dtype=complex)
        vhat = _profile_fft(tau, nu_s)[m % _N_FFT]
        return vhat * l_arr.astype(complex)

    return AnalyticCase(
        "burgers_t", 2, 2, func, coeff,
        {"l": tuple(l_arr), "t": float(t), "viscosity": float(viscosity),
         "tau": tau, "nu_s": nu_s},
    )
