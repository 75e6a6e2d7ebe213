"""Equispaced trigonometric cubature baseline and its aliasing error.

The M^d-point approximation to a Fourier coefficient,

    u_hat_cub(q) = M^{-d} sum_m u(x_m) e^{-i q.x_m},
    x_m_alpha = (2 m_alpha / M - 1) pi,  m_alpha in {1..M},

is exact for trigonometric polynomials of per-axis degree < M - |q| and
otherwise picks up the aliasing sum E_q(u) = sum_{r != 0} u_hat(q + M r).
Piecewise-polynomial interpolants are not band-limited, so the baseline
converges only at a fixed algebraic rate in M; the exact transform exists
to avoid precisely this error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import pi

import numpy as np

from .mesh import NodalField, eval_field_many, tensor_grid
from .transform import Spectrum, WaveSet, contract_waves, fold_table

__all__ = [
    "TrigGrid",
    "cubature_transform",
    "cubature_transform_fn",
    "aliasing_error",
    "aliasing_tail_estimate",
]


@dataclass(frozen=True)
class TrigGrid:
    """Uniform periodic grid with M points per axis on [-pi, pi]^d."""

    d: int
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("need at least one point per axis")
        if self.d < 1:
            raise ValueError("dimension must be positive")

    @property
    def nodes_1d(self) -> np.ndarray:
        m = np.arange(1, self.M + 1)
        return (2.0 * m / self.M - 1.0) * pi

    def points(self) -> np.ndarray:
        """All M^d grid points, lexicographic with axis 1 fastest: (M^d, d)."""
        return tensor_grid(self.nodes_1d, self.d)


def _cubature_values(samples: np.ndarray, grid: TrigGrid,
                     waves: WaveSet) -> Spectrum:
    """The grid as one M^d block: factors e^{-i q_t x_m}, folded to
    cos(|q_t| x_m) and -sin(|q_t| x_m), weight M^{-d}."""
    factors = [fold_table(np.exp(-1j * np.multiply.outer(u, grid.nodes_1d))[None], u)
               for u, *_ in waves.axis_folds]
    weight = np.array([1.0 / grid.M ** grid.d])
    return Spectrum(waves, contract_waves(samples[None], factors, weight, waves))


def cubature_transform(field: NodalField, grid: TrigGrid,
                       waves: WaveSet) -> Spectrum:
    """Equispaced cubature of a nodal field's interpolant.

    ``cubature_transform_fn`` over ``eval_field_many``, so the gap to the
    exact transform is purely the aliasing sum.
    """
    if grid.d != field.mesh.d:
        raise ValueError("dimension mismatch")
    return cubature_transform_fn(lambda X: eval_field_many(field, X), grid, waves)


def cubature_transform_fn(f, grid: TrigGrid, waves: WaveSet) -> Spectrum:
    """Equispaced cubature of an arbitrary vectorized function."""
    if waves.d != grid.d:
        raise ValueError("dimension mismatch")
    samples = np.asarray(f(grid.points()), dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    return _cubature_values(samples, grid, waves)


def _shifts(q, M: int, R: int) -> list[tuple[tuple[int, ...], int]]:
    """(q + M r, ||r||_inf) for every r in [-R, R]^d, r in lexicographic order."""
    if M < 1 or R < 0:
        raise ValueError("M must be positive and R nonnegative")
    q_tup = tuple(int(c) for c in q)
    return [(tuple(qt + M * rt for qt, rt in zip(q_tup, r)), max(map(abs, r), default=0))
            for r in product(range(-R, R + 1), repeat=len(q_tup))]


def aliasing_error(spectrum_fn, q, M: int, R: int):
    """Truncated aliasing sum sum_{0 < ||r||_inf <= R} u_hat(q + M r).

    Args:
        spectrum_fn: callable returning the exact coefficient (scalar or
            component vector) at an integer wavevector tuple.
        q: base wavevector.
        M: cubature resolution per axis, >= 1.
        R: truncation radius in shells of the shift lattice, >= 0.

    Returns:
        The partial sum in the lexicographic order of r, with the shape
        spectrum_fn returns. This is a truncation of an infinite sum; pair
        it with ``aliasing_tail_estimate`` to size the neglected remainder.
    """
    shifts = _shifts(q, M, R)
    vals = [np.asarray(spectrum_fn(s), dtype=complex) for s, ring in shifts if ring]
    if not vals:
        return np.asarray(spectrum_fn(shifts[0][0]), dtype=complex) * 0.0
    return sum(vals[1:], vals[0])


def aliasing_tail_estimate(spectrum_fn, q, M: int, R: int) -> float:
    """Outermost-shell heuristic for the neglected tail of ``aliasing_error``.

    Returns max |u_hat| over the shell ||r||_inf = R times the shell point
    count; decaying spectra make this an upper-stable order-of-magnitude
    bound for everything beyond R. M and R are checked as there.
    """
    shell = [s for s, ring in _shifts(q, M, R) if ring == R]
    return max([0.0] + [float(np.max(np.abs(spectrum_fn(s)))) for s in shell]) * len(shell)
