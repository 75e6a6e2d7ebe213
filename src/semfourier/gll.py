"""Gauss-Lobatto-Legendre rules and the nodal Legendre-coefficient basis.

Everything downstream rests on three small objects:

* Legendre polynomial evaluation by the stable three-term recurrence.
* ``GllRule``: nodes and weights of the (P+1)-point Gauss-Lobatto-Legendre
  rule on [-1, 1], exact for polynomials of degree <= 2P - 1.
* ``LegendreCoeffTable``: the matrix ``c[j, p]`` expressing each cardinal
  interpolant through node j as a finite Legendre series
  ``phi_j(xi) = sum_p c[j, p] L_p(xi)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GllRule",
    "LegendreCoeffTable",
    "legendre_eval",
    "legendre_all",
    "gll_rule",
    "legendre_coeffs",
    "interp_eval",
    "interp_matrix",
]

# Rules above the field-degree cap are needed only as quadrature oracles.
MAX_RULE_DEGREE = 2048
_DOMAIN_SLACK = 1e-12


def _check_domain(xi: np.ndarray) -> None:
    if xi.size and np.max(np.abs(xi)) > 1.0 + _DOMAIN_SLACK:
        raise ValueError("evaluation point outside [-1, 1]")


def legendre_eval(p: int, xi):
    """Evaluate the Legendre polynomial L_p at points xi in [-1, 1].

    Args:
        p: polynomial degree, p >= 0.
        xi: scalar or array of evaluation points, |xi| <= 1 + 1e-12.

    Returns:
        Array (or scalar) of L_p values, same shape as ``xi``.
    """
    if p < 0:
        raise ValueError("degree must be nonnegative")
    xi_arr = np.asarray(xi, dtype=float)
    _check_domain(xi_arr)
    lp = np.ones_like(xi_arr) if p == 0 else _lp_and_lpm1(p, xi_arr)[0]
    return lp if xi_arr.ndim else float(lp)


def legendre_all(pmax: int, xi) -> np.ndarray:
    """All Legendre values L_0..L_pmax at points xi, shape (pmax+1,) + xi.shape."""
    if pmax < 0:
        raise ValueError("degree must be nonnegative")
    xi_arr = np.asarray(xi, dtype=float)
    _check_domain(xi_arr)
    out = np.empty((pmax + 1,) + xi_arr.shape)
    out[0] = 1.0
    if pmax >= 1:
        out[1] = xi_arr
    for k in range(1, pmax):
        out[k + 1] = ((2 * k + 1) * xi_arr * out[k] - k * out[k - 1]) / (k + 1)
    return out


@dataclass(frozen=True)
class GllRule:
    """(P+1)-point Gauss-Lobatto-Legendre rule on [-1, 1].

    Attributes:
        degree: polynomial degree P of the nodal basis; the rule integrates
            polynomials of degree <= 2P - 1 exactly.
        nodes: ascending array of P+1 nodes, endpoints exactly -1 and 1,
            symmetric about 0.
        weights: positive weights summing to 2.
    """

    degree: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def _lp_and_lpm1(P: int, xi: np.ndarray):
    """Return (L_P, L_{P-1}) at xi via the recurrence, for P >= 1."""
    lm1 = np.ones_like(xi)
    lk = xi.copy()
    for k in range(1, P):
        lk, lm1 = ((2 * k + 1) * xi * lk - k * lm1) / (k + 1), lk
    return lk, lm1


@lru_cache(maxsize=None)
def gll_rule(P: int) -> GllRule:
    """Build the degree-P Gauss-Lobatto-Legendre rule (cached by degree).

    Args:
        P: nodal polynomial degree, 1 <= P <= 2048. Degrees above 64 are
            meant for quadrature oracles rather than field bases.
    """
    if not 1 <= P <= MAX_RULE_DEGREE:
        raise ValueError(f"degree out of range [1, {MAX_RULE_DEGREE}]: {P}")
    if P == 1:
        return GllRule(1, np.array([-1.0, 1.0]), np.array([1.0, 1.0]))

    # Interior nodes are the roots of L'_P. Newton from Chebyshev-Lobatto
    # guesses; both L'_P and L''_P come from the same recurrence pass via
    #   L'_P  = P (L_{P-1} - xi L_P) / (1 - xi^2)
    #   L''_P = (2 xi L'_P - P (P+1) L_P) / (1 - xi^2)
    # so the step is dx = -P (L_{P-1} - xi L_P) / (2 xi L'_P - P (P+1) L_P).
    xi = -np.cos(np.pi * np.arange(1, P) / P)
    for _ in range(100):
        lp, lpm1 = _lp_and_lpm1(P, xi)
        dlp = P * (lpm1 - xi * lp) / (1.0 - xi * xi)
        dx = -P * (lpm1 - xi * lp) / (2.0 * xi * dlp - P * (P + 1) * lp)
        xi += dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    else:
        if np.max(np.abs(dx)) > 1e-12:
            raise RuntimeError(f"GLL Newton iteration stalled at P={P}")

    # Symmetrize exactly; the quadrature invariants assume it.
    xi = 0.5 * (xi - xi[::-1])
    if P % 2 == 0:
        xi[(P - 2) // 2] = 0.0
    nodes = np.concatenate([[-1.0], xi, [1.0]])
    lp, _ = _lp_and_lpm1(P, nodes)
    weights = 2.0 / (P * (P + 1) * lp * lp)
    return GllRule(P, nodes, weights)


@dataclass(frozen=True)
class LegendreCoeffTable:
    """Legendre-series coefficients of the cardinal interpolants.

    ``coeffs[j, p] = w_j L_p(xi_j) / gamma_p`` with
    ``gamma_p = sum_j w_j L_p(xi_j)^2``, so that
    ``phi_j(xi) = sum_p coeffs[j, p] L_p(xi)`` is the degree-P polynomial
    with ``phi_j(xi_i) = delta_ij``. Column 0 equals ``w_j / 2``.
    """

    degree: int
    coeffs: np.ndarray   # (P+1, P+1), j rows, p columns
    gamma: np.ndarray    # (P+1,) discrete norms

    def __post_init__(self):
        self.coeffs.setflags(write=False)
        self.gamma.setflags(write=False)


@lru_cache(maxsize=None)
def _legendre_coeffs_cached(P: int) -> LegendreCoeffTable:
    rule = gll_rule(P)
    V = legendre_all(P, rule.nodes).T          # V[j, p] = L_p(xi_j)
    gamma = np.einsum("j,jp,jp->p", rule.weights, V, V)
    coeffs = rule.weights[:, None] * V / gamma[None, :]
    return LegendreCoeffTable(P, coeffs, gamma)


def legendre_coeffs(rule: GllRule) -> LegendreCoeffTable:
    """Coefficient table for the nodal basis of ``rule`` (cached by degree)."""
    return _legendre_coeffs_cached(rule.degree)


def interp_eval(table: LegendreCoeffTable, j: int, xi):
    """Evaluate the cardinal interpolant phi_j at points xi."""
    if not 0 <= j <= table.degree:
        raise IndexError("node index out of range")
    V = legendre_all(table.degree, xi)
    return np.einsum("p,p...->...", table.coeffs[j], V)


def interp_matrix(table: LegendreCoeffTable, xi) -> np.ndarray:
    """Matrix of cardinal-basis values, shape (len(xi), P+1).

    Row m holds phi_0(xi_m) .. phi_P(xi_m); applying it to a vector of
    nodal values evaluates the interpolant at every xi_m.
    """
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    V = legendre_all(table.degree, xi_arr)     # (P+1, n)
    return np.einsum("jp,pn->nj", table.coeffs, V)
