"""Exact global Fourier coefficients of piecewise-polynomial fields.

For a degree-P field on an axis-aligned box mesh of [-pi, pi]^d, the
global Fourier coefficient at integer wavevector q of the cardinal basis
function through node j of element k is a product over axes,

    phi_hat[j,k,q] = |det h_k| / pi^d * prod_t F_t[k, q_t, j_t],
    F_t[k, q_t, j] = e^{-i q_t a_{k,t}} sum_p c[j, p] i^{-p} B_p(q_t h_{k,t}),

with c the Legendre coefficients of the cardinal interpolants and B_p the
spherical Bessel column. A TransformPlan keeps one table F_t per axis over
the distinct q_t of its wave set, built from the mesh's (K, d) geometry
arrays; on exact meshes the Bessel arguments are the integers q_t H[k, t]
over one denominator, so repeated arguments are recognized exactly and
share one column. ``contract_waves`` sums phi_hat * u over element
blocks of bounded memory in a fixed order, so results are reproducible to
the bit: by sum factorization over the grid of per-axis values for a box
or any list dense in that grid, and wave by wave from the phi_hat rows
that ``transform(compensated=True)`` also uses for any other list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from numbers import Integral

import numpy as np

from .bessel import bessel_column
from .gll import GllRule, LegendreCoeffTable
from .mesh import Element, Mesh, NodalField, element_arrays

__all__ = [
    "WaveSet",
    "Spectrum",
    "TransformPlan",
    "build_plan",
    "contract_waves",
    "phi_hat",
    "transform",
    "rms_relative_error",
    "write_spectrum_csv",
    "read_spectrum_csv",
]


@dataclass(frozen=True)
class WaveSet:
    """An ordered set of distinct integer wavevectors in Z^d."""

    d: int
    qs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for q in self.qs:
            if len(q) != self.d:
                raise ValueError(f"wavevector {q} does not have dimension {self.d}")
            if not all(isinstance(c, int) for c in q):
                raise ValueError(f"wavevector {q} has non-integer components")
        if len(set(self.qs)) != len(self.qs):
            raise ValueError("duplicate wavevectors")

    @classmethod
    def box(cls, d: int, qmax: int) -> "WaveSet":
        """All q with |q_alpha| <= qmax, in lexicographic order."""
        if qmax < 0:
            raise ValueError("qmax must be nonnegative")
        rng = range(-qmax, qmax + 1)
        return cls(d, tuple(product(rng, repeat=d)))

    @classmethod
    def from_list(cls, qs) -> "WaveSet":
        """The listed wavevectors; numpy integers become ints, and any other
        non-integer component is rejected as by the constructor."""
        tup = tuple(tuple(int(c) if isinstance(c, Integral) else c for c in q) for q in qs)
        if not tup:
            raise ValueError("empty wavevector list needs an explicit dimension")
        return cls(len(tup[0]), tup)

    def __len__(self) -> int:
        return len(self.qs)

    @cached_property
    def _positions(self) -> dict:
        return {q: i for i, q in enumerate(self.qs)}

    def __contains__(self, q) -> bool:
        return tuple(q) in self._positions

    def index(self, q) -> int:
        """Position of q in the set; ValueError if q is not in it."""
        i = self._positions.get(tuple(q))
        if i is None:
            raise ValueError(f"wavevector {tuple(q)} is not in the wave set")
        return i

    @cached_property
    def axis_index(self) -> tuple[list[np.ndarray], np.ndarray]:
        """(values, m): values[t] holds the distinct q_t in ascending order
        and values[t][m[i, t]] == qs[i][t]; m has shape (len, d)."""
        q = np.array(self.qs, dtype=np.int64).reshape(len(self.qs), self.d)
        cols = [np.unique(q[:, t], return_inverse=True) for t in range(self.d)]
        return [v for v, _ in cols], np.stack([m for _, m in cols], axis=1)


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients on a WaveSet, shape (len(waves), C) complex."""

    waves: WaveSet
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != len(self.waves):
            raise ValueError("value array does not match the wave set")
        self.values.setflags(write=False)

    @property
    def components(self) -> int:
        return self.values.shape[1]

    def get(self, q) -> np.ndarray:
        return self.values[self.waves.index(q)]

    def conjugate_symmetry_error(self) -> float:
        """Max |u_hat(-q) - conj(u_hat(q))| over pairs present in the set."""
        axis_values, m = self.waves.axis_index
        n = len(m)
        q = np.stack([v[m[:, t]] for t, v in enumerate(axis_values)], axis=1)
        # ids of the distinct rows among q and -q; -q_i is wave j[i], or -1
        _, ids = np.unique(np.concatenate([q, -q]), axis=0, return_inverse=True)
        ids = ids.reshape(-1)
        wave_of = np.full(2 * n, -1)
        wave_of[ids[:n]] = np.arange(n)
        j = wave_of[ids[n:]]
        i = np.flatnonzero(j >= 0)
        gap = np.abs(self.values[j[i]] - np.conj(self.values[i]))
        return float(np.max(gap, initial=0.0))


def ipow_neg(P: int) -> np.ndarray:
    """Vector of i^{-p} for p = 0..P (exact four-cycle)."""
    cycle = np.array([1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j])
    return cycle[np.arange(P + 1) % 4]


def _factor_tables(a: np.ndarray, h: np.ndarray, H, L, q_axes,
                   table: LegendreCoeffTable):
    """F_t[k, m, j] = e^{-i q_m a_{k,t}} sum_p c[j,p] i^{-p} B_p(q_m h_{k,t}).

    Geometry as ``Mesh`` holds it. The Bessel keys are the exact integers
    q_m H[k, t] (argument key / L * pi, key / L correctly rounded), or the
    floats q_m h[k, t] if H is None; one column per distinct key over all
    axes. Returns the (K, len(q_axes[t]), P+1) tables, the weights
    |det h_k| / pi^d of shape (K,), and the key count.
    """
    P = table.degree
    g = h if H is None else H
    qmax = max([int(np.max(np.abs(q))) for q in q_axes if q.size] or [0])
    if g.dtype == np.int64 and qmax * int(np.max(np.abs(g))) >= 2 ** 63:
        g = g.astype(object)  # keys past int64 stay exact as Python ints
    K = g.shape[0]
    distinct, inverse = np.unique(np.concatenate(
        [np.multiply.outer(g[:, t], q).ravel() for t, q in enumerate(q_axes)]),
        return_inverse=True)
    ip = ipow_neg(P)
    S = np.empty((distinct.size, P + 1), dtype=complex)
    for i, key in enumerate(distinct.tolist()):
        r = key if H is None else key / L * math.pi
        S[i] = np.einsum("jp,p->j", table.coeffs, ip * bessel_column(r, P))
    # gather every table, then free the key index before the phases go in
    ends = np.cumsum([K * q.size for q in q_axes])[:-1]
    tables = [S[i].reshape(K, q.size, P + 1)
              for i, q in zip(np.split(inverse, ends), q_axes)]
    del inverse
    for t, F in enumerate(tables):
        phase = np.exp(-1j * np.multiply.outer(a[:, t], q_axes[t]))
        # phase times row in this order: swapping the factors of a complex
        # product can change its last bit
        np.multiply(phase[:, :, None], F, out=F)
    weight = np.prod(np.abs(h), axis=1) / math.pi ** h.shape[1]
    return tuple(tables), weight, distinct.size


def contract_waves(values: np.ndarray, factors, weight: np.ndarray,
                   waves: WaveSet) -> np.ndarray:
    """sum_k weight[k] sum_j prod_t factors[t][k, m_t(q), j_t] values[k, j].

    values has shape (K, n^d, C), axis 1 fastest within a block; factors[t]
    has shape (K, m_t, n), row m for the m-th distinct q_t of ``waves``
    (``waves.axis_index``). Returns shape (len(waves), C), in wave order.

    Elements are summed in a fixed order, in blocks whose memory
    ``_VALUE_BLOCK`` caps whatever K. ``_contract_product`` contracts the
    grid of per-axis values, one element-batched matmul per axis; its last
    axis dominates, at prod_t m_t n C flops per element. ``_contract_rows``
    costs at least len(waves) n^d C. So a set with ``prod_t m_t <=
    len(waves) n^(d-1)`` takes the product, as every box and full product
    does, and any other list the rows.
    """
    axis_values, m = waves.axis_index
    d, n = len(factors), factors[0].shape[2]
    if math.prod(len(v) for v in axis_values) <= len(waves) * n ** (d - 1):
        return _contract_product(values, factors, weight, m)
    return _contract_rows(values, factors, weight, m)


# Cap on the complex values one element block of either contraction path
# holds per intermediate array; a block holds at least one element. At
# 2^13 (128 KiB) the intermediates stay under the C allocator's default
# mmap threshold, so blocks reuse heap memory: larger blocks measured up to
# 2x slower on the 3D hanging-node benchmark mesh, from fresh pages.
_VALUE_BLOCK = 1 << 13


def _contract_product(values, factors, weight, m):
    """``contract_waves`` over the whole product of the per-axis values.

    Elements go in blocks of B = _VALUE_BLOCK // (largest per-element
    intermediate). Within a block the nodal values are weighted, then axis
    t is one batched (B, m_t, n) @ (B, n, rest) matmul, after which one
    transpose moves m_t behind the rest and brings node axis t+1 forward.
    Block sums over elements are added in block order: no BLAS call
    reduces over elements, so the result does not depend on threading.
    """
    K, _, C = values.shape
    d, n = len(factors), factors[0].shape[2]
    sizes = [F.shape[1] for F in factors]
    per_element = max(math.prod(sizes[:t]) * n ** (d - t) * C for t in range(d + 1))
    B = max(1, _VALUE_BLOCK // per_element)
    # (k, j_d .. j_1, c) -> (k, j_1 .. j_d, c)
    order = (0,) + tuple(range(d, 0, -1)) + (d + 1,)
    total = np.zeros((sizes[-1], C, math.prod(sizes[:-1])), dtype=complex)
    for lo in range(0, K, B):
        block = values[lo:lo + B]
        b, rest = block.shape[0], n ** (d - 1) * C
        w = weight[lo:lo + B].reshape((b,) + (1,) * (d + 1))
        X = np.multiply(block.reshape((b,) + (n,) * d + (C,)).transpose(order), w,
                        order="C", dtype=complex)
        for t, F in enumerate(factors):
            X = F[lo:lo + B] @ X.reshape(b, n, rest)
            if t < d - 1:
                # (b, m_t, j_{t+1}, r) -> (b, j_{t+1}, r, m_t)
                X = X.reshape(b, sizes[t], n, rest // n).transpose(0, 2, 3, 1).copy()
                rest = rest // n * sizes[t]
        # axes (m_d, c, m_1 .. m_{d-1})
        total += X.reshape((b,) + total.shape).sum(axis=0)
    rows = total.transpose(2, 0, 1).reshape(-1, C)  # (m_1 .. m_d, c)
    return rows[np.ravel_multi_index(tuple(m.T), sizes)]


def _contract_rows(values, factors, weight, m):
    """``contract_waves`` one wave at a time from its phi_hat rows, over
    element blocks of _VALUE_BLOCK // n^d whose sums are added in block
    order, so as in ``_contract_product`` no BLAS call reduces over elements."""
    K, N, C = values.shape
    B = max(1, _VALUE_BLOCK // N)
    out = np.zeros((len(m), C), dtype=complex)
    for i, lo in product(range(len(m)), range(0, K, B)):
        rows = _wave_rows(factors, weight, m[i], slice(lo, lo + B))
        out[i] += (rows[:, None, :] @ values[lo:lo + B])[:, 0].sum(axis=0)
    return out


def _wave_rows(factors, weight, m, k):
    """phi_hat rows of the wave with table rows m for elements k, axis 1
    fastest, shape (elements, n^d)."""
    rows = weight[k, None] * factors[0][k, m[0]]
    for t in range(1, len(m)):
        rows = (factors[t][k, m[t], :, None] * rows[:, None, :]).reshape(len(rows), -1)
    return rows


class TransformPlan:
    """Per-axis factor tables of the coefficient formula.

    Attributes:
        mesh, rule, table, waves: the inputs the plan was built for.
        factors: per axis t, the (K, m_t, P+1) table of ``_factor_tables``
            over the distinct q_t of ``waves``.
        weight: |det h_k| / pi^d per element, shape (K,).
        n_bessel_args: number of distinct Bessel arguments evaluated.
    """

    def __init__(self, mesh: Mesh, rule: GllRule, table: LegendreCoeffTable,
                 waves: WaveSet):
        if rule.degree != mesh.P or table.degree != mesh.P:
            raise ValueError("rule/table degree does not match mesh degree")
        if waves.d != mesh.d:
            raise ValueError("wave set dimension does not match mesh")
        self.mesh = mesh
        self.rule = rule
        self.table = table
        self.waves = waves
        self.factors, self.weight, self.n_bessel_args = _factor_tables(
            mesh.a, mesh.h, mesh.H, mesh.L, waves.axis_index[0], table)
        for a in self.factors + (self.weight,):
            a.setflags(write=False)

    def basis_coefficient(self, qi: int, k: int, j_flat: int) -> complex:
        """phi_hat of node j_flat (storage order) of element k at wave qi."""
        m, n = self.waves.axis_index[1][qi], self.mesh.P + 1
        return complex(math.prod(
            [F[k, m[t], j_flat // n ** t % n] for t, F in enumerate(self.factors)],
            start=complex(self.weight[k])))


def build_plan(mesh: Mesh, rule: GllRule, table: LegendreCoeffTable,
               waves: WaveSet) -> TransformPlan:
    """Precompute the per-axis factor tables for fields on ``mesh``."""
    return TransformPlan(mesh, rule, table, waves)


def phi_hat(rule: GllRule, table: LegendreCoeffTable, element: Element,
            j, q) -> complex:
    """Fourier coefficient at q of the cardinal basis through node j.

    Args:
        rule, table: basis of the element's degree.
        element: the element carrying the basis function.
        j: node multi-index (j_1, .., j_d), or an int in 1D.
        q: integer wavevector of matching dimension.

    Builds one-element tables with the plan's table builder and multiplies
    them in the same order, so values agree bitwise with
    ``TransformPlan.basis_coefficient``.
    """
    d = element.d
    j_tup = (j,) if np.isscalar(j) else tuple(j)
    q_tup = (q,) if np.isscalar(q) else tuple(q)
    if len(j_tup) != d or len(q_tup) != d:
        raise ValueError("index/wavevector dimension mismatch")
    if not all(0 <= jt <= table.degree for jt in j_tup):
        raise IndexError("node index out of range")
    a, h, _, H, L = element_arrays([element], d)
    tables, weight, _ = _factor_tables(a, h, H, L, [np.array([int(v)]) for v in q_tup], table)
    return complex(math.prod([F[0, 0, jt] for F, jt in zip(tables, j_tup)],
                             start=complex(weight[0])))


def transform(field: NodalField, plan: TransformPlan,
              compensated: bool = False) -> Spectrum:
    """Global Fourier coefficients of a nodal field.

    ``contract_waves`` sums the weighted elements in a fixed order, so
    results are reproducible to the bit. With
    ``compensated=True`` every product phi_hat * u enters an exactly
    rounded sum instead (order-insensitive, for cross-checking).

    Returns:
        Spectrum over ``plan.waves`` with the field's component count.
    """
    if field.mesh is not plan.mesh and field.mesh != plan.mesh:
        raise ValueError("field and plan use different meshes")
    if not compensated:
        return Spectrum(plan.waves, contract_waves(
            field.values, plan.factors, plan.weight, plan.waves))
    C = field.values.shape[2]
    out = np.empty((len(plan.waves), C), dtype=complex)
    for qi, m in enumerate(plan.waves.axis_index[1]):
        rows = _wave_rows(plan.factors, plan.weight, m, slice(None))
        prods = (rows[:, :, None] * field.values).reshape(-1, C)
        out[qi] = [complex(math.fsum(p.real), math.fsum(p.imag)) for p in prods.T]
    return Spectrum(plan.waves, out)


def rms_relative_error(spectrum: Spectrum, exact: Spectrum) -> float:
    """||u_hat - exact||_2 / ||exact||_2 over all waves and components."""
    if spectrum.waves != exact.waves:
        raise ValueError("spectra use different wave sets")
    if spectrum.values.shape != exact.values.shape:
        raise ValueError("component count mismatch")
    den = math.sqrt(float(np.sum(np.abs(exact.values) ** 2)))
    if den == 0.0:
        raise ValueError("exact spectrum is identically zero")
    num = math.sqrt(float(np.sum(np.abs(spectrum.values - exact.values) ** 2)))
    return num / den


# ------------------------------------------------------------------ CSV --

def spectrum_csv_text(spectrum: Spectrum, extra_col=None) -> str:
    """CSV text with columns q1..qd, component, re, im, abs.

    Rows are sorted lexicographically by wavevector then component and
    floats carry 17 significant digits, so equal spectra produce byte-equal
    text. ``extra_col=(name, value)`` appends a constant column.
    """
    d = spectrum.waves.d
    header = [f"q{t + 1}" for t in range(d)] + ["component", "re", "im", "abs"]
    if extra_col is not None:
        header.append(extra_col[0])
    qs = spectrum.waves.qs
    order = sorted(range(len(qs)), key=qs.__getitem__)
    tail = "" if extra_col is None else "," + str(extra_col[1])
    lines = [",".join(header)]
    for i, row in zip(order, spectrum.values[order].tolist()):
        q = ",".join([str(int(t)) for t in qs[i]])
        lines += [f"{q},{c},{v.real:.17g},{v.imag:.17g},{_magnitude(v):.17g}{tail}"
                  for c, v in enumerate(row)]
    return "\n".join(lines) + "\n"


def _magnitude(v: complex) -> float:
    """|v| by the C library's hypot, as numpy's scalar abs; inf on overflow.

    numpy's array abs rounds some values differently, so the CSV keeps
    this scalar form.
    """
    try:
        return abs(v)
    except OverflowError:
        return math.inf


def write_spectrum_csv(spectrum: Spectrum, path, extra_col=None) -> None:
    """Write :func:`spectrum_csv_text` to ``path``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(spectrum_csv_text(spectrum, extra_col))


def read_spectrum_csv(path) -> Spectrum:
    """Read a spectrum CSV produced by ``write_spectrum_csv``; a file without
    rows, with a repeated (q, component) row or a missing component fails."""
    with open(path) as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if len(rows) < 2:
        raise ValueError(f"{path}: no spectrum rows")
    header = rows[0].split(",")
    d = sum(1 for name in header if name.startswith("q") and name[1:].isdigit())
    ic, ire, iim = header.index("component"), header.index("re"), header.index("im")
    data: dict[tuple, dict[int, complex]] = {}
    for line in rows[1:]:
        parts = line.split(",")
        q, c = tuple(int(parts[t]) for t in range(d)), int(parts[ic])
        if c in data.setdefault(q, {}):
            raise ValueError(f"{path}: repeated row for q={q}, component {c}")
        data[q][c] = complex(float(parts[ire]), float(parts[iim]))
    C = max(max(comp) for comp in data.values()) + 1
    for q, comp in data.items():
        if sorted(comp) != list(range(C)):
            raise ValueError(f"{path}: q={q} lacks some of components 0..{C - 1}")
    values = np.array([[comp[c] for c in range(C)] for comp in data.values()], dtype=complex)
    return Spectrum(WaveSet(d, tuple(data)), values)
