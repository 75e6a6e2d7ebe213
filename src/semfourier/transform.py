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
share one column. ``contract_waves`` sums
phi_hat * u by sum factorization in a fixed order (axis 1, then axes
2..d, then elements), so results are reproducible to the bit. A wave set
that is the full product of its per-axis values, as every box is, is
contracted densely: one element-batched matmul per axis, over element
blocks of bounded memory. Any other wave list is contracted once per
distinct wave prefix, so it never grows into its bounding box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

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
        tup = tuple(tuple(int(c) for c in q) for q in qs)
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
    (``waves.axis_index``). Axis 1 is contracted first, then axes 2..d, and
    the weighted elements are then summed in a fixed order. Returns shape
    (len(waves), C), in wave order.

    A nonempty wave set that is the full product of its per-axis values
    (``len(waves) == prod_t m_t``, as for every box) takes the dense path,
    ``_contract_product``: per block of elements, one element-batched
    matmul per axis, O(K C sum_t m_1..m_t n^(d-t+1)) flops, with memory
    capped by ``_VALUE_BLOCK`` whatever K. Any other set takes the prefix
    path, ``_contract_prefixes``: axis t once per distinct prefix
    (q_1..q_t), so a sparse list never grows into its bounding box, at one
    small matmul per (prefix, element) and gathered rows of size
    K x prefixes x n^(d-t) C.
    """
    axis_values, m = waves.axis_index
    if 0 < len(waves) == math.prod(len(v) for v in axis_values):
        return _contract_product(values, factors, weight, m)
    return _contract_prefixes(values, factors, weight, m)


# Cap on the complex values one element block of ``_contract_product``
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


def _contract_prefixes(values, factors, weight, m):
    """``contract_waves`` once per distinct wave prefix (q_1..q_t).

    Weighted elements are added one by one in index order.
    """
    K, _, C = values.shape
    d, n = len(factors), factors[0].shape[2]
    # (k, j_d .. j_1, c) -> (k, j_1 .. j_d, c) behind one empty prefix
    order = (0,) + tuple(range(d, 0, -1)) + (d + 1,)
    G = values.reshape((K,) + (n,) * d + (C,)).transpose(order).reshape(K, 1, -1)
    parent = np.zeros(len(m), dtype=np.intp)
    for t in range(d):
        prefixes, first, inv = np.unique(m[:, : t + 1], axis=0,
                                         return_index=True, return_inverse=True)
        rows = G[:, parent[first]].reshape(K, len(first), n, G.shape[2] // n)
        G = (factors[t][:, prefixes[:, t], None, :] @ rows)[:, :, 0]
        parent = inv.reshape(-1)
    return sum(w * g for w, g in zip(weight, G))[parent]


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

    ``contract_waves`` applies the plan's per-axis tables in a fixed order:
    axis 1, then axes 2..d, then the weighted sum over elements in a fixed
    order, so results are reproducible to the bit. With
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
    K, _, C = field.values.shape
    out = np.empty((len(plan.waves), C), dtype=complex)
    for qi, m in enumerate(plan.waves.axis_index[1]):
        # phi_hat rows of wave qi for all elements, axis 1 fastest
        rows = plan.weight[:, None] * plan.factors[0][:, m[0]]
        for t in range(1, len(m)):
            rows = (plan.factors[t][:, m[t], :, None] * rows[:, None, :]).reshape(K, -1)
        prods = (rows[:, :, None] * field.values).reshape(-1, C)
        out[qi] = [
            complex(math.fsum(prods[:, c].real), math.fsum(prods[:, c].imag))
            for c in range(C)
        ]
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
    """Read a spectrum CSV produced by ``write_spectrum_csv``."""
    with open(path) as fh:
        rows = [line.strip() for line in fh if line.strip()]
    header = rows[0].split(",")
    d = sum(1 for name in header if name.startswith("q") and name[1:].isdigit())
    ic, ire, iim = header.index("component"), header.index("re"), header.index("im")
    data: dict[tuple, dict[int, complex]] = {}
    for line in rows[1:]:
        parts = line.split(",")
        q = tuple(int(parts[t]) for t in range(d))
        data.setdefault(q, {})[int(parts[ic])] = complex(
            float(parts[ire]), float(parts[iim])
        )
    qs = list(data.keys())
    C = max(max(comp) for comp in data.values()) + 1
    values = np.zeros((len(qs), C), dtype=complex)
    for i, q in enumerate(qs):
        for c, v in data[q].items():
            values[i, c] = v
    return Spectrum(WaveSet(d, tuple(qs)), values)
