"""Exact global Fourier coefficients of piecewise-polynomial fields.

For a degree-P field on an axis-aligned box mesh of [-pi, pi]^d, the
global Fourier coefficient at integer wavevector q of the cardinal basis
function through node j of element k is a product over axes,

    phi_hat[j,k,q] = |det h_k| / pi^d * prod_t F_t[k, q_t, j_t],
    F_t[k, q_t, j] = e^{-i q_t a_{k,t}} sum_p c[j, p] i^{-p} B_p(q_t h_{k,t}),

with c the Legendre coefficients of the cardinal interpolants and B_p the
spherical Bessel column. The parity B_p(-r) = (-1)^p B_p(r) and the phase
give F_t[k, -q_t, j] = conj F_t[k, q_t, j] exactly, so a TransformPlan
keeps one real table per axis, folded over the distinct |q_t| of its wave
set: the rows Re F_t, then Im F_t for |q_t| > 0. It is built from the
mesh's (K, d) geometry arrays; on exact meshes the Bessel arguments are
the integers |q_t| H[k, t] over one denominator, so repeated arguments are
recognized exactly and share one column. ``contract_waves`` sums
phi_hat * u over element blocks of bounded memory in a fixed order, so
results are reproducible to the bit: by sum factorization over the grid of
per-axis values for a box or any list dense in that grid, in real
arithmetic on the folded tables (a spectrum of a real field so computed is
exactly conjugate-symmetric), and wave by wave from the complex phi_hat
rows that ``transform(compensated=True)`` also uses for any other list.
The sum factorization contracts node axis d first. Elements with equal
intervals on the axes not yet contracted share those axes' tables, so
each such group (a pencil, then a slab) is summed inside one matmul, and
the later axes run once per group, not once per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from numbers import Integral

import numpy as np

from .bessel import bessel_column
from .gll import GllRule, LegendreCoeffTable, gll_rule, legendre_coeffs
from .mesh import Mesh, NodalField

__all__ = [
    "WaveSet",
    "Spectrum",
    "TransformPlan",
    "build_plan",
    "contract_waves",
    "fold_table",
    "phi_hat",
    "transform",
    "rms_relative_error",
    "write_spectrum_csv",
    "read_spectrum_csv",
]


@dataclass(frozen=True)
class WaveSet:
    """An ordered set of distinct integer wavevectors in Z^d, each
    component below 2^63 in magnitude. Lookups, axis indices and CSV row
    templates are built on first use and kept; == and hash use d and qs."""

    d: int
    qs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for q in self.qs:
            if len(q) != self.d:
                raise ValueError(f"wavevector {q} does not have dimension {self.d}")
            if not all(type(c) is int for c in q):  # bool is an int subclass
                raise ValueError(f"wavevector {q} has non-integer components")
            if not all(abs(c) < 2 ** 63 for c in q):
                raise ValueError(f"wavevector {q} has a component outside int64")
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
        non-integer component, bools included, is rejected as by the
        constructor."""
        tup = tuple(tuple(int(c) if isinstance(c, Integral) and type(c) is not bool else c
                          for c in q) for q in qs)
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

    @cached_property
    def axis_folds(self) -> list[tuple[np.ndarray, ...]]:
        """Per axis, ``_fold`` of the distinct q_t in ``axis_index``."""
        return [_fold(v) for v in self.axis_index[0]]

    @cached_property
    def _csv(self) -> tuple[np.ndarray, dict]:
        """Lexicographic row order of the CSV and its templates by (C, tail)."""
        return np.array(sorted(range(len(self.qs)), key=self.qs.__getitem__), dtype=np.intp), {}


def _fold(q: np.ndarray) -> tuple[np.ndarray, ...]:
    """(u, e, o, s) of the distinct values q of one axis in a folded table.

    u holds the distinct |q| ascending; a folded table has one row Re F(u)
    for every u, then one row Im F(u) for every u > 0. Value q[m] reads
    row e[m] for Re and row o[m] for Im with sign s[m] = sign(q[m]), so
    F(q[m]) = Re + i s Im. For q[m] = 0, s[m] = 0 and o[m] is some valid row.
    """
    u, e = np.unique(np.abs(q), return_inverse=True)
    return u, e, e + np.count_nonzero(u), np.sign(q)


def fold_table(F: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The folded real table of complex F[k, i, j] = F(u[i]) over the
    distinct |q| ``u`` of ``_fold``: rows Re F, then Im F where u > 0."""
    return np.concatenate([F.real, F.imag[:, u != 0]], axis=1)


def _table_row(F: np.ndarray, fold, m: int, k) -> np.ndarray:
    """Complex entries F[k, q, :] of the m-th distinct q of ``fold``, read
    from the folded table F part by part: (Re, s Im) keeps the bits of
    F(q) = conj F(|q|), signed zeros included, and q = 0 reads (Re, 0.0)."""
    _, e, o, s = fold
    row = np.zeros(F[k, 0].shape, dtype=complex)
    row.real = F[k, e[m]]
    if s[m]:
        np.multiply(F[k, o[m]], s[m], out=row.imag)
    return row


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
        """Max |u_hat(-q) - conj(u_hat(q))| over pairs present in the set,
        each -q looked up in the wave set's index; 0.0 if there is none.

        Exactly 0 for spectra of real fields from the product path of
        ``contract_waves`` (every box), which folds F(-q) = conj F(q) into
        its arithmetic; the rows path and ``compensated=True`` compute each
        wave on its own and leave rounding-level residuals.
        """
        index = self.waves._positions
        j = np.array([index.get(tuple(-c for c in q), -1) for q in self.waves.qs], dtype=int)
        i = np.flatnonzero(j >= 0)
        gap = np.abs(self.values[j[i]] - np.conj(self.values[i]))
        return float(np.max(gap, initial=0.0))


def ipow_neg(P: int) -> np.ndarray:
    """Vector of i^{-p} for p = 0..P (exact four-cycle)."""
    cycle = np.array([1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j])
    return cycle[np.arange(P + 1) % 4]


def _factor_tables(a: np.ndarray, h: np.ndarray, H, L, u_axes,
                   table: LegendreCoeffTable):
    """Folded tables of F_t[k, u, j] = e^{-i u a_{k,t}} sum_p c[j,p] i^{-p} B_p(u h_{k,t}).

    Geometry as ``Mesh`` holds it; u_axes[t] holds the distinct |q_t|
    ascending. The Bessel keys are the exact integers u H[k, t] (argument
    key / L * pi, key / L correctly rounded), or the floats u h[k, t] if H
    is None; one column per distinct key over all axes. Returns the
    (K, rows_t, P+1) float64 tables of ``fold_table``, the weights
    |det h_k| / pi^d of shape (K,), and the key count.
    """
    P = table.degree
    g = h if H is None else H
    qmax = max([int(u[-1]) for u in u_axes if u.size] or [0])
    if g.dtype == np.int64 and qmax * int(np.max(np.abs(g))) >= 2 ** 63:
        g = g.astype(object)  # keys past int64 stay exact as Python ints
    K = g.shape[0]
    distinct, inverse = np.unique(np.concatenate(
        [np.multiply.outer(g[:, t], u).ravel() for t, u in enumerate(u_axes)]),
        return_inverse=True)
    ip = ipow_neg(P)
    S = np.empty((distinct.size, P + 1), dtype=complex)
    for i, key in enumerate(distinct.tolist()):
        r = key if H is None else key / L * math.pi
        S[i] = np.einsum("jp,p->j", table.coeffs, ip * bessel_column(r, P))
    ends = np.cumsum([K * u.size for u in u_axes])[:-1]
    tables = []
    for t, (i, u) in enumerate(zip(np.split(inverse, ends), u_axes)):
        F = S[i].reshape(K, u.size, P + 1)
        phase = np.exp(-1j * np.multiply.outer(a[:, t], u))
        # phase times row in this order: swapping the factors of a complex
        # product can change its last bit
        np.multiply(phase[:, :, None], F, out=F)
        tables.append(fold_table(F, u))
    weight = np.prod(np.abs(h), axis=1) / math.pi ** h.shape[1]
    return tuple(tables), weight, distinct.size


def contract_waves(values: np.ndarray, factors, weight: np.ndarray,
                   waves: WaveSet, *, groups=None) -> np.ndarray:
    """sum_k weight[k] sum_j prod_t F_t[k, q_t, j_t] values[k, j] per wave q.

    values has shape (K, n^d, C), axis 1 fastest within a block, real or
    complex; factors[t] is the folded float64 table of F_t over the
    distinct |q_t| of ``waves`` (``fold_table``, ``waves.axis_folds``):
    shape (K, rows_t, n), rows Re F_t, then Im F_t where |q_t| > 0, with
    F_t(-q_t) = conj F_t(q_t). ``groups`` is the element grouping of the
    plan that built the tables (``TransformPlan.groups``); without it each
    element is its own group until the last axis. Returns shape
    (len(waves), C) complex, in wave order.

    Elements are summed in a fixed order, in blocks whose memory
    ``_VALUE_BLOCK`` caps whatever K. ``_contract_product`` contracts the
    real values against the real tables, one axis at a time with each
    group's members summed inside one matmul, then unfolds the grid of
    per-axis values. Ungrouped, its last axis dominates, at
    prod_t rows_t n C real multiply-adds per element, a quarter of the
    complex product over the signed values. ``_contract_rows`` costs at
    least len(waves) n^d C complex ones. So a set with
    ``prod_t m_t <= len(waves) n^(d-1)`` (m_t distinct q_t) takes the
    product, as every box and full product does, and any other list the
    rows. Groups only make the product cheaper, so with them this
    crossover sends some lists to the rows that the product would do
    faster.
    """
    axis_values, m = waves.axis_index
    d, n = len(factors), factors[0].shape[2]
    if math.prod(len(v) for v in axis_values) <= len(waves) * n ** (d - 1):
        return _contract_product(values, factors, weight, waves.axis_folds, m, groups)
    return _contract_rows(values, factors, weight, waves.axis_folds, m)


# Cap on the complex values one block of either contraction path holds per
# intermediate array (twice as many float64 values, the same bytes). A
# block of the product path holds whole top-level groups of ``_Groups``,
# at least one, so a group above the cap is a block of its own; a block of
# the rows path holds at least one element. Each block costs about 25 us
# of numpy calls: on the 3D hanging-node benchmark mesh (K=176, P=5, C=3,
# 12 slabs) the transform took 0.50 ms at 2^13 (9 blocks), 0.40 ms at 2^14
# (5 blocks) and 0.31 ms at 2^15 (2 blocks) or unblocked. 2^14 (256 KiB)
# is the largest power of two at which the bound of the box memory test in
# tests/test_contraction.py stays 8x below the gather it guards against.
_VALUE_BLOCK = 1 << 14


def _contract_product(values, factors, weight, folds, m, groups):
    """``contract_waves`` over the whole product of the per-axis values,
    by sum factorization over groups of elements.

    Complex values go through as 2C real components. Stage s = 0..d-1
    contracts node axis d - s of its items, which are the elements at
    stage 0 and the groups of stage s - 1 after it; an item is n rows of
    R[s] values, node axis d - s first. The stage's groups are the items
    with equal intervals on axes 1..d-1-s (``_Groups``): pencils, then
    slabs, and at the last stage one group of all items. Items of a group
    share that axis' table, so the group's sum is one matmul,
    [X_1; X_2; ..]^T @ [F(1)^T; F(2)^T; ..], of its members' stacked
    values against their stacked tables, weighted by |det h_k| / pi^d at
    stage 0; groups of one size go through one batched matmul, and each
    sum comes out as an item of the next stage, node axis d - s - 1 first,
    without a transposing copy. Blocks of whole top-level groups are
    summed in block order, so a group's sum never spans two blocks. The
    order of every sum is fixed by the grouping and by ``_VALUE_BLOCK``,
    and BLAS threads split a matmul by its output, not by its sums, so the
    result does not depend on the thread count. The real total is then
    unfolded one axis at a time into the complex grid of signed values,
    u_hat = E + i s O from the Re rows E and the Im rows O, which gives
    u_hat(-q) = conj u_hat(q) exactly for real values.
    """
    K, _, C = values.shape
    if np.iscomplexobj(values):
        both = _contract_product(np.concatenate([values.real, values.imag], axis=2),
                                 factors, weight, folds, m, groups)
        return both[:, :C] + 1j * both[:, C:]
    d, n = len(factors), factors[0].shape[2]
    sizes = [F.shape[1] for F in factors]
    R = [n ** (d - 1 - s) * C * math.prod(sizes[d - s:]) for s in range(d)]
    # largest per-item array of each stage: its values or its table
    item = tuple(n * max(R[s], sizes[d - 1 - s]) for s in range(d))
    if groups is None:
        groups = _Groups(np.arange(K), (np.arange(K),) * (d - 1))
    total = np.zeros((R[-1], sizes[0]))
    for stages in groups.schedule(item):
        total += _contract_block(values, factors, weight, stages, R)
    # axes (c, r_d .. r_1) -> (r_d .. r_1, c)
    grid = total.reshape([C] + sizes[::-1]).transpose(tuple(range(1, d + 1)) + (0,))
    for t, (_, e, o, s) in enumerate(folds):
        grid = _unfold(grid, d - 1 - t, e, o, s)
    return grid[tuple(m[:, ::-1].T)]


def _contract_block(values, factors, weight, stages, R):
    """The grouped contraction of one block, by the index arrays of
    ``_Groups.schedule``; returns its (R[d-1], rows_1) total."""
    d, n = len(factors), factors[0].shape[2]
    X = values
    for s, (pick, reps, runs) in enumerate(stages):
        if pick is not None:
            X = X.take(pick, axis=0)
        T = factors[d - 1 - s].transpose(0, 2, 1)[reps]
        if s == 0:
            T *= weight[reps, None, None]
        N, _, r = T.shape
        if s == d - 1:
            return X.reshape(N * n, R[s]).T @ T.reshape(N * n, r)
        out = np.empty((runs[-1][1], R[s], r))
        for g0, g1, i0, i1 in runs:
            size = (i1 - i0) // (g1 - g0) * n
            np.matmul(X[i0:i1].reshape(g1 - g0, size, R[s]).transpose(0, 2, 1),
                      T[i0:i1].reshape(g1 - g0, size, r), out=out[g0:g1])
        X = out


class _Groups:
    """The element groups of the grouped contraction.

    ``order`` sorts the elements by their intervals on axes 1..d-1, so that
    each group is a run of it, and ``starts[s]`` holds the sorted positions
    where the groups of stage s = 0..d-2 start: runs of equal intervals on
    axes 1..d-1-s. The top-level groups are those of stage d-2, or the
    elements in 1D. Block schedules are kept per (item sizes, cap).
    """

    def __init__(self, order: np.ndarray, starts: tuple[np.ndarray, ...]):
        self.order, self.starts, self._schedules = order, starts, {}

    @classmethod
    def of_mesh(cls, mesh: Mesh) -> "_Groups":
        """Groups of equal (A[:, t], H[:, t]) on an exact mesh and of equal
        bits of (a[:, t], h[:, t]) on a float one: equal tables."""
        if mesh.H is None:
            x, y = (np.ascontiguousarray(v).view(np.int64) for v in (mesh.a, mesh.h))
        else:
            x, y = mesh.A, mesh.H
        keys = [v[:, t] for t in range(mesh.d - 1) for v in (x, y)]
        order = np.lexsort(keys[::-1]) if keys else np.arange(mesh.K)
        new = np.zeros(mesh.K, dtype=bool)
        new[0] = True
        starts = []
        for t in range(0, len(keys), 2):
            for key in keys[t:t + 2]:
                k = key[order]
                new[1:] |= k[1:] != k[:-1]
            starts.append(np.flatnonzero(new))
        for a in [order] + starts:
            a.setflags(write=False)
        return cls(order, tuple(starts[::-1]))

    def schedule(self, item: tuple[int, ...]) -> list:
        """Per block, per stage, (pick, reps, runs): the rows that put the
        stage's items in storage order (None if they are in it), the
        element whose table each item reads, and the (g0, g1, i0, i1) runs
        of groups g0:g1 of one size whose items are i0:i1. The last stage
        has no runs. ``item`` holds the largest per-item array of each
        stage; blocks follow ``_VALUE_BLOCK`` as it is at the call."""
        key = item, _VALUE_BLOCK
        if key not in self._schedules:
            self._schedules[key] = [self._stages(lo, hi) for lo, hi in self._blocks(item)]
        return self._schedules[key]

    def _blocks(self, item):
        """(lo, hi) runs of the sorted elements that hold whole top-level
        groups, as many as fit 2 _VALUE_BLOCK values of the largest stage
        array of each, and at least one."""
        K = self.order.size
        # every stage's items at once bound the sum of the groups' footprints
        if sum(k * i for k, i in zip([K] + [s.size for s in self.starts], item)) \
                <= 2 * _VALUE_BLOCK:
            yield 0, K
            return
        tops = self.starts[-1] if self.starts else np.arange(K)
        bounds = np.append(tops, K)
        foot = np.zeros(tops.size, dtype=np.int64)
        for s, first in enumerate((np.arange(K),) + self.starts):
            foot = np.maximum(foot, np.diff(np.searchsorted(first, bounds)) * item[s])
        cum = np.cumsum(foot)
        i = 0
        while i < tops.size:
            j = np.searchsorted(cum, cum[i] - foot[i] + 2 * _VALUE_BLOCK, "right")
            j = max(i + 1, int(j))
            yield int(bounds[i]), int(bounds[j])
            i = j

    def _stages(self, lo, hi):
        """``schedule``'s stages of the sorted elements lo:hi."""
        elems = self.order[lo:hi]
        firsts = [np.arange(hi - lo)] + [s[np.searchsorted(s, lo):np.searchsorted(s, hi)] - lo
                                          for s in self.starts]
        stages, rows = [], None
        for s, first in enumerate(firsts):
            if s == len(self.starts):  # one group: every item, as they come
                perm = np.arange(first.size) if s == 0 else rows
                pick, runs = (elems if s == 0 else None), None
            else:
                p = np.searchsorted(first, firsts[s + 1])
                counts = np.diff(np.append(p, first.size))
                by_size = np.argsort(counts, kind="stable")
                size = counts[by_size]
                # item storage order: groups by size, each group's run of items
                perm = np.repeat(p[by_size] - np.cumsum(size) + size, size) + np.arange(first.size)
                if s == 0:
                    pick = elems[perm]
                else:  # the previous stage stored its groups in the order ``rows``
                    pick = np.argsort(rows)[perm]
                    if np.array_equal(pick, np.arange(pick.size)):
                        pick = None
                g = np.append(np.flatnonzero(np.diff(size)) + 1, size.size)
                i = np.cumsum(size)[g - 1]
                runs = list(zip([0] + g[:-1].tolist(), g.tolist(), [0] + i[:-1].tolist(),
                                i.tolist()))
                rows = by_size
            stages.append((pick, elems[first[perm]], runs))
        return stages


def _unfold(grid, axis, e, o, s):
    """E + i s O along ``axis`` of grid: rows e (E) and o (O) of that axis
    for each signed value, which has sign s."""
    unit = (1j * s).reshape((-1,) + (1,) * (grid.ndim - 1 - axis))
    out = grid.take(o, axis=axis) * unit
    out += grid.take(e, axis=axis)
    return out


def _contract_rows(values, factors, weight, folds, m):
    """``contract_waves`` one wave at a time from its phi_hat rows, over
    element blocks of _VALUE_BLOCK // n^d whose sums are added in block
    order, so no BLAS call reduces over elements."""
    K, N, C = values.shape
    B = max(1, _VALUE_BLOCK // N)
    out = np.zeros((len(m), C), dtype=complex)
    for i, lo in product(range(len(m)), range(0, K, B)):
        rows = _wave_rows(factors, folds, weight, m[i], slice(lo, lo + B))
        out[i] += (rows[:, None, :] @ values[lo:lo + B])[:, 0].sum(axis=0)
    return out


def _wave_rows(factors, folds, weight, m, k):
    """phi_hat rows of the wave with distinct-value indices m for elements
    k, axis 1 fastest, shape (elements, n^d)."""
    rows = weight[k, None] * _table_row(factors[0], folds[0], m[0], k)
    for t in range(1, len(m)):
        row = _table_row(factors[t], folds[t], m[t], k)
        rows = (row[:, :, None] * rows[:, None, :]).reshape(len(rows), -1)
    return rows


class TransformPlan:
    """Per-axis factor tables of the coefficient formula.

    Attributes:
        mesh, rule, table, waves: the inputs the plan was built for.
        factors: per axis t, the folded (K, rows_t, P+1) float64 table of
            ``_factor_tables`` over the distinct |q_t| of ``waves``: rows
            Re F_t, then Im F_t where |q_t| > 0 (``fold_table``); the value
            at q_t is Re + i sign(q_t) Im, since F_t(-q_t) = conj F_t(q_t).
            ``waves.axis_folds`` maps each distinct q_t to its rows.
        weight: |det h_k| / pi^d per element, shape (K,).
        groups: the elements grouped by their intervals on axes 1..d-1
            (``_Groups``), for the grouped sum factorization of
            ``contract_waves``; it keeps each block schedule it is asked for.
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
            mesh.a, mesh.h, mesh.H, mesh.L, [u for u, *_ in waves.axis_folds], table)
        self.groups = _Groups.of_mesh(mesh)
        for a in self.factors + (self.weight,):
            a.setflags(write=False)

    def basis_coefficient(self, qi: int, k: int, j_flat: int) -> complex:
        """phi_hat of node j_flat (storage order) of element k at wave qi,
        by ``_coefficient`` as in ``phi_hat``."""
        n = self.mesh.P + 1
        j = [j_flat // n ** t % n for t in range(self.mesh.d)]
        return _coefficient(self.factors, self.waves.axis_folds, self.weight,
                            self.waves.axis_index[1][qi], k, j)


def _coefficient(factors, folds, weight, m, k, j) -> complex:
    """weight[k] prod_t F_t[k, q_t, j_t] for the wave with distinct-value
    indices m, the factors multiplied in axis order after the weight."""
    return complex(math.prod(
        [_table_row(F, fold, mt, k)[jt] for F, fold, mt, jt in zip(factors, folds, m, j)],
        start=complex(weight[k])))


def build_plan(mesh: Mesh, rule: GllRule, table: LegendreCoeffTable,
               waves: WaveSet) -> TransformPlan:
    """Precompute the per-axis factor tables for fields on ``mesh``."""
    return TransformPlan(mesh, rule, table, waves)


def phi_hat(mesh: Mesh, k: int, j, q) -> complex:
    """Fourier coefficient at q of the cardinal basis through node j of
    element k of ``mesh``.

    Args:
        mesh, k: the mesh and the index of the element.
        j: node multi-index (j_1, .., j_d), or an int in 1D.
        q: integer wavevector of matching dimension.

    Builds one-element tables from row k of the geometry arrays with the
    plan's table builder and multiplies them with the plan's product,
    ``_coefficient``, so values agree bitwise with
    ``TransformPlan.basis_coefficient``. A q that ``WaveSet.from_list``
    rejects, or a k or j_t that is not an integer (bools included), raises
    ValueError; an index out of range raises IndexError.
    """
    d = mesh.d
    j_tup = (j,) if np.isscalar(j) else tuple(j)
    q_tup = (q,) if np.isscalar(q) else tuple(q)
    if len(j_tup) != d or len(q_tup) != d:
        raise ValueError("index/wavevector dimension mismatch")
    if not all(isinstance(v, Integral) and type(v) is not bool for v in (k,) + j_tup):
        raise ValueError(f"element index {k!r} or node index {j_tup} is not an integer")
    if not (0 <= k < mesh.K and all(0 <= jt <= mesh.P for jt in j_tup)):
        raise IndexError("element or node index out of range")
    row = slice(k, k + 1)
    folds = WaveSet.from_list([q_tup]).axis_folds
    tables, weight, _ = _factor_tables(
        mesh.a[row], mesh.h[row], None if mesh.H is None else mesh.H[row], mesh.L,
        [u for u, *_ in folds], legendre_coeffs(gll_rule(mesh.P)))
    return _coefficient(tables, folds, weight, [0] * d, 0, j_tup)


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
            field.values, plan.factors, plan.weight, plan.waves, groups=plan.groups))
    C = field.values.shape[2]
    out = np.empty((len(plan.waves), C), dtype=complex)
    for qi, m in enumerate(plan.waves.axis_index[1]):
        rows = _wave_rows(plan.factors, plan.waves.axis_folds, plan.weight, m, slice(None))
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
    text. The row order and a ``%``-template with the integer columns as
    text (about 40% of the text's size) are built once per (C, extra
    column) and kept on the wave set, so a call formats only floats.
    ``abs`` comes from one array ``np.hypot``, which calls the same C
    ``hypot`` as Python's ``abs(complex)`` and so gives the same bits (inf
    where the magnitude overflows); ``np.abs`` rounds some values
    differently. ``extra_col=(name, value)`` appends a constant column.
    """
    waves, C = spectrum.waves, spectrum.components
    header = [f"q{t + 1}" for t in range(waves.d)] + ["component", "re", "im", "abs"]
    if extra_col is not None:
        header.append(extra_col[0])
    tail = "" if extra_col is None else "," + str(extra_col[1]).replace("%", "%%")
    order, templates = waves._csv
    if (C, tail) not in templates:
        rows = ["%d," * waves.d % waves.qs[i] for i in order.tolist()]
        templates[C, tail] = "".join(f"{q}{c},%.17g,%.17g,%.17g{tail}\n"
                                     for q in rows for c in range(C))
    values = spectrum.values[order]
    with np.errstate(over="ignore"):
        mags = np.hypot(values.real, values.imag)
    floats = np.stack([values.real, values.imag, mags], axis=2).ravel().tolist()
    return ",".join(header) + "\n" + templates[C, tail] % tuple(floats)


def write_spectrum_csv(spectrum: Spectrum, path, extra_col=None) -> None:
    """Write :func:`spectrum_csv_text` to ``path``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(spectrum_csv_text(spectrum, extra_col))


def read_spectrum_csv(path) -> Spectrum:
    """Read a spectrum CSV produced by ``write_spectrum_csv``; a file without
    rows, with a row whose field count differs from the header's, with a
    repeated (q, component) row or a missing component fails."""
    with open(path) as fh:
        rows = [(lineno, line.strip()) for lineno, line in enumerate(fh, 1) if line.strip()]
    if len(rows) < 2:
        raise ValueError(f"{path}: no spectrum rows")
    header = rows[0][1].split(",")
    d = sum(1 for name in header if name.startswith("q") and name[1:].isdigit())
    for name in ("component", "re", "im"):
        if name not in header:
            raise ValueError(f"{path}: header lacks the '{name}' column")
    ic, ire, iim = header.index("component"), header.index("re"), header.index("im")
    data: dict[tuple, dict[int, complex]] = {}
    for lineno, line in rows[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}, line {lineno}: {len(parts)} fields, "
                             f"expected {len(header)}")
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
