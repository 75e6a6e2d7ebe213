"""Axis-aligned box meshes on [-pi, pi]^d and nodal fields on them.

An element is the box {a + h xi : xi in [-1, 1]^d} with center a and
per-axis half-legs h (the diagonal of the mapping matrix). Geometry is
carried twice: as floats for evaluation, and optionally as exact rational
multiples of pi, which makes partition checks exact and lets the transform
recognize repeated Bessel arguments.

Node/value ordering is fixed everywhere: elements by index k, nodes within
an element lexicographically with axis 1 fastest, vector components
innermost.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from math import pi

import numpy as np

from .gll import GllRule, LegendreCoeffTable, gll_rule, interp_matrix, legendre_coeffs

__all__ = [
    "Element",
    "Mesh",
    "NodalField",
    "uniform_mesh",
    "map_to_physical",
    "map_to_reference",
    "gll_node_positions",
    "sample_field",
    "eval_field",
    "eval_field_many",
    "element_indicator",
    "refine",
    "refine_by_indicator",
    "save_mesh",
    "load_mesh",
    "mesh_to_dict",
    "mesh_from_dict",
    "write_field",
    "read_field",
    "write_field_json",
    "read_field_json",
]

MAX_DIM = 3
MAX_FIELD_DEGREE = 64
_FIELD_MAGIC = b"SEMF"
_HEADER = struct.Struct("<4s4i")  # magic, d, P, K, C; padded to 32 bytes


@dataclass(frozen=True, eq=False)
class Element:
    """One axis-aligned box element.

    Attributes:
        a: center, shape (d,).
        hdiag: per-axis half-legs, shape (d,), all nonzero.
        a_pi: exact center / pi as Fractions, or None if unknown.
        h_pi: exact half-legs / pi as Fractions, or None.
    """

    a: np.ndarray
    hdiag: np.ndarray
    a_pi: tuple[Fraction, ...] | None = None
    h_pi: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        self.a.setflags(write=False)
        self.hdiag.setflags(write=False)
        if np.any(self.hdiag == 0.0):
            raise ValueError("element mapping is singular")

    @property
    def d(self) -> int:
        return self.a.shape[0]

    @property
    def det_h(self) -> float:
        return float(np.prod(np.abs(self.hdiag)))

    @property
    def rational(self) -> bool:
        return self.a_pi is not None and self.h_pi is not None

    @property
    def h(self) -> np.ndarray:
        """Full mapping matrix (diagonal), shape (d, d)."""
        return np.diag(self.hdiag)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        half = np.abs(self.hdiag)
        return self.a - half, self.a + half


def element_from_pi(a_pi, h_pi) -> Element:
    """Element from exact center and half-legs given as multiples of pi."""
    a_pi = tuple(Fraction(v) for v in a_pi)
    h_pi = tuple(Fraction(v) for v in h_pi)
    a = np.array([float(v) * pi for v in a_pi])
    hdiag = np.array([float(v) * pi for v in h_pi])
    return Element(a, hdiag, a_pi, h_pi)


class Mesh:
    """A validated partition of [-pi, pi]^d into axis-aligned boxes.

    Construction checks containment, pairwise-disjoint interiors, and
    volume closure; checks run exactly when every element carries rational
    geometry and with 1e-12 relative tolerance otherwise. The disjointness
    check is a sort and sweep along axis 1: O(K log K) plus one vectorized
    test per pair of elements whose axis-1 extents overlap, about
    K^(2 - 1/d) pairs on a uniform mesh, instead of all K^2 / 2 pairs.
    """

    def __init__(self, d: int, P: int, elements, check: bool = True):
        if not 1 <= d <= MAX_DIM:
            raise ValueError(f"dimension out of range [1, {MAX_DIM}]: {d}")
        if not 1 <= P <= MAX_FIELD_DEGREE:
            raise ValueError(f"degree out of range [1, {MAX_FIELD_DEGREE}]: {P}")
        self.d = d
        self.P = P
        self.elements: tuple[Element, ...] = tuple(elements)
        if not self.elements:
            raise ValueError("mesh needs at least one element")
        for e in self.elements:
            if e.d != d:
                raise ValueError("element dimension mismatch")
        if check:
            self.validate()

    @property
    def K(self) -> int:
        return len(self.elements)

    @property
    def nodes_per_element(self) -> int:
        return (self.P + 1) ** self.d

    @property
    def rational(self) -> bool:
        return all(e.rational for e in self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mesh):
            return NotImplemented
        return (
            self.d == other.d
            and self.P == other.P
            and self.K == other.K
            and all(
                np.array_equal(a.a, b.a) and np.array_equal(a.hdiag, b.hdiag)
                for a, b in zip(self.elements, other.elements)
            )
        )

    def __hash__(self):
        return hash((self.d, self.P, self.K))

    def validate(self) -> None:
        """Check containment, volume closure and pairwise-disjoint interiors.

        Rational meshes are checked exactly, on integer bounds over the
        common denominator of all tags; others in floating point with
        tolerance 1e-12 pi. Overlaps are found by ``_first_overlap``.
        """
        if self.rational:
            lo, hi, bound = _scaled_bounds(self.elements)
            tol = 0
            closed = sum(math.prod(w) for w in (hi - lo).tolist()) == (2 * bound) ** self.d
        else:
            a, h = _centres_and_halves(self.elements)
            lo, hi, bound = a - h, a + h, pi
            tol = 1e-12 * pi
            full = (2.0 * pi) ** self.d
            vol = 2.0 ** self.d * math.fsum(np.prod(h, axis=1))
            closed = abs(vol - full) <= 1e-12 * full
        if lo.min() < -(bound + tol) or hi.max() > bound + tol:
            raise ValueError("element extends outside [-pi, pi]^d")
        if not closed:
            raise ValueError("element volumes do not close the domain")
        pair = _first_overlap(lo, hi, tol)
        if pair is not None:
            raise ValueError(f"elements {pair[0]} and {pair[1]} overlap")


def _scaled_bounds(elements) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact bounds of rational elements as integers over a common denominator.

    Returns (lo, hi, L): lo and hi of shape (K, d) hold (a_pi -+ |h_pi|) L,
    where L is the least common denominator of every a_pi and h_pi, so
    the domain is [-L, L]^d. The arrays are int64 when every bound and
    every difference of two bounds fits, Python ints otherwise.
    """
    fracs = [v for e in elements for v in e.a_pi + e.h_pi]
    L = math.lcm(*{f.denominator for f in fracs})
    ints = [f.numerator * (L // f.denominator) for f in fracs]
    wide = 4 * max(L, max(map(abs, ints))) >= 2 ** 63
    v = np.array(ints, dtype=object if wide else np.int64).reshape(len(elements), 2, -1)
    a, h = v[:, 0], np.abs(v[:, 1])
    return a - h, a + h, L


def _centres_and_halves(elements) -> tuple[np.ndarray, np.ndarray]:
    """Float centres and absolute half-legs of the elements, each (K, d)."""
    return (np.array([e.a for e in elements]),
            np.abs(np.array([e.hdiag for e in elements])))


# Candidate pairs tested at once by the partition sweep and by point
# location; keeps their temporary arrays to a few tens of MB.
_PAIR_BLOCK = 1 << 18


def _range_pairs(start: np.ndarray, stop: np.ndarray):
    """Yield (rows, cols) blocks listing every col in [start[r], stop[r]).

    Rows come in increasing order, about ``_PAIR_BLOCK`` pairs per block
    (a single row with more pairs gets a block of its own).
    """
    counts = np.maximum(stop - start, 0)
    ends = np.cumsum(counts)
    r = 0
    while r < counts.size:
        base = ends[r] - counts[r]
        s = max(int(np.searchsorted(ends, base + _PAIR_BLOCK, side="right")), r + 1)
        c = counts[r:s]
        rows = np.repeat(np.arange(r, s), c)
        cols = start[rows] + np.arange(rows.size) - np.repeat(ends[r:s] - c - base, c)
        yield rows, cols
        r = s


def _first_overlap(lo: np.ndarray, hi: np.ndarray, tol) -> tuple[int, int] | None:
    """Lexicographically smallest pair i < j of boxes overlapping by more
    than tol on every axis, or None.

    Sort and sweep: with the boxes sorted by their lower bound on axis 1,
    the only boxes that can overlap box p on that axis are the later ones
    that start before it ends, a contiguous run found by searchsorted.
    Only those pairs are tested, on every axis, so a partition costs
    O(K log K) plus the pairs sharing an axis-1 slab, not O(K^2).
    """
    K = lo.shape[0]
    order = np.argsort(lo[:, 0], kind="stable")
    lo, hi = lo[order], hi[order]
    stop = np.searchsorted(lo[:, 0], hi[:, 0], side="left")
    first = None
    for p, q in _range_pairs(np.arange(1, K + 1), stop):
        gap = np.minimum(hi[p], hi[q]) - np.maximum(lo[p], lo[q])
        hit = np.all(np.asarray(gap > tol, dtype=bool), axis=1)
        if np.any(hit):
            i, j = order[p[hit]], order[q[hit]]
            key = int(np.min(np.minimum(i, j) * K + np.maximum(i, j)))
            first = key if first is None else min(first, key)
    return None if first is None else divmod(first, K)


def uniform_mesh(d: int, n_per_axis: int, P: int) -> Mesh:
    """Uniform n^d partition of [-pi, pi]^d with degree-P elements.

    Per axis, element i of n has center pi (2i + 1 - n)/n and half-leg
    pi/n. Elements are ordered lexicographically with axis 1 fastest.
    """
    if n_per_axis < 1:
        raise ValueError("need at least one element per axis")
    centers = [Fraction(2 * i + 1 - n_per_axis, n_per_axis) for i in range(n_per_axis)]
    half = Fraction(1, n_per_axis)
    grid = tensor_grid(np.array(centers, dtype=object), d)
    return Mesh(d, P, [element_from_pi(a, [half] * d) for a in grid])


def map_to_physical(element: Element, xi) -> np.ndarray:
    """Map reference coordinates xi in [-1, 1]^d to physical x."""
    xi_arr = np.asarray(xi, dtype=float)
    if np.max(np.abs(xi_arr)) > 1.0 + 1e-12:
        raise ValueError("reference point outside [-1, 1]^d")
    return element.a + element.hdiag * xi_arr


def map_to_reference(element: Element, x) -> np.ndarray:
    """Map a physical point inside the element back to [-1, 1]^d (clamped)."""
    x_arr = np.asarray(x, dtype=float)
    xi = (x_arr - element.a) / element.hdiag
    slack = 1e-12 * max(1.0, 1.0 / float(np.min(np.abs(element.hdiag))))
    if np.max(np.abs(xi)) > 1.0 + slack:
        raise ValueError("point outside element")
    return np.clip(xi, -1.0, 1.0)


def tensor_grid(x, d: int) -> np.ndarray:
    """All points of the grid x^d, lexicographic with axis 1 fastest: (n^d, d).

    Element nodes, uniform element centers, bisection children and
    cubature grids all share this order.
    """
    grids = np.meshgrid(*([x] * d), indexing="ij")
    # C-order ravel makes the last meshgrid axis fastest, so axis alpha of
    # the point corresponds to grid d-1-alpha.
    return np.column_stack([grids[d - 1 - t].ravel() for t in range(d)])


def gll_node_positions(mesh: Mesh, rule: GllRule) -> np.ndarray:
    """Physical node positions, shape (K, (P+1)^d, d), in storage order."""
    if rule.degree != mesh.P:
        raise ValueError("rule degree does not match mesh degree")
    ref = tensor_grid(rule.nodes, mesh.d)
    out = np.empty((mesh.K, ref.shape[0], mesh.d))
    for k, e in enumerate(mesh.elements):
        out[k] = e.a + e.hdiag * ref
    return out


@dataclass(frozen=True, eq=False)
class NodalField:
    """Nodal values on a mesh, shape (K, (P+1)^d, C)."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        expect = (self.mesh.K, self.mesh.nodes_per_element)
        if self.values.ndim != 3 or self.values.shape[:2] != expect:
            raise ValueError(
                f"values shape {self.values.shape} does not match mesh {expect}"
            )
        self.values.setflags(write=False)

    @property
    def components(self) -> int:
        return self.values.shape[2]


def sample_field(mesh: Mesh, rule: GllRule, f) -> NodalField:
    """Sample a function of physical position at every mesh node.

    Args:
        mesh: target mesh.
        rule: GLL rule matching mesh.P.
        f: vectorized callable mapping points (N, d) to values (N,) or
            (N, C).

    Returns:
        NodalField with the sampled values; raises on non-finite output.
    """
    pos = gll_node_positions(mesh, rule)
    flat = pos.reshape(-1, mesh.d)
    vals = np.asarray(f(flat), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != flat.shape[0]:
        raise ValueError("sampler returned wrong number of values")
    if not np.all(np.isfinite(vals)):
        raise ValueError("sampler returned non-finite values")
    return NodalField(mesh, vals.reshape(mesh.K, -1, vals.shape[1]).copy())


def _table_for(P: int) -> LegendreCoeffTable:
    return legendre_coeffs(gll_rule(P))


def _contract_nodal(U: np.ndarray, phis: list[np.ndarray]) -> np.ndarray:
    """Sum_j U_j prod_alpha phi_alpha[j_alpha] for batched basis rows.

    U has axes (j_d, ..., j_1, c); each phis[alpha-1] has shape (N, P+1).
    Returns (N, C).
    """
    d = len(phis)
    letters = "pqr"[:d]
    # axis 1 is the fastest storage axis, hence the last tensor axis
    operands = [phis[t] for t in range(d)]
    subs = ",".join(f"n{letters[t]}" for t in range(d))
    tensor_sub = "".join(letters[::-1]) + "c"
    return np.einsum(f"{subs},{tensor_sub}->nc", *operands, U)


def _locate(mesh: Mesh, X: np.ndarray) -> np.ndarray:
    """Owning element index for each point, smallest index winning on faces.

    Element k holds the points within its box widened by
    1e-12 max(1, |a| + |h|) per axis; -1 marks a point no element holds.
    With the points sorted along axis 1, each element's candidates are one
    contiguous run found by searchsorted, and only those are tested on the
    other axes.
    """
    a, h = _centres_and_halves(mesh.elements)
    slack = 1e-12 * np.maximum(1.0, np.abs(a) + h)
    lo, hi = a - h - slack, a + h + slack
    order = np.argsort(X[:, 0], kind="stable")
    x1 = X[order, 0]
    start = np.searchsorted(x1, lo[:, 0], side="left")
    stop = np.searchsorted(x1, hi[:, 0], side="right")
    owner = np.full(X.shape[0], mesh.K)
    for k, p in _range_pairs(start, stop):
        pts = order[p]
        inside = np.all((X[pts, 1:] >= lo[k, 1:]) & (X[pts, 1:] <= hi[k, 1:]), axis=1)
        np.minimum.at(owner, pts[inside], k[inside])
    owner[owner == mesh.K] = -1
    return owner


def eval_field_many(field: NodalField, X) -> np.ndarray:
    """Evaluate the piecewise interpolant at points X (N, d) -> (N, C)."""
    mesh = field.mesh
    X_arr = np.atleast_2d(np.asarray(X, dtype=float))
    if X_arr.shape[1] != mesh.d:
        raise ValueError("point dimension does not match mesh")
    owner = _locate(mesh, X_arr)
    if np.any(owner < 0):
        bad = X_arr[owner < 0][0]
        raise ValueError(f"point outside mesh domain: {bad}")
    table = _table_for(mesh.P)
    shape = (mesh.P + 1,) * mesh.d + (field.components,)
    out = np.empty((X_arr.shape[0], field.components))
    for k in np.unique(owner):
        sel = np.flatnonzero(owner == k)
        e = mesh.elements[k]
        xi = (X_arr[sel] - e.a) / e.hdiag
        np.clip(xi, -1.0, 1.0, out=xi)
        phis = [interp_matrix(table, xi[:, t]) for t in range(mesh.d)]
        U = field.values[k].reshape(shape)
        out[sel] = _contract_nodal(U, phis)
    return out


def eval_field(field: NodalField, x) -> np.ndarray:
    """Evaluate the field at one point; shared faces go to the smallest k."""
    return eval_field_many(field, np.asarray(x, dtype=float)[None, :])[0]


def nodal_to_modal(table: LegendreCoeffTable, values: np.ndarray, d: int) -> np.ndarray:
    """Per-axis Legendre coefficients of one element's interpolant.

    Args:
        table: coefficient table of the element degree.
        values: nodal values, shape ((P+1)^d, C).
        d: spatial dimension.

    Returns:
        Modal tensor with axes (p_d, ..., p_1, c).
    """
    P = table.degree
    U = values.reshape((P + 1,) * d + (values.shape[-1],))
    for _ in range(d):
        # contract the leading j axis against c[j, p]; p lands last
        U = np.tensordot(U, table.coeffs, axes=([0], [0]))
    # axes now (c, p_d, ..., p_1); move c to the end
    return np.moveaxis(U, 0, -1)


def element_indicator(field: NodalField) -> np.ndarray:
    """Top-degree Legendre content per element, shape (K,).

    For each element, the RMS over the slab p_alpha = P of the modal
    tensor, per component; the indicator is the max over axes and
    components. Smooth well-resolved data drives it toward zero.
    """
    mesh = field.mesh
    table = _table_for(mesh.P)
    out = np.empty(mesh.K)
    for k in range(mesh.K):
        modal = nodal_to_modal(table, field.values[k], mesh.d)
        worst = 0.0
        for axis in range(mesh.d):
            slab = np.take(modal, mesh.P, axis=mesh.d - 1 - axis)
            rms = np.sqrt(np.mean(np.square(slab.reshape(-1, field.components)), axis=0))
            worst = max(worst, float(np.max(rms)))
        out[k] = worst
    return out


def refine(mesh: Mesh, flags) -> Mesh:
    """Bisect flagged elements into 2^d children (in index order).

    Args:
        mesh: source mesh.
        flags: boolean mask or index list of elements to split.

    Returns:
        New mesh; children replace their parent in place, ordered with
        axis 1 fastest.
    """
    flags_arr = np.asarray(flags)
    if flags_arr.size == 0:
        return Mesh(mesh.d, mesh.P, mesh.elements)
    if flags_arr.dtype == bool:
        if flags_arr.shape != (mesh.K,):
            raise ValueError("flag mask length does not match mesh")
        mask = flags_arr
    else:
        mask = np.zeros(mesh.K, dtype=bool)
        mask[flags_arr] = True
    signs = tensor_grid([-1, 1], mesh.d).tolist()
    elements = []
    for k, e in enumerate(mesh.elements):
        if not mask[k]:
            elements.append(e)
            continue
        if e.rational:
            half = [h / 2 for h in e.h_pi]
            for sgn in signs:
                a = [c + s * hh for c, s, hh in zip(e.a_pi, sgn, half)]
                elements.append(element_from_pi(a, half))
        else:
            half = 0.5 * e.hdiag
            for sgn in signs:
                a = e.a + np.asarray(sgn) * half
                elements.append(Element(a, half.copy()))
    return Mesh(mesh.d, mesh.P, elements)


def refine_by_indicator(mesh: Mesh, field: NodalField, tol: float):
    """Refine every element whose top-degree content exceeds tol.

    Returns:
        (refined_mesh, flags, indicators); the field is not carried over
        and should be re-sampled on the result.
    """
    if field.mesh is not mesh and field.mesh != mesh:
        raise ValueError("field lives on a different mesh")
    indicators = element_indicator(field)
    flags = indicators > tol
    if not np.any(flags):
        return mesh, flags, indicators
    return refine(mesh, flags), flags, indicators


# ----------------------------------------------------------------- I/O --

def _frac_pair(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def mesh_to_dict(mesh: Mesh) -> dict:
    elems = []
    for e in mesh.elements:
        entry = {
            "a": [float(v) for v in e.a],
            "h": [[float(v) for v in row] for row in e.h],
        }
        if e.rational:
            entry["a_over_pi"] = [_frac_pair(v) for v in e.a_pi]
            entry["h_over_pi"] = [
                [_frac_pair(e.h_pi[i]) if i == j else [0, 1] for j in range(mesh.d)]
                for i in range(mesh.d)
            ]
        elems.append(entry)
    return {"d": mesh.d, "P": mesh.P, "elements": elems}


def mesh_from_dict(data: dict) -> Mesh:
    d = int(data["d"])
    P = int(data["P"])
    elements = []
    for entry in data["elements"]:
        if "a_over_pi" in entry and "h_over_pi" in entry:
            a_pi = [Fraction(n, m) for n, m in entry["a_over_pi"]]
            h_mat = entry["h_over_pi"]
            for i in range(d):
                for j in range(d):
                    if i != j and Fraction(h_mat[i][j][0], h_mat[i][j][1]) != 0:
                        raise ValueError("only axis-aligned (diagonal) maps supported")
            h_pi = [Fraction(h_mat[i][i][0], h_mat[i][i][1]) for i in range(d)]
            elements.append(element_from_pi(a_pi, h_pi))
        else:
            a = np.asarray(entry["a"], dtype=float)
            h = np.asarray(entry["h"], dtype=float)
            if h.shape != (d, d) or np.any(h != np.diag(np.diag(h))):
                raise ValueError("only axis-aligned (diagonal) maps supported")
            elements.append(Element(a, np.diag(h).copy()))
    return Mesh(d, P, elements)


def save_mesh(mesh: Mesh, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(mesh_to_dict(mesh), fh, indent=1)
        fh.write("\n")


def load_mesh(path) -> Mesh:
    with open(path) as fh:
        return mesh_from_dict(json.load(fh))


def write_field(field: NodalField, path) -> None:
    """Binary field file: 32-byte header then little-endian float64 values.

    Header: magic 'SEMF', then d, P, K, C as int32, then 12 reserved zero
    bytes. Values follow in storage order (k, then node, then component).
    """
    mesh = field.mesh
    header = _HEADER.pack(_FIELD_MAGIC, mesh.d, mesh.P, mesh.K, field.components)
    header += b"\x00" * (32 - len(header))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def read_field(path, mesh: Mesh) -> NodalField:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 32 or raw[:4] != _FIELD_MAGIC:
        raise ValueError("not a field file")
    _, d, P, K, C = _HEADER.unpack(raw[: _HEADER.size])
    if (d, P, K) != (mesh.d, mesh.P, mesh.K):
        raise ValueError(
            f"field header (d={d}, P={P}, K={K}) does not match mesh "
            f"(d={mesh.d}, P={mesh.P}, K={mesh.K})"
        )
    count = K * (P + 1) ** d * C
    if len(raw) - 32 != 8 * count:
        raise ValueError(f"field file truncated or overlong: {len(raw) - 32} "
                         f"value bytes, expected {8 * count}")
    vals = np.frombuffer(raw[32:], dtype="<f8", count=count)
    return NodalField(mesh, vals.astype(float).reshape(K, (P + 1) ** d, C))


def write_field_json(field: NodalField, path) -> None:
    data = {
        "d": field.mesh.d,
        "P": field.mesh.P,
        "K": field.mesh.K,
        "components": field.components,
        "values": [float(v) for v in field.values.ravel()],
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh)
        fh.write("\n")


def read_field_json(path, mesh: Mesh) -> NodalField:
    with open(path) as fh:
        data = json.load(fh)
    if (data["d"], data["P"], data["K"]) != (mesh.d, mesh.P, mesh.K):
        raise ValueError("field header does not match mesh")
    C = int(data["components"])
    vals = np.asarray(data["values"], dtype=float)
    expect = mesh.K * mesh.nodes_per_element * C
    if vals.shape != (expect,):
        raise ValueError(f"field holds {vals.size} values, expected {expect}")
    return NodalField(mesh, vals.reshape(mesh.K, mesh.nodes_per_element, C))
