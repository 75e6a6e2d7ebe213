"""Axis-aligned box meshes on [-pi, pi]^d and nodal fields on them.

An element is the box {a + h xi : xi in [-1, 1]^d} with center a and
per-axis half-legs h (the diagonal of the mapping matrix). A mesh holds
its K elements as (K, d) arrays of float centers and half-legs. An exact
mesh, every element a rational multiple of pi, is built from integers
over one common denominator alone and derives its floats from them. The
integers make partition checks and refinement exact and let the transform
recognize repeated Bessel arguments. Every layer reads these arrays.

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
    "Mesh",
    "NodalField",
    "uniform_mesh",
    "gll_node_positions",
    "sample_field",
    "eval_field",
    "eval_field_many",
    "element_indicator",
    "refine",
    "refine_by_indicator",
    "save_mesh",
    "load_mesh",
    "mesh_json",
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


def _integer(v) -> int:
    if type(v) is not int and not isinstance(v, np.integer):
        raise ValueError(f"mesh numerator is not an integer: {v!r}")
    return int(v)


def _common_denominator(n: np.ndarray, m: np.ndarray):
    """(A, H, L): the fractions n / m, (2, K, d) integer object arrays of
    centers and half-legs over pi, as numerators over one denominator L."""
    L = math.lcm(*m.flat)
    return (*(n * (L // m)), L)


class Mesh:
    """A validated partition of [-pi, pi]^d into axis-aligned boxes.

    Attributes:
        d, P: dimension and polynomial degree.
        a, h: element centers and signed per-axis half-legs, read-only
            float arrays of shape (K, d).
        A, H, L: the exact geometry a = A pi / L, h = H pi / L: integer
            arrays (K, d) over the least common denominator L (int64, or
            Python ints once 4 max(L, |A|, |H|) reaches 2^63), or None on
            a float-only mesh.

    ``Mesh(d, P, a, h)`` builds a float-only mesh from float copies of the
    arrays. ``Mesh(d, P, A, H, L)`` builds an exact one from integer
    numerators over a positive denominator L, reduced to lowest terms; its
    floats are derived, a = float(Fraction(A, L)) pi and h alike, and never
    passed in. ``Mesh.from_pi`` builds an exact one from rationals.
    Construction checks containment, pairwise-disjoint interiors
    (``_first_overlap``) and volume closure: exactly on integer geometry,
    with 1e-12 relative tolerance otherwise.
    """

    def __init__(self, d: int, P: int, a, h, L=None):
        if not 1 <= d <= MAX_DIM:
            raise ValueError(f"dimension out of range [1, {MAX_DIM}]: {d}")
        if not 1 <= P <= MAX_FIELD_DEGREE:
            raise ValueError(f"degree out of range [1, {MAX_FIELD_DEGREE}]: {P}")
        if L is not None and (type(L) is bool or not isinstance(L, (int, np.integer)) or L < 1):
            raise ValueError(f"mesh denominator is not a positive integer: {L!r}")
        a, h = (np.array(v, dtype=float if L is None else object) for v in (a, h))
        if a.ndim != 2 or a.shape != h.shape or a.shape[1] != d or not a.size:
            raise ValueError(f"mesh needs centers and half-legs of shape (K, {d}), K >= 1")
        A = H = None
        if L is not None:  # a and h hold numerators; lowest terms, then floats
            A, H = (np.frompyfunc(_integer, 1, 1)(X) for X in (a, h))
            g = math.gcd(int(L), *A.flat, *H.flat)
            A, H, L = A // g, H // g, int(L) // g
            try:  # Python's int / int is correctly rounded, int64 / int64 past 2^53 is not
                a, h = ((X / L).astype(float) * pi for X in (A, H))
            except OverflowError:
                raise ValueError("element geometry is not finite") from None
            if 4 * max(L, np.abs(A).max(), np.abs(H).max()) < 2 ** 63:
                A, H = A.astype(np.int64), H.astype(np.int64)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(h))):
            raise ValueError("element geometry is not finite")
        if np.any(h == 0.0):
            raise ValueError("element mapping is singular")
        for v in (a, h) if L is None else (a, h, A, H):
            v.setflags(write=False)
        self.d, self.P, self.a, self.h, self.A, self.H, self.L = d, P, a, h, A, H, L
        self.validate()

    @classmethod
    def from_pi(cls, d: int, P: int, a_pi, h_pi) -> Mesh:
        """Exact mesh with centers a_pi pi and half-legs h_pi pi, each a
        (K, d) array of rationals (values ``Fraction`` accepts)."""
        x = np.array([a_pi, h_pi], dtype=object)
        if x.ndim != 3 or x.shape[2] != d or not x.size:
            raise ValueError(f"mesh needs centers and half-legs of shape (K, {d}), K >= 1")
        ratio = np.frompyfunc(lambda v: Fraction(v).as_integer_ratio(), 1, 2)
        return cls(d, P, *_common_denominator(*ratio(x)))

    @property
    def K(self) -> int:
        return self.a.shape[0]

    @property
    def nodes_per_element(self) -> int:
        return (self.P + 1) ** self.d

    @property
    def rational(self) -> bool:
        return self.A is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mesh):
            return NotImplemented
        return (self.d == other.d and self.P == other.P
                and np.array_equal(self.a, other.a) and np.array_equal(self.h, other.h))

    def __hash__(self):
        return hash((self.d, self.P, self.K))

    def validate(self) -> None:
        """Check containment, volume closure and pairwise-disjoint interiors.

        Meshes with integer geometry are checked exactly, on the bounds
        A -+ |H| in [-L, L]^d; others in floating point with tolerance
        1e-12 pi. Overlaps are found by ``_first_overlap``.
        """
        if self.A is not None:
            half = np.abs(self.H)
            lo, hi, bound, tol = self.A - half, self.A + half, self.L, 0
            closed = sum(math.prod(w) for w in (2 * half).tolist()) == (2 * bound) ** self.d
        else:
            half = np.abs(self.h)
            lo, hi, bound, tol = self.a - half, self.a + half, pi, 1e-12 * pi
            full = (2.0 * pi) ** self.d
            vol = 2.0 ** self.d * math.fsum(np.prod(half, axis=1))
            closed = abs(vol - full) <= 1e-12 * full
        if lo.min() < -(bound + tol) or hi.max() > bound + tol:
            raise ValueError("element extends outside [-pi, pi]^d")
        if not closed:
            raise ValueError("element volumes do not close the domain")
        pair = _first_overlap(lo, hi, tol)
        if pair is not None:
            raise ValueError(f"elements {pair[0]} and {pair[1]} overlap")


# Candidate pairs tested at once by the partition sweep and by point
# location, and nodal values gathered at once by point evaluation; keeps
# their temporary arrays to a few tens of MB.
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
    centers = tensor_grid(np.arange(1 - n_per_axis, n_per_axis, 2), d)
    return Mesh(d, P, centers, np.ones_like(centers), n_per_axis)


def tensor_grid(x, d: int) -> np.ndarray:
    """All points of the grid x^d, lexicographic with axis 1 fastest: (n^d, d).

    Nodes within an element, uniform element centers, bisection children and
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
    return mesh.a[:, None, :] + mesh.h[:, None, :] * ref


@dataclass(frozen=True, eq=False)
class NodalField:
    """Nodal values on a mesh, shape (K, (P+1)^d, C) with C >= 1, every
    one finite."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        expect = (self.mesh.K, self.mesh.nodes_per_element)
        if self.values.ndim != 3 or self.values.shape[:2] != expect or not self.values.shape[2]:
            raise ValueError(f"values shape {self.values.shape} is not {expect} + (C,), C >= 1")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field has non-finite nodal values")
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
    return NodalField(mesh, vals.reshape(mesh.K, mesh.nodes_per_element, vals.shape[1]).copy())


def _locate(mesh: Mesh, X: np.ndarray) -> np.ndarray:
    """Owning element index for each point, smallest index winning on faces.

    Each element k holds the points within its box widened by
    1e-12 max(1, |a| + |h|) per axis; -1 marks a point no element holds.
    With the points sorted along axis 1, each element's candidates are one
    contiguous run found by searchsorted, and only those are tested on the
    other axes.
    """
    a, h = mesh.a, np.abs(mesh.h)
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
    table = legendre_coeffs(gll_rule(mesh.P))
    C = field.components
    shape = (mesh.P + 1,) * mesh.d + (C,)
    # sum_j U[n, j] prod_t phi_t[n, j_t], with axis 1 the last node axis of U
    letters = "pqr"[:mesh.d]
    spec = ",".join(f"n{c}" for c in letters) + f",n{letters[::-1]}c->nc"
    out = np.empty((X_arr.shape[0], C))
    step = max(1, _PAIR_BLOCK // (mesh.nodes_per_element * C))
    for s in range(0, X_arr.shape[0], step):
        k = owner[s:s + step]
        xi = (X_arr[s:s + step] - mesh.a[k]) / mesh.h[k]
        np.clip(xi, -1.0, 1.0, out=xi)
        phis = [interp_matrix(table, xi[:, t]) for t in range(mesh.d)]
        out[s:s + step] = np.einsum(spec, *phis, field.values[k].reshape((k.size,) + shape))
    return out


def eval_field(field: NodalField, x) -> np.ndarray:
    """Evaluate the field at one point; shared faces go to the smallest k."""
    return eval_field_many(field, np.asarray(x, dtype=float)[None, :])[0]


def nodal_to_modal(table: LegendreCoeffTable, values: np.ndarray, d: int) -> np.ndarray:
    """Per-axis Legendre coefficients of elements' interpolants.

    Args:
        table: coefficient table of the element degree.
        values: nodal values, shape ((P+1)^d, C), or (K, (P+1)^d, C) for
            K elements at once.
        d: spatial dimension.

    Returns:
        Modal tensor with axes (p_d, ..., p_1, c), behind the element axis
        if ``values`` has one.
    """
    P = table.degree
    batch = values.shape[:-2]
    U = values.reshape(batch + (P + 1,) * d + (values.shape[-1],))
    for t in range(len(batch), len(batch) + d):
        # contract node axis j against c[j, p]; p lands last, move it back
        U = np.moveaxis(np.tensordot(U, table.coeffs, axes=([t], [0])), -1, t)
    return U


def element_indicator(field: NodalField) -> np.ndarray:
    """Top-degree Legendre content per element, shape (K,).

    For each element, the RMS over the slab p_alpha = P of the modal
    tensor, per component; the indicator is the max over axes and
    components. Smooth well-resolved data drives it toward zero.
    """
    mesh = field.mesh
    modal = nodal_to_modal(legendre_coeffs(gll_rule(mesh.P)), field.values, mesh.d)
    worst = np.zeros(mesh.K)
    for axis in range(mesh.d):
        slab = np.take(modal, mesh.P, axis=mesh.d - axis)
        rms = np.sqrt(np.mean(np.square(slab.reshape(mesh.K, -1, field.components)), axis=1))
        worst = np.maximum(worst, np.max(rms, axis=1))
    return worst


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
    if flags_arr.dtype == bool and flags_arr.size and flags_arr.shape != (mesh.K,):
        raise ValueError("flag mask length does not match mesh")
    mask = np.zeros(mesh.K, dtype=bool)
    if flags_arr.size:
        mask[flags_arr] = True
    d = mesh.d
    count = np.where(mask, 2 ** d, 1)
    parent = np.repeat(np.arange(mesh.K), count)
    child = np.arange(parent.size) - np.repeat(np.cumsum(count) - count, count)
    sign = tensor_grid(np.array([-1, 1]), d)[child]
    split = mask[parent][:, None]
    # over twice the denominator, children sit at 2A -+ H with half-legs H
    # and kept elements at 2A with 2H; halving floats is exact
    c, w = (mesh.a, mesh.h) if mesh.A is None else (mesh.A, mesh.H)
    c, w = 2 * c[parent], w[parent]
    c, w = np.where(split, c + sign * w, c), np.where(split, w, 2 * w)
    return Mesh(d, mesh.P, c / 2, w / 2) if mesh.A is None else Mesh(d, mesh.P, c, w, 2 * mesh.L)


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

def _reduced_pairs(X: np.ndarray, L: int) -> np.ndarray:
    """[numerator, denominator] of each X / L in lowest terms: X.shape + (2,)."""
    g = np.gcd(X, L)
    return np.stack([X // g, L // g], axis=-1)


def mesh_to_dict(mesh: Mesh) -> dict:
    K, d = mesh.K, mesh.d
    diagonal = (slice(None), range(d), range(d))
    h = np.zeros((K, d, d))
    h[diagonal] = mesh.h
    columns = {"a": mesh.a.tolist(), "h": h.tolist()}
    if mesh.A is not None:
        h_pi = np.zeros((K, d, d, 2), dtype=mesh.H.dtype)
        h_pi[..., 1] = 1
        h_pi[diagonal] = _reduced_pairs(mesh.H, mesh.L)
        columns["a_over_pi"] = _reduced_pairs(mesh.A, mesh.L).tolist()
        columns["h_over_pi"] = h_pi.tolist()
    rows = zip(*columns.values())
    return {"d": d, "P": mesh.P, "elements": [dict(zip(columns, row)) for row in rows]}


def _nested(rows, shape, types, what) -> np.ndarray:
    """rows as an object array of the given shape and entry types."""
    arr = np.array(rows, dtype=object)
    if arr.shape != shape or not all(type(v) in types for v in arr.flat):
        raise ValueError(f"mesh {what} do not form a {' x '.join(map(str, shape))} "
                         f"array of {types[0].__name__}s")
    return arr


def mesh_from_dict(data: dict) -> Mesh:
    """Mesh from the dict of ``mesh_to_dict``; ValueError names any fault.

    When every element has exact tags ('a_over_pi' and 'h_over_pi'), they
    define the geometry; otherwise the floats 'a' and 'h' do.
    """
    entries = data.get("elements") if isinstance(data, dict) else None
    if not (isinstance(entries, list) and entries and all(isinstance(e, dict) for e in entries)):
        raise ValueError("mesh lacks a nonempty 'elements' list of JSON objects")
    for key in ("d", "P"):
        if type(data.get(key)) is not int:
            raise ValueError(f"mesh '{key}' is missing or not an integer: {data.get(key)!r}")
    d, P, K = data["d"], data["P"], len(entries)
    diagonal = (slice(None), range(d), range(d))
    tagged = all("a_over_pi" in e and "h_over_pi" in e for e in entries)
    if tagged:
        a = _nested([e["a_over_pi"] for e in entries], (K, d, 2), (int,), "'a_over_pi' tags")
        h = _nested([e["h_over_pi"] for e in entries], (K, d, d, 2), (int,), "'h_over_pi' tags")
        if np.any(a[..., 1] == 0) or np.any(h[..., 1] == 0):
            raise ValueError("mesh exact tag has a zero denominator")
        off_diagonal = h[..., 0][:, ~np.eye(d, dtype=bool)]
    else:
        a = _nested([e.get("a") for e in entries], (K, d), (int, float), "centers 'a'")
        h = _nested([e.get("h") for e in entries], (K, d, d), (int, float), "maps 'h'")
        off_diagonal = h[:, ~np.eye(d, dtype=bool)]
    if np.any(off_diagonal != 0):
        raise ValueError("only axis-aligned (diagonal) maps supported")
    if not tagged:
        return Mesh(d, P, a, h[diagonal])
    x = np.stack([a, h[diagonal]])
    return Mesh(d, P, *_common_denominator(x[..., 0], x[..., 1]))


def save_mesh(mesh: Mesh, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(mesh_json(mesh))


def mesh_json(mesh: Mesh) -> str:
    """``mesh_to_dict`` as one line of JSON and a newline; ``json.dumps``
    without indent runs the C encoder, where ``json.dump`` runs Python."""
    return json.dumps(mesh_to_dict(mesh)) + "\n"


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


def _check_field_header(d, P, K, mesh: Mesh) -> None:
    """The (d, P, K) of a field file of either format against its mesh."""
    if (d, P, K) != (mesh.d, mesh.P, mesh.K):
        raise ValueError(
            f"field header (d={d}, P={P}, K={K}) does not match mesh "
            f"(d={mesh.d}, P={mesh.P}, K={mesh.K})"
        )


def read_field(path, mesh: Mesh) -> NodalField:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 32 or raw[:4] != _FIELD_MAGIC:
        raise ValueError("not a field file")
    _, d, P, K, C = _HEADER.unpack(raw[: _HEADER.size])
    _check_field_header(d, P, K, mesh)
    count = K * (P + 1) ** d * C
    if len(raw) - 32 != 8 * count:
        raise ValueError(f"field file truncated or overlong: {len(raw) - 32} "
                         f"value bytes, expected {8 * count}")
    # a view of the bytes read, copied only where float64 is not little-endian
    vals = np.frombuffer(raw, dtype="<f8", count=count, offset=32).astype(float, copy=False)
    return NodalField(mesh, vals.reshape(K, (P + 1) ** d, C))


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
    """Field from the JSON of ``write_field_json``; ValueError names any fault."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("field file is not a JSON object")
    for key in ("d", "P", "K", "components"):
        if type(data.get(key)) is not int:
            raise ValueError(f"field '{key}' is missing or not an integer: {data.get(key)!r}")
    _check_field_header(data["d"], data["P"], data["K"], mesh)
    if not isinstance(data.get("values"), list):
        raise ValueError("field lacks a 'values' list")
    try:
        vals = np.asarray(data["values"], dtype=float)
    except TypeError:
        raise ValueError("field 'values' are not all numbers") from None
    C = data["components"]
    expect = mesh.K * mesh.nodes_per_element * C
    if vals.shape != (expect,):
        raise ValueError(f"field holds {vals.size} values, expected {expect}")
    return NodalField(mesh, vals.reshape(mesh.K, mesh.nodes_per_element, C))
