"""Meshes, nodal fields, evaluation, refinement, and file round trips."""

import json
import math
import re
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import semfourier.mesh as mesh_module

from semfourier.gll import gll_rule, interp_matrix, legendre_coeffs, legendre_eval
from semfourier.mesh import (
    _locate,
    Mesh,
    NodalField,
    element_indicator,
    eval_field,
    eval_field_many,
    gll_node_positions,
    load_mesh,
    mesh_from_dict,
    mesh_to_dict,
    nodal_to_modal,
    read_field,
    read_field_json,
    refine,
    refine_by_indicator,
    sample_field,
    save_mesh,
    uniform_mesh,
    write_field,
    write_field_json,
)


def _tags(mesh, k):
    """Exact center and half-legs / pi of element k as Fraction tuples,
    or (None, None) on a float mesh."""
    if not mesh.rational:
        return None, None
    return tuple(tuple(Fraction(int(v), mesh.L) for v in X[k]) for X in (mesh.A, mesh.H))


def _bounds(a, h):
    half = np.abs(h)
    return a - half, a + half


def _stripped(a_pi, h_pi):
    """Float copies of rational rows, each value float(f) * pi."""
    return tuple(np.array([[float(f) * math.pi for f in row] for row in X]) for X in (a_pi, h_pi))


def _mesh(d, P, a, h):
    """Mesh.from_pi on rational rows, Mesh on float arrays."""
    return Mesh(d, P, a, h) if isinstance(a, np.ndarray) else Mesh.from_pi(d, P, a, h)


def test_uniform_mesh_1d_geometry():
    mesh = uniform_mesh(1, 4, 3)
    assert mesh.K == 4 and mesh.d == 1 and mesh.P == 3
    centers = [mesh.a[k, 0] for k in range(mesh.K)]
    np.testing.assert_allclose(
        centers, [-3 * math.pi / 4, -math.pi / 4, math.pi / 4, 3 * math.pi / 4]
    )
    assert all(_tags(mesh, k)[1] == (Fraction(1, 4),) for k in range(mesh.K))
    assert mesh.rational


def test_uniform_mesh_2d_ordering_axis1_fastest():
    mesh = uniform_mesh(2, 2, 1)
    got = [_tags(mesh, k)[0] for k in range(mesh.K)]
    h = Fraction(1, 2)
    assert got == [
        (-h, -h), (h, -h), (-h, h), (h, h),
    ]


def test_mesh_rejects_bad_partitions():
    h = Fraction(1, 2)
    Mesh.from_pi(1, 2, [[-h], [h]], [[h], [h]])  # valid two-element split
    with pytest.raises(ValueError, match="overlap"):
        Mesh.from_pi(1, 2, [[-h], [Fraction(1, 4)]], [[h], [h]])
    with pytest.raises(ValueError, match="close the domain"):
        Mesh.from_pi(1, 2, [[-h], [Fraction(3, 4)]], [[h], [Fraction(1, 4)]])
    with pytest.raises(ValueError, match="outside"):
        Mesh.from_pi(1, 2, [[-h], [Fraction(3, 4)]], [[h], [h]])
    with pytest.raises(ValueError):
        Mesh.from_pi(1, 0, [[-h], [h]], [[h], [h]])
    with pytest.raises(ValueError):
        Mesh(4, 2, [], [])


def test_float_mesh_validation_paths():
    # same checks without rational tags run in floating point
    h = [[math.pi / 2], [math.pi / 2]]
    mesh = Mesh(1, 2, [[-math.pi / 2], [math.pi / 2]], h)
    assert not mesh.rational
    with pytest.raises(ValueError, match="overlap"):
        Mesh(1, 2, [[-math.pi / 2], [0.0]], h)
    with pytest.raises(ValueError):
        Mesh(1, 2, [[-math.pi / 2], [0.0]], [[math.pi / 2], [0.0]])


# the 1D mesh of two halves over L = 2: centers -+1/2 pi, half-legs pi/2
_HALVES = ([[-1], [1]], [[1], [1]])


def test_integer_mesh_is_built_from_numerators_alone():
    mesh = Mesh(1, 2, *_HALVES, 2)
    assert mesh == uniform_mesh(1, 2, 2) and mesh.L == 2 and mesh.A.dtype == np.int64
    # integers not in lowest terms are reduced, and the floats follow them
    again = Mesh(1, 2, [[-3], [3]], [[3], [3]], np.int64(6))
    assert again == mesh and again.L == 2 and type(again.L) is int
    assert np.array_equal(again.A, mesh.A) and np.array_equal(again.H, mesh.H)


@pytest.mark.parametrize("L", [0, -2, 2.0, True, "2", np.float64(2)],
                         ids=["zero", "negative", "float", "bool", "string", "numpy-float"])
def test_integer_mesh_rejects_a_denominator_that_is_not_a_positive_integer(L):
    with pytest.raises(ValueError, match="denominator is not a positive integer"):
        Mesh(1, 2, *_HALVES, L)


@pytest.mark.parametrize("A", [[[-1.0], [1]], [[-1], [True]], [[-1], ["1"]],
                               np.array([[-1.0], [1.0]]), np.array([[False], [True]])],
                         ids=["float", "bool", "string", "float-array", "bool-array"])
def test_integer_mesh_rejects_a_numerator_that_is_not_an_integer(A):
    with pytest.raises(ValueError, match="mesh numerator is not an integer"):
        Mesh(1, 2, A, _HALVES[1], 2)


@pytest.mark.parametrize("A,H", [([-1, 1], [1, 1]), ([[-1], [1]], [[1]]),
                                 ([[-1, 0], [1, 0]], [[1, 1], [1, 1]]), ([[-1], [1, 0]], [[1], [1]]),
                                 ([], [])],
                         ids=["1d", "unequal-K", "wrong-d", "ragged", "empty"])
def test_integer_mesh_rejects_arrays_not_of_shape_K_by_d(A, H):
    with pytest.raises(ValueError, match=r"shape \(K, 1\)"):
        Mesh(1, 2, A, H, 2)


def _pairwise_oracle(a, h, d):
    """Partition checks over every pair of boxes, one at a time.

    The brute-force reference for ``Mesh.validate``: same checks, same
    order, same messages, exact on rational rows (a_pi, h_pi) and with
    tolerance 1e-12 pi on float arrays. Returns the first failure message
    or None.
    """
    boxes = []
    if not isinstance(a, np.ndarray):
        vol = Fraction(0)
        for a_pi, h_pi in zip(a, h):
            lo = tuple(c - abs(hh) for c, hh in zip(a_pi, h_pi))
            hi = tuple(c + abs(hh) for c, hh in zip(a_pi, h_pi))
            if min(lo) < -1 or max(hi) > 1:
                return "element extends outside [-pi, pi]^d"
            boxes.append((lo, hi))
            vol += math.prod(abs(hh) for hh in h_pi)
        if vol != 1:
            return "element volumes do not close the domain"

        def overlap(bi, bj):
            return all(bi[0][t] < bj[1][t] and bj[0][t] < bi[1][t] for t in range(d))
    else:
        tol = 1e-12 * math.pi
        vol = 0.0
        for ak, hk in zip(a, h):
            lo, hi = _bounds(ak, hk)
            if np.min(lo) < -math.pi - tol or np.max(hi) > math.pi + tol:
                return "element extends outside [-pi, pi]^d"
            boxes.append((lo, hi))
            vol += (2.0 ** d) * float(np.prod(np.abs(hk)))
        if abs(vol - (2.0 * math.pi) ** d) > 1e-12 * (2.0 * math.pi) ** d:
            return "element volumes do not close the domain"

        def overlap(bi, bj):
            return np.all(np.minimum(bi[1], bj[1]) - np.maximum(bi[0], bj[0]) > tol)
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if overlap(boxes[i], boxes[j]):
                return f"elements {i} and {j} overlap"
    return None


@contextmanager
def _pair_block(n):
    """Run with the sweep and point location testing n candidate pairs at a time."""
    saved = mesh_module._PAIR_BLOCK
    mesh_module._PAIR_BLOCK = n
    try:
        yield
    finally:
        mesh_module._PAIR_BLOCK = saved


def _validation_error(d, a, h):
    try:
        _mesh(d, 1, a, h)
    except ValueError as exc:
        return str(exc)
    return None


_NUDGE = Fraction(1, 2 ** 44)  # far below the float tolerance of 1e-12 pi


@st.composite
def _perturbed_dyadic_meshes(draw):
    """A refined dyadic mesh in random element order, with at most one
    element moved, resized, duplicated or dropped."""
    d = draw(st.integers(1, 3))
    mesh = uniform_mesh(d, draw(st.sampled_from((2, 4, 1))), 1)
    for _ in range(draw(st.integers(1, 3))):
        mesh = refine(mesh, draw(st.lists(st.integers(0, mesh.K - 1), min_size=1,
                                          max_size=4, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = rng.permutation(mesh.K)
    rows_a, rows_h = ([list(_tags(mesh, k)[i]) for k in order] for i in (0, 1))
    kind = draw(st.sampled_from(("move", "resize", "duplicate", "drop", "none")))
    # picking elements by volume moves coarse ones over refined regions,
    # which overlaps several elements at once
    vol = np.array([float(np.prod(np.abs(mesh.h[k]))) for k in order])
    k = int(rng.choice(len(rows_a), p=vol / vol.sum()))
    t = draw(st.integers(0, d - 1))
    a, h = list(rows_a[k]), list(rows_h[k])
    if kind == "move":
        step = draw(st.sampled_from((_NUDGE, h[t] / 2, h[t], 2 * h[t])))
        step *= draw(st.sampled_from((-1, 1)))
        if abs(a[t] + step) + h[t] > 1:
            step = -step  # prefer overlaps inside the domain to leaving it
        a[t] += step
        rows_a[k] = a
    elif kind == "resize":
        h[t] *= draw(st.sampled_from((Fraction(1, 2), 2, 1 + _NUDGE)))
        rows_h[k] = h
    elif kind == "duplicate":
        i = draw(st.integers(0, len(rows_a)))
        rows_a.insert(i, a)
        rows_h.insert(i, h)
    elif kind == "drop" and len(rows_a) > 1:
        del rows_a[k], rows_h[k]
    else:
        kind = "none"
    return d, kind, rows_a, rows_h


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_perturbed_dyadic_meshes(), st.sampled_from((1, 7, 1 << 18)))
def test_validation_matches_pairwise_oracle(case, block):
    d, kind, a, h = case
    with _pair_block(block):
        for geometry in ((a, h), _stripped(a, h)):
            expect = _pairwise_oracle(*geometry, d)
            event(f"{kind}: {expect or 'valid'}")
            assert _validation_error(d, *geometry) == expect
            if kind == "none":
                assert expect is None


def test_overlap_report_is_lexicographically_first():
    # the sweep meets (1, 2) first, on the left; (0, 3) must be reported
    spans = [(0, Fraction(1, 2)), (-1, Fraction(-1, 2)),
             (Fraction(-3, 4), Fraction(-1, 4)), (Fraction(1, 4), Fraction(3, 4))]
    rational = [[(lo + hi) / 2] for lo, hi in spans], [[(hi - lo) / 2] for lo, hi in spans]
    for geometry in (rational, _stripped(*rational)):
        assert _pairwise_oracle(*geometry, 1) == "elements 0 and 3 overlap"
        with pytest.raises(ValueError, match="elements 0 and 3 overlap"):
            _mesh(1, 1, *geometry)


def test_exact_validation_beyond_int64():
    # a face at 1/3^40 needs a common denominator past 2^63
    b = Fraction(1, 3 ** 40)
    h = [[(b + 1) / 2], [(1 - b) / 2]]
    Mesh.from_pi(1, 1, [[(b - 1) / 2], [(b + 1) / 2]], h)
    # shifting the right element left by 1/3^41 is invisible in floating
    # point but is an exact overlap (and leaves room inside the domain)
    s = Fraction(1, 3 ** 41)
    a = [[(b - 1) / 2], [(b + 1) / 2 - s]]
    with pytest.raises(ValueError, match="elements 0 and 1 overlap"):
        Mesh.from_pi(1, 1, a, h)
    assert _pairwise_oracle(a, h, 1) == "elements 0 and 1 overlap"


def test_node_positions_storage_order():
    # flat node index runs axis 1 fastest
    mesh = uniform_mesh(2, 2, 2)
    rule = gll_rule(2)
    pos = gll_node_positions(mesh, rule)
    assert pos.shape == (4, 9, 2)
    a, h = mesh.a[0], mesh.h[0]
    assert pos[0, 1, 0] != pos[0, 0, 0]          # axis 1 moved
    assert pos[0, 1, 1] == pos[0, 0, 1]          # axis 2 did not
    np.testing.assert_allclose(pos[0, 0], a - np.abs(h))
    np.testing.assert_allclose(pos[0, -1], a + np.abs(h))


def test_sample_and_eval_reproduce_polynomials():
    mesh = uniform_mesh(2, 2, 4)
    rule = gll_rule(4)

    def f(X):
        return (X[:, 0] / math.pi) ** 4 - 2.0 * (X[:, 1] / math.pi) ** 3 * (
            X[:, 0] / math.pi
        )

    field = sample_field(mesh, rule, f)
    rng = np.random.default_rng(11)
    X = rng.uniform(-math.pi, math.pi, (50, 2))
    np.testing.assert_allclose(eval_field_many(field, X)[:, 0], f(X), atol=1e-13)
    x0 = np.array([0.3, -1.2])
    assert eval_field(field, x0)[0] == pytest.approx(f(x0[None])[0], abs=1e-13)


def test_eval_outside_domain_raises():
    mesh = uniform_mesh(1, 2, 2)
    field = sample_field(mesh, gll_rule(2), lambda X: X[:, 0])
    with pytest.raises(ValueError, match="outside"):
        eval_field_many(field, np.array([[3.5]]))


def test_eval_on_shared_face_is_single_valued():
    mesh = uniform_mesh(1, 4, 3)
    field = sample_field(mesh, gll_rule(3), lambda X: np.sin(X[:, 0]))
    # x = -pi/2 lies on the face between elements 0 and 1
    v = eval_field(field, np.array([-math.pi / 2]))
    assert v[0] == pytest.approx(math.sin(-math.pi / 2), abs=1e-3)


def _locate_oracle(mesh, X):
    """Owner of each point by one mask pass per element, smallest k first."""
    owner = np.full(X.shape[0], -1)
    for k in range(mesh.K):
        a, h = mesh.a[k], mesh.h[k]
        lo, hi = _bounds(a, h)
        slack = 1e-12 * np.maximum(1.0, np.abs(a) + np.abs(h))
        inside = np.all((X >= lo - slack) & (X <= hi + slack), axis=1)
        owner[(owner < 0) & inside] = k
    return owner


@pytest.mark.parametrize("d", [1, 2, 3])
def test_locate_on_faces_corners_and_domain_edge(d):
    mesh = refine(uniform_mesh(d, 2, 1), [0])
    mesh = refine(mesh, [1, 2 ** d])  # a fine child and a coarse neighbour
    # every corner, edge midpoint, face centre and centre of every element,
    # which puts points on hanging-node faces, then the domain corners
    unit = np.array(list(np.ndindex(*(3,) * d)), dtype=float) - 1.0
    nodes = np.concatenate([mesh.a[k] + mesh.h[k] * unit for k in range(mesh.K)])
    corners = math.pi * (2.0 * np.array(list(np.ndindex(*(2,) * d))) - 1.0)
    # plus points moved within the 1e-12 slack, and moved clearly outside
    X = np.concatenate([nodes, corners, nodes[:40] + 1e-13, nodes[:40] - 1e-13,
                        nodes[:40] * (1 + 1e-9)])
    expect = _locate_oracle(mesh, X)
    assert np.all(expect[: len(nodes) + len(corners)] >= 0) and np.any(expect < 0)
    for block in (1, 5, 1 << 18):
        with _pair_block(block):
            np.testing.assert_array_equal(_locate(mesh, X), expect)


def test_sampler_shape_and_finiteness_checks():
    mesh = uniform_mesh(1, 2, 2)
    rule = gll_rule(2)
    with pytest.raises(ValueError, match="non-finite"):
        sample_field(mesh, rule, lambda X: np.full(X.shape[0], np.nan))
    with pytest.raises(ValueError, match="wrong number"):
        sample_field(mesh, rule, lambda X: X[:2, 0])
    with pytest.raises(ValueError):
        NodalField(mesh, np.zeros((2, 4, 1)))  # nodes_per_element is 3


def test_nodal_to_modal_picks_out_legendre_degrees():
    # single element covering [-pi, pi]: L_3(x/pi) has modal vector e_3
    mesh = uniform_mesh(1, 1, 5)
    rule = gll_rule(5)
    table = legendre_coeffs(rule)
    field = sample_field(mesh, rule, lambda X: legendre_eval(3, X[:, 0] / math.pi))
    modal = nodal_to_modal(table, field.values[0], 1)
    expect = np.zeros((6, 1))
    expect[3, 0] = 1.0
    np.testing.assert_allclose(modal, expect, atol=1e-13)


def test_indicator_flags_unresolved_elements_only():
    mesh = uniform_mesh(1, 4, 6)
    rule = gll_rule(6)

    def f(X):
        x = X[:, 0]
        return np.where(x > math.pi / 2, np.tanh(40.0 * (x - 2.2)), 0.01 * x)

    field = sample_field(mesh, rule, f)
    ind = element_indicator(field)
    # the kink lives in the last element; the linear pieces are resolved
    assert np.argmax(ind) == 3
    assert ind[3] > 1e3 * np.max(ind[:2])


def test_refine_splits_flagged_elements():
    mesh = uniform_mesh(2, 2, 3)
    out = refine(mesh, [1])
    assert out.K == 4 - 1 + 4
    assert out.rational
    lo_p, hi_p = _bounds(mesh.a[1], mesh.h[1])
    for c in range(1, 5):
        assert _tags(out, c)[1] == tuple(h / 2 for h in _tags(mesh, 1)[1])
        lo, hi = _bounds(out.a[c], out.h[c])
        assert np.all(lo >= lo_p - 1e-15) and np.all(hi <= hi_p + 1e-15)
    # child order: axis 1 fastest (-,-), (+,-), (-,+), (+,+)
    offs = [np.sign(out.a[c] - mesh.a[1]) for c in range(1, 5)]
    assert [tuple(o) for o in offs] == [(-1, -1), (1, -1), (-1, 1), (1, 1)]


def test_refine_mask_and_empty_flags():
    mesh = uniform_mesh(1, 4, 2)
    mask = np.zeros(4, dtype=bool)
    mask[2] = True
    assert refine(mesh, mask).K == 5
    assert refine(mesh, []).K == 4
    with pytest.raises(ValueError):
        refine(mesh, np.zeros(3, dtype=bool))


def test_refine_float_elements():
    mesh = Mesh(1, 2, [[-math.pi / 2], [math.pi / 2]], [[math.pi / 2], [math.pi / 2]])
    out = refine(mesh, [0])
    assert out.K == 3 and not out.rational


def test_refine_by_indicator_round_trip():
    mesh = uniform_mesh(1, 4, 5)
    rule = gll_rule(5)
    f = lambda X: np.exp(np.sin(3.0 * X[:, 0]))
    field = sample_field(mesh, rule, f)
    refined, flags, indicators = refine_by_indicator(mesh, field, 1e-3)
    assert indicators.shape == (4,)
    assert refined.K == 4 + np.count_nonzero(flags)
    # a huge tolerance refines nothing and returns the same mesh object
    same, flags2, _ = refine_by_indicator(mesh, field, 1e9)
    assert same is mesh and not np.any(flags2)


def test_mesh_json_round_trip_keeps_exact_geometry():
    mesh = refine(uniform_mesh(2, 2, 4), [0, 3])
    data = mesh_to_dict(mesh)
    back = mesh_from_dict(json.loads(json.dumps(data)))
    assert back == mesh
    assert back.rational
    assert all(_tags(back, k) == _tags(mesh, k) for k in range(mesh.K))


def test_mesh_file_round_trip(tmp_path):
    mesh = uniform_mesh(2, 3, 2)
    path = tmp_path / "mesh.json"
    save_mesh(mesh, path)
    assert load_mesh(path) == mesh
    # float-only meshes survive too, without the exact tags
    fl = Mesh(1, 2, [[-math.pi / 2], [math.pi / 2]], [[math.pi / 2], [math.pi / 2]])
    save_mesh(fl, path)
    back = load_mesh(path)
    assert back == fl and not back.rational


def test_mesh_file_is_one_line_and_indented_files_still_load(tmp_path):
    mesh = refine(uniform_mesh(2, 2, 2), [1])
    path = tmp_path / "mesh.json"
    save_mesh(mesh, path)
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("}\n")
    assert json.loads(text) == mesh_to_dict(mesh)
    # the indented form that mesh files had before
    path.write_text(json.dumps(mesh_to_dict(mesh), indent=1) + "\n")
    assert load_mesh(path) == mesh


def test_mesh_dict_rejects_offdiagonal_maps():
    mesh = uniform_mesh(2, 1, 1)
    data = mesh_to_dict(mesh)
    data["elements"][0]["h"][0][1] = 0.25
    del data["elements"][0]["a_over_pi"]
    del data["elements"][0]["h_over_pi"]
    with pytest.raises(ValueError, match="diagonal"):
        mesh_from_dict(data)


def test_field_binary_round_trip_is_exact(tmp_path):
    mesh = uniform_mesh(2, 2, 3)
    rng = np.random.default_rng(3)
    field = NodalField(mesh, rng.standard_normal((4, 16, 2)))
    path = tmp_path / "f.bin"
    write_field(field, path)
    back = read_field(path, mesh)
    assert np.array_equal(back.values, field.values)


def test_field_binary_header_checks(tmp_path):
    mesh = uniform_mesh(1, 2, 2)
    field = NodalField(mesh, np.ones((2, 3, 1)))
    path = tmp_path / "f.bin"
    write_field(field, path)
    with pytest.raises(ValueError, match="does not match"):
        read_field(path, uniform_mesh(1, 3, 2))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_field(path, mesh)
    path.write_bytes(b"JUNK" + raw[4:])
    with pytest.raises(ValueError, match="not a field file"):
        read_field(path, mesh)


def test_field_binary_rejects_trailing_bytes(tmp_path):
    mesh = uniform_mesh(1, 2, 2)
    path = tmp_path / "f.bin"
    write_field(NodalField(mesh, np.ones((2, 3, 1))), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match="56 value bytes, expected 48"):
        read_field(path, mesh)


def test_field_json_checks_value_count(tmp_path):
    mesh = uniform_mesh(1, 2, 2)
    path = tmp_path / "f.json"
    write_field_json(NodalField(mesh, np.ones((2, 3, 1))), path)
    data = json.loads(path.read_text())
    data["values"].append(1.0)
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="7 values, expected 6"):
        read_field_json(path, mesh)


def test_field_json_round_trip(tmp_path):
    mesh = uniform_mesh(1, 2, 2)
    rng = np.random.default_rng(5)
    field = NodalField(mesh, rng.uniform(-1, 1, (2, 3, 2)))
    path = tmp_path / "f.json"
    write_field_json(field, path)
    back = read_field_json(path, mesh)
    assert np.array_equal(back.values, field.values)
    with pytest.raises(ValueError, match="does not match"):
        read_field_json(path, uniform_mesh(1, 4, 2))


@pytest.mark.parametrize("edit,message", [
    (lambda data: [data], "not a JSON object"),
    (lambda data: {k: v for k, v in data.items() if k != "K"}, "field 'K' is missing or not an integer: None"),
    (lambda data: dict(data, d=True), "field 'd' is missing or not an integer: True"),
    (lambda data: dict(data, components=1.5), "'components' is missing or not an integer: 1.5"),
    (lambda data: dict(data, values=None), "lacks a 'values' list"),
    (lambda data: dict(data, values=[{}] * 6), "'values' are not all numbers"),
], ids=["list", "no-K", "bool-d", "float-components", "no-values", "object-values"])
def test_malformed_field_json_raises_value_error(tmp_path, edit, message):
    mesh = uniform_mesh(1, 2, 2)
    path = tmp_path / "f.json"
    write_field_json(NodalField(mesh, np.ones((2, 3, 1))), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=re.escape(message)):
        read_field_json(path, mesh)


def test_both_field_formats_report_a_mesh_mismatch_alike(tmp_path):
    field = NodalField(uniform_mesh(1, 2, 2), np.ones((2, 3, 1)))
    write_field(field, tmp_path / "f.bin")
    write_field_json(field, tmp_path / "f.json")
    other = uniform_mesh(1, 4, 2)
    messages = []
    for read, name in ((read_field, "f.bin"), (read_field_json, "f.json")):
        with pytest.raises(ValueError) as info:
            read(tmp_path / name, other)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == \
        "field header (d=1, P=2, K=2) does not match mesh (d=1, P=2, K=4)"


def _eval_oracle(field, X):
    """Per-owner-element evaluation: one interp_matrix and einsum each."""
    mesh = field.mesh
    owner = _locate(mesh, X)
    table = legendre_coeffs(gll_rule(mesh.P))
    out = np.empty((X.shape[0], field.components))
    for k in np.unique(owner):
        sel = np.flatnonzero(owner == k)
        xi = np.clip((X[sel] - mesh.a[k]) / mesh.h[k], -1.0, 1.0)
        phis = [interp_matrix(table, xi[:, t]) for t in range(mesh.d)]
        U = field.values[k].reshape((mesh.P + 1,) * mesh.d + (field.components,))
        out[sel] = np.einsum(",".join(f"n{c}" for c in "pqr"[:mesh.d])
                             + "," + "pqr"[:mesh.d][::-1] + "c->nc", *phis, U)
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_blocked_evaluation_matches_per_element_loop(d):
    mesh = refine(uniform_mesh(d, 2, 3), [0])
    mesh = refine(mesh, [1, mesh.K - 1])
    rng = np.random.default_rng(d)
    field = NodalField(mesh, rng.uniform(-1, 1, (mesh.K, 4 ** d, 2)))
    X = rng.uniform(-math.pi, math.pi, (300, d))
    expect = _eval_oracle(field, X)
    for block in (1, 100, 1 << 18):
        with _pair_block(block):
            np.testing.assert_allclose(eval_field_many(field, X), expect,
                                       rtol=1e-14, atol=1e-14)


def test_non_finite_geometry_is_rejected():
    h = [[math.pi / 2], [math.pi / 2]]
    with pytest.raises(ValueError, match="not finite"):
        Mesh(1, 2, [[math.nan], [math.pi / 2]], h)
    with pytest.raises(ValueError, match="not finite"):
        Mesh(1, 2, [[-math.pi / 2], [math.pi / 2]], [[math.pi / 2], [math.inf]])


def test_mesh_file_with_non_finite_geometry_is_rejected(tmp_path):
    data = mesh_to_dict(uniform_mesh(1, 2, 2))
    for entry in data["elements"]:
        del entry["a_over_pi"], entry["h_over_pi"]
    path = tmp_path / "mesh.json"
    for field, value in (("a", [math.nan]), ("h", [[math.inf]])):
        bad = json.loads(json.dumps(data))
        bad["elements"][0][field] = value
        path.write_text(json.dumps(bad))  # writes NaN / Infinity
        with pytest.raises(ValueError, match="not finite"):
            load_mesh(path)


@pytest.mark.parametrize("name,bad", [("f.bin", math.inf), ("f.bin", math.nan),
                                      ("f.json", "null"), ("f.json", "NaN")])
def test_field_files_with_non_finite_values_are_rejected(tmp_path, name, bad):
    mesh = uniform_mesh(1, 2, 2)
    field, path = NodalField(mesh, np.ones((2, 3, 1))), tmp_path / name
    if name.endswith(".bin"):
        write_field(field, path)
        raw = path.read_bytes()  # the first nodal value follows the 32-byte header
        path.write_bytes(raw[:32] + np.array(bad, "<f8").tobytes() + raw[40:])
        read = read_field
    else:
        write_field_json(field, path)
        path.write_text(path.read_text().replace('"values": [1.0', f'"values": [{bad}', 1))
        read = read_field_json
    with pytest.raises(ValueError, match="non-finite"):
        read(path, mesh)


def test_nodal_field_rejects_non_finite_values():
    values = np.ones((2, 3, 1))
    values[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        NodalField(uniform_mesh(1, 2, 2), values)


def test_partially_tagged_mesh_is_float():
    # a file with one exact and one float element: the mesh, its plan keys
    # and its file drop the partial tags
    data = mesh_to_dict(uniform_mesh(1, 2, 2))
    del data["elements"][1]["a_over_pi"], data["elements"][1]["h_over_pi"]
    mesh = mesh_from_dict(data)
    assert not mesh.rational and mesh.A is None and mesh.L is None
    data = mesh_to_dict(mesh)
    assert all("a_over_pi" not in e for e in data["elements"])
    assert mesh_from_dict(data) == mesh


def test_exact_geometry_stays_in_lowest_terms():
    mesh = uniform_mesh(2, 4, 1)
    assert mesh.L == 4 and mesh.A.dtype == np.int64
    for flags in ([0, 5], [2], []):
        mesh = refine(mesh, flags)
        denominators = {f.denominator for k in range(mesh.K) for f in sum(_tags(mesh, k), ())}
        assert mesh.L == math.lcm(*denominators)
        assert np.array_equal(mesh.a, mesh.A * math.pi / mesh.L)
    assert mesh.L == 16
    # past int64 the integers are Python ints, and refinement stays exact
    b = Fraction(1, 3 ** 40)
    wide = Mesh.from_pi(1, 1, [[(b - 1) / 2], [(b + 1) / 2]], [[(b + 1) / 2], [(1 - b) / 2]])
    fine = refine(wide, [0, 1])
    assert wide.A.dtype == object and fine.A.dtype == object
    assert _tags(fine, 1)[0] == ((3 * b - 1) / 4,)


def _bisect_oracle(mesh, flags):
    """Children element by element, as (a, h, a_pi, h_pi) rows: Fraction
    tags and their floats, or halved floats with tags None."""
    signs = [np.array(s) for s in np.ndindex(*(2,) * mesh.d)]
    out = []
    for k in range(mesh.K):
        a, h = mesh.a[k], mesh.h[k]
        a_pi, h_pi = _tags(mesh, k)
        if k not in flags:
            out.append((a, h, a_pi, h_pi))
            continue
        for s in signs:
            sgn = 2 * s[::-1] - 1  # axis 1 fastest
            if mesh.rational:
                half = tuple(hh / 2 for hh in h_pi)
                c = tuple(cc + int(g) * hh for cc, g, hh in zip(a_pi, sgn, half))
                out.append((np.array([float(v) * math.pi for v in c]),
                            np.array([float(v) * math.pi for v in half]), c, half))
            else:
                out.append((a + sgn * 0.5 * h, 0.5 * h, None, None))
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_refine_matches_per_element_bisection(d):
    exact = refine(uniform_mesh(d, 2, 1), [0])
    floats = Mesh(d, 1, exact.a, exact.h)
    for mesh in (exact, floats):
        flags = [0, mesh.K - 1]
        got, expect = refine(mesh, flags), _bisect_oracle(mesh, flags)
        assert got.K == len(expect)
        for k, (a, h, a_pi, h_pi) in enumerate(expect):
            assert np.array_equal(got.a[k], a) and np.array_equal(got.h[k], h)
            assert _tags(got, k) == (a_pi, h_pi)


def test_batched_indicator_matches_per_element_modal_tensors():
    mesh = refine(uniform_mesh(2, 3, 4), [4])
    rng = np.random.default_rng(13)
    field = NodalField(mesh, rng.uniform(-1, 1, (mesh.K, 25, 2)))
    table = legendre_coeffs(gll_rule(4))
    expect = []
    for k in range(mesh.K):
        modal = nodal_to_modal(table, field.values[k], 2)
        expect.append(max(np.max(np.sqrt(np.mean(np.square(
            np.take(modal, 4, axis=1 - t).reshape(-1, 2)), axis=0))) for t in range(2)))
    np.testing.assert_allclose(element_indicator(field), expect, rtol=1e-14, atol=0)
