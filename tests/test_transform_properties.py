"""Transform properties on random dyadic meshes (Hypothesis).

Each example is a uniform 1-3D mesh refined by a few random bisection
passes, so it mixes element sizes and hanging nodes. The checks are the
algebraic identities of the exact transform; none depends on how the
plan or the mesh stores its geometry.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import legvander

from semfourier.gll import gll_rule, legendre_coeffs
from semfourier.mesh import (
    Mesh,
    NodalField,
    mesh_from_dict,
    mesh_json,
    refine,
    sample_field,
    uniform_mesh,
)
import semfourier.transform as T
from semfourier.transform import WaveSet, build_plan, phi_hat, transform

_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.too_slow])
# Rounding bound, relative to the largest nodal value: the coefficients of
# an interpolant are at most a small multiple of it.
_TOL = 1e-12


def _refine_randomly(draw, mesh):
    for _ in range(draw(st.integers(0, 2))):
        mesh = refine(mesh, draw(st.lists(st.integers(0, mesh.K - 1),
                                          max_size=3, unique=True)))
    return mesh


@st.composite
def _cases(draw, uniform=False):
    """(mesh, waves, rng): a dyadic mesh, a box wave set, a seeded rng."""
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from((1, 2, 4) if d < 3 else (1, 2)))
    P = draw(st.integers(1, 4 if d < 3 else 2))
    mesh = uniform_mesh(d, n, P)
    if not uniform:
        mesh = _refine_randomly(draw, mesh)
    waves = WaveSet.box(d, draw(st.integers(0, 3 if d < 3 else 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return mesh, waves, rng


def _plan(mesh, waves):
    rule = gll_rule(mesh.P)
    return build_plan(mesh, rule, legendre_coeffs(rule), waves)


def _random_field(mesh, rng, C=1):
    return NodalField(mesh, rng.uniform(-1, 1, (mesh.K, mesh.nodes_per_element, C)))


def _polynomial(coeffs):
    """Global polynomial sum_p coeffs[p] prod_t L_{p_t}(x_t / pi)."""
    d, P = coeffs.ndim, coeffs.shape[0] - 1
    letters = "abc"[:d]
    spec = ",".join(f"n{c}" for c in letters) + f",{letters}->n"
    return lambda X: np.einsum(spec, *[legvander(X[:, t] / math.pi, P) for t in range(d)],
                               coeffs)


@_SETTINGS
@given(_cases(), st.floats(-4, 4), st.floats(-4, 4))
def test_transform_is_linear(case, alpha, beta):
    mesh, waves, rng = case
    plan = _plan(mesh, waves)
    u, v = _random_field(mesh, rng, 2), _random_field(mesh, rng, 2)
    w = NodalField(mesh, alpha * u.values + beta * v.values)
    su, sv, sw = (transform(f, plan).values for f in (u, v, w))
    scale = abs(alpha) + abs(beta) + 1.0
    assert np.max(np.abs(sw - (alpha * su + beta * sv)), initial=0.0) <= _TOL * scale


@_SETTINGS
@given(_cases(uniform=True), st.data())
def test_refinement_keeps_polynomial_spectra(case, data):
    # a global polynomial of degree <= P per axis is reproduced exactly on
    # any refinement, so its coefficients cannot move beyond rounding
    mesh, waves, rng = case
    fine = _refine_randomly(data.draw, refine(mesh, [int(rng.integers(mesh.K))]))
    f = _polynomial(rng.uniform(-1, 1, (mesh.P + 1,) * mesh.d))
    rule = gll_rule(mesh.P)
    coarse_u, fine_u = sample_field(mesh, rule, f), sample_field(fine, rule, f)
    scale = max(np.max(np.abs(coarse_u.values)), 1.0)
    gap = transform(coarse_u, _plan(mesh, waves)).values - transform(fine_u, _plan(fine, waves)).values
    assert np.max(np.abs(gap)) <= _TOL * scale


@_SETTINGS
@given(_cases(uniform=True))
def test_one_element_shift_multiplies_by_phase(case):
    # rolling the nodal blocks of a uniform n^d mesh by one element along
    # every axis translates the interpolant by s = (2 pi / n, ..., 2 pi / n)
    mesh, waves, rng = case
    n, d = round(mesh.K ** (1 / mesh.d)), mesh.d
    u = _random_field(mesh, rng)
    blocks = u.values.reshape((n,) * d + u.values.shape[1:])
    shifted = NodalField(mesh, np.roll(blocks, 1, axis=tuple(range(d))).reshape(u.values.shape))
    plan = _plan(mesh, waves)
    su, ss = transform(u, plan).values, transform(shifted, plan).values
    q = np.array(waves.qs, dtype=float).reshape(len(waves), d)
    phase = np.exp(-1j * (2 * math.pi / n) * q.sum(axis=1))
    assert np.max(np.abs(ss - phase[:, None] * su)) <= _TOL


@_SETTINGS
@given(_cases())
def test_real_fields_have_conjugate_symmetric_spectra(case):
    mesh, waves, rng = case
    spec = transform(_random_field(mesh, rng, 2), _plan(mesh, waves))
    assert spec.conjugate_symmetry_error() <= _TOL


@_SETTINGS
@given(_cases())
def test_compensated_sum_and_phi_hat_agree_with_plan(case):
    mesh, waves, rng = case
    plan = _plan(mesh, waves)
    u = _random_field(mesh, rng, 2)
    plain, comp = transform(u, plan).values, transform(u, plan, compensated=True).values
    assert np.max(np.abs(plain - comp)) <= _TOL
    n = mesh.P + 1
    for _ in range(5):
        qi, k = int(rng.integers(len(waves))), int(rng.integers(mesh.K))
        j = [int(v) for v in rng.integers(n, size=mesh.d)]
        j_flat = sum(jt * n ** t for t, jt in enumerate(j))
        assert plan.basis_coefficient(qi, k, j_flat) == phi_hat(mesh, k, j, waves.qs[qi])


@_SETTINGS
@given(_cases())
def test_mesh_rebuilt_from_its_elements_is_equal(case):
    mesh, waves, _ = case
    a_pi, h_pi = ([[Fraction(int(v), mesh.L) for v in row] for row in X] for X in (mesh.A, mesh.H))
    again = Mesh.from_pi(mesh.d, mesh.P, a_pi, h_pi)
    assert again == mesh and again.K == mesh.K
    plan, plan_again = _plan(mesh, waves), _plan(again, waves)
    for F, G in zip(plan.factors, plan_again.factors):
        assert np.array_equal(F, G)
    assert np.array_equal(plan.weight, plan_again.weight)


def _assert_bitwise_equal(got, mesh):
    """Same floats bit for bit, same integers, dtypes and element types."""
    assert got == mesh and (got.L, type(got.L)) == (mesh.L, type(mesh.L))
    assert got.rational == mesh.rational
    for x, y in ((got.a, mesh.a), (got.h, mesh.h)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    for x, y in ((got.A, mesh.A), (got.H, mesh.H)) if mesh.rational else ():
        assert x.dtype == y.dtype and x.tolist() == y.tolist()
        assert {type(v) for v in x.flat} == {type(v) for v in y.flat}


def _assert_rebuilds_exactly(mesh):
    # its floats are float(Fraction(A, L)) pi, and it comes back from its
    # integers and from its rationals put back over one denominator
    a_pi, h_pi = ([[Fraction(int(v), mesh.L) for v in row] for row in X] for X in (mesh.A, mesh.H))
    for X, x in ((a_pi, mesh.a), (h_pi, mesh.h)):
        assert np.array([[float(f) * math.pi for f in row] for row in X]).tobytes() == x.tobytes()
    _assert_bitwise_equal(Mesh(mesh.d, mesh.P, mesh.A, mesh.H, mesh.L), mesh)
    _assert_bitwise_equal(Mesh.from_pi(mesh.d, mesh.P, a_pi, h_pi), mesh)


@_SETTINGS
@given(_cases())
def test_exact_mesh_rebuilt_from_integers_or_rationals_is_bitwise_equal(case):
    _assert_rebuilds_exactly(case[0])


@pytest.mark.parametrize("power", [33, 40])
def test_exact_mesh_past_2_53_rebuilds_bitwise_equal(power):
    # two elements split at pi / (2 3^power): over 4 3^33 >= 2^53 numpy's
    # int64 division rounds some float otherwise; 4 3^40 is past int64
    b = Fraction(1, 2 * 3 ** power)
    mesh = Mesh.from_pi(1, 2, [[(b - 1) / 2], [(b + 1) / 2]], [[(b + 1) / 2], [(1 - b) / 2]])
    assert mesh.L == 4 * 3 ** power and mesh.L >= 2 ** 53
    if power == 33:
        assert mesh.A.dtype == np.int64
        assert not np.array_equal(mesh.A / mesh.L * math.pi, mesh.a)
    else:
        assert mesh.A.dtype == object and mesh.L >= 2 ** 63
    for m in (mesh, refine(mesh, [0, 1])):
        _assert_rebuilds_exactly(m)


def _assert_file_round_trips(mesh):
    # the mesh and its float copy, through the JSON text of a mesh file
    for m in (mesh, Mesh(mesh.d, mesh.P, mesh.a, mesh.h)):
        _assert_bitwise_equal(mesh_from_dict(json.loads(mesh_json(m))), m)


@_SETTINGS
@given(_cases())
def test_mesh_file_round_trip_is_bitwise_exact(case):
    _assert_file_round_trips(case[0])


@pytest.mark.parametrize("L", [3 ** 40, 2 ** 60])
def test_mesh_file_round_trip_past_int64_is_bitwise_exact(L):
    # two elements split at pi s / L, s = 1 or 2 so that the numerators
    # are integers; 4 3^40 is past int64 and 4 2^60 is not
    s = 2 - L % 2
    mesh = Mesh(1, 2, [[(s - L) // 2], [(s + L) // 2]], [[(s + L) // 2], [(L - s) // 2]], L)
    assert mesh.L == L and (mesh.A.dtype == object) == (4 * L >= 2 ** 63)
    for m in (mesh, refine(mesh, [0, 1])):
        _assert_file_round_trips(m)


@_SETTINGS
@given(_cases(), st.data())
def test_wave_subset_matches_box_spectrum(case, data):
    # a subset that holds both corners (-qmax, ..) and (qmax, ..) but not
    # (qmax, -qmax, ..) is not the product of its per-axis values; it takes
    # the per-wave rows or the product over its grid, by the grid's size
    mesh, box, rng = case
    d, qmax = mesh.d, box.qs[-1][0]
    assume(d > 1 and qmax > 0)
    low, high = box.qs[0], box.qs[-1]
    mixed = (qmax,) + (-qmax,) * (d - 1)
    rest = [q for q in box.qs if q not in (low, high, mixed)]
    picked = data.draw(st.lists(st.sampled_from(rest), unique=True))
    qs = [low, high] + picked
    subset = WaveSet(d, tuple(qs[i] for i in rng.permutation(len(qs))))
    assert len(subset) < np.prod([len(v) for v in subset.axis_index[0]])
    u = _random_field(mesh, rng, 2)
    full = transform(u, _plan(mesh, box))
    part = transform(u, _plan(mesh, subset)).values
    expect = np.array([full.get(q) for q in subset.qs])
    assert np.max(np.abs(part - expect)) <= _TOL


# The grouped product path against the exactly rounded sum, per wave and
# component in eps of S(q) = sum_k sum_j |phi_hat[j,k,q] u[k,j]|, the size
# of the terms: 3000 examples of the strategy below measured at most 1.1
# eps, and the element-by-element path it replaced 0.87 over 1000. In eps
# of the largest coefficient they reached 23 and 24, on one-sided grids
# whose terms cancel.
_GROUPED_EPS = 2.0


def _interval_key(mesh, k, t):
    """Element k's interval on axis t: its integers, or the bits of its floats."""
    if mesh.H is None:
        return float(mesh.a[k, t]).hex(), float(mesh.h[k, t]).hex()
    return int(mesh.A[k, t]), int(mesh.H[k, t])


def _assert_groups_are_interval_classes(plan):
    """Each stage's groups are exactly the classes of elements with equal
    intervals on its axes, so no two tables that differ share a group."""
    mesh, groups = plan.mesh, plan.groups
    assert sorted(groups.order.tolist()) == list(range(mesh.K))
    for s, starts in enumerate(groups.starts):
        got = {frozenset(run.tolist()) for run in np.split(groups.order, starts[1:])}
        classes = {}
        for k in range(mesh.K):
            key = tuple(_interval_key(mesh, k, t) for t in range(mesh.d - 1 - s))
            classes.setdefault(key, set()).add(k)
        assert got == {frozenset(c) for c in classes.values()}


def _one_sided_grid(draw, d):
    """The product of per-axis runs of q_t that are all >= 0 or all <= 0."""
    axes = []
    for _ in range(d):
        sign, lo, size = (draw(st.sampled_from((1, -1))), draw(st.integers(0, 3)),
                          draw(st.integers(1, 3)))
        axes.append([sign * (lo + i) for i in range(size)])
    return WaveSet(d, tuple(itertools.product(*axes)))


@st.composite
def _grouped_cases(draw):
    """(mesh, waves, values, cap): a dyadic mesh, its float copy or a copy
    with its elements permuted; a box or a one-sided product grid; C = 1
    or 3 real or complex values; the default block cap or a cap of 1."""
    mesh, box, rng = draw(_cases())
    copy = draw(st.sampled_from(("exact", "float", "permuted")))
    if copy == "float":
        mesh = Mesh(mesh.d, mesh.P, mesh.a, mesh.h)
    elif copy == "permuted":
        perm = draw(st.permutations(range(mesh.K)))
        mesh = Mesh(mesh.d, mesh.P, mesh.A[perm], mesh.H[perm], mesh.L)
    waves = box if draw(st.booleans()) else _one_sided_grid(draw, mesh.d)
    shape = (mesh.K, mesh.nodes_per_element, draw(st.sampled_from((1, 3))))
    values = rng.uniform(-1, 1, shape)
    if draw(st.booleans()):
        values = values + 1j * rng.uniform(-1, 1, shape)
    return mesh, waves, values, draw(st.sampled_from((T._VALUE_BLOCK, 1)))


def _grouped_error(mesh, waves, values, cap):
    """Largest deviation of the grouped product path from the compensated
    sum in eps of S(q), with the groups checked and the spectra of real
    fields checked for exact conjugate symmetry."""
    plan = _plan(mesh, waves)
    _assert_groups_are_interval_classes(plan)
    field = NodalField(mesh, values)
    default = T._VALUE_BLOCK
    T._VALUE_BLOCK = cap
    try:
        got = transform(field, plan)
    finally:
        T._VALUE_BLOCK = default
    if not np.iscomplexobj(values):
        assert got.conjugate_symmetry_error() == 0.0
    comp = transform(field, plan, compensated=True).values
    size = np.stack([np.abs(T._wave_rows(plan.factors, waves.axis_folds, plan.weight, m,
                                         slice(None))[:, :, None] * values).sum(axis=(0, 1))
                     for m in waves.axis_index[1]])
    return np.max(np.abs(got.values - comp) / (np.finfo(float).eps * size))


@_SETTINGS
@given(_grouped_cases())
def test_grouped_product_path_matches_compensated_sum(case):
    assert _grouped_error(*case) <= _GROUPED_EPS


def _split_columns(P, a, h):
    """A 2D mesh of four quarters whose top row has the intervals (a, h)
    on axis 1, the bottom row (-pi/2, pi/2) and (pi/2, pi/2)."""
    rows = [(-math.pi / 2, math.pi / 2, -math.pi / 2), (math.pi / 2, math.pi / 2, -math.pi / 2),
            (a[0], h[0], math.pi / 2), (a[1], h[1], math.pi / 2)]
    return Mesh(2, P, [[x, y] for x, _, y in rows], [[w, math.pi / 2] for _, w, _ in rows])


def _ulp_apart_meshes():
    """Float meshes whose top-left interval is one ulp from the
    bottom-left one, in its center or in its half-leg."""
    half = math.pi / 2
    yield _split_columns(3, (np.nextafter(-half, 0.0), half), (half, half))
    yield _split_columns(3, (-half, half), (np.nextafter(half, 4.0), half))


def _object_mesh():
    """An exact mesh whose top row splits axis 1 at pi 2^-61 and the bottom
    row at 0: L = 2^62, so 4 L >= 2^63 and the integers are Python ints,
    and the two left intervals round to the same floats."""
    e, half = Fraction(1, 2 ** 61), Fraction(1, 2)
    a = [[-half, -half], [half, -half], [(e - 1) / 2, half], [(1 + e) / 2, half]]
    h = [[half, half], [half, half], [(1 + e) / 2, half], [(1 - e) / 2, half]]
    mesh = Mesh.from_pi(2, 3, a, h)
    assert mesh.A.dtype == object and 4 * mesh.L >= 2 ** 63
    assert mesh.a[0, 0] == mesh.a[2, 0] and mesh.h[0, 0] == mesh.h[2, 0]
    return mesh


@pytest.mark.parametrize("mesh", [*_ulp_apart_meshes(), _object_mesh()],
                         ids=["ulp-center", "ulp-half-leg", "object"])
def test_grouped_path_keeps_nearly_equal_intervals_apart(mesh):
    # the two left intervals differ by one ulp, or by pi 2^-62 on the exact
    # mesh; a merge would put both in one group and read one table for both
    rng = np.random.default_rng(151)
    for C, waves in ((1, WaveSet.box(2, 3)), (3, WaveSet(2, ((-2, 1), (-2, 2), (-1, 1), (-1, 2))))):
        values = rng.uniform(-1, 1, (mesh.K, mesh.nodes_per_element, C))
        assert _grouped_error(mesh, waves, values, T._VALUE_BLOCK) <= _GROUPED_EPS
