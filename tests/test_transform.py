"""Exact transform: algebraic identities, symmetries, and a quadrature oracle."""

import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from semfourier.gll import gll_rule, interp_matrix, legendre_coeffs
from semfourier.bessel import bessel_column
from semfourier.mesh import (
    Mesh,
    NodalField,
    refine,
    sample_field,
    uniform_mesh,
)
from semfourier.transform import (
    Spectrum,
    WaveSet,
    _coefficient,
    _table_row,
    build_plan,
    ipow_neg,
    phi_hat,
    read_spectrum_csv,
    rms_relative_error,
    transform,
    write_spectrum_csv,
)


def _plan_for(mesh, qmax=None, waves=None):
    rule = gll_rule(mesh.P)
    table = legendre_coeffs(rule)
    if waves is None:
        waves = WaveSet.box(mesh.d, qmax)
    return build_plan(mesh, rule, table, waves)


def quadrature_spectrum(field, waves, degree=None):
    """Independent oracle: per-element GLL quadrature of the interpolant.

    The quadrature degree follows the oscillation: a rule of degree n
    resolves e^{-i r xi} on [-1, 1] only while n comfortably exceeds |r|.
    """
    mesh = field.mesh
    table = legendre_coeffs(gll_rule(mesh.P))
    r_max = max(
        abs(q[t]) * abs(mesh.h[k, t])
        for q in waves.qs for k in range(mesh.K) for t in range(mesh.d)
    )
    n = degree or max(4 * mesh.P, math.ceil(r_max) + 24)
    rule_q = gll_rule(n)
    out = np.zeros((len(waves), field.components), dtype=complex)
    scale = 1.0 / (2.0 * math.pi) ** mesh.d
    for k in range(mesh.K):
        a, h = mesh.a[k], mesh.h[k]
        phis = interp_matrix(table, rule_q.nodes)        # (n+1, P+1)
        U = field.values[k].reshape((mesh.P + 1,) * mesh.d + (field.components,))
        # interpolant on the tensor quadrature grid, axes (m_d .. m_1, c)
        vals = U
        for _ in range(mesh.d):
            vals = np.tensordot(vals, phis, axes=([0], [1]))
        vals = np.moveaxis(vals, 0, -1)                   # (m_d .. m_1, c)
        for qi, q in enumerate(waves.qs):
            w1d = [
                rule_q.weights * np.exp(-1j * q[t] * (a[t] + h[t] * rule_q.nodes))
                for t in range(mesh.d)
            ]
            w = w1d[mesh.d - 1]
            for t in range(mesh.d - 2, -1, -1):
                w = np.multiply.outer(w, w1d[t])
            out[qi] += scale * float(np.prod(np.abs(h))) * np.tensordot(
                w, vals.reshape(w.shape + (field.components,)), axes=mesh.d
            )
    return Spectrum(waves, out)


def test_constant_field_transforms_to_delta():
    for mesh in (uniform_mesh(1, 3, 4), refine(uniform_mesh(2, 2, 3), [1, 2])):
        field = sample_field(mesh, gll_rule(mesh.P), lambda X: np.ones(X.shape[0]))
        spec = transform(field, _plan_for(mesh, qmax=3))
        for q in spec.waves.qs:
            ref = 1.0 if all(c == 0 for c in q) else 0.0
            assert abs(spec.get(q)[0] - ref) < 1e-13


def test_ipow_neg_cycles():
    np.testing.assert_array_equal(ipow_neg(7)[:4], [1, -1j, -1, 1j])
    assert ipow_neg(7)[4] == 1


def test_plan_and_phi_hat_agree_bitwise():
    mesh = refine(uniform_mesh(2, 2, 3), [0])
    rule = gll_rule(3)
    table = legendre_coeffs(rule)
    waves = WaveSet.box(2, 2)
    plan = build_plan(mesh, rule, table, waves)
    rng = np.random.default_rng(17)
    for _ in range(40):
        qi = rng.integers(len(waves))
        k = rng.integers(mesh.K)
        j1, j2 = rng.integers(4, size=2)
        a = _coefficient(plan, waves.axis_index[1][qi], int(k), (int(j1), int(j2)))
        b = phi_hat(mesh, int(k), (int(j1), int(j2)), waves.qs[qi])
        assert a == b  # identical arithmetic, not merely close


def test_plan_memo_shares_bessel_arguments():
    # uniform 1D mesh: every element has the same half-leg, so distinct
    # arguments come only from distinct |q|, since F(-q) = conj F(q)
    plan = _plan_for(uniform_mesh(1, 4, 6), qmax=8)
    assert plan.n_bessel_args == 9


def test_plan_rejects_mismatched_inputs():
    mesh = uniform_mesh(1, 2, 3)
    rule = gll_rule(4)
    with pytest.raises(ValueError):
        build_plan(mesh, rule, legendre_coeffs(rule), WaveSet.box(1, 2))
    rule3 = gll_rule(3)
    with pytest.raises(ValueError):
        build_plan(mesh, rule3, legendre_coeffs(rule3), WaveSet.box(2, 2))


def test_transform_is_linear():
    mesh = uniform_mesh(1, 3, 5)
    plan = _plan_for(mesh, qmax=6)
    rng = np.random.default_rng(29)
    u = NodalField(mesh, rng.uniform(-1, 1, (3, 6, 2)))
    v = NodalField(mesh, rng.uniform(-1, 1, (3, 6, 2)))
    w = NodalField(mesh, 2.5 * u.values - 1.25 * v.values)
    su, sv, sw = (transform(f, plan) for f in (u, v, w))
    gap = np.max(np.abs(sw.values - (2.5 * su.values - 1.25 * sv.values)))
    assert gap < 1e-13


def test_translation_covariance():
    # rolling nodal blocks one element along a uniform 4-element mesh
    # translates the interpolant by pi/2 (mod 2 pi), so every coefficient
    # picks up exactly e^{-i q pi/2}
    mesh = uniform_mesh(1, 4, 5)
    rng = np.random.default_rng(31)
    u = NodalField(mesh, rng.uniform(-1, 1, (4, 6, 1)))
    shifted = NodalField(mesh, np.roll(u.values, 1, axis=0))
    plan = _plan_for(mesh, qmax=6)
    su, ss = transform(u, plan), transform(shifted, plan)
    for qi, q in enumerate(plan.waves.qs):
        phase = np.exp(-0.5j * math.pi * q[0])
        assert abs(ss.values[qi, 0] - phase * su.values[qi, 0]) < 1e-12


def test_refinement_invariance():
    # re-expressing the same piecewise polynomial on children leaves the
    # coefficients unchanged
    def f(X):
        return (X[:, 0] / math.pi) ** 3 - 0.5 * (X[:, 1] / math.pi) ** 2

    coarse = uniform_mesh(2, 2, 3)
    fine = refine(coarse, [0, 2])
    waves = WaveSet.box(2, 3)
    spec_c = transform(sample_field(coarse, gll_rule(3), f), _plan_for(coarse, waves=waves))
    spec_f = transform(sample_field(fine, gll_rule(3), f), _plan_for(fine, waves=waves))
    assert np.max(np.abs(spec_c.values - spec_f.values)) < 1e-12


def test_parseval_for_smooth_field():
    # sum over |q| <= 32 of |u_hat|^2 captures the interpolant's L2 norm
    mesh = uniform_mesh(1, 4, 8)
    rule = gll_rule(8)
    f = lambda X: np.sin(X[:, 0]) + 0.3 * np.cos(2.0 * X[:, 0])
    field = sample_field(mesh, rule, f)
    spec = transform(field, _plan_for(mesh, qmax=32))
    coeff_side = float(np.sum(np.abs(spec.values) ** 2))
    # independent route: element-wise quadrature of the interpolant squared
    rule_hi = gll_rule(2 * mesh.P)
    table = legendre_coeffs(rule)
    norm = 0.0
    for k in range(mesh.K):
        vals = interp_matrix(table, rule_hi.nodes) @ field.values[k][:, 0]
        norm += float(np.prod(np.abs(mesh.h[k]))) * float(np.sum(rule_hi.weights * vals**2))
    quad_side = norm / (2.0 * math.pi)
    assert coeff_side == pytest.approx(quad_side, rel=1e-2)


def test_conjugate_symmetry_for_real_fields():
    mesh = refine(uniform_mesh(2, 2, 2), [3])
    rng = np.random.default_rng(37)
    field = NodalField(mesh, rng.uniform(-1, 1, (mesh.K, 9, 1)))
    spec = transform(field, _plan_for(mesh, qmax=3))
    assert spec.conjugate_symmetry_error() < 1e-15


def test_wave_and_element_rescaling_identity():
    # halving the element while doubling the wavevector keeps the Bessel
    # argument, so the coefficient scales exactly with the volume; the
    # middle elements of both meshes are centred at 0
    F = Fraction
    big = Mesh.from_pi(1, 4, [[F(-3, 4)], [0], [F(3, 4)]], [[F(1, 4)], [F(1, 2)], [F(1, 4)]])
    small = Mesh.from_pi(1, 4, [[F(-5, 8)], [0], [F(5, 8)]], [[F(3, 8)], [F(1, 4)], [F(3, 8)]])
    for j in range(5):
        assert phi_hat(big, 1, j, 2) == 2.0 * phi_hat(small, 1, j, 4)


def test_phi_hat_rejects_non_integer_inputs():
    # q follows WaveSet's rule: 1.5 must not be read as 1, True not as 1,
    # and 2^63 must not become a uint64 argument
    mesh = uniform_mesh(2, 2, 2)
    bad = [(0, (0, 0), (1.5, 0)), (0, (0, 0), (True, 0)), (0, (0, 0), (2 ** 63, 0)),
           (0, (0, 0), (np.float64(1.0), 0)), (True, (0, 0), (1, 0)),
           (1.0, (0, 0), (1, 0)), (0, (0, 1.0), (1, 0)), (0, (np.True_, 0), (1, 0))]
    for k, j, q in bad:
        with pytest.raises(ValueError):
            phi_hat(mesh, k, j, q)
    with pytest.raises(IndexError):
        phi_hat(mesh, 4, (0, 0), (1, 0))
    # numpy integers are integers
    assert phi_hat(mesh, np.int64(1), (np.int32(2), 0), (np.int64(-3), 1)) == \
        phi_hat(mesh, 1, (2, 0), (-3, 1))


def test_matches_quadrature_oracle_1d_nonuniform():
    mesh = refine(uniform_mesh(1, 3, 4), [1])
    rng = np.random.default_rng(41)
    field = NodalField(mesh, rng.uniform(-1, 1, (mesh.K, 5, 1)))
    waves = WaveSet.box(1, 8)
    ours = transform(field, _plan_for(mesh, waves=waves))
    ref = quadrature_spectrum(field, waves)
    assert rms_relative_error(ours, ref) < 1e-12


def test_matches_quadrature_oracle_2d():
    mesh = refine(uniform_mesh(2, 2, 3), [2])
    rng = np.random.default_rng(43)
    field = NodalField(mesh, rng.uniform(-1, 1, (mesh.K, 16, 2)))
    waves = WaveSet.box(2, 4)
    ours = transform(field, _plan_for(mesh, waves=waves))
    ref = quadrature_spectrum(field, waves)
    assert rms_relative_error(ours, ref) < 1e-12


def test_compensated_mode_agrees_with_plain():
    mesh = uniform_mesh(2, 3, 3)
    rng = np.random.default_rng(47)
    field = NodalField(mesh, rng.uniform(-1, 1, (9, 16, 1)))
    plan = _plan_for(mesh, qmax=3)
    plain = transform(field, plan)
    comp = transform(field, plan, compensated=True)
    assert np.max(np.abs(plain.values - comp.values)) < 1e-14


def test_scattered_wave_list_matches_box_on_hanging_node_mesh():
    # a reordered, sparse list: (1, -2, *) and (1, 3, *) share q_1 but not
    # q_2, and (2, -2, 0) shares the q_2 of the first pair with another q_1
    mesh = refine(uniform_mesh(3, 2, 3), [1, 6])
    rng = np.random.default_rng(59)
    field = NodalField(mesh, rng.uniform(-1, 1, (mesh.K, 64, 2)))
    qs = [(1, 3, -1), (-3, 0, 2), (1, -2, 2), (2, -2, 0), (0, 0, 0),
          (1, -2, -3), (-1, 3, 1), (3, 3, 3)]
    listed = WaveSet.from_list(qs)
    spec = transform(field, _plan_for(mesh, waves=listed))
    box = transform(field, _plan_for(mesh, qmax=3))
    ref = np.array([box.get(q) for q in qs])
    assert np.max(np.abs(spec.values - ref)) <= 1e-15 * np.max(np.abs(ref))
    comp = transform(field, _plan_for(mesh, waves=listed), compensated=True)
    assert np.max(np.abs(spec.values - comp.values)) <= 1e-15 * np.max(np.abs(ref))


def test_transform_rejects_foreign_mesh():
    mesh_a = uniform_mesh(1, 2, 3)
    mesh_b = uniform_mesh(1, 4, 3)
    field = sample_field(mesh_b, gll_rule(3), lambda X: X[:, 0])
    with pytest.raises(ValueError, match="different meshes"):
        transform(field, _plan_for(mesh_a, qmax=2))


def test_waveset_construction_rules():
    assert WaveSet.box(2, 1).qs[0] == (-1, -1)
    assert len(WaveSet.box(2, 2)) == 25
    assert WaveSet.box(1, 0).qs == ((0,),)
    with pytest.raises(ValueError, match="duplicate"):
        WaveSet(1, ((1,), (1,)))
    with pytest.raises(ValueError, match="dimension"):
        WaveSet(2, ((1,),))
    with pytest.raises(ValueError):
        WaveSet.box(1, -1)
    with pytest.raises(ValueError):
        WaveSet.from_list([])
    ws = WaveSet.from_list([(3, -2), (np.int64(0), np.int32(1))])
    assert ws.qs == ((3, -2), (0, 1)) and all(type(c) is int for q in ws.qs for c in q)
    with pytest.raises(ValueError, match=r"wavevector \(1\.5, 2\.9\) has non-integer"):
        WaveSet.from_list([(1, 2), (1.5, 2.9)])
    with pytest.raises(ValueError, match="non-integer"):
        WaveSet.from_list([(np.float64(2.0),)])
    assert ws.d == 2 and ws.index((0, 1)) == 1
    assert (0, 1) in ws and (1, 0) not in ws
    with pytest.raises(ValueError, match="not in the wave set"):
        ws.index((1, 0))


@pytest.mark.parametrize("qs", [((True,), (False,), (-3,)), ((1, np.True_),)])
def test_waveset_rejects_bool_components(qs):
    with pytest.raises(ValueError, match="non-integer"):
        WaveSet(len(qs[0]), qs)
    with pytest.raises(ValueError, match="non-integer"):
        WaveSet.from_list(qs)


def test_empty_waveset_transform():
    mesh = uniform_mesh(1, 2, 2)
    field = sample_field(mesh, gll_rule(2), lambda X: X[:, 0])
    spec = transform(field, _plan_for(mesh, waves=WaveSet(1, ())))
    assert spec.values.shape == (0, 1)


def test_rms_relative_error_basics():
    waves = WaveSet.box(1, 1)
    a = Spectrum(waves, np.array([[1.0], [2.0], [2.0]], dtype=complex))
    b = Spectrum(waves, np.array([[1.0], [1.0], [2.0]], dtype=complex))
    assert rms_relative_error(a, b) == pytest.approx(1.0 / math.sqrt(6.0))
    zero = Spectrum(waves, np.zeros((3, 1), dtype=complex))
    with pytest.raises(ValueError, match="identically zero"):
        rms_relative_error(a, zero)
    with pytest.raises(ValueError, match="different wave sets"):
        rms_relative_error(a, Spectrum(WaveSet.box(1, 0), np.ones((1, 1), complex)))


def test_spectrum_csv_round_trip(tmp_path):
    mesh = uniform_mesh(2, 2, 2)
    rng = np.random.default_rng(53)
    field = NodalField(mesh, rng.uniform(-1, 1, (4, 9, 2)))
    spec = transform(field, _plan_for(mesh, qmax=2))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spec, path)
    back = read_spectrum_csv(path)
    assert back.waves == spec.waves
    # 17 significant digits survive the text round trip bit-exactly
    assert np.array_equal(back.values, spec.values)
    header = path.read_text().splitlines()[0]
    assert header == "q1,q2,component,re,im,abs"


@pytest.mark.parametrize("body,message", [
    ("", ": no spectrum rows"),
    ("1,0,1,0,1\n1,0,2,0,2\n", ": repeated row for q=(1,), component 0"),
    ("1,0,1,0,1\n1,1,1,0,1\n2,1,1,0,1\n", ": q=(2,) lacks some of components 0..1"),
    ("1,0,nan,0,1\n", ", line 2: re or im is not finite"),
    ("1,0,1,-inf,1\n", ", line 2: re or im is not finite"),
    ("1,0,1,0,1\n2,0,abc,0,1\n", ", line 3: could not convert string to float: 'abc'"),
    ("1.5,0,1,0,1\n", ", line 2: invalid literal for int() with base 10: '1.5'"),
    ("1,x,1,0,1\n", ", line 2: invalid literal for int() with base 10: 'x'"),
], ids=["header-only", "repeated", "missing-component", "nan", "inf", "bad-float", "bad-q",
        "bad-component"])
def test_read_spectrum_csv_rejects_malformed_files(tmp_path, body, message):
    path = tmp_path / "spec.csv"
    path.write_text("q1,component,re,im,abs\n" + body)
    with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
        read_spectrum_csv(path)


def _axis_table_oracle(mesh, t, q_axis, table):
    """F[k, m, j] by one Bessel column per (element, q_t): exact Fraction
    arguments on tagged elements, float products otherwise."""
    ip = ipow_neg(table.degree)
    out = np.empty((mesh.K, len(q_axis), table.degree + 1), dtype=complex)
    for k in range(mesh.K):
        for m, q in enumerate(q_axis):
            if mesh.rational:
                r = float(q * Fraction(int(mesh.H[k, t]), mesh.L)) * math.pi
            else:
                r = float(q) * float(mesh.h[k, t])
            s = np.einsum("jp,p->j", table.coeffs, ip * bessel_column(r, table.degree))
            out[k, m] = cmath.exp(-1j * (q * mesh.a[k, t])) * s
    return out


def _float_copy(mesh):
    return Mesh(mesh.d, mesh.P, mesh.a, mesh.h)


def _int64_overflow_mesh():
    # L = 2^60 fits int64, but q H reaches 2^63 for |q| >= 16
    b = Fraction(1, 2 ** 59)
    return Mesh.from_pi(1, 3, [[(b - 1) / 2], [(b + 1) / 2]], [[(b + 1) / 2], [(1 - b) / 2]])


@pytest.mark.parametrize("mesh,qmax", [
    (refine(uniform_mesh(2, 4, 3), [1, 6, 11]), 3),
    (refine(uniform_mesh(3, 2, 2), [0, 7]), 2),
    (_float_copy(refine(uniform_mesh(2, 2, 2), [3])), 3),
    (_int64_overflow_mesh(), 40),
], ids=["2d", "3d", "float", "int64-overflow"])
def test_plan_tables_match_per_element_loop_bitwise(mesh, qmax):
    plan = _plan_for(mesh, qmax=qmax)
    for t, q_axis in enumerate(plan.waves.axis_index[0]):
        expect = _axis_table_oracle(mesh, t, q_axis.tolist(), plan.table)
        # the complex table read back from the folded one, per element
        rows = plan.groups.index[:, t]
        got = np.stack([_table_row(plan.factors[t], plan.waves.axis_folds[t], m, rows)
                        for m in range(len(q_axis))], axis=1)
        assert np.array_equal(got, expect)
    volume = np.array([float(np.prod(np.abs(mesh.h[k]))) for k in range(mesh.K)]) / math.pi ** mesh.d
    assert np.array_equal(plan.weight, volume)
