"""Equispaced cubature baseline: exactness window, rate, aliasing identity."""

import math

import numpy as np
import pytest

from semfourier.cases import case_rotated_series, case_sin, exact_spectrum
from semfourier.cubature import (
    TrigGrid,
    aliasing_error,
    aliasing_tail_estimate,
    cubature_transform,
    cubature_transform_fn,
)
from semfourier.gll import gll_rule, legendre_coeffs
from semfourier.mesh import sample_field, uniform_mesh
from semfourier.transform import WaveSet, build_plan, transform
from semfourier.harness import fit_loglog_slope


def test_grid_nodes_span_the_period_once():
    grid = TrigGrid(1, 8)
    nodes = grid.nodes_1d
    assert nodes[-1] == math.pi
    assert nodes[0] > -math.pi
    assert np.allclose(np.diff(nodes), 2 * math.pi / 8)
    pts = TrigGrid(2, 3).points()
    assert pts.shape == (9, 2)
    # axis 1 runs fastest
    assert pts[1, 0] != pts[0, 0] and pts[1, 1] == pts[0, 1]


def test_grid_validation():
    with pytest.raises(ValueError):
        TrigGrid(1, 0)
    with pytest.raises(ValueError):
        TrigGrid(0, 4)


def test_band_limited_functions_are_integrated_exactly():
    # degree-3 trigonometric polynomial, M = 16: no aliases within reach
    def f(X):
        x = X[:, 0]
        return np.cos(3.0 * x) + 0.5 * np.sin(x) - 0.25

    def coeff(q1):
        if q1 == 0:
            return -0.25
        if abs(q1) == 3:
            return 0.5
        if q1 == 1:
            return -0.25j
        if q1 == -1:
            return 0.25j
        return 0.0

    spec = cubature_transform_fn(f, TrigGrid(1, 16), WaveSet.box(1, 8))
    for q in spec.waves.qs:
        assert abs(spec.get(q)[0] - coeff(q[0])) < 1e-14


def test_cubature_of_nodal_field_matches_function_route():
    mesh = uniform_mesh(1, 2, 4)
    rule = gll_rule(4)
    field = sample_field(mesh, rule, lambda X: np.sin(X[:, 0]))
    grid = TrigGrid(1, 32)
    waves = WaveSet.box(1, 4)
    a = cubature_transform(field, grid, waves)
    # same interpolant evaluated through the generic function route
    from semfourier.mesh import eval_field_many

    b = cubature_transform_fn(lambda X: eval_field_many(field, X)[:, 0], grid, waves)
    assert np.max(np.abs(a.values - b.values)) < 1e-15


@pytest.mark.parametrize("d", [2, 3])
def test_scattered_waves_match_direct_sum(d):
    # exp and the mixed terms break every axis symmetry; the list is
    # unsorted, sparse, and reuses q_1 values with different q_2
    def f(X):
        return np.exp(np.sin(X[:, 0]) - 0.5 * X[:, 1]) + X[:, 0] * X[:, -1] ** 2

    grid = TrigGrid(d, 8)
    qs = [(2, -1, 3), (-3, 0, 1), (2, 4, -2), (0, 0, 0), (-1, 2, 2), (2, 3, -4)]
    waves = WaveSet.from_list([q[:d] for q in qs])
    cub = cubature_transform_fn(f, grid, waves)
    X = grid.points()
    fx = f(X)
    for q in waves.qs:
        direct = np.sum(fx * np.exp(-1j * (X @ np.array(q)))) / grid.M ** d
        assert abs(cub.get(q)[0] - direct) <= 1e-14


def test_piecewise_fields_converge_at_second_order():
    # interpolation kinks at element faces cap the rate at O(M^-2);
    # K = 2 would be atypical (odd symmetry cancels the face jumps)
    mesh = uniform_mesh(1, 4, 3)
    rule = gll_rule(3)
    field = sample_field(mesh, rule, lambda X: np.sin(X[:, 0]))
    waves = WaveSet.from_list([(1,)])
    exact = transform(field, build_plan(mesh, rule, legendre_coeffs(rule), waves))
    Ms = [16, 32, 64, 128, 256]
    errs = [
        abs(cubature_transform(field, TrigGrid(1, M), waves).get((1,))[0]
            - exact.get((1,))[0])
        for M in Ms
    ]
    slope = fit_loglog_slope(Ms, errs)
    assert -2.5 < slope < -1.5


def test_aliasing_identity_is_exact_for_band_limited_fields():
    # the truncated rotated series has compact support in q, so a small
    # shift radius captures the whole aliasing sum and the identity
    # u_cub = u_hat + E_q closes to round-off
    case = case_rotated_series(n_trunc=24)   # support within ||q||_inf <= 72
    M = 64
    grid = TrigGrid(2, M)
    waves = WaveSet.from_list([(0, 0), (1, 2), (-2, 1), (2, 4)])
    cub = cubature_transform_fn(case.func, grid, waves)
    exact = exact_spectrum(case, waves)
    for q in waves.qs:
        alias = aliasing_error(case.exact_coeff, q, M, R=3)
        lhs = cub.get(q)[0]
        rhs = exact.get(q)[0] + alias[0]
        assert abs(lhs - rhs) < 1e-12
        # R beyond the support changes nothing
        alias4 = aliasing_error(case.exact_coeff, q, M, R=4)
        assert abs(alias4[0] - alias[0]) == 0.0


def test_aliasing_error_validates_inputs():
    case = case_sin()
    with pytest.raises(ValueError):
        aliasing_error(case.exact_coeff, (1,), 0, 3)
    with pytest.raises(ValueError):
        aliasing_error(case.exact_coeff, (1,), 8, -1)
    # R = 0 sums nothing
    assert aliasing_error(case.exact_coeff, (1,), 8, 0)[()] == 0.0


def test_aliasing_of_pure_mode_hits_single_shift():
    # sin x aliases onto q = 1 only through q + M r = +-1
    case = case_sin()
    alias = aliasing_error(case.exact_coeff, (1,), 2, R=1)
    assert alias[()] == pytest.approx(0.5j)  # coefficient at q = -1
    assert aliasing_error(case.exact_coeff, (1,), 16, R=4)[()] == 0.0


@pytest.mark.parametrize("M,R", [(4, -1), (0, 2), (-3, 1)])
@pytest.mark.parametrize("fn", [aliasing_error, aliasing_tail_estimate])
def test_aliasing_sums_reject_bad_shift_lattices(fn, M, R):
    with pytest.raises(ValueError, match="M must be positive and R nonnegative"):
        fn(case_sin().exact_coeff, (1,), M, R)


def test_tail_estimate_tracks_outer_shell():
    def spectrum_fn(q):
        n = abs(q[0])
        return 0.0 if n == 0 else 1.0 / n**2

    est = aliasing_tail_estimate(spectrum_fn, (0,), M=10, R=3)
    assert est == pytest.approx(2.0 / 30.0**2)
