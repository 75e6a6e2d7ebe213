"""Acceptance suite: end-to-end checks of the package's headline claims.

Each test prints one summary line with the measured number, the tolerance
it is held to, and PASS/FAIL.  The lines are emitted with file-descriptor
capture suspended so they stay visible in a plain ``pytest -v`` run.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import semfourier
from semfourier.bessel import bessel_column, bessel_identity_residual
from semfourier.cases import (
    case_burgers_t,
    case_burgers_t0,
    case_rotated_series,
    case_sin,
    exact_spectrum,
)
from semfourier.cubature import TrigGrid, aliasing_error, cubature_transform
from semfourier.gll import gll_rule, interp_matrix, legendre_all, legendre_coeffs
from semfourier.harness import (
    convergence_surface,
    fit_loglog_slope,
    spectrum_decay_profile,
)
from semfourier.mesh import (
    NodalField,
    refine,
    refine_by_indicator,
    sample_field,
    uniform_mesh,
)
from semfourier.transform import (
    Spectrum,
    WaveSet,
    build_plan,
    ipow_neg,
    rms_relative_error,
    transform,
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    """Hold the capture fixture so summary lines can reach the terminal.

    Capture can only be suspended from inside the test call phase, so the
    announcer does it per line rather than this fixture doing it once.
    """
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _announce(label: str, detail: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance] {label}: {detail} -- {verdict}"
    if _CAPTURE is None:
        print(line, file=sys.stderr, flush=True)
    else:
        with _CAPTURE.disabled():
            print(line, file=sys.stderr, flush=True)


def _quadrature_spectrum(field: NodalField, waves: WaveSet) -> Spectrum:
    """Independent route: per-element GLL quadrature of the interpolant.

    The rule degree is at least four times the field degree, raised
    further when the phase oscillates faster than that rule can track.
    """
    mesh = field.mesh
    table = legendre_coeffs(gll_rule(mesh.P))
    r_max = max(
        abs(q[t]) * abs(mesh.h[k, t])
        for q in waves.qs for k in range(mesh.K) for t in range(mesh.d)
    )
    rule_q = gll_rule(max(4 * mesh.P, math.ceil(r_max) + 24))
    out = np.zeros((len(waves), field.components), dtype=complex)
    scale = 1.0 / (2.0 * math.pi) ** mesh.d
    for k in range(mesh.K):
        a, h = mesh.a[k], mesh.h[k]
        phis = interp_matrix(table, rule_q.nodes)
        vals = field.values[k].reshape((mesh.P + 1,) * mesh.d + (field.components,))
        for _ in range(mesh.d):
            vals = np.tensordot(vals, phis, axes=([0], [1]))
        vals = np.moveaxis(vals, 0, -1)
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


def test_legendre_modes_match_bessel_closed_form():
    """Single-element Legendre inputs reproduce i^{-p} B_p(pi q) exactly."""
    worst = 0.0
    for P in range(1, 19):
        rule = gll_rule(P)
        table = legendre_coeffs(rule)
        mesh = uniform_mesh(1, 1, P)
        field = sample_field(
            mesh, rule, lambda X, P=P: legendre_all(P, X[:, 0] / math.pi).T
        )
        spec = transform(field, build_plan(mesh, rule, table, WaveSet.box(1, 20)))
        ip = ipow_neg(P)
        for q in range(-20, 21):
            ref = ip * bessel_column(math.pi * q, P)
            mixed = np.abs(spec.get((q,)) - ref) / np.maximum(1.0, np.abs(ref))
            worst = max(worst, float(np.max(mixed)))
    ok = worst <= 1e-12
    _announce("Legendre modes vs spherical-Bessel closed form",
              f"max mixed error {worst:.3e} <= 1e-12 "
              "(p <= P <= 18, K=1, |q| <= 20)", ok)
    assert ok


def test_bessel_identity_against_high_degree_quadrature():
    """B_p values agree with a degree-400 quadrature of their integral form."""
    worst = 0.0
    for r in (0.1, 1.0, math.pi, 10.0, 10.0 * math.pi, 100.0):
        for p in range(0, 19):
            worst = max(worst, bessel_identity_residual(r, p, 400))
    ok = worst <= 1e-10
    _announce("spherical-Bessel integral identity",
              f"max residual {worst:.3e} <= 1e-10 (p <= 18, six arguments)", ok)
    assert ok


def test_sine_convergence_exponential_in_degree_and_algebraic_in_elements():
    """RMS error for sin x: ~one decade per degree, slope <= -2 in elements."""
    rows = convergence_surface(case_sin(), [2, 4, 8], list(range(3, 9)), qmax=16)
    by_K: dict[int, list[tuple[int, float]]] = {}
    for K, P, log_err in rows:
        by_K.setdefault(K, []).append((P, log_err))
    rates = {}
    for K, seq in by_K.items():
        logs = [le for _, le in sorted(seq)]
        # stop counting once the error is at the round-off floor
        active = [logs[0]]
        for le in logs[1:]:
            active.append(le)
            if le <= -13.0:
                break
        rates[K] = (active[0] - active[-1]) / (len(active) - 1)
    ok_p = all(rate >= 1.0 for rate in rates.values())
    detail_p = ", ".join(f"K={K}: {rate:.2f}" for K, rate in sorted(rates.items()))
    _announce("sine spectrum, decades gained per unit degree (P=3..8)",
              f"{detail_p}, all >= 1.0", ok_p)

    rows = convergence_surface(case_sin(), [2, 4, 8, 16, 32, 64], [2, 3], qmax=16)
    slopes = {}
    for P_fix in (2, 3):
        pts = [(K, 10.0 ** le) for K, P, le in rows if P == P_fix]
        slopes[P_fix] = fit_loglog_slope([p[0] for p in pts], [p[1] for p in pts])
    ok_k = all(s <= -2.0 for s in slopes.values())
    detail_k = ", ".join(f"P={P}: {s:.2f}" for P, s in sorted(slopes.items()))
    _announce("sine spectrum, log-log slope vs element count (K=2..64)",
              f"{detail_k}, all <= -2", ok_k)
    assert ok_p
    assert ok_k


def test_cubature_baseline_second_order_and_aliasing_identity():
    """Equispaced cubature converges at second order and equals the exact
    coefficient plus the truncated aliasing sum."""
    mesh = uniform_mesh(1, 4, 4)
    rule = gll_rule(4)
    table = legendre_coeffs(rule)
    field = sample_field(mesh, rule, lambda X: np.sin(X[:, 0]))
    w1 = WaveSet.from_list([(1,)])
    u1 = transform(field, build_plan(mesh, rule, table, w1)).get((1,))[0]
    Ms = [16, 32, 64, 128]
    errs = [
        abs(cubature_transform(field, TrigGrid(1, M), w1).get((1,))[0] - u1)
        for M in Ms
    ]
    slope = fit_loglog_slope(Ms, errs)
    ok_slope = -2.5 <= slope <= -1.5
    _announce("cubature error slope vs grid size at q=1",
              f"fitted slope {slope:.3f} in [-2.5, -1.5]", ok_slope)

    M, R = 2048, 40
    qs = [0, 1, 2, 3, 5]
    shifted = sorted({(q + M * r,) for q in qs for r in range(-R, R + 1)})
    spec = transform(field, build_plan(mesh, rule, table, WaveSet.from_list(shifted)))
    coeff = lambda q: spec.get(q)[0]
    cub = cubature_transform(field, TrigGrid(1, M), WaveSet.from_list([(q,) for q in qs]))
    worst = max(
        abs(cub.get((q,))[0] - (coeff((q,)) + complex(aliasing_error(coeff, (q,), M, R))))
        for q in qs
    )
    ok_id = worst <= 1e-10
    _announce("cubature = exact coefficient + truncated aliasing sum",
              f"max residual {worst:.3e} <= 1e-10 (M={M}, {2 * R} images)", ok_id)
    assert ok_slope
    assert ok_id


def test_transform_matches_quadrature_oracle_on_random_fields():
    """Twenty random nodal fields, many on meshes with hanging nodes."""
    rng = np.random.default_rng(20260815)
    worst = 0.0
    n_nonconforming = 0
    for _ in range(20):
        d = int(rng.integers(1, 3))
        P = int(rng.integers(1, 7))
        C = int(rng.integers(1, 3))
        if d == 1:
            mesh = uniform_mesh(1, int(rng.integers(2, 5)), P)
            flags = rng.random(mesh.K) < 0.5
            if np.any(flags):
                mesh = refine(mesh, flags)
                n_nonconforming += 1
        else:
            mesh = uniform_mesh(2, 2, P)
            if rng.random() < 0.7:
                mesh = refine(mesh, [int(rng.integers(0, 4))])
                n_nonconforming += 1
        assert mesh.K <= 8
        field = NodalField(mesh, rng.uniform(-1.0, 1.0, (mesh.K, (P + 1) ** d, C)))
        waves = WaveSet.box(d, 8 if d == 1 else 5)
        rule = gll_rule(P)
        spec = transform(field, build_plan(mesh, rule, legendre_coeffs(rule), waves))
        ref = _quadrature_spectrum(field, waves)
        rel = float(np.max(np.abs(spec.values - ref.values))
                    / np.max(np.abs(ref.values)))
        worst = max(worst, rel)
    ok = worst <= 1e-11
    _announce("transform vs per-element quadrature on random fields",
              f"worst relative error {worst:.3e} <= 1e-11 "
              f"(20 cases, {n_nonconforming} with hanging nodes)", ok)
    assert ok


def test_planar_sine_spectrum_concentrates_on_two_modes():
    """-l sin(l.x) on a 64-element degree-5 mesh: half at q = +-l, else ~0."""
    case = case_burgers_t0(l=(1, 2))
    mesh = uniform_mesh(2, 8, 5)
    rule = gll_rule(5)
    spec = transform(
        sample_field(mesh, rule, case.func),
        build_plan(mesh, rule, legendre_coeffs(rule), WaveSet.box(2, 8)),
    )
    dev_on = max(
        abs(abs(spec.get((1, 2))[0]) - 0.5),
        abs(abs(spec.get((-1, -2))[0]) - 0.5),
    )
    off = max(
        abs(spec.get(tuple(int(v) for v in q))[0])
        for q in spec.waves.qs
        if tuple(int(v) for v in q) not in ((1, 2), (-1, -2))
    )
    ok = dev_on <= 1e-6 and off <= 1e-6
    _announce("planar sine concentrates on q = +-(1,2)",
              f"|coeff| dev {dev_on:.3e} and off-support max {off:.3e} <= 1e-6",
              ok)
    assert ok


def test_rotated_lattice_series_on_adaptively_refined_mesh():
    """Lattice-supported series recovered on an indicator-refined mesh.

    One refinement pass splits the 12 busiest of 16 base elements and
    leaves the four quietest coarse, so the mesh has hanging nodes; the
    budget stays under 64 elements of 36 nodes.  The tolerance is on the
    relative RMS over the five largest coefficients, the regime where the
    result is limited by interpolation, not by the transform.
    """
    case = case_rotated_series(b=(-0.4, -0.4), l=(1, 2), n_trunc=24)
    P = 5
    rule = gll_rule(P)
    table = legendre_coeffs(rule)
    base = uniform_mesh(2, 4, P)
    mesh, flags, _ = refine_by_indicator(
        base, sample_field(base, rule, case.func), 0.1
    )
    dof = mesh.K * (P + 1) ** 2
    sizes = {float(v) for v in mesh.h[:, 0]}
    assert 0 < int(np.sum(flags)) < base.K   # strict subset: hanging nodes
    assert len(sizes) > 1
    assert dof <= 64 * 36

    pts = [(0, 0), (1, 2), (-1, -2), (-2, 1), (2, -1)]
    waves = WaveSet.from_list(pts)
    exact = exact_spectrum(case, waves)
    spec = transform(
        sample_field(mesh, rule, case.func), build_plan(mesh, rule, table, waves)
    )
    rms = rms_relative_error(spec, exact)
    per_point = max(
        abs(spec.get(q)[0] - exact.get(q)[0]) / abs(exact.get(q)[0]) for q in pts
    )
    ok = rms <= 1e-4
    _announce("rotated lattice series on a hanging-node mesh",
              f"relative RMS {rms:.3e} <= 1e-4 over 5 largest coefficients "
              f"(per-point max {per_point:.3e}, K={mesh.K}, DOF {dof} <= 2304)",
              ok)
    assert ok


def _run_cli(args, cwd):
    # the child runs in cwd, so a relative PYTHONPATH would not find the package
    src = os.path.dirname(os.path.dirname(os.path.abspath(semfourier.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "semfourier", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cli_output_is_byte_deterministic(tmp_path):
    """Re-running any CLI command on the same inputs reproduces every byte."""
    _run_cli(["mesh", "uniform", "--d", "1", "--K-per-axis", "4", "--P", "4",
              "--out", "mesh.json"], tmp_path)
    _run_cli(["field", "sample", "--mesh", "mesh.json", "--case", "sin",
              "--out", "field.bin"], tmp_path)
    pairs = []
    for stem, args in (
        ("gll", ["gll", "--degree", "6"]),
        ("spec", ["transform", "--mesh", "mesh.json", "--field", "field.bin",
                  "--qmax", "8"]),
        ("cub", ["cubature", "--mesh", "mesh.json", "--field", "field.bin",
                 "--M", "32", "--qmax", "8"]),
    ):
        names = (f"{stem}_a.csv", f"{stem}_b.csv")
        for name in names:
            _run_cli([*args, "--out", name], tmp_path)
        pairs.append(tuple((tmp_path / n).read_bytes() for n in names))
    same = all(a == b and len(a) > 0 for a, b in pairs)
    _announce("CLI byte determinism",
              f"{len(pairs)} command pairs re-run, outputs byte-identical", same)
    assert same


def test_evolved_front_spectrum_decay_and_anisotropy():
    """The sheared-front state decays a bit faster than |q|^-1 along its
    wave direction and carries nothing along the perpendicular ray."""
    case = case_burgers_t()
    along = exact_spectrum(case, WaveSet.from_list([(m, 2 * m) for m in range(1, 41)]))
    slope = spectrum_decay_profile(along, (1, 2), component=0).slope
    ok_slope = -1.6 <= slope <= -0.9
    _announce("front-state decay along the wave direction",
              f"fitted slope {slope:.4f} in [-1.6, -0.9]", ok_slope)

    perp = exact_spectrum(case, WaveSet.from_list([(2 * m, -m) for m in range(1, 9)]))
    perp_max = float(np.max(np.abs(perp.values)))
    along_max = float(np.max(np.abs(along.values)))
    ok_aniso = perp_max <= 1e-12 * along_max
    _announce("front-state spectrum is confined to the wave direction",
              f"perpendicular-ray max {perp_max:.2e} vs along-ray max "
              f"{along_max:.2e}", ok_aniso)
    assert ok_slope
    assert ok_aniso
