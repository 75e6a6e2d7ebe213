"""The element contraction of wave sets, and the spectrum's text and
symmetry checks: path choice, blocking, memory, accuracy of the folded real
contraction, thread-count determinism, and the per-row loops they
replaced, kept here as oracles."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semfourier
import semfourier.transform as T
from semfourier.gll import gll_rule, legendre_coeffs
from semfourier.mesh import Mesh, NodalField, refine, uniform_mesh
from semfourier.transform import (
    Spectrum,
    WaveSet,
    build_plan,
    contract_waves,
    spectrum_csv_text,
    transform,
)

EPS = np.finfo(float).eps


def _plan(mesh, waves):
    rule = gll_rule(mesh.P)
    return build_plan(mesh, rule, legendre_coeffs(rule), waves)


def _field(mesh, C, seed):
    rng = np.random.default_rng(seed)
    return NodalField(mesh, rng.uniform(-1, 1, (mesh.K, mesh.nodes_per_element, C)))


def _sparse_waves(d, count, qmax, seed):
    """``count`` distinct random wavevectors in [-qmax, qmax]^d."""
    side = 2 * qmax + 1
    flat = np.random.default_rng(seed).choice(side ** d, count, replace=False)
    return WaveSet.from_list(np.stack(np.unravel_index(flat, (side,) * d), axis=1) - qmax)


def _peak_bytes(fn, *args):
    """tracemalloc peak of one call, after one untraced warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _refuse(*args):
    raise AssertionError("the other contraction path was taken")


@pytest.mark.parametrize("C", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_boxes_take_the_product_and_sparse_lists_the_rows(d, C, monkeypatch):
    mesh = refine(uniform_mesh(d, 2, 2), [1])
    field = _field(mesh, C, 97)
    with monkeypatch.context() as patch:
        patch.setattr(T, "_contract_rows", _refuse)
        assert transform(field, _plan(mesh, WaveSet.box(d, 3))).values.shape == (7 ** d, C)
    # in 1D every list is the product of its own values
    monkeypatch.setattr(T, "_contract_rows" if d == 1 else "_contract_product", _refuse)
    waves = _sparse_waves(d, 5, 500, 101)
    assert transform(field, _plan(mesh, waves)).values.shape == (5, C)


@pytest.mark.parametrize("mesh,qmax", [
    (refine(uniform_mesh(1, 5, 4), [0, 3]), 9),
    (refine(uniform_mesh(2, 4, 3), [1, 6]), 4),
    (refine(uniform_mesh(3, 2, 2), [0, 5]), 3),
], ids=["1d", "2d", "3d"])
def test_element_block_size_does_not_change_results(mesh, qmax, monkeypatch):
    plan = _plan(mesh, WaveSet.box(mesh.d, qmax))
    field = _field(mesh, 2, 61)
    default = transform(field, plan).values
    # the wave product, C * m^d, is each element's largest intermediate here
    per_element = 2 * max(len(v) for v in plan.waves.axis_index[0]) ** mesh.d
    # caps of one value (one element per block) and of three elements,
    # which does not divide K
    assert mesh.K % 3
    for cap in (1, 3 * per_element):
        monkeypatch.setattr(T, "_VALUE_BLOCK", cap)
        got = transform(field, plan).values
        assert np.max(np.abs(got - default)) <= 8 * EPS * np.max(np.abs(default))


def test_box_contraction_memory_is_capped_by_the_block():
    # 3D, K=512, P=3, |q_t| <= 8: the prefix path would gather
    # K x 17^2 x 4 complex rows (9.5 MB) in its last step
    mesh = uniform_mesh(3, 8, 3)
    waves = WaveSet.box(3, 8)
    plan = _plan(mesh, waves)
    values = _field(mesh, 1, 67).values
    # per-element tables, gathered outside the measured call
    factors = [F[plan.groups.index[:, t]] for t, F in enumerate(plan.factors)]
    peak = _peak_bytes(contract_waves, values, factors, plan.weight, waves)
    gather = mesh.K * 17 ** 2 * 4 * 16
    # at most three block intermediates of the larger of the cap and one
    # element's values, plus the summed spectrum, its reordered copy, the
    # result and its index
    block = max(T._VALUE_BLOCK, len(waves)) * 16
    bound = 3 * block + 4 * len(waves) * 16
    assert peak <= bound
    assert gather >= 8 * bound


def _slab_mesh(slabs, across, P):
    """Exact 3D mesh of slabs x across x across equal boxes: axis 1 is cut
    into ``slabs`` intervals, so each slab of across^2 elements is one
    top-level group of the grouped contraction."""
    L = slabs * across
    i, j, k = np.meshgrid(range(slabs), range(across), range(across), indexing="ij")
    step = L // across
    A = np.stack([across * (2 * i + 1 - slabs), step * (2 * j + 1 - across),
                  step * (2 * k + 1 - across)], axis=-1).reshape(-1, 3)
    H = np.tile([across, step, step], (len(A), 1))
    return Mesh(3, P, A.tolist(), H.tolist(), L)


def test_plan_holds_one_table_per_distinct_interval():
    # K=8192 elements, but 128 intervals on axis 1 and 8 on axes 2 and 3
    mesh = _slab_mesh(128, 8, 3)
    plan = _plan(mesh, WaveSet.box(3, 2))
    assert mesh.K == 8192
    assert [F.shape[0] for F in plan.factors] == [128, 8, 8]


def test_grouped_contraction_memory_is_capped_by_the_block():
    # 3D, 128 slabs of 8 x 8 elements (K=8192), P=3, C=2: gathering every
    # element's values at once, as an unblocked grouped contraction does
    # before its first matmul, takes K x 64 x 2 floats (8.4 MB)
    mesh = _slab_mesh(128, 8, 3)
    waves = WaveSet.box(3, 2)
    plan = _plan(mesh, waves)
    field = _field(mesh, 2, 163)
    peak = _peak_bytes(transform, field, plan)
    gather = mesh.K * mesh.nodes_per_element * 2 * 8
    # blocks hold whole slabs: at most three block intermediates of the
    # larger of the cap and one slab's values, plus the summed spectrum,
    # its unfolded copies and the result
    slab = 8 * 8 * mesh.nodes_per_element * 2 * 8
    block = max(T._VALUE_BLOCK * 16, slab)
    bound = 3 * block + 4 * len(waves) * 2 * 16
    assert peak <= bound
    assert gather >= 8 * bound


def test_sparse_contraction_memory_is_capped_by_the_block():
    # 3D, K=512, P=3, 200 random waves in [-500, 500]^3: a per-prefix
    # contraction gathers K x (distinct q_1) x n^3 values, about 51 MB
    mesh = uniform_mesh(3, 8, 3)
    waves = _sparse_waves(3, 200, 500, 103)
    plan = _plan(mesh, waves)
    values = _field(mesh, 1, 107).values
    # per-element tables, gathered outside the measured call
    factors = [F[plan.groups.index[:, t]] for t, F in enumerate(plan.factors)]
    peak = _peak_bytes(contract_waves, values, factors, plan.weight, waves)
    # a block's phi_hat rows, the previous axis' rows and the block of
    # values cast to complex, numpy's buffers for the two broadcast factors
    # of the last axis' product, and the result
    block = max(T._VALUE_BLOCK, mesh.nodes_per_element) * 16
    bound = 3 * block + 2 * np.getbufsize() * 16 + 4 * len(waves) * 16
    gather = mesh.K * len(plan.waves.axis_index[0][0]) * mesh.nodes_per_element * 8
    assert peak <= bound
    assert gather >= 8 * bound


def test_rows_path_matches_compensated_sum(monkeypatch):
    # 3D, K=64, P=5, 300 random waves in [-500, 500]^3; the rows path
    # measured 4.1 eps of the largest coefficient over three such lists
    mesh = uniform_mesh(3, 4, 5)
    plan = _plan(mesh, _sparse_waves(3, 300, 500, 109))
    field = _field(mesh, 2, 113)
    comp = transform(field, plan, compensated=True).values
    monkeypatch.setattr(T, "_contract_product", _refuse)
    rows = transform(field, plan).values
    assert np.max(np.abs(rows - comp)) <= 6 * EPS * np.max(np.abs(comp))


def _product_grid(*axes):
    """Every wavevector of the product of the per-axis values."""
    return WaveSet(len(axes), tuple(product(*axes)))


_HANGING = {1: refine(uniform_mesh(1, 5, 4), [0, 3]),
            2: refine(uniform_mesh(2, 4, 3), [1, 6]),
            3: refine(uniform_mesh(3, 2, 3), [0, 5])}


@pytest.mark.parametrize("C", [1, 3])
@pytest.mark.parametrize("waves", [
    WaveSet.box(1, 6),
    _product_grid(range(-5, -1)),
    WaveSet.box(2, 4),
    _product_grid(range(0, 5), range(-5, -1)),
    WaveSet.box(3, 3),
    _product_grid(range(0, 5), range(-5, -1), range(2, 4)),
], ids=["box1", "negative1", "box2", "one-sided2", "box3", "one-sided3"])
def test_product_path_matches_compensated_sum(waves, C, monkeypatch):
    # the folded real contraction against the exactly rounded sum, on boxes
    # and on grids where some |q_t| occurs only as a negative q_t; five
    # fields per case measured at most 2.4 eps of the largest coefficient
    mesh = _HANGING[waves.d]
    plan = _plan(mesh, waves)
    field = _field(mesh, C, 127)
    comp = transform(field, plan, compensated=True).values
    monkeypatch.setattr(T, "_contract_rows", _refuse)
    got = transform(field, plan).values
    assert np.max(np.abs(got - comp)) <= 6 * EPS * np.max(np.abs(comp))


@pytest.mark.parametrize("waves,other", [
    (WaveSet.box(3, 3), "_contract_rows"),
    (_sparse_waves(3, 20, 6, 131), "_contract_product"),
], ids=["product", "rows"])
def test_complex_field_transforms_by_parts(waves, other, monkeypatch):
    monkeypatch.setattr(T, other, _refuse)
    mesh = _HANGING[3]
    plan = _plan(mesh, waves)
    re, im = _field(mesh, 2, 137).values, _field(mesh, 2, 139).values
    got = transform(NodalField(mesh, re + 1j * im), plan).values
    expect = (transform(NodalField(mesh, re), plan).values
              + 1j * transform(NodalField(mesh, im), plan).values)
    assert np.max(np.abs(got - expect)) <= 4 * EPS * np.max(np.abs(expect))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_product_path_spectra_of_real_fields_are_exactly_symmetric(d):
    mesh = _HANGING[d]
    spec = transform(_field(mesh, 3, 149), _plan(mesh, WaveSet.box(d, 4)))
    assert spec.conjugate_symmetry_error() == 0.0


def _compensated_cases():
    """The two compensated cases of test_transform.py, then boxes and
    60-wave lists in [-500, 500]^d on 1D, 2D and 3D hanging-node meshes."""
    mesh = uniform_mesh(2, 3, 3)
    yield NodalField(mesh, np.random.default_rng(47).uniform(-1, 1, (9, 16, 1))), WaveSet.box(2, 3)
    mesh = refine(uniform_mesh(3, 2, 3), [1, 6])
    qs = [(1, 3, -1), (-3, 0, 2), (1, -2, 2), (2, -2, 0), (0, 0, 0),
          (1, -2, -3), (-1, 3, 1), (3, 3, 3)]
    values = np.random.default_rng(59).uniform(-1, 1, (mesh.K, 64, 2))
    yield NodalField(mesh, values), WaveSet.from_list(qs)
    meshes = [(refine(uniform_mesh(1, 5, 4), [0, 3]), 9),
              (refine(uniform_mesh(2, 4, 3), [1, 6]), 4),
              (refine(uniform_mesh(3, 2, 2), [0, 5]), 3)]
    for i, (mesh, qmax) in enumerate(meshes):
        yield _field(mesh, 2, 200 + i), WaveSet.box(mesh.d, qmax)
    for i, (mesh, _) in enumerate(meshes):
        yield _field(mesh, 2, 300 + i), _sparse_waves(mesh.d, 60, 500, 400 + i)


# sha256 of transform(compensated=True) on the cases above, from complex
# per-axis tables built before the folded ones: the read-back keeps each
# table entry's bits
_COMPENSATED_DIGESTS = [
    "64fa05c4a2628e4d338ea625cc4630390b1b1c2ed18651931a3cc872d1530a8b",
    "ae6a578ba6501f20b15dd99e798538b3199cfe120e4da846fc51d7b2e0718acc",
    "e3655b71d4161a95e50bd7bf90ea20c09b3995113e64d4de217efcd6e78d55c1",
    "35e186b7fa5c4eec3729cc22252162bd66a586a432543fc7758ad095318252d7",
    "dee80bc4b1febbd8de9ab960e3d385bfe316ef0c493902a59e7286ae01d6dafd",
    "b3add553f9e7b6f12d2fc269dc6025ba2340b2c278ca72325e4e80603afba093",
    "8c541bae8b67f4db0203a63b8740715bffa0363dcfad731ed7b2bfc0eca13321",
    "aa9dd35273f19e5b37e404b64fab75c24ac2a56286921347354b5eecf7a43d22",
]


def test_compensated_sum_is_pinned_bitwise():
    digests = [hashlib.sha256(transform(field, _plan(field.mesh, waves), compensated=True)
                              .values.tobytes()).hexdigest()
               for field, waves in _compensated_cases()]
    assert digests == _COMPENSATED_DIGESTS


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from semfourier.cubature import TrigGrid, cubature_transform
from semfourier.gll import gll_rule, legendre_coeffs
from semfourier.mesh import NodalField, refine, uniform_mesh
from semfourier.transform import WaveSet, build_plan, transform
mesh = refine(uniform_mesh(3, 4, 5), [0, 9, 30, 63])
rule = gll_rule(5)
waves = WaveSet.box(3, 6)
values = np.random.default_rng(71).uniform(-1, 1, (mesh.K, 216, 3))
field = NodalField(mesh, values)
spec = transform(field, build_plan(mesh, rule, legendre_coeffs(rule), waves))
cub = cubature_transform(field, TrigGrid(3, 24), waves)
qs = np.random.default_rng(73).choice(601 ** 3, 40, replace=False)
sparse = WaveSet.from_list(np.stack(np.unravel_index(qs, (601,) * 3), axis=1) - 300)
rows = transform(field, build_plan(mesh, rule, legendre_coeffs(rule), sparse))
print(hashlib.sha256(spec.values.tobytes() + cub.values.tobytes()
                     + rows.values.tobytes()).hexdigest())
"""


def test_transform_is_bitwise_equal_across_blas_thread_counts(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(semfourier.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.update({name: threads for name in _THREAD_VARS})
        proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


_GROUPED_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from semfourier.gll import gll_rule, legendre_coeffs
from semfourier.mesh import NodalField, uniform_mesh
from semfourier.transform import WaveSet, build_plan, transform
mesh = uniform_mesh(3, 8, 6)
rule = gll_rule(6)
values = np.random.default_rng(167).uniform(-1, 1, (mesh.K, 343, 3))
spec = transform(NodalField(mesh, values),
                 build_plan(mesh, rule, legendre_coeffs(rule), WaveSet.box(3, 12)))
print(hashlib.sha256(spec.values.tobytes()).hexdigest())
"""


def test_grouped_transform_is_bitwise_equal_across_blas_thread_counts(tmp_path):
    # K=512, P=6, C=3, |q_t| <= 12: each slab's matmul sums its 8 pencils
    # inside one BLAS call, (525 x 56) @ (56 x 25), 735 000 multiply-adds:
    # past OpenBLAS's threading threshold of 2^18 per thread, so two
    # threads split it
    src = os.path.dirname(os.path.dirname(os.path.abspath(semfourier.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.update({name: threads for name in _THREAD_VARS})
        proc = subprocess.run([sys.executable, "-c", _GROUPED_DIGEST_SCRIPT], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def _csv_oracle(spectrum, extra_col=None):
    """The per-row formatting loop over numpy scalars."""
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    d = spectrum.waves.d
    header = [f"q{t + 1}" for t in range(d)] + ["component", "re", "im", "abs"]
    if extra_col is not None:
        header.append(extra_col[0])
    order = sorted(range(len(spectrum.waves)), key=lambda i: spectrum.waves.qs[i])
    lines = [",".join(header)]
    for i in order:
        q = spectrum.waves.qs[i]
        for c in range(spectrum.components):
            v = spectrum.values[i, c]
            row = [str(int(t)) for t in q] + [str(c), fmt(v.real), fmt(v.imag), fmt(abs(v))]
            if extra_col is not None:
                row.append(str(extra_col[1]))
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _wild_values(rng, shape):
    """Complex values spanning exponents +-300, with zeros, -0.0, inf,
    nan and one magnitude past the largest float."""
    mant = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    scale = 10.0 ** rng.integers(-300, 301, shape)
    out = (mant * scale).ravel()
    special = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(np.inf, 1.0),
               complex(np.nan, -2.0), complex(1.5e308, -1.5e308)][:out.size]
    out[:len(special)] = special
    return out.reshape(shape)


@pytest.mark.parametrize("extra_col", [None, ("M", 64)])
def test_spectrum_csv_matches_per_row_loop(extra_col):
    rng = np.random.default_rng(73)
    box = WaveSet.box(3, 2)
    scattered = WaveSet.from_list([(2, -1), (-3, 0), (0, 0), (1, 5), (-2, -2)])
    for waves, C in ((box, 3), (scattered, 1), (WaveSet(2, ()), 2)):
        for values in (rng.standard_normal((len(waves), C)).astype(complex),
                       _wild_values(rng, (len(waves), C))):
            spec = Spectrum(waves, values)
            with np.errstate(over="ignore", invalid="ignore"):
                expect = _csv_oracle(spec, extra_col)
            assert spectrum_csv_text(spec, extra_col) == expect


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_kept_csv_templates_match_per_row_loop(data):
    """One wave set formatted in alternation with several (C, extra_col),
    so kept templates are reused after others; an equal set built apart
    gives the same text, and caching leaves == and hash alone."""
    d = data.draw(st.integers(1, 3))
    qs = tuple(data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), max_size=24,
                                  unique=True)))
    formats = data.draw(st.lists(st.tuples(st.integers(1, 3),
                                           st.sampled_from([None, ("M", 64), ("tag", "5%")])),
                                 min_size=1, max_size=4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    waves, twin = WaveSet(d, qs), WaveSet(d, qs)
    for C, extra_col in formats * 2:
        values = _wild_values(rng, (len(qs), C))
        with np.errstate(over="ignore", invalid="ignore"):
            expect = _csv_oracle(Spectrum(waves, values), extra_col)
        assert spectrum_csv_text(Spectrum(waves, values), extra_col) == expect
        assert spectrum_csv_text(Spectrum(twin, values), extra_col) == expect
    assert waves == twin == WaveSet(d, qs)
    assert hash(waves) == hash(twin) == hash(WaveSet(d, qs))


def _symmetry_oracle(spectrum):
    """The per-wave loop over the set's dict."""
    worst = 0.0
    for i, q in enumerate(spectrum.waves.qs):
        neg = tuple(-c for c in q)
        if neg in spectrum.waves:
            j = spectrum.waves.index(neg)
            gap = np.max(np.abs(spectrum.values[j] - np.conj(spectrum.values[i])))
            worst = max(worst, float(gap))
    return worst


@pytest.mark.parametrize("waves", [
    WaveSet.box(1, 4),
    WaveSet.box(2, 3),
    WaveSet.box(3, 2),
    WaveSet.from_list([(1, 2), (-1, -2), (3, 0), (0, 0), (2, -5), (-3, 0), (4, 4)]),
    WaveSet.from_list([(1, 1, 1), (2, 0, -1), (-2, 0, 1), (0, 3, 0)]),
    WaveSet.from_list([(5,), (-4,), (3,)]),
    WaveSet(2, ()),
], ids=["box1", "box2", "box3", "scattered2", "scattered3", "no-pairs", "empty"])
def test_conjugate_symmetry_error_matches_per_wave_loop(waves):
    rng = np.random.default_rng(79)
    values = rng.standard_normal((len(waves), 2)) + 1j * rng.standard_normal((len(waves), 2))
    spec = Spectrum(waves, values)
    assert spec.conjugate_symmetry_error() == _symmetry_oracle(spec)


@pytest.mark.parametrize("waves", [
    WaveSet(3, ()), WaveSet.from_list([(5,), (-4,), (3,)]),
    WaveSet.from_list([(1, 2), (-1, 2), (2, -1), (0, 1)]),
], ids=["empty", "no-pairs-1d", "no-pairs-2d"])
def test_conjugate_symmetry_error_is_zero_without_pairs(waves):
    values = np.full((len(waves), 2), 1.0 + 2.0j)
    assert Spectrum(waves, values).conjugate_symmetry_error() == 0.0


def test_shuffled_box_takes_the_product_and_keeps_wave_order():
    mesh = refine(uniform_mesh(2, 2, 3), [2])
    box = WaveSet.box(2, 3)
    order = np.random.default_rng(83).permutation(len(box))
    shuffled = WaveSet(2, tuple(box.qs[i] for i in order))
    field = _field(mesh, 2, 89)
    ref = transform(field, _plan(mesh, box)).values
    got = transform(field, _plan(mesh, shuffled)).values
    assert np.max(np.abs(got - ref[order])) <= 8 * EPS * np.max(np.abs(ref))
