"""Convergence sweeps, slope fitting, and decay profiles."""

import math
import re

import numpy as np
import pytest

from semfourier.cases import case_sin
from semfourier.harness import (
    DecayProfile,
    convergence_surface,
    fit_loglog_slope,
    spectrum_decay_profile,
    write_profile_csv,
    write_surface_csv,
)
from semfourier.transform import Spectrum, WaveSet


def test_slope_fit_recovers_power_laws():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    assert fit_loglog_slope(x, 5.0 * x**-3) == pytest.approx(-3.0, abs=1e-12)
    assert fit_loglog_slope(x, 0.1 * x**2.5) == pytest.approx(2.5, abs=1e-12)


def test_slope_fit_drops_nonpositive_points():
    x = [1.0, 2.0, 4.0, 8.0]
    y = [1.0, 0.25, 0.0, 0.015625]  # the zero must not poison the fit
    assert fit_loglog_slope(x, y) == pytest.approx(-2.0, abs=1e-12)
    assert math.isnan(fit_loglog_slope([1.0], [2.0]))
    assert math.isnan(fit_loglog_slope([1.0, 2.0], [0.0, 0.0]))


def test_convergence_surface_shape_and_trend():
    rows = convergence_surface(case_sin(), [1, 2], [2, 4, 6], qmax=4)
    assert [(K, P) for K, P, _ in rows] == [
        (1, 2), (1, 4), (1, 6), (2, 2), (2, 4), (2, 6),
    ]
    errs = {(K, P): v for K, P, v in rows}
    # error drops with P at fixed K and with K at fixed P
    assert errs[(2, 6)] < errs[(2, 4)] < errs[(2, 2)]
    assert errs[(2, 4)] < errs[(1, 4)]


def test_convergence_surface_rejects_2d_cases():
    from semfourier.cases import case_burgers_t0

    with pytest.raises(ValueError):
        convergence_surface(case_burgers_t0(), [1], [2])


def test_surface_csv_layout(tmp_path):
    rows = [(1, 2, -3.5), (2, 2, -4.25)]
    path = tmp_path / "surface.csv"
    write_surface_csv(rows, path, "sin", 8)
    lines = path.read_text().splitlines()
    assert lines[0] == "# case=sin,qmax=8"
    assert lines[1] == "K,P,log10_err"
    assert lines[2] == "1,2,-3.5"


def _synthetic_spectrum():
    waves = WaveSet.box(2, 6)
    values = np.zeros((len(waves), 1), dtype=complex)
    spec = Spectrum(waves, values)
    vals = values.copy()
    for m in range(1, 4):
        vals[waves.index((m, 2 * m))] = (m * math.sqrt(5.0)) ** -2
    for i, q in enumerate(waves.qs):
        n = max(abs(q[0]), abs(q[1]))
        if n and vals[i, 0] == 0.0:
            vals[i, 0] = 0.25 * n**-3.0
    return Spectrum(waves, vals)


def test_decay_profile_along_ray():
    prof = spectrum_decay_profile(_synthetic_spectrum(), (1, 2))
    xs = [p[0] for p in prof.points]
    assert xs == pytest.approx([math.sqrt(5.0) * m for m in (1, 2, 3)])
    assert prof.slope == pytest.approx(-2.0, abs=1e-12)


def test_decay_profile_shell_max():
    prof = spectrum_decay_profile(_synthetic_spectrum(), "shell-max")
    # shell 2 is dominated by the planted ray value at m = 1
    assert dict(prof.points)[2.0] == pytest.approx(1.0 / 5.0)
    assert prof.points[0][0] == 1.0
    with pytest.raises(ValueError):
        spectrum_decay_profile(_synthetic_spectrum(), "shell-sum")
    with pytest.raises(ValueError):
        spectrum_decay_profile(_synthetic_spectrum(), (0, 0))


@pytest.mark.parametrize("direction", [(1,), (1, 2, 3)])
def test_decay_profile_rejects_a_direction_of_another_dimension(direction):
    # a 2D wave set holds no multiple of a 1D or 3D vector, so the ray
    # would come back empty with a NaN slope
    with pytest.raises(ValueError, match=re.escape(
            f"direction {direction} has dimension {len(direction)}, the spectrum 2")):
        spectrum_decay_profile(_synthetic_spectrum(), direction)


def test_decay_profile_component_selection():
    waves = WaveSet.from_list([(1,), (2,)])
    vals = np.array([[1.0, 8.0], [0.25, 1.0]], dtype=complex)
    spec = Spectrum(waves, vals)
    assert spectrum_decay_profile(spec, (1,), component=0).slope == pytest.approx(-2.0)
    assert spectrum_decay_profile(spec, (1,), component=1).slope == pytest.approx(-3.0)
    # default takes the max across components
    assert spectrum_decay_profile(spec, (1,)).slope == pytest.approx(-3.0)


@pytest.mark.parametrize("component", [2, -1, 5])
@pytest.mark.parametrize("direction", [(1,), "shell-max"])
def test_decay_profile_rejects_component_out_of_range(direction, component):
    spec = Spectrum(WaveSet.from_list([(1,), (2,)]), np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError, match=f"component {component} out of range 0..1"):
        spectrum_decay_profile(spec, direction, component=component)


def test_profile_csv_layout(tmp_path):
    prof = DecayProfile(((1.0, 0.5), (2.0, 0.125)), -2.0)
    path = tmp_path / "profile.csv"
    write_profile_csv(prof, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "qnorm,abs"
    assert lines[1] == "1,0.5"
    assert lines[-1] == "# slope=-2"
