"""Convergence sweeps and spectral decay profiles.

Thin drivers that wire cases, meshes, and transforms together and write
deterministic CSV summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cases import AnalyticCase, exact_spectrum
from .gll import gll_rule, legendre_coeffs
from .mesh import sample_field, uniform_mesh
from .transform import Spectrum, WaveSet, build_plan, rms_relative_error, transform

__all__ = [
    "convergence_surface",
    "write_surface_csv",
    "DecayProfile",
    "spectrum_decay_profile",
    "write_profile_csv",
    "fit_loglog_slope",
]

DEFAULT_QMAX = 16
_LOG_FLOOR = 1e-300


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log10(y) against log10(x).

    Points with nonpositive coordinates are dropped; fewer than two
    surviving points give NaN.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = (xs > 0) & (ys > 0)
    if np.count_nonzero(keep) < 2:
        return float("nan")
    lx, ly = np.log10(xs[keep]), np.log10(ys[keep])
    lx = lx - lx.mean()
    return float(np.sum(lx * (ly - ly.mean())) / np.sum(lx * lx))


def convergence_surface(case: AnalyticCase, K_list, P_list,
                        qmax: int = DEFAULT_QMAX) -> list[tuple[int, int, float]]:
    """RMS coefficient error of a 1D case over a (K, P) grid.

    For each uniform K-element degree-P mesh, samples the case, runs the
    exact transform over |q| <= qmax, and records
    log10 of the RMS error relative to the exact spectrum.

    Returns:
        Rows (K, P, log10_err) with K outer and P inner, both ascending as
        given.
    """
    if case.d != 1:
        raise ValueError("convergence surface is defined for 1D cases")
    waves = WaveSet.box(1, qmax)
    exact = exact_spectrum(case, waves)
    rows = []
    for K in K_list:
        for P in P_list:
            mesh = uniform_mesh(1, K, P)
            rule = gll_rule(P)
            table = legendre_coeffs(rule)
            fieldv = sample_field(mesh, rule, case.func)
            plan = build_plan(mesh, rule, table, waves)
            err = rms_relative_error(transform(fieldv, plan), exact)
            rows.append((int(K), int(P), math.log10(max(err, _LOG_FLOOR))))
    return rows


def write_surface_csv(rows, path, case_name: str, qmax: int) -> None:
    """Surface CSV; the sweep configuration rides along in a comment line."""
    lines = [f"# case={case_name},qmax={qmax}", "K,P,log10_err"]
    for K, P, val in rows:
        lines.append(f"{K},{P},{format(val, '.17g')}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class DecayProfile:
    """Decay curve: (|q|, |u_hat|) points plus their log-log slope."""

    points: tuple[tuple[float, float], ...]
    slope: float


def spectrum_decay_profile(spectrum: Spectrum, direction,
                           component: int | None = None) -> DecayProfile:
    """Coefficient magnitudes along a ray or over sup-norm shells.

    Args:
        spectrum: input coefficients.
        direction: integer direction vector to walk multiples of, or the
            string "shell-max" for the max magnitude on each shell
            ||q||_inf = n.
        component: component to profile, 0 <= component < C; None takes
            the max over components.

    Returns:
        DecayProfile with |q| measured in the Euclidean norm along rays
        and by shell index for "shell-max"; the slope is the least-squares
        log-log fit over the positive entries (NaN if fewer than two).
    """
    C = spectrum.components
    if component is not None and not 0 <= component < C:
        raise ValueError(f"component {component} out of range 0..{C - 1}")
    mags = np.abs(spectrum.values)
    mags = np.max(mags, axis=1) if component is None else mags[:, component]
    pts: list[tuple[float, float]] = []
    if isinstance(direction, str):
        if direction != "shell-max":
            raise ValueError(f"unknown direction {direction!r}")
        shells: dict[int, float] = {}
        for i, q in enumerate(spectrum.waves.qs):
            n = max(abs(c) for c in q)
            v = float(mags[i])
            if n not in shells or v > shells[n]:
                shells[n] = v
        pts = [(float(n), shells[n]) for n in sorted(shells) if n > 0]
    else:
        v_dir = tuple(int(c) for c in direction)
        if all(c == 0 for c in v_dir):
            raise ValueError("direction must be nonzero")
        if len(v_dir) != spectrum.waves.d:
            raise ValueError(f"direction {v_dir} has dimension {len(v_dir)}, "
                             f"the spectrum {spectrum.waves.d}")
        norm = math.sqrt(sum(c * c for c in v_dir))
        m = 1
        while (q := tuple(m * c for c in v_dir)) in spectrum.waves:
            pts.append((m * norm, float(mags[spectrum.waves.index(q)])))
            m += 1
    slope = fit_loglog_slope([p[0] for p in pts], [p[1] for p in pts])
    return DecayProfile(tuple(pts), slope)


def write_profile_csv(profile: DecayProfile, path) -> None:
    """Profile CSV: qnorm, abs columns with the fitted slope appended."""
    lines = ["qnorm,abs"]
    for x, y in profile.points:
        lines.append(f"{format(x, '.17g')},{format(y, '.17g')}")
    lines.append(f"# slope={format(profile.slope, '.17g')}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
