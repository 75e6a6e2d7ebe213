"""The three benchmark workloads: seeded inputs, set-up, one job, its check.

Inputs come only from the seed. Every seed gives the same amount of work:
the same K, P, wave count and commands; the seed picks polynomial
coefficients, which 16 elements of the 3D mesh are bisected, and the
lattice vector of the rotated series.

Checks run outside the timed job and use oracles independent of the code
under test: closed forms through ``scipy.special.spherical_jn`` (not
``semfourier.bessel``), ``cases.exact_spectrum``, and byte equality of
repeated command-line sessions.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from numpy.polynomial.legendre import legvander
from scipy.special import spherical_jn

import semfourier  # noqa: F401  (loads every submodule into sys.modules)
import semfourier.cli  # noqa: F401

M = sys.modules["semfourier.mesh"]
T = sys.modules["semfourier.transform"]
G = sys.modules["semfourier.gll"]
CASES = sys.modules["semfourier.cases"]
CLI = sys.modules["semfourier.cli"]

_IPOW_NEG = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)


class JobError(RuntimeError):
    """A job that exited non-zero or produced no usable output."""


def _legendre_poly(coeffs):
    """Sampler of u_c(x) = sum_p a[c, p] prod_t L_{p_t}(x_t / pi).

    ``coeffs`` has shape (C, P+1, ..., P+1) with one degree axis per
    dimension, axis t+1 holding the degree in x_{t+1}.
    """
    d = coeffs.ndim - 1
    P = coeffs.shape[1] - 1
    last = np.moveaxis(coeffs, -1, 0).reshape(P + 1, -1)

    def func(X):
        # The last axis contracts by one matmul, the others point by point.
        U = (legvander(X[:, d - 1] / math.pi, P) @ last).reshape(
            (len(X),) + coeffs.shape[:-1])
        for t in range(d - 2, -1, -1):
            U = np.einsum("nz...p,np->nz...", U, legvander(X[:, t] / math.pi, P))
        return U

    return func


def _closed_form(coeffs, qs):
    """Exact spectrum of ``_legendre_poly(coeffs)`` at wavevectors ``qs``.

    Per axis, the coefficient of L_p(x / pi) at q is i^{-p} j_p(pi q).
    Returns shape (len(qs), C).
    """
    d = coeffs.ndim - 1
    P = coeffs.shape[1] - 1
    q = np.asarray(qs, dtype=int).reshape(len(qs), d)
    ip = np.array([_IPOW_NEG[p % 4] for p in range(P + 1)])
    E = [ip * spherical_jn(np.arange(P + 1)[None, :], math.pi * q[:, t][:, None])
         for t in range(d)]
    letters = "ijk"[:d]
    spec = ",".join(f"w{c}" for c in letters) + f",z{letters}->wz"
    return np.einsum(spec, *E, coeffs, optimize=True)


def _spectrum_error(values, expected):
    scale = max(1.0, float(np.max(np.abs(expected))))
    return float(np.max(np.abs(values - expected))) / scale


class Snapshots3D:
    """Many fields on one 3D hanging-node mesh, with the plan reused.

    A uniform 4^3 degree-5 mesh with 16 seeded elements bisected (K=176),
    waves |q_t| <= 3 (343). Set-up builds the mesh, writes 8 field files and
    builds the plan; a job reads one field file, transforms it and formats
    the spectrum CSV. The transform contraction dominates the job.
    """

    name = "snapshots_3d"
    D, PER_AXIS, P, BISECT, QMAX, C, FIELDS = 3, 4, 5, 16, 3, 3, 8
    TOL = 1e-12

    def __init__(self, seed, workdir, env):
        rng = np.random.default_rng(seed)
        self.bisect = np.sort(rng.choice(self.PER_AXIS ** self.D, self.BISECT,
                                         replace=False))
        self.coeffs = rng.standard_normal((self.FIELDS, self.C) + (self.P + 1,) * self.D)
        self.paths = [os.path.join(workdir, f"field{i}.bin") for i in range(self.FIELDS)]
        self.csv_digest = {}

    def setup(self):
        mesh = M.refine(M.uniform_mesh(self.D, self.PER_AXIS, self.P), self.bisect)
        rule = G.gll_rule(self.P)
        table = G.legendre_coeffs(rule)
        for coeffs, path in zip(self.coeffs, self.paths):
            M.write_field(M.sample_field(mesh, rule, _legendre_poly(coeffs)), path)
        self.mesh = mesh
        self.plan = T.build_plan(mesh, rule, table, T.WaveSet.box(self.D, self.QMAX))

    def prepare_checks(self):
        if self.mesh.K != 176:
            raise JobError(f"mesh has K={self.mesh.K}, expected 176")
        qs = self.plan.waves.qs
        self.expected = [_closed_form(c, qs) for c in self.coeffs]

    def job(self, i):
        field = M.read_field(self.paths[i % self.FIELDS], self.mesh)
        spec = T.transform(field, self.plan)
        return spec, T.spectrum_csv_text(spec)

    def check(self, i, out):
        spec, text = out
        err = _spectrum_error(spec.values, self.expected[i % self.FIELDS])
        if not err <= self.TOL:
            return f"spectrum differs from the closed form by {err:.3g}"
        if text.count("\n") != len(self.plan.waves) * self.C + 1:
            return "spectrum CSV has the wrong number of rows"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.csv_digest.setdefault(i % self.FIELDS, digest) != digest:
            return "spectrum CSV of one field changed between jobs"
        return None

    traced_job = job


class HighQ1D:
    """The far spectral tail of a coarse 1D mesh, with a fresh plan per job.

    Degree 8, two uniform elements with the first bisected (K=3, two size
    classes), waves |q| <= 1500. A job builds the plan and transforms one
    of 16 seeded fields; Bessel columns at |r| up to ~2356 dominate.
    """

    name = "highq_1d"
    P, QMAX, FIELDS = 8, 1500, 16
    TOL = 1e-12

    def __init__(self, seed, workdir, env):
        rng = np.random.default_rng(seed)
        self.coeffs = rng.standard_normal((self.FIELDS, 1, self.P + 1))

    def setup(self):
        mesh = M.refine(M.uniform_mesh(1, 2, self.P), [0])
        self.rule = G.gll_rule(self.P)
        self.table = G.legendre_coeffs(self.rule)
        self.waves = T.WaveSet.box(1, self.QMAX)
        self.fields = [M.sample_field(mesh, self.rule, _legendre_poly(c))
                       for c in self.coeffs]
        self.mesh = mesh

    def prepare_checks(self):
        if self.mesh.K != 3:
            raise JobError(f"mesh has K={self.mesh.K}, expected 3")
        self.expected = [_closed_form(c, self.waves.qs) for c in self.coeffs]

    def job(self, i):
        plan = T.build_plan(self.mesh, self.rule, self.table, self.waves)
        return T.transform(self.fields[i % self.FIELDS], plan)

    def check(self, i, out):
        err = _spectrum_error(out.values, self.expected[i % self.FIELDS])
        if not err <= self.TOL:
            return f"spectrum differs from the closed form by {err:.3g}"
        return None

    traced_job = job


# Symmetric variants of (1, 2); each refines the 16x16 mesh to K=700.
LATTICE = ((1, 2), (-1, 2), (1, -2), (-1, -2), (2, 1), (-2, 1), (2, -1), (-2, -1))
OUTPUTS = ("mesh.json", "field.bin", "fine.json", "fine.bin", "spectrum.csv",
           "cub.csv", "profile.csv", "surface.csv")


class CliPipeline:
    """One command-line session of 8 fresh ``python -m semfourier`` processes.

    Import (mostly scipy), O(K^2) mesh validation on every load, I/O,
    sampling, refinement and cubature's point evaluation share the cost.
    The traced run replays the same commands in process through
    ``semfourier.cli.main``.
    """

    name = "cli_pipeline"
    K_REFINED, QMAX = 700, 3
    REL_RMS_TOL, SYMMETRY_TOL = 1e-6, 1e-12

    def __init__(self, seed, workdir, env):
        rng = np.random.default_rng(seed)
        self.lattice = LATTICE[int(rng.integers(len(LATTICE)))]
        self.workdir = workdir
        self.env = env
        self.session_digest = None

    def commands(self, d):
        """argv of the 8 commands of a session whose files live in ``d``."""
        def p(name):
            return os.path.join(d, name)

        case = ["--case", "rotser", "--l1", str(self.lattice[0]),
                "--l2", str(self.lattice[1])]
        return [
            ["mesh", "uniform", "--d", "2", "--K-per-axis", "16", "--P", "5",
             "--out", p("mesh.json")],
            ["field", "sample", "--mesh", p("mesh.json"), *case, "--out", p("field.bin")],
            ["mesh", "refine", "--in", p("mesh.json"), "--tol", "1e-4",
             "--field", p("field.bin"), "--out", p("fine.json")],
            ["field", "sample", "--mesh", p("fine.json"), *case, "--out", p("fine.bin")],
            ["transform", "--mesh", p("fine.json"), "--field", p("fine.bin"),
             "--qmax", str(self.QMAX), "--out", p("spectrum.csv")],
            ["cubature", "--mesh", p("fine.json"), "--field", p("fine.bin"),
             "--M", "64", "--qmax", str(self.QMAX), "--out", p("cub.csv")],
            ["decay", "--spectrum", p("spectrum.csv"), "--direction", "1,2",
             "--out", p("profile.csv")],
            ["converge", "--case", "sin", "--Kmax", "16", "--Pmax", "6", "--qmax", "8",
             "--out", p("surface.csv")],
        ]

    def fresh_import_s(self):
        """Seconds to ``import semfourier`` in a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); import semfourier; "
                "print(time.perf_counter() - t)")
        r = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.workdir,
                           capture_output=True, text=True, timeout=120)
        if r.returncode:
            raise JobError(f"import failed: {r.stderr.strip()[-200:]}")
        return float(r.stdout.strip())

    def setup(self):
        # A fresh interpreter importing the package: what every session
        # pays first, and what warms the file cache for the jobs.
        self.fresh_import_s()

    def prepare_checks(self):
        case = CASES.case_rotated_series(l=self.lattice)
        waves = T.WaveSet.box(2, self.QMAX)
        exact = CASES.exact_spectrum(case, waves)
        self.exact = {q: complex(v[0]) for q, v in zip(waves.qs, exact.values)}

    def _session_dir(self):
        return tempfile.mkdtemp(prefix="session-", dir=self.workdir)

    def job(self, i):
        """Run the session as separate processes; returns (dir, stdouts)."""
        d = self._session_dir()
        stdouts = []
        for argv in self.commands(d):
            r = subprocess.run([sys.executable, "-m", "semfourier", *argv],
                               env=self.env, cwd=d, capture_output=True, timeout=120)
            if r.returncode:
                raise JobError(f"{argv[0]} exited {r.returncode}: "
                               f"{r.stderr.decode(errors='replace').strip()[-200:]}")
            stdouts.append(r.stdout)
        return d, stdouts

    def traced_job(self, i):
        """Run the session in this process through ``semfourier.cli.main``."""
        d = self._session_dir()
        stdouts = []
        for argv in self.commands(d):
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                try:
                    code = CLI.main(argv)
                except SystemExit as exc:
                    code = exc.code
            if code:
                raise JobError(f"{argv[0]} returned {code}")
            stdouts.append(out.getvalue().encode())
        return d, stdouts

    def check(self, i, out):
        d, stdouts = out
        try:
            return self._check_session(d, stdouts)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _check_session(self, d, stdouts):
        digest = hashlib.sha256()
        for name in OUTPUTS:
            with open(os.path.join(d, name), "rb") as fh:
                digest.update(fh.read())
        for s in stdouts:
            digest.update(s)
        digest = digest.hexdigest()
        if self.session_digest is None:
            self.session_digest = digest
        elif digest != self.session_digest:
            return "session outputs differ from the first session's"
        with open(os.path.join(d, "fine.json")) as fh:
            K = len(json.load(fh)["elements"])
        if K != self.K_REFINED:
            return f"refined mesh has K={K}, expected {self.K_REFINED}"
        with open(os.path.join(d, "spectrum.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = {(int(r["q1"]), int(r["q2"])): complex(float(r["re"]), float(r["im"]))
               for r in rows}
        if set(got) != set(self.exact) or len(rows) != len(got):
            return "spectrum CSV does not cover the wave box exactly once"
        num = math.sqrt(sum(abs(got[q] - v) ** 2 for q, v in self.exact.items()))
        den = math.sqrt(sum(abs(v) ** 2 for v in self.exact.values()))
        if not num / den <= self.REL_RMS_TOL:
            return f"relative RMS error {num / den:.3g} against the exact spectrum"
        sym = max(abs(got[(-q[0], -q[1])] - got[q].conjugate()) for q in got)
        if not sym <= self.SYMMETRY_TOL:
            return f"conjugate-symmetry residual {sym:.3g}"
        return None


def make(name, seed, workdir, env):
    """The workload ``name`` with inputs from ``seed``; files go to ``workdir``
    and child processes get ``env``."""
    classes = {cls.name: cls for cls in (Snapshots3D, HighQ1D, CliPipeline)}
    return classes[name](seed, workdir, env)
