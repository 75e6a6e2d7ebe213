"""Span tracing around semfourier's public functions, from outside the package.

Each traced function is replaced, in every ``semfourier.*`` namespace that
holds it, by a wrapper that records a span ``[group, start, end, parent,
job, attrs]`` in memory. Patching every namespace matters because ``cli``,
``harness``, ``cubature``, ``cases`` and ``mesh`` import functions such as
``build_plan``, ``transform``, ``eval_field_many``, ``bessel_column`` and
``gll_rule`` by name. ``semfourier.transform`` on the package is the
re-exported function, so modules are always taken from ``sys.modules``.
``Mesh.validate`` is patched on the class, since ``Mesh.__init__`` calls it
for ``uniform_mesh``, ``refine`` and ``load_mesh``.

Span groups are ``<module>`` or ``<module>.<part>``; the per-layer metrics
are named after them (see ``layer_metrics``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import sys
import tracemalloc
from contextlib import contextmanager
from time import perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(pos, name):
    return lambda a, kw, out: {"bytes": os.path.getsize(_arg(a, kw, pos, name))}


def _plan_work(a, kw, out):
    mesh, waves = _arg(a, kw, 0, "mesh"), _arg(a, kw, 3, "waves")
    pairs = len(waves) * mesh.K
    return {"pairs": pairs, "axes": pairs * mesh.d}


def _apply_work(a, kw, out):
    plan = _arg(a, kw, 1, "plan")
    return {"pairs": len(plan.waves) * plan.mesh.K}


# (module, attribute, span group, attrs(args, kwargs, result) -> dict or None).
# Groups that feed no metric (mesh.build, cases.exact, harness.csv) still
# take their time out of their parents' self time and count as covered.
TARGETS = (
    ("semfourier.gll", "gll_rule", "gll", None),
    ("semfourier.gll", "legendre_coeffs", "gll", None),
    ("semfourier.bessel", "bessel_column", "bessel",
     lambda a, kw, out: {"r": abs(float(_arg(a, kw, 0, "r")))}),
    ("semfourier.transform", "build_plan", "transform.plan", _plan_work),
    ("semfourier.transform", "transform", "transform.apply", _apply_work),
    ("semfourier.transform", "spectrum_csv_text", "transform.csv",
     lambda a, kw, out: {"bytes": len(out)}),
    ("semfourier.transform", "write_spectrum_csv", "transform.csv", None),
    ("semfourier.transform", "read_spectrum_csv", "transform.csv",
     _file_bytes(0, "path")),
    ("semfourier.mesh", "uniform_mesh", "mesh.build", None),
    ("semfourier.mesh", "load_mesh", "mesh.io", _file_bytes(0, "path")),
    ("semfourier.mesh", "save_mesh", "mesh.io", _file_bytes(1, "path")),
    ("semfourier.mesh", "read_field", "mesh.io", _file_bytes(0, "path")),
    ("semfourier.mesh", "write_field", "mesh.io", _file_bytes(1, "path")),
    ("semfourier.mesh", "sample_field", "mesh.sample", None),
    ("semfourier.mesh", "refine", "mesh.refine", None),
    ("semfourier.mesh", "refine_by_indicator", "mesh.refine", None),
    ("semfourier.mesh", "eval_field_many", "mesh.eval",
     lambda a, kw, out: {"points": len(out)}),
    ("semfourier.cubature", "cubature_transform", "cubature",
     lambda a, kw, out: {"points": _arg(a, kw, 1, "grid").M ** _arg(a, kw, 1, "grid").d}),
    ("semfourier.cases", "exact_spectrum", "cases.exact", None),
    ("semfourier.harness", "convergence_surface", "harness.surface",
     lambda a, kw, out: {"cells": len(out)}),
    ("semfourier.harness", "spectrum_decay_profile", "harness.decay", None),
    ("semfourier.harness", "write_surface_csv", "harness.csv", None),
    ("semfourier.harness", "write_profile_csv", "harness.csv", None),
    ("semfourier.cli", "main", "cli", None),
)

# Case factories the workloads reach through the CLI. The case callable
# they return, which ``sample_field`` evaluates, gets the span.
CASE_FACTORIES = ("case_sin", "case_rotated_series")

# Attribute keys that combine by maximum; all others are summed counts.
_MAX_KEYS = {"r", "K"}
# Counts that depend on the values computed, not only on the work done.
_VARYING = {"transform.csv:bytes"}


class _Patches:
    """Replacements of module and class attributes, undone in reverse."""

    def __init__(self):
        self._undo = []

    def replace_everywhere(self, original, replacement):
        for name, mod in list(sys.modules.items()):
            if not (name == "semfourier" or name.startswith("semfourier.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder. Spans of one job share its ``job`` id."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    def wrap(self, group, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [group, perf_counter(), None, stack[-1] if stack else None,
                    self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Route every target through this tracer while the block runs."""
        patches = _Patches()
        try:
            for module, attr, group, attrs in TARGETS:
                fn = getattr(sys.modules[module], attr)
                patches.replace_everywhere(fn, self.wrap(group, fn, attrs))
            mesh_cls = sys.modules["semfourier.mesh"].Mesh
            patches.set(mesh_cls, "validate", self.wrap(
                "mesh.validate", mesh_cls.validate,
                lambda a, kw, out: {"K": a[0].K}))
            cases = sys.modules["semfourier.cases"]
            for attr in CASE_FACTORIES:
                factory = getattr(cases, attr)
                patches.replace_everywhere(factory, self._case_factory(factory))
            yield self
        finally:
            patches.undo()

    def _case_factory(self, factory):
        def make(*args, **kwargs):
            case = factory(*args, **kwargs)
            return dataclasses.replace(case, func=self.wrap(
                "cases.eval", case.func, lambda a, kw, out: {"points": len(a[0])}))
        return make

    def write(self, path):
        """Write every span as JSON lists, once, at the end of a run."""
        with open(path, "w") as fh:
            json.dump({"fields": ["group", "start", "end", "parent", "job", "attrs"],
                       "spans": self.spans}, fh)


@contextmanager
def plan_peak_bytes(sink):
    """Append the tracemalloc peak of every ``build_plan`` call to ``sink``.

    Kept apart from the timed trace: tracemalloc slows allocation-heavy
    Python several-fold and would distort every self time.
    """
    module = sys.modules["semfourier.transform"]
    build_plan = module.build_plan

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return build_plan(*args, **kwargs)
        finally:
            sink.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    patches = _Patches()
    try:
        patches.replace_everywhere(build_plan, measured)
        yield sink
    finally:
        patches.undo()


def scope_totals(spans, job):
    """Per-group self time, span count and attribute totals for one job.

    Self time is a span's duration minus the durations of its direct
    children. ``job=None`` selects the set-up.
    """
    child = {}
    for s in spans:
        if s[3] is not None:
            child[s[3]] = child.get(s[3], 0.0) + (s[2] - s[1])
    times, counts = {}, {}
    for i, s in enumerate(spans):
        if s[4] != job:
            continue
        group = s[0]
        times[group] = times.get(group, 0.0) + (s[2] - s[1]) - child.get(i, 0.0)
        counts[group + ":n"] = counts.get(group + ":n", 0) + 1
        for key, value in (s[5] or {}).items():
            k = f"{group}:{key}"
            if key in _MAX_KEYS:
                counts[k] = max(counts.get(k, 0), value)
            else:
                counts[k] = counts.get(k, 0) + value
    return times, counts


def covered_time(spans, job):
    """Time inside top-level spans of one job (they never overlap)."""
    return sum(s[2] - s[1] for s in spans if s[4] == job and s[3] is None)


def combine(setup, jobs):
    """Set-up once plus one median job.

    Times, and the byte counts of formatted text (which vary with the
    digits of the values), add the set-up's total to the median over jobs.
    Work counts add the set-up's to the job's, which must be the same for
    every job (else ``ValueError``); maxima take the maximum over scopes.
    """
    (setup_times, setup_counts), per_job = setup, jobs
    exact = [{k: v for k, v in c.items() if k not in _VARYING} for _, c in per_job]
    for counts in exact[1:]:
        if counts != exact[0]:
            diff = sorted(k for k in set(counts) | set(exact[0])
                          if counts.get(k) != exact[0].get(k))
            raise ValueError(f"work counts differ between jobs: {diff}")
    groups = set(setup_times).union(*(t for t, _ in per_job))
    times = {g: setup_times.get(g, 0.0)
             + statistics.median(t.get(g, 0.0) for t, _ in per_job) for g in groups}
    counts = dict(setup_counts)
    for k, v in exact[0].items():
        key = k.split(":", 1)[1]
        counts[k] = max(counts.get(k, 0), v) if key in _MAX_KEYS else counts.get(k, 0) + v
    for k in _VARYING:
        counts[k] = counts.get(k, 0) + statistics.median(c.get(k, 0) for _, c in per_job)
    return times, counts


def layer_metrics(times, counts, plan_peak, cli):
    """Per-layer metrics ``<module>.<metric>`` from combined totals."""
    def S(g):
        return times.get(g, 0.0)

    def C(k):
        return counts.get(k, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "gll.self_s": (S("gll"), "s"),
        "bessel.columns": (C("bessel:n"), "count"),
        "bessel.self_s": (S("bessel"), "s"),
        "bessel.us_per_column": (1e6 * ratio(S("bessel"), C("bessel:n")), "us"),
        "bessel.max_abs_r": (float(C("bessel:r")), "rad"),
        "transform.plan_self_s": (S("transform.plan"), "s"),
        "transform.plan_pairs": (C("transform.plan:pairs"), "count"),
        "transform.plan_peak_bytes": (plan_peak, "bytes"),
        "transform.column_reuse": (
            1.0 - ratio(C("bessel:n"), C("transform.plan:axes"))
            if C("transform.plan:axes") else 0.0, "ratio"),
        "transform.apply_self_s": (S("transform.apply"), "s"),
        "transform.pairs_per_s": (
            ratio(C("transform.apply:pairs"), S("transform.apply")), "1/s"),
        "transform.csv_s": (S("transform.csv"), "s"),
        "transform.csv_bytes": (C("transform.csv:bytes"), "bytes"),
        "mesh.validate_s": (S("mesh.validate"), "s"),
        "mesh.validate_calls": (C("mesh.validate:n"), "count"),
        "mesh.validate_max_K": (C("mesh.validate:K"), "count"),
        "mesh.io_self_s": (S("mesh.io"), "s"),
        "mesh.io_bytes": (C("mesh.io:bytes"), "bytes"),
        "mesh.sample_self_s": (S("mesh.sample"), "s"),
        "mesh.refine_self_s": (S("mesh.refine"), "s"),
        "mesh.eval_s": (S("mesh.eval"), "s"),
        "mesh.eval_points": (C("mesh.eval:points"), "count"),
        "cubature.self_s": (S("cubature"), "s"),
        "cubature.points": (C("cubature:points"), "count"),
        "cases.eval_s": (S("cases.eval"), "s"),
        "cases.points": (C("cases.eval:points"), "count"),
        "harness.surface_self_s": (S("harness.surface"), "s"),
        "harness.cells": (C("harness.surface:cells"), "count"),
        "harness.decay_s": (S("harness.decay"), "s"),
        "cli.import_s": (cli.get("import_s", 0.0), "s"),
        "cli.process_s": (cli.get("process_s", 0.0), "s"),
        "cli.commands": (C("cli:n"), "count"),
    }


# Metrics that count work; they must repeat exactly for one seed.
EXACT_COUNTS = ("bessel.columns", "transform.plan_pairs",
                "mesh.validate_calls", "mesh.validate_max_K", "mesh.io_bytes",
                "mesh.eval_points", "cubature.points", "cases.points",
                "harness.cells", "cli.commands")
