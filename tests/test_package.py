"""The package root holds its modules; each module's ``__all__`` lists its names."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types

import pytest

import semfourier

MODULES = ("bessel", "cases", "cubature", "gll", "harness", "mesh", "transform")


@pytest.mark.parametrize("name", MODULES)
def test_root_attribute_is_the_module(name):
    module = getattr(semfourier, name)
    assert isinstance(module, types.ModuleType)
    assert module is sys.modules[f"semfourier.{name}"]


def test_import_as_gives_the_transform_module():
    import semfourier.transform as T

    assert T.contract_waves is importlib.import_module("semfourier.transform").contract_waves


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    module = importlib.import_module(f"semfourier.{name}")
    assert module.__all__ and [n for n in module.__all__ if not hasattr(module, n)] == []


def test_root_exports_only_the_modules_and_version():
    # a fresh interpreter, since importing semfourier.cli adds it to the root
    code = ("import semfourier; "
            "print(' '.join(sorted(n for n in vars(semfourier) if not n.startswith('_'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(MODULES)
    assert isinstance(semfourier.__version__, str)


def test_names_the_benchmark_tracer_patches_exist():
    # perfbench/tracer.py, loaded read-only, wraps these by name; a rename
    # must fail here rather than in a traced benchmark run
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    importlib.import_module("semfourier.cli")
    missing = [(m, a) for m, a, *_ in tracer.TARGETS if not hasattr(sys.modules[m], a)]
    assert missing == []
    cases = sys.modules["semfourier.cases"]
    assert [n for n in tracer.CASE_FACTORIES if not hasattr(cases, n)] == []
    mesh = sys.modules["semfourier.mesh"]
    assert callable(mesh.Mesh.validate)
    # the benchmark reads K from a refined mesh file as its number of rows
    refined = mesh.refine(mesh.uniform_mesh(2, 2, 2), [1])
    assert len(json.loads(mesh.mesh_json(refined))["elements"]) == refined.K == 7


def test_benchmark_workloads_run_and_pass_their_checks(tmp_path):
    # perfbench/workloads.py, loaded read-only: one snapshots_3d job and
    # one in-process cli_pipeline session must pass the benchmark's own
    # checks, so a change that would fail the benchmark fails here first
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    snapshots = workloads.Snapshots3D(1, str(tmp_path), dict(os.environ))
    snapshots.setup()
    snapshots.prepare_checks()
    assert snapshots.check(0, snapshots.job(0)) is None
    session = workloads.CliPipeline(1, str(tmp_path), dict(os.environ))
    session.prepare_checks()
    assert session.check(0, session.traced_job(0)) is None
