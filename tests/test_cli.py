"""Command-line interface: schemas, library agreement, determinism."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import semfourier
from semfourier.cases import case_sin
from semfourier.cli import _expr_sampler, main
from semfourier.gll import gll_rule, legendre_coeffs
from semfourier.mesh import (
    NodalField,
    load_mesh,
    mesh_to_dict,
    read_field,
    sample_field,
    save_mesh,
    uniform_mesh,
    write_field,
    write_field_json,
)
from semfourier.transform import (
    WaveSet,
    build_plan,
    read_spectrum_csv,
    transform,
    write_spectrum_csv,
)


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "semfourier", *map(str, args)],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}")
    return proc


def test_gll_csv_matches_library():
    out = run_cli("gll", "--degree", 4).stdout.splitlines()
    assert out[0] == "j,xi,w"
    rule = gll_rule(4)
    rows = [line.split(",") for line in out[1:]]
    assert [int(r[0]) for r in rows] == list(range(5))
    np.testing.assert_array_equal([float(r[1]) for r in rows], rule.nodes)
    np.testing.assert_array_equal([float(r[2]) for r in rows], rule.weights)


def test_gll_json_includes_coefficients():
    data = json.loads(run_cli("gll", "--degree", 3, "--json").stdout)
    table = legendre_coeffs(gll_rule(3))
    assert data["P"] == 3
    np.testing.assert_array_equal(data["coeffs"], table.coeffs)


def test_bessel_csv():
    out = run_cli("bessel", "--r", 2.5, "--pmax", 3).stdout.splitlines()
    assert out[0] == "p,B_p"
    vals = [float(line.split(",")[1]) for line in out[1:]]
    assert vals[0] == pytest.approx(math.sin(2.5) / 2.5, rel=1e-15)


def test_mesh_uniform_and_field_sample(tmp_path):
    mesh_path = tmp_path / "mesh.json"
    field_path = tmp_path / "field.bin"
    run_cli("mesh", "uniform", "--d", 1, "--K-per-axis", 4, "--P", 5,
            "--out", mesh_path)
    mesh = load_mesh(mesh_path)
    assert mesh == uniform_mesh(1, 4, 5)
    run_cli("field", "sample", "--mesh", mesh_path, "--case", "sin",
            "--out", field_path)
    field = read_field(field_path, mesh)
    ref = sample_field(mesh, gll_rule(5), case_sin().func)
    np.testing.assert_array_equal(field.values, ref.values)


def test_transform_cli_matches_library(tmp_path):
    mesh_path = tmp_path / "mesh.json"
    field_path = tmp_path / "field.bin"
    spec_path = tmp_path / "spec.csv"
    run_cli("mesh", "uniform", "--d", 1, "--K-per-axis", 4, "--P", 6,
            "--out", mesh_path)
    run_cli("field", "sample", "--mesh", mesh_path, "--case", "sin",
            "--out", field_path)
    run_cli("transform", "--mesh", mesh_path, "--field", field_path,
            "--qmax", 4, "--out", spec_path)
    got = read_spectrum_csv(spec_path)
    mesh = load_mesh(mesh_path)
    rule = gll_rule(6)
    field = sample_field(mesh, rule, case_sin().func)
    ref = transform(field, build_plan(mesh, rule, legendre_coeffs(rule),
                                      WaveSet.box(1, 4)))
    assert got.waves == ref.waves
    np.testing.assert_array_equal(got.values, ref.values)


def test_transform_reruns_are_byte_identical(tmp_path):
    mesh_path = tmp_path / "mesh.json"
    field_path = tmp_path / "field.bin"
    run_cli("mesh", "uniform", "--d", 2, "--K-per-axis", 2, "--P", 3,
            "--out", mesh_path)
    run_cli("field", "sample", "--mesh", mesh_path, "--case", "burgers0",
            "--out", field_path)
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        run_cli("transform", "--mesh", mesh_path, "--field", field_path,
                "--qmax", 3, "--out", path)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_qlist_file_selects_waves(tmp_path):
    mesh_path = tmp_path / "mesh.json"
    field_path = tmp_path / "field.bin"
    qlist = tmp_path / "qs.txt"
    spec_path = tmp_path / "spec.csv"
    run_cli("mesh", "uniform", "--d", 2, "--K-per-axis", 2, "--P", 2,
            "--out", mesh_path)
    run_cli("field", "sample", "--mesh", mesh_path, "--expr", "sin(x)*cos(y)",
            "--out", field_path)
    qlist.write_text("# waves\n1, 1\n-2 0\n")
    run_cli("transform", "--mesh", mesh_path, "--field", field_path,
            "--qlist", qlist, "--out", spec_path)
    got = read_spectrum_csv(spec_path)
    assert set(got.waves.qs) == {(1, 1), (-2, 0)}


@pytest.mark.parametrize("command", [["transform"], ["cubature", "--M", "8"]],
                         ids=["transform", "cubature"])
@pytest.mark.parametrize("waves,message", [
    (["--qmax", "2", "--qlist", "qs.txt"], "not allowed with argument"),
    ([], "one of the arguments --qmax --qlist is required"),
], ids=["both", "neither"])
def test_qmax_and_qlist_exclude_each_other(tmp_path, capsys, command, waves, message):
    argv = command + ["--mesh", "m.json", "--field", "f.bin", "--out",
                      str(tmp_path / "out.csv")] + waves
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2 and message in capsys.readouterr().err


def test_malformed_qlist_names_file_and_line(tmp_path, capsys):
    mesh = uniform_mesh(2, 2, 2)
    mesh_path, field_path = str(tmp_path / "mesh.json"), str(tmp_path / "field.bin")
    save_mesh(mesh, mesh_path)
    write_field(sample_field(mesh, gll_rule(2), lambda X: X[:, 0]), field_path)
    qlist, out = tmp_path / "qs.txt", str(tmp_path / "spec.csv")
    qlist.write_text("# waves\n1 1\n1 2.5\n")
    for command in (["transform"], ["cubature", "--M", "8"]):
        code = main(command + ["--mesh", mesh_path, "--field", field_path,
                               "--qlist", str(qlist), "--out", out])
        err = capsys.readouterr().err
        assert code == 1 and f"{qlist}, line 3:" in err and "'1 2.5'" in err
    # decay refuses a header-only CSV
    with open(out, "w") as fh:
        fh.write("q1,q2,component,re,im,abs\n")
    assert main(["decay", "--spectrum", out, "--direction", "1,0",
                 "--out", str(tmp_path / "profile.csv")]) == 1
    assert f"{out}: no spectrum rows" in capsys.readouterr().err


def test_cubature_csv_carries_grid_size(tmp_path):
    mesh_path = tmp_path / "mesh.json"
    field_path = tmp_path / "field.bin"
    out_path = tmp_path / "cub.csv"
    run_cli("mesh", "uniform", "--d", 1, "--K-per-axis", 2, "--P", 3,
            "--out", mesh_path)
    run_cli("field", "sample", "--mesh", mesh_path, "--case", "sin",
            "--out", field_path)
    run_cli("cubature", "--mesh", mesh_path, "--field", field_path,
            "--M", 32, "--qmax", 2, "--out", out_path)
    lines = out_path.read_text().splitlines()
    assert lines[0] == "q1,component,re,im,abs,M"
    assert all(line.endswith(",32") for line in lines[1:])


def test_mesh_refine_cli(tmp_path):
    mesh_path = tmp_path / "mesh.json"
    field_path = tmp_path / "field.bin"
    refined_path = tmp_path / "refined.json"
    run_cli("mesh", "uniform", "--d", 1, "--K-per-axis", 2, "--P", 4,
            "--out", mesh_path)
    run_cli("field", "sample", "--mesh", mesh_path, "--expr", "exp(sin(3*x))",
            "--out", field_path)
    proc = run_cli("mesh", "refine", "--in", mesh_path, "--tol", "1e-6",
                   "--field", field_path, "--out", refined_path)
    assert "refined" in proc.stdout
    refined = load_mesh(refined_path)
    assert refined.K > 2


def test_case_list_and_sample(tmp_path):
    listing = run_cli("case", "list").stdout
    for name in ("legendre_<p>", "sin", "rotser", "burgers0", "burgers_t"):
        assert name in listing
    mesh_path = tmp_path / "mesh.json"
    field_path = tmp_path / "field.json"
    run_cli("mesh", "uniform", "--d", 2, "--K-per-axis", 2, "--P", 2,
            "--out", mesh_path)
    run_cli("case", "sample", "--name", "rotser", "--mesh", mesh_path,
            "--out", field_path, "--b1", "-0.5", "--b2", "-0.5")
    data = json.loads(field_path.read_text())
    assert data["K"] == 4 and data["components"] == 1


@pytest.mark.parametrize("command,name_flag", [
    (("case", "sample"), "--name"), (("field", "sample"), "--case")])
def test_sample_rejects_case_of_other_dimension(tmp_path, command, name_flag):
    mesh_path = tmp_path / "mesh.json"
    save_mesh(uniform_mesh(1, 2, 2), mesh_path)
    proc = run_cli(*command, name_flag, "rotser", "--mesh", mesh_path,
                   "--out", tmp_path / "x.bin", check=False)
    assert proc.returncode == 1
    assert proc.stderr == "error: case dimension 2 != mesh dimension 1\n"
    assert not (tmp_path / "x.bin").exists()


def test_negative_series_truncation_exits_1(tmp_path):
    mesh_path = tmp_path / "mesh.json"
    save_mesh(uniform_mesh(2, 2, 2), mesh_path)
    proc = run_cli("field", "sample", "--mesh", mesh_path, "--case", "rotser",
                   "--n-trunc", "-1", "--out", tmp_path / "x.bin", check=False)
    assert proc.returncode == 1
    assert proc.stderr == "error: series truncation must be nonnegative: -1\n"
    assert not (tmp_path / "x.bin").exists()


def _field_json(edit):
    def write(tmp_path):
        data = json.loads((tmp_path / "field.json").read_text())
        (tmp_path / "field.json").write_text(json.dumps(edit(data)))
        return ["transform", "--mesh", tmp_path / "mesh.json",
                "--field", tmp_path / "field.json", "--qmax", 2]
    return write


def _truncated_spectrum(tmp_path):
    lines = (tmp_path / "spec.csv").read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    (tmp_path / "spec.csv").write_text("\n".join(lines) + "\n")
    return ["decay", "--spectrum", tmp_path / "spec.csv", "--direction", "1",
            "--out", tmp_path / "profile.csv"]


def _spectrum_header(column):
    def write(tmp_path):
        lines = (tmp_path / "spec.csv").read_text().splitlines()
        lines[0] = lines[0].replace(column, "x")
        (tmp_path / "spec.csv").write_text("\n".join(lines) + "\n")
        return ["decay", "--spectrum", tmp_path / "spec.csv", "--direction", "1",
                "--out", tmp_path / "profile.csv"]
    return write


def _empty_field_bin(tmp_path):
    # header 'SEMF', d=1, P=3, K=4, C=0, 12 reserved bytes, and no values
    header = b"SEMF" + np.array([1, 3, 4, 0], "<i4").tobytes() + bytes(12)
    (tmp_path / "field.bin").write_bytes(header)
    return ["mesh", "refine", "--in", tmp_path / "mesh.json", "--tol", 0.1,
            "--field", tmp_path / "field.bin", "--out", tmp_path / "x.bin"]


def _qlist(text):
    def write(tmp_path):
        (tmp_path / "qs.txt").write_text(text)
        return ["transform", "--mesh", tmp_path / "mesh.json", "--field",
                tmp_path / "field.json", "--qlist", tmp_path / "qs.txt",
                "--out", tmp_path / "profile.csv"]
    return write


def _converge(*sizes):
    return lambda tmp_path: ["converge", "--case", "sin", *sizes,
                             "--out", tmp_path / "profile.csv"]


def _decay_component(c):
    return lambda tmp_path: ["decay", "--spectrum", tmp_path / "spec.csv",
                             "--direction", "shell-max", "--component", c,
                             "--out", tmp_path / "profile.csv"]


@pytest.mark.parametrize("argv,message", [
    (_decay_component(5), "component 5 out of range 0..0"),
    (_decay_component(-1), "component -1 out of range 0..0"),
    (_truncated_spectrum, "spec.csv, line 3: 4 fields, expected 5"),
    (_field_json(lambda data: [data]), "field file is not a JSON object"),
    (_field_json(lambda data: {k: v for k, v in data.items() if k != "P"}),
     "field 'P' is missing or not an integer: None"),
    (_field_json(lambda data: dict(data, K=True)), "field 'K' is missing or not an integer: True"),
    (_field_json(lambda data: dict(data, components=1.5)),
     "field 'components' is missing or not an integer: 1.5"),
    (lambda tmp_path: ["case", "sample", "--name", "legendre_x", "--mesh",
                       tmp_path / "mesh.json", "--out", tmp_path / "x.bin"],
     "unknown case 'legendre_x'"),
    (lambda tmp_path: ["field", "sample", "--mesh", tmp_path / "mesh.json",
                       "--out", tmp_path / "x.bin"],
     "need --case or --expr"),
    (_qlist("# past int64\n99999999999999999999\n"),
     "wavevector (99999999999999999999,) has a component outside int64"),
    (_qlist(""), "qs.txt: no wavevectors"),
    (_qlist("# only comments\n\n   \n"), "qs.txt: no wavevectors"),
    (_converge("--Kmax", "0"), "--Kmax and --Pmax must be at least 1: 0, 10"),
    (_converge("--Pmax", "-1"), "--Kmax and --Pmax must be at least 1: 64, -1"),
    (_field_json(lambda data: dict(data, components=0, values=[])),
     "values shape (4, 4, 0) is not (4, 4) + (C,), C >= 1"),
    (_empty_field_bin, "values shape (4, 4, 0) is not (4, 4) + (C,), C >= 1"),
    (_spectrum_header("component"), "spec.csv: header lacks the 'component' column"),
    (_spectrum_header("im"), "spec.csv: header lacks the 'im' column"),
], ids=["component-5", "component-minus-1", "short-csv-row", "json-list", "json-no-P",
        "json-bool-K", "json-float-components", "legendre_x", "sample-no-source",
        "qlist-past-int64", "qlist-empty", "qlist-comments-only", "converge-Kmax-0",
        "converge-Pmax-negative", "json-zero-components", "bin-zero-components",
        "csv-no-component-column", "csv-no-im-column"])
def test_bad_inputs_exit_1_with_one_error_line(tmp_path, argv, message):
    mesh = uniform_mesh(1, 4, 3)
    save_mesh(mesh, tmp_path / "mesh.json")
    rule = gll_rule(3)
    field = sample_field(mesh, rule, case_sin().func)
    write_field_json(field, tmp_path / "field.json")
    write_spectrum_csv(transform(field, build_plan(mesh, rule, legendre_coeffs(rule),
                                                   WaveSet.box(1, 4))), tmp_path / "spec.csv")
    proc = run_cli(*argv(tmp_path), check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "profile.csv").exists() and not (tmp_path / "x.bin").exists()


@pytest.mark.parametrize("name", ["field.bin", "field.json"])
def test_transform_of_non_finite_field_file_exits_1(tmp_path, name):
    mesh = uniform_mesh(1, 2, 2)
    save_mesh(mesh, tmp_path / "mesh.json")
    field, path = NodalField(mesh, np.ones((2, 3, 1))), tmp_path / name
    if name.endswith(".bin"):
        write_field(field, path)
        raw = path.read_bytes()  # the first nodal value follows the 32-byte header
        path.write_bytes(raw[:32] + np.array(np.inf, "<f8").tobytes() + raw[40:])
    else:
        write_field_json(field, path)
        path.write_text(path.read_text().replace('"values": [1.0', '"values": [null', 1))
    proc = run_cli("transform", "--mesh", tmp_path / "mesh.json", "--field", tmp_path / name,
                   "--qmax", 2, "--out", tmp_path / "spec.csv", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "non-finite" in proc.stderr and not (tmp_path / "spec.csv").exists()


def test_converge_takes_no_case_options(tmp_path):
    out = tmp_path / "surface.csv"
    proc = run_cli("converge", "--case", "sin", "--l1", 3, "--out", out, check=False)
    assert proc.returncode == 2 and "--l1" in proc.stderr
    proc = run_cli("converge", "--case", "rotser", "--out", out, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert not out.exists()


def test_converge_and_decay_round_trip(tmp_path):
    surface = tmp_path / "surface.csv"
    run_cli("converge", "--case", "sin", "--Kmax", 2, "--Pmax", 3,
            "--qmax", 4, "--out", surface)
    lines = surface.read_text().splitlines()
    assert lines[0] == "# case=sin,qmax=4"
    assert len(lines) == 2 + 2 * 3

    mesh_path = tmp_path / "mesh.json"
    field_path = tmp_path / "field.bin"
    spec_path = tmp_path / "spec.csv"
    profile = tmp_path / "profile.csv"
    run_cli("mesh", "uniform", "--d", 1, "--K-per-axis", 4, "--P", 6,
            "--out", mesh_path)
    run_cli("field", "sample", "--mesh", mesh_path, "--case", "sin",
            "--out", field_path)
    run_cli("transform", "--mesh", mesh_path, "--field", field_path,
            "--qmax", 8, "--out", spec_path)
    run_cli("decay", "--spectrum", spec_path, "--direction", "shell-max",
            "--out", profile)
    lines = profile.read_text().splitlines()
    assert lines[0] == "qnorm,abs"
    assert lines[-1].startswith("# slope=")


def test_cli_error_paths(tmp_path):
    proc = run_cli("field", "sample", "--mesh", "missing.json",
                   "--case", "sin", "--out", tmp_path / "x.bin", check=False)
    assert proc.returncode != 0
    mesh_path = tmp_path / "mesh.json"
    run_cli("mesh", "uniform", "--d", 1, "--K-per-axis", 2, "--P", 2,
            "--out", mesh_path)
    proc = run_cli("field", "sample", "--mesh", mesh_path, "--case", "nope",
                   "--out", tmp_path / "x.bin", check=False)
    assert proc.returncode != 0 and "unknown case" in proc.stderr
    proc = run_cli("transform", "--mesh", mesh_path,
                   "--field", tmp_path / "x.bin", check=False)
    assert proc.returncode != 0


@pytest.mark.parametrize("expr,node", [
    ("().__class__", "Attribute"),
    ("__import__('os')", "call to '__import__'"),
    ("(lambda: x)()", "Call"),
    ("lambda: 1", "Lambda"),
    ("[x for t in y]", "ListComp"),
    ("x.real", "Attribute"),
    ("sin.__self__", "Attribute"),
    ("open", "unknown name 'open'"),
    ("z", "unknown name 'z'"),
    ("x // 2", "FloorDiv"),
    ("sin(x, y)", "takes one argument"),
])
def test_expr_rejects_everything_outside_the_whitelist(expr, node):
    with pytest.raises(ValueError, match=re.escape(node)):
        _expr_sampler([expr], 2)


def test_expr_evaluates_like_numpy():
    X = np.random.default_rng(2).uniform(-math.pi, math.pi, (50, 3))
    func = _expr_sampler(["sin(x + 2*y) * exp(-z**2 % 3) - +x1/pi + sqrt(abs(x3)) - e", "2"], 3)
    x, y, z = X.T
    expect = np.sin(x + 2 * y) * np.exp(-z ** 2 % 3) - +x / np.pi + np.sqrt(np.abs(z)) - np.e
    np.testing.assert_allclose(func(X)[:, 0], expect, rtol=1e-15, atol=1e-15)
    np.testing.assert_array_equal(func(X)[:, 1], 2.0)


def test_cli_unsafe_expr_exits_1(tmp_path):
    mesh_path = tmp_path / "mesh.json"
    save_mesh(uniform_mesh(1, 2, 2), mesh_path)
    proc = run_cli("field", "sample", "--mesh", mesh_path, "--expr", "().__class__",
                   "--out", tmp_path / "x.bin", check=False)
    assert proc.returncode == 1
    assert "Attribute is not allowed" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "x.bin").exists()


def test_import_and_transform_leave_scipy_unloaded(tmp_path):
    # scipy is a test dependency only; a fresh process from another
    # directory must neither import it with the package nor during a run
    src = os.path.dirname(os.path.dirname(os.path.abspath(semfourier.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        proc = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    code = "import sys, semfourier; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert run("-c", code).stdout.strip() == "[]"
    mesh = uniform_mesh(2, 2, 3)
    save_mesh(mesh, tmp_path / "mesh.json")
    write_field(sample_field(mesh, gll_rule(3), lambda X: np.sin(X[:, 0])), tmp_path / "field.bin")
    proc = run("-X", "importtime", "-m", "semfourier", "transform", "--mesh", "mesh.json",
               "--field", "field.bin", "--qmax", "2", "--out", "spec.csv")
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "semfourier.transform" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]
    assert (tmp_path / "spec.csv").read_text().startswith("q1,q2,")


@pytest.mark.parametrize("argv", [
    ["transform", "--mesh", "mesh.json", "--field", "field.bin", "--qmax", "2",
     "--out", "spec.csv"],
    ["cubature", "--mesh", "mesh.json", "--field", "field.bin", "--M", "8", "--qmax", "2",
     "--out", "cub.csv"],
    ["converge", "--case", "sin", "--Kmax", "4", "--Pmax", "3", "--qmax", "2",
     "--out", "surface.csv"],
], ids=["transform", "cubature", "converge"])
def test_commands_leave_numpy_ma_unloaded(tmp_path, argv):
    # np.unique without return_index/_inverse/_counts imports numpy.ma
    # (about 14 ms per process in numpy 2.4); no command needs it
    src = os.path.dirname(os.path.dirname(os.path.abspath(semfourier.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    mesh = uniform_mesh(2, 2, 3)
    save_mesh(mesh, tmp_path / "mesh.json")
    write_field(sample_field(mesh, gll_rule(3), lambda X: np.sin(X[:, 0])), tmp_path / "field.bin")
    code = ("import sys; from semfourier.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def _drop(key):
    return lambda data: data.pop(key)


def _set_first_element(key, value):
    return lambda data: data["elements"][0].update({key: value})


def _float_only(data):
    for entry in data["elements"]:
        del entry["a_over_pi"], entry["h_over_pi"]


@pytest.mark.parametrize("edit,message", [
    (_drop("elements"), "lacks a nonempty 'elements' list"),
    (_drop("d"), "mesh 'd' is missing or not an integer: None"),
    (_drop("P"), "mesh 'P' is missing or not an integer: None"),
    (lambda data: data.update(P=2.7), "mesh 'P' is missing or not an integer: 2.7"),
    (_set_first_element("a_over_pi", [[1, 0]]), "zero denominator"),
    (_set_first_element("a_over_pi", [[0.5, 2]]), "'a_over_pi' tags do not form a 2 x 1 x 2"),
    (lambda data: (_float_only(data), data["elements"][1].update(a=[math.nan])),
     "element geometry is not finite"),
    (_set_first_element("a_over_pi", [[10 ** 400, 1]]), "element geometry is not finite"),
    (lambda data: (_float_only(data), data["elements"][0].pop("h")), "maps 'h' do not form"),
], ids=["no-elements", "no-d", "no-P", "fractional-P", "zero-denominator",
        "float-tag", "nan", "huge-tag", "no-h"])
def test_malformed_mesh_file_exits_1(tmp_path, capsys, edit, message):
    data = mesh_to_dict(uniform_mesh(1, 2, 2))
    edit(data)
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(data))
    code = main(["field", "sample", "--mesh", str(path), "--case", "sin",
                 "--out", str(tmp_path / "x.bin")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "x.bin").exists()
