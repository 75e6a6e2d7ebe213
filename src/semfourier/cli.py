"""Command-line front end.

Subcommands cover rule/bessel table dumps, mesh generation and
indicator-driven refinement, field sampling, the exact transform, the
cubature baseline, analytic cases, convergence sweeps, and decay
profiles. All text output is deterministic: fixed row order, 17
significant digits, LF newlines.
"""

from __future__ import annotations

import argparse
import ast
import json
import operator
import sys
from collections.abc import Callable
from math import pi

import numpy as np

from . import cases as _cases
from .bessel import bessel_column
from .cubature import TrigGrid, cubature_transform
from .gll import gll_rule, legendre_coeffs
from .harness import (
    convergence_surface,
    spectrum_decay_profile,
    write_profile_csv,
    write_surface_csv,
)
from .mesh import (
    load_mesh,
    mesh_json,
    read_field,
    read_field_json,
    refine_by_indicator,
    sample_field,
    save_mesh,
    uniform_mesh,
    write_field,
    write_field_json,
)
from .transform import (
    WaveSet,
    build_plan,
    read_spectrum_csv,
    spectrum_csv_text,
    transform,
    write_spectrum_csv,
)

_CASE_CHOICES = "legendre_<p>, sin, rotser, burgers0, burgers_t"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _make_case(name: str, args) -> _cases.AnalyticCase:
    if name.startswith("legendre_") and name[len("legendre_"):].isdecimal():
        return _cases.case_legendre(int(name[len("legendre_"):]))
    if name == "sin":
        return _cases.case_sin()
    if name == "rotser":
        return _cases.case_rotated_series(
            b=(args.b1, args.b2), l=(args.l1, args.l2), n_trunc=args.n_trunc
        )
    if name == "burgers0":
        return _cases.case_burgers_t0(l=(args.l1, args.l2))
    if name == "burgers_t":
        return _cases.case_burgers_t(
            l=(args.l1, args.l2), t=args.time, viscosity=args.viscosity
        )
    raise ValueError(f"unknown case {name!r}; choices: {_CASE_CHOICES}")


def _add_case_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l1", type=int, default=1, help="direction component 1")
    p.add_argument("--l2", type=int, default=2, help="direction component 2")
    p.add_argument("--b1", type=float, default=-0.4, help="decay rate, axis 1")
    p.add_argument("--b2", type=float, default=-0.4, help="decay rate, axis 2")
    p.add_argument("--n-trunc", type=int, default=96, help="series truncation")
    p.add_argument("--time", type=float, default=None,
                   help="evolution time (default: steepest-front state)")
    p.add_argument("--viscosity", type=float, default=1e-2 / pi)


def _load_field(path: str, mesh):
    if path.endswith(".json"):
        return read_field_json(path, mesh)
    return read_field(path, mesh)


def _write_field_path(field, path: str) -> None:
    if path.endswith(".json"):
        write_field_json(field, path)
    else:
        write_field(field, path)


def _waves_from_args(args, d: int) -> WaveSet:
    if args.qlist is None:
        return WaveSet.box(d, args.qmax)
    qs = []
    with open(args.qlist) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                qs.append(tuple(int(t) for t in line.replace(",", " ").split()))
            except ValueError:
                raise ValueError(f"{args.qlist}, line {lineno}: "
                                 f"not an integer wavevector: {line!r}") from None
    if not qs:
        raise ValueError(f"{args.qlist}: no wavevectors")
    return WaveSet(d, tuple(qs))


def _add_wave_options(p: argparse.ArgumentParser) -> None:
    waves = p.add_mutually_exclusive_group(required=True)
    waves.add_argument("--qmax", type=int, help="all q with |q_t| <= QMAX")
    waves.add_argument("--qlist", help="file of wavevectors, one per line")


# Functions an --expr may call (one argument each), and its constants.
_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "abs": np.abs, "sign": np.sign,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
}
_EXPR_CONSTANTS = {"pi": np.pi, "e": np.e}
_EXPR_BINOPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow, ast.Mod: operator.mod,
}
_EXPR_UNARYOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_EXPR_TOO_DEEP = "--expr is nested too deeply for Python's recursion limit"


def _compile_expr(text: str, variables) -> Callable[[dict], object]:
    """Turn an --expr string into a function of the variable values.

    Only numeric constants, the given variable names, pi and e, the
    operators + - * / ** % (unary + -) and one-argument calls to the
    ``_EXPR_NAMES`` functions are accepted; anything else raises
    ``ValueError`` naming the offending node. Nothing is passed to
    ``eval``: the returned function walks the checked tree. Constants are
    float64, so overflow and division by zero give inf or nan, which
    ``sample_field`` rejects, instead of exceptions or huge integers. An
    expression nested past the recursion limit, as a sum of a thousand
    terms is, raises ``ValueError`` whether parsing, building or
    evaluating it hits the limit.
    """
    def build(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            try:
                value = np.float64(node.value)
            except OverflowError:
                raise ValueError(f"constant out of range in --expr {text!r}") from None
            return lambda env: value
        if isinstance(node, ast.Name):
            if node.id in variables:
                return lambda env: env[node.id]
            if node.id in _EXPR_CONSTANTS:
                value = _EXPR_CONSTANTS[node.id]
                return lambda env: value
            raise ValueError(f"unknown name {node.id!r} in --expr {text!r}")
        if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINOPS:
            op, left, right = _EXPR_BINOPS[type(node.op)], build(node.left), build(node.right)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_UNARYOPS:
            op, operand = _EXPR_UNARYOPS[type(node.op)], build(node.operand)
            return lambda env: op(operand(env))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _EXPR_NAMES):
            if len(node.args) != 1 or node.keywords:
                raise ValueError(f"{node.func.id}() takes one argument in --expr {text!r}")
            fn, arg = _EXPR_NAMES[node.func.id], build(node.args[0])
            return lambda env: fn(arg(env))
        what = type(getattr(node, "op", node)).__name__
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            what = f"call to {node.func.id!r}"
        raise ValueError(f"{what} is not allowed in --expr {text!r}")

    try:
        return build(ast.parse(text.strip(), mode="eval").body)
    except SyntaxError as exc:
        raise ValueError(f"cannot parse --expr {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):  # CPython's parser overflows on x**x**.. as MemoryError
        raise ValueError(_EXPR_TOO_DEEP) from None


def _expr_sampler(exprs: list[str], d: int):
    """Sampler over points (N, d) with one column per expression."""
    variables = {}
    for t, name in enumerate("xyz"[:d]):
        variables[name] = variables[f"x{t + 1}"] = t
    funcs = [_compile_expr(e, variables) for e in exprs]

    def func(X: np.ndarray) -> np.ndarray:
        env = {name: X[:, t] for name, t in variables.items()}
        try:
            return np.column_stack([np.broadcast_to(f(env), (X.shape[0],)) for f in funcs])
        except RecursionError:
            raise ValueError(_EXPR_TOO_DEEP) from None

    return func


# ------------------------------------------------------------- commands --

def _cmd_gll(args) -> None:
    rule = gll_rule(args.degree)
    if args.json:
        table = legendre_coeffs(rule)
        data = {
            "P": rule.degree,
            "nodes": [float(v) for v in rule.nodes],
            "weights": [float(v) for v in rule.weights],
            "coeffs": [[float(v) for v in row] for row in table.coeffs],
        }
        _emit(json.dumps(data, indent=1) + "\n", args.out)
        return
    lines = ["j,xi,w"]
    for j, (x, w) in enumerate(zip(rule.nodes, rule.weights)):
        lines.append(f"{j},{_fmt(x)},{_fmt(w)}")
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_bessel(args) -> None:
    col = bessel_column(args.r, args.pmax)
    lines = ["p,B_p"]
    for p, v in enumerate(col):
        lines.append(f"{p},{_fmt(v)}")
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_mesh_uniform(args) -> None:
    _emit(mesh_json(uniform_mesh(args.d, args.K_per_axis, args.P)), args.out)


def _cmd_mesh_refine(args) -> None:
    mesh = load_mesh(args.mesh_in)
    field = _load_field(args.field, mesh)
    refined, flags, indicators = refine_by_indicator(mesh, field, args.tol)
    save_mesh(refined, args.out)
    sys.stdout.write(
        f"refined {int(np.count_nonzero(flags))} of {mesh.K} elements; "
        f"max indicator {_fmt(float(np.max(indicators)))}\n"
    )


def _cmd_field_sample(args) -> None:
    if args.case and args.expr:
        raise ValueError("give --case or --expr, not both")
    mesh = load_mesh(args.mesh)
    rule = gll_rule(mesh.P)
    if args.case:
        case = _make_case(args.case, args)
        if case.d != mesh.d:
            raise ValueError(f"case dimension {case.d} != mesh dimension {mesh.d}")
        func = case.func
    elif args.expr:
        func = _expr_sampler(args.expr, mesh.d)
    else:
        raise ValueError("need --case or --expr")
    _write_field_path(sample_field(mesh, rule, func), args.out)


def _cmd_transform(args) -> None:
    mesh = load_mesh(args.mesh)
    field = _load_field(args.field, mesh)
    rule = gll_rule(mesh.P)
    plan = build_plan(mesh, rule, legendre_coeffs(rule), _waves_from_args(args, mesh.d))
    spec = transform(field, plan, compensated=args.compensated)
    _emit(spectrum_csv_text(spec), args.out)


def _cmd_cubature(args) -> None:
    mesh = load_mesh(args.mesh)
    field = _load_field(args.field, mesh)
    grid = TrigGrid(mesh.d, args.M)
    spec = cubature_transform(field, grid, _waves_from_args(args, mesh.d))
    write_spectrum_csv(spec, args.out, extra_col=("M", args.M))


def _cmd_case_list(args) -> None:
    sys.stdout.write(
        "legendre_<p>  1D Legendre polynomial of degree p on [-pi, pi]\n"
        "sin           1D sin(x)\n"
        "rotser        2D rotated double cosine series (lattice spectrum)\n"
        "burgers0      2D planar -l sin(l.x) (initial shear state)\n"
        "burgers_t     2D planar viscous front at a chosen time\n"
    )


def _cmd_converge(args) -> None:
    if args.case != "sin" and not args.case.startswith("legendre_"):
        raise ValueError(f"converge takes a 1D case (sin, legendre_<p>), not {args.case!r}")
    if args.Kmax < 1 or args.Pmax < 1:
        raise ValueError(f"--Kmax and --Pmax must be at least 1: {args.Kmax}, {args.Pmax}")
    case = _make_case(args.case, args)
    K_list = []
    K = 1
    while K <= args.Kmax:
        K_list.append(K)
        K *= 2
    P_list = list(range(1, args.Pmax + 1))
    rows = convergence_surface(case, K_list, P_list, qmax=args.qmax)
    write_surface_csv(rows, args.out, case.name, args.qmax)


def _cmd_decay(args) -> None:
    spec = read_spectrum_csv(args.spectrum)
    direction = args.direction
    if direction != "shell-max":
        direction = tuple(int(t) for t in direction.replace(",", " ").split())
    profile = spectrum_decay_profile(spec, direction, component=args.component)
    write_profile_csv(profile, args.out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="semfourier",
        description="Exact Fourier coefficients of spectral-element fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gll", help="dump a Gauss-Lobatto-Legendre rule")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--json", action="store_true",
                   help="emit nodes, weights, and basis coefficients as JSON")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gll)

    p = sub.add_parser("bessel", help="dump a column of B_p values")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bessel)

    p = sub.add_parser("mesh", help="mesh generation and refinement")
    msub = p.add_subparsers(dest="mesh_command", required=True)
    pu = msub.add_parser("uniform", help="uniform K^d mesh")
    pu.add_argument("--d", type=int, required=True)
    pu.add_argument("--K-per-axis", type=int, required=True)
    pu.add_argument("--P", type=int, required=True)
    pu.add_argument("--out")
    pu.set_defaults(func=_cmd_mesh_uniform)
    pr = msub.add_parser("refine", help="refine by top-degree indicator")
    pr.add_argument("--in", dest="mesh_in", required=True)
    pr.add_argument("--tol", type=float, required=True)
    pr.add_argument("--field", required=True)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=_cmd_mesh_refine)

    p = sub.add_parser("field", help="field sampling")
    fsub = p.add_subparsers(dest="field_command", required=True)
    pf = fsub.add_parser("sample", help="sample a case or expression")
    pf.add_argument("--mesh", required=True)
    pf.add_argument("--case", help=f"one of: {_CASE_CHOICES}")
    pf.add_argument("--expr", action="append",
                    help="expression in x, y, z (repeat for components)")
    pf.add_argument("--out", required=True)
    _add_case_params(pf)
    pf.set_defaults(func=_cmd_field_sample)

    p = sub.add_parser("transform", help="exact global Fourier coefficients")
    p.add_argument("--mesh", required=True)
    p.add_argument("--field", required=True)
    _add_wave_options(p)
    p.add_argument("--compensated", action="store_true",
                   help="exactly rounded accumulation instead of plain order")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("cubature", help="equispaced cubature baseline")
    p.add_argument("--mesh", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--M", type=int, required=True)
    _add_wave_options(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cubature)

    p = sub.add_parser("case", help="analytic reference fields")
    csub = p.add_subparsers(dest="case_command", required=True)
    cl = csub.add_parser("list", help="list available cases")
    cl.set_defaults(func=_cmd_case_list)
    cs = csub.add_parser("sample", help="sample a case onto a mesh")
    cs.add_argument("--name", dest="case", required=True)
    cs.add_argument("--mesh", required=True)
    cs.add_argument("--out", required=True)
    _add_case_params(cs)
    cs.set_defaults(func=_cmd_field_sample, expr=None)

    p = sub.add_parser("converge", help="(K, P) convergence surface for a 1D case")
    p.add_argument("--case", default="sin")
    p.add_argument("--Kmax", type=int, default=64)
    p.add_argument("--Pmax", type=int, default=10)
    p.add_argument("--qmax", type=int, default=16)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("decay", help="decay profile of a spectrum CSV")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--direction", required=True,
                   help="integer vector like '1,2' or 'shell-max'")
    p.add_argument("--component", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decay)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
