"""Command-line front end.

Each subcommand returns the body of its report; ``main`` times the call and
emits ``{"command", "inputs", **body, "timing_seconds"}``, where ``inputs``
holds every option of the subcommand except ``--json``.

Exit codes: 0 = computed (whatever the verdict), 1 = input error, usage
errors included, 2 = internal numerical failure.  ``--json`` switches every
subcommand to a schema-stable machine-readable report.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

import numpy as np

from .bezout import Parametrization, interpolate_det, pencil_from_param, \
    rigid_at_origin, verify_pencil_det
from .circlepsd import CircleVerdict, MatrixPoly, build_sdp, hermite_psd, \
    verify_spectral_factor, write_sdpa
from .cubicrepr import cubic_representations
from .errors import DeterminantMismatchError, RigidConvexError, SingularCubicError
from .hermite import hermite_matrix
from .locate import critical_points, find_interior_point
from .polycore import Pencil, UniPoly, format_scalar, parse_poly, parse_scalar

_STATUS_TO_VERDICT = {
    CircleVerdict.PD: "rigidly-convex",
    CircleVerdict.MARGINAL: "marginal",
    CircleVerdict.NOT_PSD: "not-rigidly-convex",
    CircleVerdict.INCONCLUSIVE: "inconclusive",
}


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, default=str))
        return
    print(f"# {report['command']}")
    for key, val in report.items():
        if key in ("command", "inputs"):
            continue
        if isinstance(val, (dict, list)):
            print(f"{key}: {json.dumps(val, default=str)}")
        else:
            print(f"{key}: {val}")


def _parametrization(args) -> Parametrization:
    """q0, q1, q2 from the comma-separated ascending coefficients of --q0..--q2."""
    qs = [UniPoly([parse_scalar(tok.strip()) for tok in text.split(",")])
          for text in (args.q0, args.q1, args.q2)]
    return Parametrization(*qs)


def _load_pencil(path: str) -> Pencil:
    with open(path) as handle:
        return Pencil.from_json_dict(json.load(handle))


def _hermite_entries(H) -> list:
    return [[str(H.entry(i, j)) for j in range(H.m)] for i in range(H.m)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check_rigid(args) -> dict:
    p = parse_poly(args.poly)
    if p.degree < 1:  # the zero polynomial is refused as a constant is
        raise ValueError("need total degree >= 1")
    body: dict = {}
    p0 = p.coeff((0, 0))
    recentred = p0 == 0
    if recentred:
        # origin sits on the curve: recentre at a critical point with p != 0
        body["origin_on_curve"] = True
        cands = critical_points(p) if p.degree >= 2 else []
        norm = max((abs(v / p.den) for v in p.ints.values()), default=1.0)
        pivot = next((c for c in cands
                      if abs(float(p(*c.x))) > 1e-9 * norm), None)
        if pivot is None:
            body["verdict"] = "inconclusive"
            body["note"] = ("p(0) = 0 and no interior critical point found; "
                            "supply a parametrization (bezout-pencil) instead")
            return body
        shift = [Fraction(v) for v in pivot.x]
        p = p.shifted(*shift)
        body["recentered_at"] = [float(v) for v in shift]

    verdict = hermite_psd(p)
    body["verdict"] = _STATUS_TO_VERDICT[verdict.status]
    if recentred:
        body["min_eigenvalue"] = verdict.min_eig
        body["note"] = ("verdict applies to the component containing the "
                        "recentering point")
    else:
        body["normalization"] = format_scalar(p0)
        body["min_eigenvalue"] = verdict.min_eig
        if verdict.status == CircleVerdict.NOT_PSD:
            body["witness_theta"] = verdict.witness_theta
            body["shortcut"] = verdict.shortcut
    if args.emit_hermite:
        body["hermite"] = _hermite_entries(hermite_matrix(p))
    return body


def cmd_hermite(args) -> dict:
    p = parse_poly(args.poly)
    H = hermite_matrix(p)
    return {
        "m": H.m,
        "half_degree": H.d,
        "normalization": format_scalar(p.coeff((0, 0))),
        "hermite": _hermite_entries(H),
    }


def cmd_bezout_pencil(args) -> dict:
    pencil = pencil_from_param(_parametrization(args))
    verdict = rigid_at_origin(pencil)
    body = {
        "pencil": pencil.to_json_dict(),
        "rigid_at_origin": verdict.status,
        "f0_eigenvalues": list(verdict.eigenvalues),
    }
    if args.poly:
        p = parse_poly(args.poly)
        try:
            c = verify_pencil_det(pencil, p)
            pencil = pencil.with_scale(c)
            body["pencil"] = pencil.to_json_dict()
            body["det_scale"] = format_scalar(c)
        except DeterminantMismatchError as err:
            body["det_scale"] = None
            body["mismatch"] = str(err)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(pencil.dumps() + "\n")
        body["written"] = args.out
    return body


def cmd_find_component(args) -> dict:
    if args.pencil:
        pencil = _load_pencil(args.pencil)
    elif args.q0 and args.q1 and args.q2:
        pencil = pencil_from_param(_parametrization(args))
    else:
        raise ValueError("find-component needs --pencil or --q0/--q1/--q2")
    if args.poly:
        p = parse_poly(args.poly)
        verify_pencil_det(pencil, p)  # mismatch surfaces with context
    elif pencil.is_exact():
        p = interpolate_det(pencil)
    else:
        raise ValueError("find-component needs --poly for pencils with "
                         "floating-point entries")
    result = find_interior_point(pencil, p)
    chosen = result.chosen
    body = {
        "status": result.status,
        "point": list(chosen.x) if chosen else None,
        "degenerate": result.degenerate,
        "certificate": list(chosen.cert) if chosen else None,
        "candidates_examined": len(result.candidates),
    }
    if result.note:
        body["note"] = result.note
    return body


def cmd_cubic_repr(args) -> dict:
    p = parse_poly(args.poly)
    try:
        reps = cubic_representations(p)
    except SingularCubicError as err:
        return {"verdict": "singular-cubic", "note": str(err)}
    return {
        "verdict": "computed",
        "representations": [
            {"t": format_scalar(rep.t_star), "c": format_scalar(rep.c),
             "pencil": rep.pencil.to_json_dict()}
            for rep in reps
        ],
    }


def cmd_export_sdp(args) -> dict:
    p = parse_poly(args.poly)
    H = hermite_matrix(p)
    prob = build_sdp(H)
    write_sdpa(prob, args.out)
    return {
        "written": args.out,
        "block_size": prob.block_size,
        "num_vars": prob.num_vars,
    }


def cmd_verify_factor(args) -> dict:
    p = parse_poly(args.poly)
    H = hermite_matrix(p)
    with open(args.factor) as handle:
        U = MatrixPoly.from_json_dict(json.load(handle))
    report = verify_spectral_factor(H, U, tol=args.tol)
    return {
        "verdict": "pass" if report.passed else "fail",
        "max_residual": report.max_residual,
        "relative_residual": report.relative,
        "tolerance": report.tolerance,
    }


def cmd_verify_det(args) -> dict:
    pencil = _load_pencil(args.pencil)
    p = parse_poly(args.poly)
    try:
        c = verify_pencil_det(pencil, p)
    except DeterminantMismatchError as err:
        return {
            "verdict": "mismatch",
            "monomial": list(err.monomial) if err.monomial else None,
            "got": str(err.got),
            "expected": str(err.expected),
        }
    return {"verdict": "proportional", "c": format_scalar(c)}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so ``main`` reports them with exit 1
    like every other input error; argparse alone would exit 2.  Subparsers
    inherit the class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rigidconvex",
        description="Rigid convexity detection and LMI representations of "
                    "plane curves",
        epilog="Values starting with '-' need the --option=value form, "
               "e.g. --poly=-x1^3+x2^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        return p

    p = add("check-rigid", cmd_check_rigid,
            help="decide rigid convexity of the component around the origin")
    p.add_argument("--poly", required=True, help="polynomial in x1, x2")
    p.add_argument("--emit-hermite", action="store_true")

    p = add("hermite", cmd_hermite, help="print the Hermite matrix H(z)")
    p.add_argument("--poly", required=True)

    p = add("bezout-pencil", cmd_bezout_pencil,
            help="symmetric pencil from a rational parametrization")
    p.add_argument("--q0", required=True, help="ascending coefficients, comma-separated")
    p.add_argument("--q1", required=True)
    p.add_argument("--q2", required=True)
    p.add_argument("--poly", help="implicit equation to verify against")
    p.add_argument("--out", help="write pencil JSON here")

    p = add("find-component", cmd_find_component,
            help="locate a point with F(x) >= 0")
    p.add_argument("--pencil", help="pencil JSON file")
    p.add_argument("--q0")
    p.add_argument("--q1")
    p.add_argument("--q2")
    p.add_argument("--poly")

    p = add("cubic-repr", cmd_cubic_repr,
            help="determinantal representations of a smooth cubic")
    p.add_argument("--poly", required=True)

    p = add("export-sdp", cmd_export_sdp,
            help="write the circle-positivity SDP in SDPA sparse format")
    p.add_argument("--poly", required=True)
    p.add_argument("--out", required=True)

    p = add("verify-factor", cmd_verify_factor, help="check H = U(1/z)^T U(z)")
    p.add_argument("--poly", required=True)
    p.add_argument("--factor", required=True, help="spectral factor JSON")
    p.add_argument("--tol", type=float, default=1e-2)

    p = add("verify-det", cmd_verify_det, help="check det F = c p")
    p.add_argument("--pencil", required=True)
    p.add_argument("--poly", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once: each build leaves ~450 objects in argparse reference cycles,
    # which made a long-lived process's peak RSS creep until a full collection
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        started = time.perf_counter()
        body = args.func(args)
        inputs = {key: val for key, val in vars(args).items()
                  if key not in ("command", "func", "json")}
        _emit({"command": args.command, "inputs": inputs, **body,
               "timing_seconds": round(time.perf_counter() - started, 6)},
              args.json)
        return 0
    except np.linalg.LinAlgError as err:  # before ValueError, which numpy derives it from
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (RigidConvexError, ArithmeticError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
