import gc
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rigidconvex
from fixture_data import load_fixture
from rigidconvex import PolyParseError, SingularCubicError, UniPoly, cubic_representations, \
    parse_poly
from rigidconvex.errors import DimensionMismatchError, OriginOnCurveError, RigidConvexError
from rigidconvex.bezout import Parametrization, interpolate_det, pencil_from_param
from rigidconvex.cli import main
from rigidconvex.polycore import parse_scalar

CAPRICORN = "x1^2*(x1^2+x2^2)-2*(x1^2+x2^2-x2)^2"
Q0 = "45,-8,10,0,1"
Q1 = "-7,44,-18,-4,1"
Q2 = "49,-28,-10,4,1"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# check-rigid
# ---------------------------------------------------------------------------

def test_check_rigid_cubic(capsys):
    code, rep, _ = run_json(capsys, "check-rigid", "--poly",
                            "1-x1-4*x1^2-x2^2+4*x1^3")
    assert code == 0
    assert rep["verdict"] == "rigidly-convex"


def test_check_rigid_tv(capsys):
    code, rep, _ = run_json(capsys, "check-rigid", "--poly", "1-x1^4-x2^4")
    assert code == 0
    assert rep["verdict"] == "not-rigidly-convex"
    assert rep["shortcut"] is True


def test_check_rigid_disc(capsys):
    code, rep, _ = run_json(capsys, "check-rigid", "--poly", "1-x1^2-x2^2")
    assert code == 0
    assert rep["verdict"] == "rigidly-convex"


def test_check_rigid_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "check-rigid", "--poly", "1-+x1")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("poly", ["0", "x1-x1", "5", "2*x2^0"])
def test_check_rigid_refuses_the_zero_polynomial_as_a_constant(capsys, poly):
    # p = 0 is refused like a nonzero constant, with the same message
    code, out, err = run(capsys, "check-rigid", f"--poly={poly}", "--json")
    assert (code, out, err) == (1, "", "error: need total degree >= 1\n")


def test_check_rigid_degree_bound_fails_fast(capsys):
    import time

    started = time.perf_counter()
    code, out, err = run(capsys, "check-rigid", "--poly", "(1+x1+x2)^5000")
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "MAX_DEGREE" in err


@pytest.mark.parametrize("poly", ["1-x1^2-x2^2+x1^3*2^100000", "1+x1*2^10000000"])
def test_check_rigid_coeff_bound(capsys, poly):
    # the first reached the float stage and exited 2, the second expanded a
    # 10^7-bit constant
    code, out, err = run(capsys, "check-rigid", "--poly", poly)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "MAX_COEFF_BITS" in err


@pytest.mark.parametrize("poly", ["1-x1^2-x3^2", "x1-x3^2"])
def test_check_rigid_refuses_three_variables(capsys, poly):
    # p(0) is read as the coefficient of x1^0 x2^0, which a trivariate p lacks;
    # the arity error must come before the origin test, as evaluation gave it
    code, out, err = run(capsys, "check-rigid", "--poly", poly)
    assert (code, out) == (1, "")
    assert err == "error: expected 3 coordinates, got 2\n"


def test_check_rigid_origin_on_curve_recenters(capsys):
    code, rep, _ = run_json(capsys, "check-rigid", "--poly", CAPRICORN)
    assert code == 0
    assert rep["origin_on_curve"] is True
    assert "recentered_at" in rep
    assert rep["verdict"] in ("rigidly-convex", "marginal")


def test_check_rigid_bean_not_rigid(capsys):
    code, rep, _ = run_json(capsys, "check-rigid", "--poly",
                            "x1^4+x1^2*x2^2+x2^4-x1^3+x1*x2^2")
    assert code == 0
    assert rep["origin_on_curve"] is True
    assert rep["verdict"] == "not-rigidly-convex"


def test_check_rigid_recentres_on_an_exact_x2_root(capsys):
    # the gradient eliminant has the exact root x2 = 1, which numpy.roots put
    # at 0.999993, so no critical point passed the residual test
    poly = ("28*x2^1-40*x2^2+30*x2^3-12*x2^4+2*x2^5-3*x1^1+7*x1^1*x2^1-5*x1^1*x2^2"
            "+1*x1^1*x2^3-1*x1^2+2*x1^2*x2^1-3*x1^2*x2^2+1*x1^2*x2^3-3*x1^3"
            "+5*x1^3*x2^1-2*x1^3*x2^2+3*x1^4-1*x1^4*x2^1-2*x1^5")
    code, rep, _ = run_json(capsys, "check-rigid", "--poly", poly)
    assert code == 0 and rep["origin_on_curve"] is True
    assert rep["verdict"] == "not-rigidly-convex"
    assert len(rep["recentered_at"]) == 2


def test_check_rigid_recentres_on_a_rational_critical_point(capsys):
    # the critical point is (0, -5/3); x1 read at the midpoint of x2's
    # interval around -5/3, not at -5/3 itself, came out as -3.47e-17
    code, rep, _ = run_json(capsys, "check-rigid",
                            "--poly=-x1^3-2*x1^2*x2-x2^3-4*x1^2-4*x2^2-5*x2")
    assert code == 0 and rep["origin_on_curve"] is True
    assert rep["recentered_at"] == [0.0, -5 / 3]


@pytest.mark.parametrize("poly", ["x1", "x1^2-x2^2"])
def test_check_rigid_on_curve_without_critical_point_is_inconclusive(capsys, poly):
    # x1 has no critical point, x1^2 - x2^2 only the origin, where p = 0
    code, rep, _ = run_json(capsys, "check-rigid", f"--poly={poly}")
    assert code == 0 and rep["origin_on_curve"] is True
    assert rep["verdict"] == "inconclusive" and "recentered_at" not in rep
    assert rep["note"] == ("p(0) = 0 and no interior critical point found; "
                           "supply a parametrization (bezout-pencil) instead")


def test_check_rigid_emit_hermite(capsys):
    code, rep, _ = run_json(capsys, "check-rigid", "--poly", "1-x1^2-x2^2",
                            "--emit-hermite")
    assert code == 0
    assert rep["hermite"] == [["2", "0"], ["0", "8"]]


def test_check_rigid_builds_no_trig_matrix(capsys, monkeypatch):
    # check-rigid reads H's integer image off p's power sums over Z[T]: no
    # TrigMatrix on any verdict's path, recentred or not; --emit-hermite
    # builds H for its block, which is the hermite subcommand's
    from rigidconvex.polycore import TrigMatrix

    built = []
    init = TrigMatrix.__init__
    monkeypatch.setattr(TrigMatrix, "__init__", lambda H, rows: built.append(H) or init(H, rows))
    verdicts = set()
    for poly in (CUBIC, "1-x1^4-x2^4", "(1-x1^2-2*x2^2)*(1-2*x1^2-x2^2)",
                 "1-x1^2-2*x2^2+1/2*x2-x1*x2^2", "(1-x1^2-x2^2)^2",
                 "1-17*x2^2+6*x2^3+36*x2^4+10*x1*x2-20*x1^2-6*x1^3+45*x1^4",
                 "x1*(1-x1^2-x2^2)+x2^2*(x1-1/3)^2*x1^2"):
        code, rep, _ = run_json(capsys, "check-rigid", "--poly", poly)
        assert code == 0 and built == [], poly
        verdicts.add(rep["verdict"])
    assert verdicts == {"rigidly-convex", "marginal", "not-rigidly-convex", "inconclusive"}
    for poly in (CUBIC, "1-x1^2-2*x2^2+1/2*x2-x1*x2^2"):
        built.clear()
        code, rep, _ = run_json(capsys, "check-rigid", "--poly", poly, "--emit-hermite")
        assert code == 0 and len(built) == 1
        assert rep["hermite"] == run_json(capsys, "hermite", "--poly", poly)[1]["hermite"]


def test_check_rigid_big_constant_term(capsys):
    # p0 = 2^100 + 1 and p even in x2 of degree 8: S_k carries p0^(k-1), so
    # S_14 has about 1,400 bits, beyond a float; the scan's coefficients are
    # the exact quotients 2^k S_(k,b) / p0^k, each rounded once
    p = "1267650600228229401496703205377*(1-x1^2-2*x2^2)*(1-2*x1^2-x2^2)*(1-x1^2-3*x2^2)*(1-3*x1^2-x2^2)"
    poly = parse_poly(p)
    assert poly.degree == 8 and poly.coeff((0, 0)) == 2**100 + 1
    verdict = rigidconvex.psd_on_circle(rigidconvex.hermite_matrix(poly))
    code, rep, _ = run_json(capsys, "check-rigid", "--poly", p)
    assert code == 0
    assert rep["verdict"] == {"PositiveDefinite": "rigidly-convex",
                              "PositiveSemidefiniteMarginal": "marginal"}[verdict.status]
    assert np.isfinite(rep["min_eigenvalue"])


def test_check_rigid_human_output_matches_json_verdict(capsys):
    code, out, _ = run(capsys, "check-rigid", "--poly", "1-x1^4-x2^4")
    assert code == 0
    assert "not-rigidly-convex" in out


@pytest.mark.parametrize("poly", [
    "1-x1-4*x1^2-x2^2+4*x1^3", "1-x1^4-x2^4", "1-x1^2-x2^2",
])
def test_json_and_human_verdicts_identical(capsys, poly):
    _, rep, _ = run_json(capsys, "check-rigid", "--poly", poly)
    _, out, _ = run(capsys, "check-rigid", "--poly", poly)
    human = next(line.split(": ", 1)[1] for line in out.splitlines()
                 if line.startswith("verdict:"))
    assert human == rep["verdict"]


# ---------------------------------------------------------------------------
# hermite / export-sdp / verify-factor
# ---------------------------------------------------------------------------

def test_hermite_emits_entries(capsys):
    code, rep, _ = run_json(capsys, "hermite", "--poly",
                            "1-x1-4*x1^2-x2^2+4*x1^3")
    assert code == 0
    assert rep["m"] == 3
    assert rep["hermite"][0][0] == "3"


def test_export_sdp(tmp_path, capsys):
    out = tmp_path / "cubic.dat-s"
    code, rep, _ = run_json(capsys, "export-sdp", "--poly",
                            "1-x1-4*x1^2-x2^2+4*x1^3", "--out", str(out))
    assert code == 0
    assert rep["block_size"] == 15
    assert rep["num_vars"] == 78
    assert out.exists()
    assert out.read_text().splitlines()[0] == "78"


def test_verify_factor(tmp_path, capsys):
    data = load_fixture("cubic-curve")
    factor = {"m": 3, "degree": 4,
              "U": [[[str(x) for x in row] for row in mat]
                    for mat in data["expect"]["spectral_factor"]["U"]]}
    path = tmp_path / "U.json"
    path.write_text(json.dumps(factor))
    code, rep, _ = run_json(capsys, "verify-factor", "--poly",
                            "1-x1-4*x1^2-x2^2+4*x1^3", "--factor", str(path))
    assert code == 0
    assert rep["verdict"] == "pass"
    assert rep["relative_residual"] <= 1e-2


# ---------------------------------------------------------------------------
# bezout-pencil / find-component / verify-det round trip
# ---------------------------------------------------------------------------

def test_bezout_pencil_capricorn(tmp_path, capsys):
    out = tmp_path / "pencil.json"
    code, rep, _ = run_json(capsys, "bezout-pencil", "--q0", Q0, f"--q1={Q1}",
                            "--q2", Q2, "--poly", CAPRICORN, "--out", str(out))
    assert code == 0
    assert rep["rigid_at_origin"] == "Marginal"
    assert rep["det_scale"] == "-1073741824"
    assert out.exists()


def test_bezout_pencil_reports_a_mismatched_poly(capsys):
    # det F = 4 (1 - x1^2 - x2^2) is not a multiple of 1 - x1^2 - 2 x2^2: the
    # anchor x2^2 gives c = 2, and the constant terms then differ
    code, rep, _ = run_json(capsys, "bezout-pencil", "--q0=1,0,1", "--q1=1,0,-1",
                            "--q2=0,2", "--poly=1-x1^2-2*x2^2")
    assert code == 0
    assert rep["det_scale"] is None
    assert rep["mismatch"] == "det F != c*p at monomial (0, 0)"
    assert rep["pencil"]["c"] is None


def test_pencil_roundtrip_through_files(tmp_path, capsys):
    out = tmp_path / "pencil.json"
    run_json(capsys, "bezout-pencil", "--q0", Q0, f"--q1={Q1}", "--q2", Q2,
             "--out", str(out))

    code, rep, _ = run_json(capsys, "verify-det", "--pencil", str(out),
                            "--poly", CAPRICORN)
    assert code == 0
    assert rep["verdict"] == "proportional"
    assert rep["c"] == "-1073741824"

    code, rep, _ = run_json(capsys, "find-component", "--pencil", str(out),
                            "--poly", CAPRICORN)
    assert code == 0
    assert rep["status"] == "PD"
    assert rep["point"] == pytest.approx([0.0, 0.5], abs=1e-7)


def test_find_component_without_poly(tmp_path, capsys):
    out = tmp_path / "pencil.json"
    run_json(capsys, "bezout-pencil", "--q0", Q0, f"--q1={Q1}", "--q2", Q2,
             "--out", str(out))
    code, rep, _ = run_json(capsys, "find-component", "--pencil", str(out))
    assert code == 0
    assert rep["status"] == "PD"


def test_find_component_point_is_a_critical_point(capsys):
    """Float x1 slices proposed (-0.3207, -0.3953) here, where p = 1.2e-5 and
    dp/dx2 = 7.79: neither a critical point nor on the curve.  The reported
    PD point must be critical, its gradient zero to 1e-9 relative."""
    q = ("4,1,1,3", "-3,-1,3,1", "0,-4,0,1")
    code, rep, _ = run_json(capsys, "find-component", *(f"--q{i}={v}" for i, v in enumerate(q)))
    assert code == 0 and rep["status"] == "PD"
    p = interpolate_det(pencil_from_param(Parametrization(
        *(UniPoly([int(c) for c in v.split(",")]) for v in q))))
    x = [Fraction(v) for v in rep["point"]]
    for grad in (p.partial(0), p.partial(1)):
        scale = sum(abs(v) * abs(x[0]) ** a * abs(x[1]) ** b for (a, b), v in grad.coeffs.items())
        assert abs(grad(*x)) <= 1e-9 * scale


def test_find_component_certifies_each_candidate_once(capsys, monkeypatch):
    import rigidconvex.cli as cli
    import rigidconvex.locate as locate

    points, original = [], locate.certify_psd_point

    def counted(pencil, x, *args):
        points.append(tuple(x))
        return original(pencil, x, *args)

    monkeypatch.setattr(locate, "certify_psd_point", counted)
    # a second certification of the chosen point would go through this name
    monkeypatch.setattr(cli, "certify_psd_point", counted, raising=False)
    q = ("4,1,1,3", "-3,-1,3,1", "0,-4,0,1")
    code, rep, _ = run_json(capsys, "find-component", *(f"--q{i}={v}" for i, v in enumerate(q)))
    assert code == 0 and rep["status"] == "PD"
    assert len(points) == len(set(points)) == rep["candidates_examined"]
    pencil = pencil_from_param(Parametrization(
        *(UniPoly([int(c) for c in v.split(",")]) for v in q)))
    assert rep["certificate"] == list(original(pencil, tuple(rep["point"])).cert)


def test_verify_det_mismatch_is_exit_zero(tmp_path, capsys):
    pencil = {
        "m": 2, "c": None,
        "F0": [["1", "0"], ["0", "1"]],
        "F1": [["1", "0"], ["0", "0"]],
        "F2": [["0", "0"], ["0", "-1"]],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(pencil))
    code, rep, _ = run_json(capsys, "verify-det", "--pencil", str(path),
                            "--poly", "1-x1^2-x2^2")
    assert code == 0
    assert rep["verdict"] == "mismatch"
    assert rep["monomial"] is not None


_DISC_PENCIL = {
    "m": 2, "c": None,
    "F0": [["1", "0"], ["0", "1"]],
    "F1": [["1", "0"], ["0", "-1"]],
    "F2": [["0", "1"], ["1", "0"]],
}


@pytest.mark.parametrize("change", [
    {"F2": None},
    {"F1": [["1", "2"], ["0", "-1"]]},
    {"F1": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "0"]]},
], ids=["missing-F2", "asymmetric-F1", "wrong-size-F1"])
def test_verify_det_malformed_pencil_exit_1(tmp_path, capsys, change):
    pencil = {k: v for k, v in {**_DISC_PENCIL, **change}.items() if v is not None}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(pencil))
    code, out, err = run(capsys, "verify-det", "--pencil", str(path),
                         "--poly", "1-x1^2-x2^2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_verify_det_declared_size_must_match_exit_1(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**_DISC_PENCIL, "m": 5}))
    code, out, err = run(capsys, "verify-det", "--pencil", str(path),
                         "--poly", "1-x1^2-x2^2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "m = 5" in err


def test_zero_denominators_exit_1(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**_DISC_PENCIL, "F0": [["1/0", "0"], ["0", "1"]]}))
    for argv in (["check-rigid", "--poly=1/0+x1^2"],
                 ["bezout-pencil", "--q0=1", "--q1=1/0,1", "--q2=0,0,1"],
                 ["verify-det", "--pencil", str(path), "--poly", "1-x1^2-x2^2"]):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "zero denominator" in err


def test_out_of_range_scalars_exit_1(tmp_path, capsys):
    # a pencil file's JSON number 1e400 reads as inf, and the literal 1e400
    # exceeds MAX_COEFF_BITS: both are input errors, like in a polynomial
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**_DISC_PENCIL, "F0": [[0.5, 0], [0, 1]]}).replace("0.5", "1e400"))
    for argv, why in ((["verify-det", "--pencil", str(path), "--poly", "1-x1^2-x2^2"], "non-finite"),
                      (["bezout-pencil", "--q0=1", "--q1=1e400,1", "--q2=0,0,1"], "MAX_COEFF_BITS")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and why in err
    # a float is bounded by its magnitude, not by its binary denominator
    for number, expected in (("1e-70", 0), ("1e300", 1)):
        path.write_text(json.dumps({**_DISC_PENCIL, "F0": [[0.5, 0], [0, 1]]}).replace("0.5", number))
        assert run(capsys, "verify-det", "--pencil", str(path), "--poly", "1-x1^2-x2^2")[0] == expected


def test_exponent_literals_refused_before_expansion(capsys):
    # 1e100000000 would expand to a 332-million-bit integer; its exponent
    # alone puts it past MAX_COEFF_BITS, so it is refused at once
    start = time.perf_counter()
    code, out, err = run(capsys, "find-component", "--q0=1e100000000,1", "--q1=0,1",
                         "--q2=0,0,1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "") and "'1e100000000' exceeds MAX_COEFF_BITS" in err
    for literal in ("1e-100000000", "-2.5E+99999999", "7e1_000_000_000"):
        start = time.perf_counter()
        with pytest.raises(PolyParseError, match="exceeds MAX_COEFF_BITS"):
            parse_scalar(literal)
        assert time.perf_counter() - start < 1.0
    # a malformed literal is refused as it stands, its mantissa never expanded
    for literal in ("1e100000000e1000", "-3e99999999 e999"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            parse_scalar(literal)
        assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    code, out, err = run(capsys, "find-component", "--q0=1e100000000e1000,1", "--q1=0,1",
                         "--q2=0,0,1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "") and "literal for Fraction: '1e100000000e1000'" in err
    # a zero mantissa is zero whatever the exponent; exponents in range expand
    assert parse_scalar("0e100000000") == parse_scalar("0.000E-99999999") == 0
    assert parse_scalar("25e-3") == Fraction(1, 40) and parse_scalar("1e77") == 10**77
    with pytest.raises(PolyParseError, match="MAX_COEFF_BITS"):
        parse_scalar("1e78")


def test_malformed_rational_literals_named(capsys):
    for literal in ("1/2/3", "1/", "/2"):
        with pytest.raises(ValueError, match=f"malformed rational literal {literal!r}"):
            parse_scalar(literal)
        code, out, err = run(capsys, "bezout-pencil", "--q0=1", f"--q1={literal},1", "--q2=0,0,1")
        assert (code, out) == (1, "") and repr(literal) in err


_ROUTES = json.loads((Path(__file__).parent / "data" / "route_golden.json").read_text())


@pytest.mark.parametrize("run_", _ROUTES["runs"], ids=[
    "check-rigid-rational", "check-rigid-recentred", "check-rigid-sine", "hermite",
    "verify-det-float-cubic"])
def test_route_report_matches_golden(capsys, tmp_path, run_):
    # reports as the Fraction Poly printed them, byte for byte; timing_seconds
    # is the one field that varies between runs, and the pencil file (a
    # cubic-repr pencil at a float t*) is named PENCIL
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(_ROUTES["pencil"]))
    code, out, _ = run(capsys, *[str(path) if a == "PENCIL" else a for a in run_["argv"]])
    assert code == run_["exit"]
    out = re.sub(r', "timing_seconds": [^}]*', "", out)
    assert out.replace(str(path), "PENCIL") == run_["stdout"]


@pytest.mark.parametrize("name, c", [("fermat-pencil", "-1"), ("cayley-cubic", "1")])
def test_verify_det_stored_pencils(tmp_path, capsys, name, c):
    # fermat-pencil has F0..F2; cayley-cubic adds F3 for a third variable
    data = load_fixture(name)
    poly = data.get("poly") or data["expect"]["det"]["poly"]
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(data["pencil"]))
    code, rep, _ = run_json(capsys, "verify-det", "--pencil", str(path),
                            "--poly", poly)
    assert code == 0
    assert rep["verdict"] == "proportional"
    assert rep["c"] == c


# ---------------------------------------------------------------------------
# cubic-repr
# ---------------------------------------------------------------------------

def test_cubic_repr_elliptic(capsys):
    code, rep, _ = run_json(capsys, "cubic-repr", "--poly", "x1^3-x2^2-x1")
    assert code == 0
    assert rep["verdict"] == "computed"
    assert [r["t"] for r in rep["representations"]] == ["-24", "0", "24"]
    assert all(r["c"] != "0" for r in rep["representations"])


def test_cubic_repr_singular(capsys):
    code, rep, _ = run_json(capsys, "cubic-repr", "--poly=-x1^3-x1^2+x2^2")
    assert code == 0
    assert rep["verdict"] == "singular-cubic"
    assert "np." not in rep["note"]


def test_cubic_repr_smooth_close_to_a_node(capsys):
    # y^2 = x^3 + x^2 - 10^-7 has three distinct roots: smooth, not nodal
    code, rep, _ = run_json(capsys, "cubic-repr", "--poly=-x1^3-x1^2+x2^2+1/10^7")
    assert code == 0
    assert rep["verdict"] == "computed"
    assert len(rep["representations"]) == 3


@pytest.mark.parametrize("poly", [
    # node at (1/2, 1/2) whose x2 another critical point shares, so it is a
    # double root of the eliminant
    "-2+10*x2+8*x2^2-8*x2^3-2*x1-40*x1*x2+40*x1*x2^2+24*x1^2-48*x1^2*x2+16*x1^3",
    # cusp at (1, -1), a multiple root of the eliminant
    "-4*x2-14*x2^2-9*x2^3+4*x1-4*x1*x2-5*x1*x2^2-6*x1^2-3*x1^2*x2+x1^3",
], ids=["node-sharing-x2", "cusp"])
def test_cubic_repr_singular_at_multiple_root_of_eliminant(capsys, poly):
    code, rep, _ = run_json(capsys, "cubic-repr", "--poly=" + poly)
    assert code == 0
    assert rep["verdict"] == "singular-cubic"
    assert "np." not in rep["note"]
    # numpy.roots splits the cusp's double root by about sqrt(eps); the
    # point is still shown and kept as real
    assert "j" not in rep["note"]
    with pytest.raises(SingularCubicError) as err:
        cubic_representations(parse_poly(poly))
    assert all(type(v) is float for v in err.value.singular_point)


def test_cubic_repr_singular_at_infinity_with_shared_gradient_factor(capsys):
    # dp/dx1 and dp/dx2 share a factor, so their resultant vanishes
    # identically; the cubic is singular at infinity
    code, rep, _ = run_json(
        capsys, "cubic-repr",
        "--poly=-9+4*x2+2*x2^2-x2^3-8*x1+2*x1*x2^2-2*x1^2-x1^2*x2")
    assert code == 0
    assert rep["verdict"] == "singular-cubic"


def test_repeated_calls_leave_little_cyclic_garbage(capsys):
    # a parser built per call left ~450 objects in reference cycles, which
    # only a full collection frees: a long-lived process's peak RSS crept
    argv = ["cubic-repr", "--poly", "x1^3-x2^2-x1", "--json"]
    main(argv)
    gc.collect()
    debug = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(argv)
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    assert garbage < 100


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "verify-det", "--pencil", "/nonexistent.json",
                       "--poly", "1-x1^2-x2^2")
    assert code == 1


def test_check_rigid_squared_conic_inconclusive(capsys):
    # squared defining polynomial: every root is double, H(z) is identically
    # singular, and the decision procedure refuses to guess
    code, rep, _ = run_json(capsys, "check-rigid", "--poly", "(1-x1^2-x2^2)^2")
    assert code == 0
    assert rep["verdict"] == "inconclusive"


# ---------------------------------------------------------------------------
# one report path: every subcommand, usage errors
# ---------------------------------------------------------------------------

DISC = "1-x1^2-x2^2"
CUBIC = "1-x1-4*x1^2-x2^2+4*x1^3"

# each subcommand with every option but --json, as its report's "inputs" must
# hold them; None and False are left off the command line, so they check that
# unset options are reported too.  Paths are relative to a directory that
# holds pencil.json and U.json.
REPORT_CASES = [
    ("check-rigid", {"poly": DISC, "emit_hermite": False}),
    ("hermite", {"poly": DISC}),
    ("bezout-pencil", {"q0": Q0, "q1": Q1, "q2": Q2, "poly": None, "out": None}),
    ("find-component", {"pencil": "pencil.json", "q0": None, "q1": None,
                        "q2": None, "poly": DISC}),
    ("cubic-repr", {"poly": "x1^3-x2^2-x1"}),
    ("export-sdp", {"poly": CUBIC, "out": "cubic.dat-s"}),
    ("verify-factor", {"poly": CUBIC, "factor": "U.json", "tol": 0.01}),
    ("verify-det", {"pencil": "pencil.json", "poly": DISC}),
]


def _report_argv(tmp_path, monkeypatch, command, options) -> list:
    """The command line of a REPORT_CASES case, run in tmp_path with its files."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pencil.json").write_text(json.dumps(_DISC_PENCIL))
    U = load_fixture("cubic-curve")["expect"]["spectral_factor"]["U"]
    (tmp_path / "U.json").write_text(json.dumps(
        {"m": 3, "degree": 4,
         "U": [[[str(x) for x in row] for row in mat] for mat in U]}))
    argv = [command]
    for key, val in options.items():
        flag = "--" + key.replace("_", "-")
        if val is True:
            argv.append(flag)
        elif val not in (None, False):
            argv.append(f"{flag}={val}")
    return argv


@pytest.mark.parametrize("command, options", REPORT_CASES,
                         ids=[case[0] for case in REPORT_CASES])
def test_report_frame(tmp_path, monkeypatch, capsys, command, options):
    code, rep, err = run_json(capsys, *_report_argv(tmp_path, monkeypatch, command, options))
    assert code == 0, err
    assert rep["command"] == command
    assert rep["inputs"] == options
    assert list(rep)[:2] == ["command", "inputs"]
    assert list(rep)[-1] == "timing_seconds"
    assert len(rep) > 3


@pytest.mark.parametrize("command, options", REPORT_CASES,
                         ids=[case[0] for case in REPORT_CASES])
def test_json_report_is_one_line(tmp_path, monkeypatch, capsys, command, options):
    # --json prints each report as one JSON object on one line
    code, out, err = run(capsys, *_report_argv(tmp_path, monkeypatch, command, options), "--json")
    assert code == 0, err
    line, end = out.split("\n", 1)
    assert end == "" and line.startswith("{") and line.endswith("}")
    keys = list(json.loads(line))
    assert keys[:2] == ["command", "inputs"] and keys[-1] == "timing_seconds"


_FLOAT_PENCIL = {**_DISC_PENCIL, "F0": [[1.5, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("argv", [
    ["check-rigid", "--json"],
    ["check-rigid", "--poly", DISC, "--bogus"],
    ["verify-factor", "--poly", DISC, "--factor", "U.json", "--tol=abc"],
    ["no-such-command"],
    [],
    ["find-component", "--poly", DISC],
    ["find-component", "--q0", "1,0,1", "--poly", DISC],
    ["find-component", "--pencil", "float.json"],
    ["fixture", "--name", "bean"],
    ["plot-data", "--poly=x1", "--range=0:1"],
], ids=["missing-option", "unknown-option", "bad-float",
        "unknown-command", "no-command", "find-component-no-pencil",
        "find-component-partial-q", "find-component-float-no-poly",
        "removed-fixture", "removed-plot-data"])
def test_usage_errors_exit_1(tmp_path, monkeypatch, capsys, argv):
    # argparse's own error() exits 2, the code for numerical failures, and
    # raises SystemExit out of main
    monkeypatch.chdir(tmp_path)
    (tmp_path / "float.json").write_text(json.dumps(_FLOAT_PENCIL))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


# every class main's two except clauses named before they became base classes
_RAISED = [
    (PolyParseError("bad", 0), 1),
    (OriginOnCurveError("on the curve"), 1),
    (DimensionMismatchError("sizes"), 1),
    (FileNotFoundError("missing"), 1),
    (json.JSONDecodeError("bad", "{", 0), 1),
    (ValueError("value"), 1),
    (KeyError("key"), 1),
    (RigidConvexError("internal"), 2),
    (np.linalg.LinAlgError("singular"), 2),  # caught before ValueError, its numpy base
    (ZeroDivisionError("zero"), 2),
    (ArithmeticError("arithmetic"), 2),
]


@pytest.mark.parametrize("error, code", _RAISED, ids=[type(e).__name__ for e, _ in _RAISED])
def test_error_classes_exit_codes(capsys, monkeypatch, error, code):
    # input errors exit 1 and numerical failures 2, whichever class is raised
    import rigidconvex.cli as cli

    def fail(p):
        raise error
    monkeypatch.setattr(cli, "hermite_matrix", fail)
    got, out, err = run(capsys, "hermite", "--poly", DISC)
    assert got == code and out == ""
    assert err.startswith("error: " if code == 1 else "numerical failure: ")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-rigid", "--help"])
    assert exc.value.code == 0
    assert "--poly" in capsys.readouterr().out


def test_console_path_exits_1_on_usage_error():
    env = {**os.environ,
           "PYTHONPATH": str(Path(rigidconvex.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "rigidconvex.cli", "check-rigid"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "--poly" in proc.stderr
