import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rigidconvex
from rigidconvex import SingularCubicError, cubic_representations, parse_poly
from rigidconvex.cli import MAX_PLOT_GRID, main

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


def test_check_rigid_emit_hermite(capsys):
    code, rep, _ = run_json(capsys, "check-rigid", "--poly", "1-x1^2-x2^2",
                            "--emit-hermite")
    assert code == 0
    assert rep["hermite"] == [["2", "0"], ["0", "8"]]


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
    from rigidconvex.fixtures import load_fixture

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


@pytest.mark.parametrize("name, c", [("fermat-pencil", "-1"), ("cayley-cubic", "1")])
def test_verify_det_stored_pencils(tmp_path, capsys, name, c):
    # fermat-pencil has F0..F2; cayley-cubic adds F3 for a third variable
    from rigidconvex.fixtures import load_fixture

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


# ---------------------------------------------------------------------------
# fixture / plot-data
# ---------------------------------------------------------------------------

def test_fixture_command(capsys):
    code, rep, _ = run_json(capsys, "fixture", "--name", "fermat-pencil")
    assert code == 0
    assert rep["verdict"] == "pass"


def test_plot_data(tmp_path, capsys):
    out = tmp_path / "plot.csv"
    code, _, _ = run(capsys, "plot-data", "--poly", "1-x1^2-x2^2",
                     "--range=-1.5:1.5", "--grid", "11", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,p"
    assert len(lines) == 1 + 11 * 11
    x1, x2, val = map(float, lines[1].split(","))
    assert val == pytest.approx(1 - x1**2 - x2**2, rel=1e-9)


def test_plot_data_stdout(capsys):
    code, out, _ = run(capsys, "plot-data", "--poly", "x1+x2",
                       "--range", "0:1", "--grid", "3")
    assert code == 0
    assert out.splitlines()[0] == "x1,x2,p"


def reference_plot_csv(poly: str, lo: float, hi: float, grid: int) -> str:
    """The per-sample loop plot-data ran before its grid evaluation."""
    import numpy as np

    p = parse_poly(poly)
    lines = ["x1,x2,p"]
    for x2 in np.linspace(lo, hi, grid):
        for x1 in np.linspace(lo, hi, grid):
            lines.append(f"{x1:.12g},{x2:.12g},{float(p(x1, x2)):.12g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("poly,lo,hi,grid", [
    ("1-x1^2-x2^2", -1.5, 1.5, 11),
    (CAPRICORN, -2.0, 2.0, 17),
    ("3/7-x1+1/11*x2^3*x1^4-2^90*x1^5*x2^2", -7.25, 3.0, 23),
    ("x2^5+1/3", -1e3, 1e4, 5),
    ("0", -1.0, 1.0, 3),
])
def test_plot_data_matches_per_sample_reference(capsys, poly, lo, hi, grid):
    code, out, err = run(capsys, "plot-data", "--poly", poly, f"--range={lo}:{hi}",
                         "--grid", str(grid))
    assert code == 0 and err == ""
    assert out == reference_plot_csv(poly, lo, hi, grid)


def test_plot_data_refuses_non_finite_samples(tmp_path, capsys):
    import warnings

    out = tmp_path / "plot.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings stay silent
        code, stdout, err = run(capsys, "plot-data", "--poly", "1-x1^2-x2^2",
                                "--range=-1e300:1e300", "--grid", "3", "--out", str(out))
    assert code == 1
    assert stdout == ""
    # every sample but the origin overflows
    assert err == "error: 8 of 9 samples are not finite; narrow --range\n"
    assert not out.exists()
    # a constant is finite everywhere, but the coordinates of this grid are not
    code, stdout, err = run(capsys, "plot-data", "--poly", "1", "--range=-1e309:1",
                            "--grid", "2")
    assert code == 1 and stdout == ""
    assert err == "error: 3 of 4 samples are not finite; narrow --range\n"


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
    ("fixture", {"name": "fermat-pencil"}),
    ("plot-data", {"poly": DISC, "range": "-1:1", "grid": 3, "out": "plot.csv"}),
]


@pytest.mark.parametrize("command, options", REPORT_CASES,
                         ids=[case[0] for case in REPORT_CASES])
def test_report_frame(tmp_path, monkeypatch, capsys, command, options):
    from rigidconvex.fixtures import load_fixture

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
    code, rep, err = run_json(capsys, *argv)
    assert code == 0, err
    assert rep["command"] == command
    assert rep["inputs"] == options
    assert list(rep)[:2] == ["command", "inputs"]
    assert list(rep)[-1] == "timing_seconds"
    assert len(rep) > 3


_FLOAT_PENCIL = {**_DISC_PENCIL, "F0": [[1.5, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("argv", [
    ["check-rigid", "--json"],
    ["check-rigid", "--poly", DISC, "--bogus"],
    ["fixture", "--name", "nope"],
    ["plot-data", "--poly=x1", "--range=0:1", "--grid=abc"],
    ["no-such-command"],
    [],
    ["find-component", "--poly", DISC],
    ["find-component", "--q0", "1,0,1", "--poly", DISC],
    ["find-component", "--pencil", "float.json"],
], ids=["missing-option", "unknown-option", "bad-choice", "bad-int",
        "unknown-command", "no-command", "find-component-no-pencil",
        "find-component-partial-q", "find-component-float-no-poly"])
def test_usage_errors_exit_1(tmp_path, monkeypatch, capsys, argv):
    # argparse's own error() exits 2, the code for numerical failures, and
    # raises SystemExit out of main
    monkeypatch.chdir(tmp_path)
    (tmp_path / "float.json").write_text(json.dumps(_FLOAT_PENCIL))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


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


@pytest.mark.parametrize("bad", ["0:1:2", "0:abc", "1"])
def test_plot_data_bad_range_names_option(capsys, bad):
    code, out, err = run(capsys, "plot-data", "--poly", "x1+x2", f"--range={bad}")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --range") and "offset" not in err


def test_plot_data_grid_bound(tmp_path, capsys):
    import time

    out = tmp_path / "plot.csv"
    started = time.perf_counter()
    code, stdout, err = run(capsys, "plot-data", "--poly", "x1+x2", "--range=0:1",
                            "--grid", str(MAX_PLOT_GRID + 1), "--out", str(out))
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert stdout == ""
    assert err.startswith("error:") and "MAX_PLOT_GRID" in err
    assert not out.exists()
