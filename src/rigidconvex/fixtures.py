"""Canonical curve and pencil fixtures, wired into a pass/fail verifier.

Each fixture file under ``data/`` holds the defining polynomial (as parseable
expression text), any input data such as parametrizations or pencils, and
expectation blocks tagged with their provenance.  ``verify_fixture`` replays
the relevant pipeline and compares.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

from .bezout import Parametrization, interpolate_det, pencil_from_param, \
    rigid_at_origin, verify_pencil_det
from .circlepsd import CircleVerdict, MatrixPoly, build_sdp, psd_on_circle, \
    verify_spectral_factor
from .cubicrepr import cubic_representations
from .errors import UnknownFixtureError
from .hermite import hermite_matrix
from .locate import certify_psd_point, find_interior_point, \
    real_roots_with_multiplicity, resultant_elim_x1
from .polycore import Pencil, TrigMatrix, TrigPoly, UniPoly, parse_poly, parse_scalar

FIXTURE_NAMES = (
    "cubic-curve", "tv-screen", "capricorn", "bean",
    "elliptic-cubic", "fermat-pencil", "cayley-cubic",
)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class FixtureReport:
    name: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def load_fixture(name: str) -> dict:
    if name not in FIXTURE_NAMES:
        raise UnknownFixtureError(name)
    fname = name.replace("-", "_") + ".json"
    payload = resources.files("rigidconvex.data").joinpath(fname).read_text()
    return json.loads(payload)


def _unipoly(strings) -> UniPoly:
    return UniPoly([parse_scalar(s) for s in strings])


def _trig_matrix(entries) -> TrigMatrix:
    return TrigMatrix([[TrigPoly([Fraction(c) for c in cell]) for cell in row]
                       for row in entries])


def _parametrization(block) -> Parametrization:
    return Parametrization(_unipoly(block["q0"]), _unipoly(block["q1"]),
                           _unipoly(block["q2"]))


def _signed_perm_match(pencil: Pencil, target: Pencil, tol=1e-9) -> bool:
    mats = [np.array([[float(v) for v in row] for row in m]) for m in pencil.mats]
    tgts = [np.array([[float(v) for v in row] for row in m]) for m in target.mats]
    n = pencil.m
    for perm in itertools.permutations(range(n)):
        P = np.eye(n)[:, perm]
        for signs in itertools.product([1.0, -1.0], repeat=n):
            S = P @ np.diag(signs)
            if all(np.allclose(S.T @ M @ S, T, atol=tol)
                   for M, T in zip(mats, tgts)):
                return True
    return False


# ---------------------------------------------------------------------------
# per-fixture verifiers
# ---------------------------------------------------------------------------

def _verify_cubic_curve(data: dict) -> list[Check]:
    p = parse_poly(data["poly"])
    expect = data["expect"]
    checks = []

    H = hermite_matrix(p)
    checks.append(Check("hermite-exact",
                        H == _trig_matrix(expect["hermite"]["cosine_entries"])))

    verdict = psd_on_circle(H)
    checks.append(Check("rigidly-convex",
                        verdict.status == CircleVerdict.PD,
                        f"status={verdict.status}"))

    sf = expect["spectral_factor"]
    report = verify_spectral_factor(H, MatrixPoly.from_lists(sf["U"]),
                                    tol=sf["rel_tol"])
    checks.append(Check("spectral-factor",
                        report.passed, f"relative residual {report.relative:.2e}"))

    prob = build_sdp(H)
    sdp = expect["sdp"]
    checks.append(Check("sdp-sizes",
                        prob.block_size == sdp["block_size"]
                        and prob.num_vars == sdp["num_vars"],
                        f"block {prob.block_size}, vars {prob.num_vars}"))
    checks.append(Check("sdp-roundtrip", prob.reconstruct() == H))
    return checks


def _verify_tv_screen(data: dict) -> list[Check]:
    p = parse_poly(data["poly"])
    expect = data["expect"]
    checks = []
    H = hermite_matrix(p)
    checks.append(Check("hermite-exact",
                        H == _trig_matrix(expect["hermite"]["cosine_entries"])))
    verdict = psd_on_circle(H)
    checks.append(Check("not-rigidly-convex",
                        verdict.status == CircleVerdict.NOT_PSD,
                        f"status={verdict.status}"))
    checks.append(Check("structural-shortcut", verdict.shortcut))
    prob = build_sdp(H)
    sdp = expect["sdp"]
    checks.append(Check("sdp-sizes",
                        prob.block_size == sdp["block_size"]
                        and prob.num_vars == sdp["num_vars"]))
    return checks


def _verify_capricorn(data: dict) -> list[Check]:
    p = parse_poly(data["poly"])
    expect = data["expect"]
    pencil = pencil_from_param(_parametrization(data["parametrization"]))
    checks = []

    eig_expect = expect["f0_eigenvalues"]
    base = float(parse_scalar(eig_expect["pair"]["base"]))
    scale = float(parse_scalar(eig_expect["pair"]["scale"]))
    rad = float(parse_scalar(eig_expect["pair"]["radicand"]))
    expected = sorted([0.0] * eig_expect["zeros"]
                      + [base - scale * np.sqrt(rad), base + scale * np.sqrt(rad)])
    eigs = sorted(np.linalg.eigvalsh(pencil.eval(0, 0)))
    ok = np.allclose(eigs, expected,
                     rtol=eig_expect["rel_tol"], atol=1e-6)
    checks.append(Check("f0-eigenvalues", bool(ok), f"eigs={eigs}"))

    c = verify_pencil_det(pencil, p)
    checks.append(Check("det-proportional", c != 0, f"c={c}"))
    checks.append(Check("det-constant",
                        c == parse_scalar(expect["det_proportional"]["c"]),
                        f"c={c}"))

    checks.append(Check("rigid-at-origin",
                        rigid_at_origin(pencil).status
                        == expect["rigid_at_origin"]["value"]))

    roots = real_roots_with_multiplicity(
        resultant_elim_x1(p.partial(0), p.partial(1)))
    want = [(_eval_root_expr(expr), mult)
            for expr, mult in expect["gradient_resultant_roots"]["roots"]]
    tol = expect["gradient_resultant_roots"]["abs_tol"]
    ok = len(roots) == len(want) and all(
        abs(r - w) <= tol * max(1.0, abs(w)) and m == wm
        for (r, m), (w, wm) in zip(roots, sorted(want)))
    checks.append(Check("gradient-resultant-roots", ok, f"roots={roots}"))

    ip = expect["interior_point"]
    target = tuple(float(parse_scalar(v)) for v in ip["x"])
    cand = certify_psd_point(pencil, target)
    checks.append(Check("known-point-pd", cand.verdict == ip["verdict"]))
    res = find_interior_point(pencil, p)
    checks.append(Check("interior-point-found",
                        res.status == "PD"
                        and np.allclose(res.point, target, atol=1e-7),
                        f"point={res.point}"))
    return checks


def _eval_root_expr(expr: str) -> float:
    if "sqrt" in expr:
        head, _, rad = expr.partition("sqrt(")
        rad = float(rad.rstrip(")"))
        base, sign = (head[:-1], 1.0) if head.endswith("+") else (head[:-1], -1.0)
        return float(parse_scalar(base)) + sign * np.sqrt(rad)
    return float(parse_scalar(expr))


def _verify_bean(data: dict) -> list[Check]:
    p = parse_poly(data["poly"])
    expect = data["expect"]
    par = _parametrization(data["parametrization"])
    checks = []

    samples = [parse_scalar(s) for s in expect["substitution_annihilates"]["samples"]]
    ok = all(p(*par.point(u)) == 0 for u in samples)
    checks.append(Check("substitution-annihilates", ok))

    pencil = pencil_from_param(par)
    want = sorted(float(parse_scalar(v)) for v in expect["f0_eigenvalues"]["values"])
    eigs = sorted(np.linalg.eigvalsh(pencil.eval(0, 0)))
    checks.append(Check("f0-eigenvalues",
                        bool(np.allclose(eigs, want,
                                         atol=expect["f0_eigenvalues"]["abs_tol"])),
                        f"eigs={eigs}"))

    checks.append(Check("rigid-at-origin",
                        rigid_at_origin(pencil).status
                        == expect["rigid_at_origin"]["value"]))

    c = verify_pencil_det(pencil, p)
    checks.append(Check("det-proportional",
                        c == parse_scalar(expect["det_proportional"]["c"]),
                        f"c={c}"))

    ip = expect["interior_point"]
    res = find_interior_point(pencil, p)
    target = tuple(float(parse_scalar(v)) for v in ip["x"])
    checks.append(Check("degenerate-single-point",
                        res.status == ip["verdict"]
                        and res.degenerate == ip["degenerate"]
                        and np.allclose(res.point, target, atol=1e-7),
                        f"status={res.status} point={res.point}"))
    return checks


def _verify_elliptic(data: dict) -> list[Check]:
    p = parse_poly(data["poly"])
    expect = data["expect"]
    checks = []
    reps = cubic_representations(p)

    want_t = sorted(float(parse_scalar(v)) for v in expect["t_values"]["values"])
    got_t = sorted(float(r.t_star) for r in reps)
    checks.append(Check("t-values",
                        len(got_t) == len(want_t)
                        and bool(np.allclose(got_t, want_t,
                                             atol=expect["t_values"]["abs_tol"])),
                        f"t={got_t}"))

    tol = float(expect["determinants"]["abs_tol"])
    cwant = float(parse_scalar(expect["determinants"]["c"]))
    ok = True
    for rep in reps:
        c = verify_pencil_det(rep.pencil, p)
        ok = ok and abs(float(c) - cwant) <= tol
    checks.append(Check("determinants", ok))

    block = expect["pencil_t0"]
    target = Pencil.from_json_dict({"m": 3, "c": None, "F0": block["F0"],
                                    "F1": block["F1"], "F2": block["F2"]})
    rep0 = next((r for r in reps if float(r.t_star) == 0.0), None)
    checks.append(Check("t0-matches-published",
                        rep0 is not None
                        and _signed_perm_match(rep0.pencil, target)))

    sample = tuple(float(parse_scalar(v)) for v in expect["pd_at_sample"]["sample"])
    pd = sum(certify_psd_point(r.pencil, sample).verdict == "PD" for r in reps)
    checks.append(Check("pd-count-observed",
                        pd == expect["pd_at_sample"]["observed_pd_count"],
                        f"{pd} PD at {sample}; published claim documents "
                        f"{expect['pd_at_sample']['claimed_pd_count']}"))
    return checks


def _verify_fermat(data: dict) -> list[Check]:
    p = parse_poly(data["poly"])
    pencil = Pencil.from_json_dict(data["pencil"])
    c = verify_pencil_det(pencil, p)
    want = parse_scalar(data["expect"]["det"]["c"])
    return [Check("det-constant", c == want, f"c={c}")]


def _verify_cayley(data: dict) -> list[Check]:
    pencil = Pencil.from_json_dict(data["pencil"])
    det = interpolate_det(pencil)
    oracle = parse_poly(data["expect"]["det"]["poly"])
    printed = parse_poly(data["expect"]["det"]["printed_poly"])
    checks = [Check("det-matches-oracle", det == oracle, f"det={det}")]
    checks.append(Check("printed-sign-differs", det != printed,
                        "documented discrepancy with the printed determinant"))
    return checks


_VERIFIERS = {
    "cubic-curve": _verify_cubic_curve,
    "tv-screen": _verify_tv_screen,
    "capricorn": _verify_capricorn,
    "bean": _verify_bean,
    "elliptic-cubic": _verify_elliptic,
    "fermat-pencil": _verify_fermat,
    "cayley-cubic": _verify_cayley,
}


def verify_fixture(name: str) -> FixtureReport:
    data = load_fixture(name)
    checks = _VERIFIERS[name](data)
    return FixtureReport(name, tuple(checks))
