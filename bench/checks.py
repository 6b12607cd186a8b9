"""Correctness checks on parsed ``--json`` reports, run outside the timed call.

``check(case, rc, report)`` returns ``None`` when the output agrees with
what the case's construction guarantees, else a one-line reason.  Nothing
here calls into rigidconvex.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import exact

CHECK_RIGID_VERDICTS = {"rigidly-convex", "marginal", "not-rigidly-convex",
                        "inconclusive"}
ROOT_REAL_TOL = 1e-7      # |Im r| <= tol * max(1, |r|) counts r as real
EIG_TOL = 1e-7            # F(x) >= -tol * max(1, |F(x)|) at reported points
GRAD_TOL = 1e-6           # recentring point is critical within this
FLOAT_DET_TOL = 1e-9      # det F vs p for pencils with float entries


def real_roots_along(p: dict, theta: float) -> tuple[int, int]:
    """(real roots, degree) of s -> p(s cos theta, s sin theta)."""
    c, s = np.cos(theta), np.sin(theta)
    coeffs = np.zeros(exact.degree(p) + 1)
    for (a, b), v in p.items():
        coeffs[a + b] += float(v) * c**a * s**b
    top = np.abs(coeffs).max()
    nz = np.nonzero(np.abs(coeffs) > 1e-12 * top)[0]
    coeffs = coeffs[: nz[-1] + 1]
    roots = np.roots(coeffs[::-1])
    real = sum(abs(r.imag) <= ROOT_REAL_TOL * max(1.0, abs(r)) for r in roots)
    return int(real), exact.degree(p)


def _check_rigid(case, report) -> str | None:
    verdict = report.get("verdict")
    if verdict not in CHECK_RIGID_VERDICTS:
        return f"unknown verdict {verdict!r}"
    expect = case.expect
    if expect.get("rigid") and verdict == "not-rigidly-convex":
        return "rigidly convex by construction, reported not-rigidly-convex"
    if "verdict" in expect and verdict != expect["verdict"]:
        return f"fixture expects {expect['verdict']}, got {verdict}"
    if verdict == "not-rigidly-convex" and "witness_theta" in report:
        real, m = real_roots_along(case.poly, report["witness_theta"])
        if real >= m:
            return (f"witness theta={report['witness_theta']:.6g} has {real} "
                    f"real roots of {m}")
    if expect.get("recentre"):
        if not report.get("origin_on_curve"):
            return "p(0) = 0 but origin_on_curve not reported"
        if verdict == "inconclusive":
            return "a critical point with p != 0 exists, got inconclusive"
        x1, x2 = report["recentered_at"]
        p = case.poly
        norm = max(abs(float(v)) for v in p.values())
        grad_scale = 1.0 + norm * max(1.0, abs(x1), abs(x2)) ** (exact.degree(p) - 1)
        grads = [abs(exact.evaluate(exact.partial(p, k), x1, x2)) for k in (0, 1)]
        if max(grads) > GRAD_TOL * grad_scale:
            return f"recentred at ({x1}, {x2}), which is not a critical point"
        if abs(exact.evaluate(p, x1, x2)) <= 1e-9 * norm:
            return f"recentred at ({x1}, {x2}), which lies on the curve"
    return None


def _own_pencil(q0, q1, q2, m):
    """F(x) = B(q1, q2) + x1 B(q2, q0) - x2 B(q1, q0), signed so that F(0) is
    positive definite (the roots of q1 and q2 interlace)."""
    F0 = np.array(exact.bezout(q1, q2, m), dtype=float)
    F1 = np.array(exact.bezout(q2, q0, m), dtype=float)
    F2 = -np.array(exact.bezout(q1, q0, m), dtype=float)
    sign = 1.0 if np.linalg.eigvalsh(F0).min() > 0 else -1.0
    return sign * F0, sign * F1, sign * F2


def _check_component(case, report) -> str | None:
    status = report.get("status")
    if status not in ("PD", "PSD", "none"):
        return f"unknown status {status!r}"
    point = report.get("point")
    if (point is None) != (status == "none"):
        return f"status {status} with point {point}"
    if point is None:
        return None
    F0, F1, F2 = _own_pencil(*case.expect["q"], case.expect["m"])
    Fx = F0 + point[0] * F1 + point[1] * F2
    low = float(np.linalg.eigvalsh(Fx).min())
    if low < -EIG_TOL * max(1.0, float(np.linalg.norm(Fx, 2))):
        return f"point {point} has F(x) eigenvalue {low:.3g} < 0"
    return None


def _entry(x) -> Fraction:
    return Fraction(x) if isinstance(x, (int, float)) else Fraction(str(x))


def _check_cubic(case, report) -> str | None:
    verdict = report.get("verdict")
    want = case.expect["cubic"]
    if verdict != want:
        return f"expected {want}, got {verdict}"
    if want != "computed":
        return None
    reps = report.get("representations") or []
    if not reps:
        return "computed without representations"
    p = case.poly
    for rep in reps:
        pen = rep["pencil"]
        mats = [[[_entry(x) for x in row] for row in pen[k]] for k in ("F0", "F1", "F2")]
        det = exact.det3_pencil(*mats)
        if all(isinstance(x, str) for k in ("F0", "F1", "F2")
               for row in pen[k] for x in row):
            if det != p:
                return f"t={rep['t']}: det F != p exactly"
            continue
        top = max(abs(v) for v in p.values())
        diff = max(abs(det.get(k, 0) - p.get(k, 0)) for k in set(det) | set(p))
        if diff > FLOAT_DET_TOL * top:
            return f"t={rep['t']}: det F - p = {float(diff):.3g} (float pencil)"
    return None


def check(case, rc, report) -> str | None:
    command = case.argv[0]
    if rc != 0:
        return f"exit code {rc}"
    if report is None:
        return "stdout is not a JSON report"
    if report.get("command") != command:
        return f"report is for {report.get('command')!r}, not {command}"
    if command == "check-rigid":
        return _check_rigid(case, report)
    if command == "find-component":
        return _check_component(case, report)
    return _check_cubic(case, report)
