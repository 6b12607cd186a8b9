"""Locate a point certifying F(x) >= 0 when the origin is not interior.

The search is purely algebraic: candidate points come from the critical
equations grad p = 0 and from the boundary systems {p = 0, dp/dx_i = 0},
both reduced to univariate root extraction through exact integer resultants
and integer square-free parts (see ``polycore``), whose multiplicities are
exact: coprime factors share no root, so nothing is merged.  Candidates
are then certified through the sign pattern of the characteristic
polynomial of F(x), det(tI + F(x)) = p_0(x) + p_1(x) t + ... + t^m, which is
entrywise nonnegative exactly on the LMI set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import IdenticallyZeroResultantError
from .polycore import Pencil, Poly, UniPoly, _bareiss, _horner, _newton_interpolate, _primitive, \
    real_roots

RESIDUAL_TOL = 1e-7
MERGE_TOL = 1e-8
CERT_TOL = 1e-9


@dataclass(frozen=True)
class CandidatePoint:
    x: tuple[float, float]
    source: str  # "critical" | "boundary"
    cert: tuple[float, ...] = ()
    verdict: str | None = None  # "PD" | "PSD" | "rejected"
    min_eig: float | None = None


@dataclass(frozen=True)
class LocateResult:
    point: tuple[float, float] | None
    status: str  # "PD" | "PSD" | "none"
    degenerate: bool
    candidates: tuple[CandidatePoint, ...]
    note: str = ""


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def _x1_columns(p: Poly) -> tuple[int, dict[int, list]]:
    """(den, cols): den * p as a polynomial in x1 whose coefficient of x1^a is
    cols[a], an ascending integer list in x2; den is the lcm of p's
    denominators."""
    den = math.lcm(*[v.denominator for v in p.coeffs.values()])
    cols: dict[int, list] = {}
    for (a, b), v in p.coeffs.items():
        col = cols.setdefault(a, [])
        col.extend([0] * (b + 1 - len(col)))
        col[b] = v.numerator * (den // v.denominator)
    return den, cols


def resultant_elim_x1(f: Poly, g: Poly) -> UniPoly:
    """Exact resultant of f and g with respect to x1, as a polynomial in x2.

    f and g are cleared once to integer x1-columns (denominators cf, cg).  The
    integer Sylvester matrix is evaluated at x2 = 0, 1, ..., N by Horner, its
    determinant taken by fraction-free Bareiss, and the integer resultant
    recovered by Newton interpolation, then divided by cf^d2 cg^d1.  Raises
    IdenticallyZeroResultantError when f and g share a factor involving x1.
    """
    cf, fc = _x1_columns(f)
    cg, gc = _x1_columns(g)
    d1 = max(fc, default=0)
    d2 = max(gc, default=0)
    if d1 == 0 or d2 == 0:
        raise ValueError("both inputs need positive degree in x1")
    deg_bound = d2 * (max(len(c) for c in fc.values()) - 1) \
        + d1 * (max(len(c) for c in gc.values()) - 1)
    values = []
    for x in range(deg_bound + 1):
        frow = [_horner(fc.get(i, ()), x) for i in range(d1, -1, -1)]
        grow = [_horner(gc.get(i, ()), x) for i in range(d2, -1, -1)]
        rows = [[0] * r + frow + [0] * (d2 - 1 - r) for r in range(d2)]
        rows += [[0] * r + grow + [0] * (d1 - 1 - r) for r in range(d1)]
        values.append(_bareiss(rows))
    if not any(values):
        raise IdenticallyZeroResultantError(
            "resultant vanishes identically; common factor in x1")
    scale = cf**d2 * cg**d1
    return UniPoly([Fraction(c, scale) for c in _newton_interpolate(values, 0)])


def real_roots_with_multiplicity(r: UniPoly) -> list[tuple[float, int]]:
    """Real roots of an exact polynomial with exact multiplicities, sorted.

    The square-free decomposition splits r into coprime square-free factors,
    one per multiplicity, so no two factors share a root; each root is
    isolated exactly (``polycore.real_roots``) and reported as the float its
    interval rounds to.
    """
    return sorted((float((lo + hi) / 2), mult) for factor, mult in r.squarefree_decomposition()
                  for lo, hi in real_roots(_primitive(factor.coeffs)))


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------

def _poly_norm(p: Poly) -> float:
    return max((abs(float(v)) for v in p.coeffs.values()), default=0.0)


def _grad_scale(p: Poly, x: tuple[float, float]) -> float:
    r = max(1.0, float(np.hypot(*x)))
    return 1.0 + _poly_norm(p) * r ** max(p.degree - 1, 0)


def _univariate_in_x1(p: Poly, x2val: float | complex) -> np.ndarray:
    """Float or complex coefficients (ascending) of x1 -> p(x1, x2val)."""
    top = max((a for (a, _b) in p.coeffs), default=0)
    out = np.zeros(top + 1, dtype=type(x2val))
    for (a, b), v in p.coeffs.items():
        out[a] += float(v) * x2val**b
    return out


def _x1_candidates(polys: list[Poly], x2val, real: bool) -> list:
    """x1 roots of each p(x1, x2val): the real ones, or all of them as complex."""
    cands: list = []
    for p in polys:
        coeffs = _univariate_in_x1(p, x2val)
        scale = max(1.0, np.abs(coeffs).max())
        trimmed = np.trim_zeros(np.where(np.abs(coeffs) > 1e-12 * scale, coeffs, 0.0), "b")
        if len(trimmed) <= 1:
            continue
        roots = np.roots(trimmed[::-1])
        if real:
            cands.extend(float(r.real) for r in roots
                         if abs(r.imag) < 1e-7 * max(1.0, abs(r)))
        else:
            cands.extend([complex(r) for r in roots])
    return cands


def _eliminate(f: Poly, g: Poly) -> UniPoly:
    """Eliminant in x2 of the system {f = 0, g = 0}, handling the cases where
    one equation does not involve x1."""
    d1, d2 = (max((a for a, _b in p.coeffs), default=0) for p in (f, g))
    if d1 and d2:
        return resultant_elim_x1(f, g)
    f2, g2 = (UniPoly([p.coeff((0, b)) for b in range(p.degree + 1)]) for p in (f, g))
    if d1 or d2:
        return g2 if d1 else f2
    # both univariate in x2: common roots come from the gcd
    gcd = f2.gcd(g2)
    return gcd if gcd.degree >= 1 else UniPoly([1])  # [1]: no common root


def _solve_system(f: Poly, g: Poly, real: bool = True) -> list[tuple]:
    """Approximate real solutions of {f = 0, g = 0}, or with ``real=False``
    all complex ones (as Python complex numbers).  x2 runs over the roots of
    the square-free factors of the exact eliminant, so numeric root extraction
    only sees simple roots, and x1 over the roots of f and g at each x2."""
    elim = _eliminate(f, g)
    if elim.is_zero():
        raise IdenticallyZeroResultantError("system has a continuum of solutions")
    if real:
        x2vals = [x2val for x2val, _mult in real_roots_with_multiplicity(elim)]
    else:
        x2vals = [complex(x2val) for factor, _mult in elim.squarefree_decomposition()
                  for x2val in factor.roots()]
    points = []
    for x2val in x2vals:
        x1vals = _x1_candidates([f, g], x2val, real)
        if x1vals:
            points.extend((x1val, x2val) for x1val in x1vals)
        else:
            # both polynomials are x1-free at this slice
            points.append((0.0, x2val))
    return points


def _dedupe_sorted(points: list[CandidatePoint]) -> list[CandidatePoint]:
    points = sorted(points, key=lambda c: (c.x[1], c.x[0], c.source))
    out: list[CandidatePoint] = []
    for cand in points:
        dup = False
        for kept in out:
            if (abs(cand.x[0] - kept.x[0]) <= MERGE_TOL * (1 + abs(cand.x[0]))
                    and abs(cand.x[1] - kept.x[1]) <= MERGE_TOL * (1 + abs(cand.x[1]))):
                dup = True
                break
        if not dup:
            out.append(cand)
    return out


def _real_points(p: Poly, f: Poly, g: Poly, source: str) -> list[CandidatePoint]:
    """Real solutions of {f = 0, g = 0} whose residuals pass RESIDUAL_TOL at
    p's gradient scale; [] when the system has a continuum of solutions."""
    try:
        raw = _solve_system(f, g)
    except IdenticallyZeroResultantError:
        return []
    out = []
    for x in raw:
        tol = RESIDUAL_TOL * _grad_scale(p, x)
        if abs(f(*x)) <= tol and abs(g(*x)) <= tol:
            out.append(CandidatePoint(x, source))
    return out


def critical_points(p: Poly) -> list[CandidatePoint]:
    """Real solutions of grad p = 0, sorted by (x2, x1).

    A gradient system with a common factor (non-reduced input) has a
    continuum of critical points; the isolated-point search then returns
    an empty list rather than failing.
    """
    if p.degree < 2:
        raise ValueError("need total degree >= 2")
    return _dedupe_sorted(_real_points(p, p.partial(0), p.partial(1), "critical"))


def boundary_points(p: Poly) -> list[CandidatePoint]:
    """Real solutions of {p = 0, dp/dx1 = 0} and {p = 0, dp/dx2 = 0}."""
    if p.degree < 2:
        raise ValueError("need total degree >= 2")
    return _dedupe_sorted([cand for i in (0, 1)
                           for cand in _real_points(p, p, p.partial(i), "boundary")])


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def certify_psd_point(pencil: Pencil, x, source: str = "query") -> CandidatePoint:
    """Sign test on the characteristic polynomial det(tI + F(x)).

    All of p_0 .. p_{m-1} strictly positive certifies F(x) PD; all
    nonnegative (within CERT_TOL, after eigenvalue normalisation) certifies PSD.
    """
    mat = pencil.eval(*x)
    eigs = np.linalg.eigvalsh(mat)
    scale = max(1.0, float(np.abs(eigs).max()))
    # coefficients of prod (t + lambda_i), for the normalised eigenvalues
    # p_0 .. p_{m-1} first
    normalised = np.poly(-eigs / scale)[1:][::-1]
    if np.all(normalised > CERT_TOL):
        verdict = "PD"
    elif np.all(normalised >= -CERT_TOL):
        verdict = "PSD"
    else:
        verdict = "rejected"
    # unscaled certificate entries, constant term first
    cert = tuple(float(c) for c in np.poly(-eigs)[1:][::-1])
    return CandidatePoint((float(x[0]), float(x[1])), source, cert, verdict,
                          float(eigs.min()))


def find_interior_point(pencil: Pencil, p: Poly) -> LocateResult:
    """First PD candidate, else the best PSD candidate flagged degenerate.

    Candidates are the critical and boundary points of p in deterministic
    (x2, x1, source) order; every boundary point is singular for F so only
    critical points can certify PD.
    """
    if p.degree < 2:
        cands = [CandidatePoint((0.0, 0.0), "critical")]
    else:
        cands = _dedupe_sorted(list(critical_points(p)) + list(boundary_points(p)))
    certified = []
    for cand in cands:
        cert = certify_psd_point(pencil, cand.x)
        certified.append(replace(cert, source=cand.source))
    for cand in certified:
        if cand.verdict == "PD":
            return LocateResult(cand.x, "PD", False, tuple(certified))
    psd = [c for c in certified if c.verdict == "PSD"]
    if psd:
        best = max(psd, key=lambda c: c.min_eig)
        return LocateResult(best.x, "PSD", True, tuple(certified),
                            note="no strictly feasible candidate; the LMI set "
                                 "may degenerate to a single point")
    return LocateResult(None, "none", False, tuple(certified))
