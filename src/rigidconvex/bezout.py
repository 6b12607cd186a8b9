"""Bezout matrices and symmetric pencils from rational curve parametrizations.

For univariate g, h of (padded) degree m the Bezout matrix B(g, h) collects
the coefficients of (g(u)h(v) - g(v)h(u)) / (u - v); it is symmetric,
bilinear, and det B is the resultant.  Writing the curve as
x1 = q1(u)/q0(u), x2 = q2(u)/q0(u) and eliminating u from
q1 - x1 q0 = q2 - x2 q0 = 0 gives the symmetric pencil

    F(x) = B(q1, q2) + x1 B(q2, q0) - x2 B(q1, q0)

whose determinant is proportional to the implicit equation p(x).  Positive
semidefiniteness of F(0) = B(q1, q2) decides rigid convexity around the
origin and is equivalent to the roots of q1 and q2 interlacing.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegreeZeroError, DeterminantMismatchError, DimensionMismatchError
from .polycore import Pencil, Poly, Scalar, UniPoly, _bareiss, _divided_differences, \
    _newton_interpolate, _newton_to_monomial

ROOT_REALITY_TOL = 1e-8


def bezout_matrix(g: UniPoly, h: UniPoly, m: int | None = None) -> list:
    """Exact m x m Bezout matrix of g and h (shorter input zero-padded)."""
    if m is None:
        m = max(g.degree, h.degree)
    if m < 1:
        raise DegreeZeroError("Bezout matrix needs degree >= 1")
    gc = [g[k] for k in range(m + 1)]
    hc = [h[k] for k in range(m + 1)]
    B = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m + 1):
        for j in range(i):
            w = gc[i] * hc[j] - gc[j] * hc[i]
            if w == 0:
                continue
            # (u^i v^j - u^j v^i)/(u-v) = sum_s u^{j+s} v^{i-1-s}
            for s in range(i - j):
                B[j + s][i - 1 - s] += w
    return B


@dataclass(frozen=True)
class Parametrization:
    """x1 = q1(u)/q0(u), x2 = q2(u)/q0(u); common degree m after padding."""

    q0: UniPoly
    q1: UniPoly
    q2: UniPoly

    def __post_init__(self):
        if self.q0.is_zero() and self.q1.is_zero() and self.q2.is_zero():
            raise ValueError("at least one of q0, q1, q2 must be nonzero")
        if self.m < 1:
            raise DegreeZeroError("parametrization needs degree >= 1")

    @property
    def m(self) -> int:
        return max(self.q0.degree, self.q1.degree, self.q2.degree)

    def point(self, u: Scalar):
        q0u = self.q0(u)
        if q0u == 0:
            raise ZeroDivisionError(f"q0({u}) = 0")
        return self.q1(u) / q0u, self.q2(u) / q0u


def pencil_from_param(par: Parametrization) -> Pencil:
    """Symmetric pencil F(x) with det F proportional to the implicit curve.

    The overall sign is normalised so that the minimum eigenvalue of F(0)
    is as large as possible (ties keep +1).
    """
    m = par.m
    F0 = bezout_matrix(par.q1, par.q2, m)
    F1 = bezout_matrix(par.q2, par.q0, m)
    F2 = [[-x for x in row] for row in bezout_matrix(par.q1, par.q0, m)]
    eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in F0]))
    sign = 1 if eigs.min() >= -eigs.max() else -1
    pencil = Pencil.from_rows(F0, F1, F2)
    return pencil.scaled(sign) if sign < 0 else pencil


# ---------------------------------------------------------------------------
# interlacing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterlaceReport:
    verdict: str  # definite | semidefinite | indefinite
    roots1: tuple[float, ...]
    roots2: tuple[float, ...]
    all_real: bool
    signature: int  # exact signature of B(q1, q2)


def signature_exact(rows) -> tuple[int, int, int]:
    """(n_pos, n_neg, n_zero) of an exact symmetric rational matrix A.  Its
    characteristic polynomial det(tI - D A), D the lcm of the denominators,
    is interpolated from integer Bareiss determinants at t = 0..n; it has
    only real roots, so Descartes' rule counts the positive ones exactly as
    the sign changes of its coefficients."""
    den = math.lcm(*[x.denominator for row in rows for x in row])
    mat = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    n = len(mat)
    values = [_bareiss([[t * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(mat)])
              for t in range(n + 1)]
    char = _newton_interpolate(values, 0)
    signs = [c > 0 for c in char if c]
    pos = sum(a != b for a, b in zip(signs, signs[1:]))
    zero = next(k for k, c in enumerate(char) if c)  # multiplicity of the root 0
    return pos, n - pos - zero, zero


def _real_roots_or_none(q: UniPoly):
    roots = q.roots()
    out = []
    for r in roots:
        if abs(r.imag) >= ROOT_REALITY_TOL * max(1.0, abs(r)):
            return None
        out.append(float(r.real))
    return sorted(out)


def interlace_check(q1: UniPoly, q2: UniPoly) -> InterlaceReport:
    """Definite iff the roots of q1 and q2 are all real and strictly alternate.

    Borderline coincident roots give 'semidefinite'; complex roots or a
    broken alternation give 'indefinite'.  The exact signature of B(q1, q2)
    is reported alongside as a cross-check.
    """
    if q1.is_zero() or q2.is_zero():
        raise ValueError("interlace_check needs two nonzero polynomials")
    m = max(q1.degree, q2.degree)
    pos, neg, _ = signature_exact(bezout_matrix(q1, q2, m))
    signature = pos - neg

    r1 = _real_roots_or_none(q1)
    r2 = _real_roots_or_none(q2)
    if r1 is None or r2 is None:
        return InterlaceReport("indefinite", tuple(r1 or ()), tuple(r2 or ()),
                               False, signature)

    events = sorted([(v, 0) for v in r1] + [(v, 1) for v in r2])
    coincident = False
    ordered = True
    for k in range(1, len(events)):
        val, label = events[k]
        gap = abs(val - events[k - 1][0])
        if gap <= 1e-7 * max(1.0, abs(val)):
            coincident = True
        elif events[k - 1][1] == label:
            ordered = False
    if abs(len(r1) - len(r2)) > 1:
        ordered = False
    if ordered and not coincident:
        verdict = "definite"
    elif ordered:
        verdict = "semidefinite"
    else:
        verdict = "indefinite"
    return InterlaceReport(verdict, tuple(r1), tuple(r2), True, signature)


# ---------------------------------------------------------------------------
# determinant verification
# ---------------------------------------------------------------------------

def _monomials(degree: int, nvars: int) -> list[tuple]:
    return [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree]


def interpolate_det(pencil: Pencil) -> Poly:
    """det F(x) as an exact polynomial (total degree <= m) by Newton
    interpolation on the principal lattice {x in N^n : |x| <= m}; requires an
    exact pencil.  F is cleared by one lcm D, and det(D F) is evaluated at
    every lattice point with integer multiply-adds and Bareiss.  Divided
    differences along each axis give its coefficients in the falling-factorial
    basis, the one of index a using only the points <= a; converting back
    along each axis gives its integer monomial coefficients, divided by D^m."""
    if not pencil.is_exact():
        raise ValueError("exact interpolation needs rational pencil entries")
    m, nvars = pencil.m, pencil.nvars
    den = math.lcm(*[x.denominator for mat in pencil.mats for row in mat for x in row])
    ints = [[[x.numerator * (den // x.denominator) for x in row] for row in mat]
            for mat in pencil.mats]
    monos = _monomials(m, nvars)
    vals = {mono: _bareiss([[sum([e * G[i][j] for e, G in zip((1,) + mono, ints)])
                             for j in range(m)] for i in range(m)]) for mono in monos}
    for convert in (_divided_differences, _newton_to_monomial):
        for axis in range(nvars):
            for start in monos:
                if start[axis] == 0:  # each lattice line along the axis once
                    line = [start[:axis] + (k,) + start[axis + 1:]
                            for k in range(m + 1 - sum(start))]
                    vals.update(zip(line, convert([vals[pt] for pt in line])))
    return Poly({mono: Fraction(vals[mono], den**m) for mono in monos}, nvars)


def verify_pencil_det(pencil: Pencil, p: Poly):
    """Scale c with det F(x) = c p(x); raises DeterminantMismatchError.

    Exact pencils are interpolated and compared exactly; floating pencils are
    compared coefficientwise within 1e-8 relative to the largest
    coefficient.
    """
    if p.is_zero():
        raise ValueError("cannot verify against the zero polynomial")
    if p.nvars != pencil.nvars:
        raise DimensionMismatchError("pencil and polynomial arity differ")
    if p.degree > pencil.m:
        raise DimensionMismatchError(
            f"deg p = {p.degree} exceeds pencil size {pencil.m}")
    anchor = max(p.coeffs, key=lambda e: abs(p.coeffs[e]))

    if pencil.is_exact():
        det = interpolate_det(pencil)
        c = det.coeff(anchor) / p.coeff(anchor)
        if det != p * c:
            diff = det - p * c
            mono = next(iter(diff.coeffs))
            raise DeterminantMismatchError(
                f"det F != c*p at monomial {mono}", monomial=mono,
                got=det.coeff(mono), expected=(p * c).coeff(mono))
        return c

    monos = _monomials(pencil.m, pencil.nvars)
    points = [tuple(float(e) for e in mono) for mono in monos]
    rows = np.array([[math.prod([x**e for x, e in zip(pt, mono)]) for mono in monos]
                     for pt in points])
    rhs = np.array([float(np.linalg.det(pencil.eval(*pt))) for pt in points])
    coeffs = np.linalg.solve(rows, rhs)
    det = {mono: val for mono, val in zip(monos, coeffs)}
    c = det[anchor] / float(p.coeff(anchor))
    scale = max(1.0, max(abs(v) for v in det.values()))
    for mono in monos:
        expected = c * float(p.coeff(mono))
        if abs(det[mono] - expected) > 1e-8 * scale:
            raise DeterminantMismatchError(
                f"det F != c*p at monomial {mono}", monomial=mono,
                got=det[mono], expected=expected)
    return c


# ---------------------------------------------------------------------------
# rigid convexity at the origin
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidVerdict:
    status: str  # StrictlyRigid | Marginal | No
    eigenvalues: tuple[float, ...]
    tolerance: float

    STRICT = "StrictlyRigid"
    MARGINAL = "Marginal"
    NO = "No"


def rigid_at_origin(pencil: Pencil) -> RigidVerdict:
    """Classify F(0) = F0: PD, PSD-with-kernel, or not PSD."""
    F0 = np.array([[float(x) for x in row] for row in pencil.mats[0]])
    eigs = np.linalg.eigvalsh(F0)
    tol = 1e-9 * max(1.0, float(np.linalg.norm(F0)))
    low = float(eigs.min())
    if low > tol:
        status = RigidVerdict.STRICT
    elif low >= -tol:
        status = RigidVerdict.MARGINAL
    else:
        status = RigidVerdict.NO
    return RigidVerdict(status, tuple(float(e) for e in eigs), tol)
