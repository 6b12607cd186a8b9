"""Bezout matrices and symmetric pencils from rational curve parametrizations.

For univariate g, h of (padded) degree m the Bezout matrix B(g, h) collects
the coefficients of (g(u)h(v) - g(v)h(u)) / (u - v); it is symmetric,
bilinear, and det B is the resultant.  Writing the curve as
x1 = q1(u)/q0(u), x2 = q2(u)/q0(u) and eliminating u from
q1 - x1 q0 = q2 - x2 q0 = 0 gives the symmetric pencil

    F(x) = B(q1, q2) + x1 B(q2, q0) - x2 B(q1, q0)

whose determinant is proportional to the implicit equation p(x).  Positive
semidefiniteness of F(0) = B(q1, q2) decides rigid convexity around the
origin.  Every decision here is exact: det F comes from the integer lattice
of ``interpolate_det`` and the characteristic polynomials behind
``signature_exact`` from the univariate loop ``polycore._interpolate_minors``,
both reading float entries as the binary rationals they are.  Float
eigenvalues are reported only as diagnostics.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegreeZeroError, DeterminantMismatchError, DimensionMismatchError
from .polycore import Pencil, Poly, UniPoly, _add_ints, _bareiss, _clear_rows, \
    _divided_differences, _interpolate_minors, _newton_to_monomial, _variations


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
# exact inertia
# ---------------------------------------------------------------------------

def signature_exact(rows) -> tuple[int, int, int]:
    """(n_pos, n_neg, n_zero) of a symmetric matrix A with rational or float
    entries, floats read as the binary rationals they are.  With its rows
    cleared by D = diag(d_i), det(tD - DA) = det D det(tI - A) is the
    characteristic polynomial times det D > 0, taken by
    ``_interpolate_minors`` at t = 0 .. n; it has only real roots, so
    Descartes' rule counts the positive ones exactly as the sign changes of
    its coefficients."""
    n = len(rows)
    mat, dens = _clear_rows(rows)
    polys = [[-x, d * (i == j)] for i, (row, d) in enumerate(zip(mat, dens))
             for j, x in enumerate(row)]
    plan = [[(1, i * n + j) for j in range(n)] for i in range(n)]
    char = _interpolate_minors(plan, polys, 0, n + 1)[0]
    pos = _variations(char)
    zero = next(k for k, c in enumerate(char) if c)  # multiplicity of the root 0
    return pos, n - pos - zero, zero


# ---------------------------------------------------------------------------
# determinant verification
# ---------------------------------------------------------------------------

def interpolate_det(pencil: Pencil) -> Poly:
    """det F(x) as an exact polynomial (total degree <= m) by Newton
    interpolation on the principal lattice {x in N^n : |x| <= m}; float
    entries count as the binary rationals they are.  F is cleared by one lcm
    D, and det(D F) is evaluated at every lattice point with integer
    multiply-adds and Bareiss.  Divided differences along each axis give its
    coefficients in the falling-factorial basis, the one of index a using only
    the points <= a; converting back along each axis gives its integer
    monomial coefficients, divided by D^m."""
    m, nvars = pencil.m, pencil.nvars
    mats = [[[x.as_integer_ratio() for x in row] for row in mat] for mat in pencil.mats]
    den = math.lcm(*[d for mat in mats for row in mat for _, d in row])
    ints = [[[n * (den // d) for n, d in row] for row in mat] for mat in mats]
    monos = [e for e in itertools.product(range(m + 1), repeat=nvars) if sum(e) <= m]
    vals = {mono: _bareiss([[sum([e * G[i][j] for e, G in zip((1,) + mono, ints)])
                             for j in range(m)] for i in range(m)]) for mono in monos}
    for convert in (_divided_differences, _newton_to_monomial):
        for axis in range(nvars):
            for start in monos:
                if start[axis] == 0:  # each lattice line along the axis once
                    line = [start[:axis] + (k,) + start[axis + 1:]
                            for k in range(m + 1 - sum(start))]
                    vals.update(zip(line, convert([vals[pt] for pt in line])))
    return Poly._make({mono: vals[mono] for mono in monos if vals[mono]}, den**m, nvars)


def verify_pencil_det(pencil: Pencil, p: Poly):
    """Scale c with det F(x) = c p(x); raises DeterminantMismatchError.

    det F is interpolated exactly.  An exact pencil must match c p exactly
    and gives an exact c; a pencil with float entries may differ by 1e-8
    times its largest determinant coefficient and gives a float c.
    """
    if p.is_zero():
        raise ValueError("cannot verify against the zero polynomial")
    if p.nvars != pencil.nvars:
        raise DimensionMismatchError("pencil and polynomial arity differ")
    if p.degree > pencil.m:
        raise DimensionMismatchError(
            f"deg p = {p.degree} exceeds pencil size {pencil.m}")
    anchor = max(p.ints, key=lambda e: abs(p.ints[e]))
    det = interpolate_det(pencil)
    # with det = D / dd and p = P / dp, c = D_a dp / (dd P_a) and det - c p is
    # (D P_a - D_a P) / (dd P_a): integer gaps, keyed in the order of det, then p
    pa, da, dd = p.ints[anchor], det.ints.get(anchor, 0), det.den
    gaps = {e: v * pa for e, v in det.ints.items()}
    _add_ints(gaps, p.ints, -da)
    exact = pencil.is_exact()
    tol = 0.0 if exact else 1e-8 * max([1, *[abs(v) / dd for v in det.ints.values()]])
    tn, td = tol.as_integer_ratio()  # |gap| > tol, exactly
    cast = Fraction if exact else float  # the type of every reported number
    for mono, gap in gaps.items():
        if abs(gap) * td > tn * abs(dd * pa):
            raise DeterminantMismatchError(
                f"det F != c*p at monomial {mono}", monomial=mono,
                got=cast(det.coeff(mono)),
                expected=cast(Fraction(da * p.ints.get(mono, 0), dd * pa)))
    return cast(Fraction(da * p.den, dd * pa))


# ---------------------------------------------------------------------------
# rigid convexity at the origin
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidVerdict:
    status: str  # StrictlyRigid | Marginal | No
    eigenvalues: tuple[float, ...]  # float eigenvalues of F0, diagnostics only

    STRICT = "StrictlyRigid"
    MARGINAL = "Marginal"
    NO = "No"


def rigid_at_origin(pencil: Pencil) -> RigidVerdict:
    """Classify F(0) = F0 by its exact inertia: PD, PSD-with-kernel, or not
    PSD."""
    _pos, neg, zero = signature_exact(pencil.mats[0])
    if neg:
        status = RigidVerdict.NO
    else:
        status = RigidVerdict.MARGINAL if zero else RigidVerdict.STRICT
    eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in pencil.mats[0]]))
    return RigidVerdict(status, tuple(float(e) for e in eigs))
