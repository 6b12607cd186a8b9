"""Determinantal representations of smooth plane cubics via Hessian homotopy.

Homogenise the cubic p to P(x0, x1, x2).  Its Hessian matrix at x0 = 1 is
a ``Pencil``, H(P)(1, x1, x2) = F0 + x1 F1 + x2 F2, whose exact lattice
determinant (``bezout.interpolate_det``), homogenised, is h = det H(P).
Follow the family s(x, t) = h(x) + t P(x).  The values t*
for which det H(s(x, t*)) is proportional to P(x) (a cubic condition, so up
to three real solutions) each yield a symmetric pencil

    F(x) = mu * H(s(x, t*))|_{x0 = 1},   mu = c^{-1/3},

with det F(x) = p(x) exactly.  Proportionality is found by matching
coefficients pairwise instead of evaluating at a flex, which avoids
computing flexes altogether.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bezout import interpolate_det
from .errors import IdenticallyZeroResultantError, NoRealSolutionError, SingularCubicError
from .locate import _solve_system, real_roots_with_multiplicity
from .polycore import Pencil, Poly, Scalar, UniPoly, interpolate_exact


# ---------------------------------------------------------------------------
# homogeneous cubics (variables x0, x1, x2; exponent keys (a0, a1, a2))
# ---------------------------------------------------------------------------

def homogenize(p: Poly) -> Poly:
    """P(x0, x1, x2) = x0^3 p(x1/x0, x2/x0) for a bivariate cubic."""
    if p.nvars != 2 or p.degree > 3:
        raise ValueError("expected a bivariate polynomial of degree <= 3")
    return Poly({(3 - a - b, a, b): v for (a, b), v in p.coeffs.items()}, nvars=3)


def hessian(P: Poly) -> Pencil:
    """The Hessian matrix of a homogeneous cubic at x0 = 1, as the pencil
    F(x1, x2) = H(P)(1, x1, x2): F0, F1, F2 are the x0, x1, x2 coefficient
    matrices of H(P), whose entries are linear forms."""
    if P.nvars != 3:
        raise ValueError("expected a homogeneous cubic in x0, x1, x2")
    second = [[P.partial(i).partial(j) for j in range(3)] for i in range(3)]
    units = [tuple(int(k == var) for k in range(3)) for var in range(3)]
    return Pencil.from_rows(*([[second[i][j].coeff(unit) for j in range(3)]
                               for i in range(3)] for unit in units))


def hessian_det(P: Poly) -> Poly:
    """h(x) = det H(P) for an exact P; again a homogeneous cubic, so it is
    the homogenisation of the determinant of the pencil at x0 = 1."""
    return homogenize(interpolate_det(hessian(P)))


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

def _affine_singular_point(p: Poly):
    """Common (complex) zero of {p, dp/dx1, dp/dx2}, or None."""
    g1, g2 = p.partial(0), p.partial(1)
    norm = max(abs(float(v)) for v in p.coeffs.values())
    try:
        raw = _solve_system(g1, g2, real=False)
    except IdenticallyZeroResultantError:
        return None
    for x1v, x2v in raw:
        tol = 1e-7 * (1.0 + norm * max(1.0, abs(x1v), abs(x2v)) ** p.degree)
        vals = [abs(q(x1v, x2v)) for q in (p, g1, g2)]
        if all(v <= tol for v in vals):
            return (x1v, x2v)
    return None


def _singular_at_infinity(P: Poly) -> bool:
    """Common projective zero of the three partials restricted to x0 = 0.

    Each restricted partial is a binary quadratic form in (x1, x2); the
    direction (1 : 0) is tested separately, the rest through an exact gcd of
    the dehomogenisations at x2 = 1.
    """
    forms = []
    for i in range(3):
        q = P.partial(i)
        binary = {(a1, a2): v for (a0, a1, a2), v in q.coeffs.items() if a0 == 0}
        if binary:
            forms.append(binary)
    if not forms:
        return True
    if all(form.get((2, 0), Fraction(0)) == 0 for form in forms):
        return True  # common zero in direction (1 : 0)
    gcd = None
    for form in forms:
        uni = UniPoly([form.get((k, 2 - k), Fraction(0)) for k in range(3)])
        gcd = uni if gcd is None else gcd.gcd(uni)
        if gcd.degree < 1:
            return False
    return gcd is not None and gcd.degree >= 1


def check_smooth_cubic(p: Poly) -> None:
    """Raise SingularCubicError when the projective cubic is singular."""
    if p.degree != 3:
        raise ValueError("expected a cubic")
    point = _affine_singular_point(p)
    if point is not None:
        # numpy.roots splits a double root by about sqrt(eps), so a cusp's
        # real coordinate can carry an imaginary part near 1e-8
        display = tuple(round(v.real, 12) if abs(v.imag) <= 1e-6 * max(1.0, abs(v))
                        else v for v in point)
        raise SingularCubicError(
            f"cubic is singular near {display}; use the parametrization route "
            "for genus-zero cubics", singular_point=display)
    if _singular_at_infinity(homogenize(p)):
        raise SingularCubicError("cubic is singular at infinity",
                                 singular_point=None)


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubicRepresentation:
    t_star: Scalar
    c: Scalar           # det H(s(x, t*)) = c * P(x)
    mu: Scalar          # real cube root, det(mu H) = P
    pencil: Pencil      # dehomogenised, det F(x) = p(x)


def _cube_root_exact(c: Fraction):
    """Rational cube root of c, or None."""
    if c == 0:
        return None
    sign = 1 if c > 0 else -1
    num, den = abs(c.numerator), c.denominator
    rn = round(num ** (1 / 3))
    rd = round(den ** (1 / 3))
    for n in (rn - 1, rn, rn + 1):
        for d in (rd - 1, rd, rd + 1):
            if n > 0 and d > 0 and n**3 == num and d**3 == den:
                return Fraction(sign * n, d)
    return None


def _monomial_t_polys(P: Poly, h: Poly) -> dict[tuple, UniPoly]:
    """Coefficients of det H(h + t P) as exact polynomials in t (degree <= 3),
    recovered by exact Newton interpolation at t = -1, 0, 1, 2."""
    dets = [hessian_det(h + P * t) for t in (-1, 0, 1, 2)]
    monos = sorted(set().union(*(set(d.coeffs) for d in dets)) | set(P.coeffs))
    return {mono: UniPoly(interpolate_exact([d.coeff(mono) for d in dets], -1))
            for mono in monos}


def cubic_representations(p: Poly) -> list[CubicRepresentation]:
    """All real symmetric pencils from the Hessian homotopy, sorted by t*.

    Raises SingularCubicError for genus-zero input and NoRealSolutionError
    when no real homotopy parameter works.
    """
    if p.nvars != 2 or p.degree != 3:
        raise ValueError("expected a bivariate cubic")
    check_smooth_cubic(p)

    P = homogenize(p)
    h = hessian_det(P)
    gpoly = _monomial_t_polys(P, h)

    # eliminate the proportionality constant: g_a(t) P_b - g_b(t) P_a = 0
    monos = sorted(gpoly)
    constraints = []
    for i, a in enumerate(monos):
        for b in monos[i + 1:]:
            pa, pb = P.coeff(a), P.coeff(b)
            if pa == 0 and pb == 0:
                continue
            r = gpoly[a] * pb - gpoly[b] * pa
            if not r.is_zero():
                constraints.append(r)
    if not constraints:
        raise NoRealSolutionError("proportionality constraints are vacuous")
    gcd = constraints[0]
    for r in constraints[1:]:
        gcd = gcd.gcd(r)
        if gcd.degree == 0:
            break
    if gcd.degree < 1:
        raise NoRealSolutionError("no homotopy parameter matches the cubic")
    assert gcd.degree <= 3

    anchor = max(P.coeffs, key=lambda e: abs(P.coeffs[e]))
    reps = []
    for tval, _mult in real_roots_with_multiplicity(gcd):
        t: Scalar = tval
        snapped = Fraction(tval).limit_denominator(10**9)
        if all(r(snapped) == 0 for r in constraints):
            t = snapped
        c = gpoly[anchor](t) / P.coeff(anchor)
        if c == 0:
            continue
        root = _cube_root_exact(c) if isinstance(c, Fraction) else None
        mu = 1 / root if root is not None else float(np.sign(float(c)) * abs(float(c)) ** (-1 / 3))
        pencil = hessian(h + P * t).scaled(mu).with_scale(1)
        reps.append(CubicRepresentation(t, c, mu, pencil))
    if not reps:
        raise NoRealSolutionError("no real homotopy parameter found")
    reps.sort(key=lambda r: float(r.t_star))
    return reps
