"""Determinantal representations of smooth plane cubics via Hessian homotopy.

Homogenise the cubic p to P(x0, x1, x2).  Its Hessian matrix at x0 = 1 is
a ``Pencil``, H(P)(1, x1, x2) = F0 + x1 F1 + x2 F2, whose exact lattice
determinant (``bezout.interpolate_det``), homogenised, is h = det H(P).
Follow the family s(x, t) = h(x) + t P(x).  The values t*
for which det H(s(x, t*)) is proportional to P(x) (a cubic condition, so up
to three real solutions) each yield a symmetric pencil

    F(x) = mu * H(s(x, t*))|_{x0 = 1},   mu = c^{-1/3},

with det F(x) = p(x) exactly.  Proportionality is found by matching every
coefficient against one anchor coefficient instead of evaluating at a flex,
which avoids computing flexes altogether.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bezout import interpolate_det
from .errors import IdenticallyZeroResultantError, NoRealSolutionError, SingularCubicError
from .locate import _solve_system, real_roots_with_multiplicity
from .polycore import Pencil, Poly, Scalar, UniPoly, det_exact, interpolate_exact


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
    """Common (complex) zero of {p, dp/dx1, dp/dx2}, or None: the complex
    solutions of the gradient system, the first on which p vanishes."""
    norm = max(abs(float(v)) for v in p.coeffs.values())
    try:
        raw = _solve_system(p.partial(0), p.partial(1), real=False)
    except IdenticallyZeroResultantError:
        return None
    return next(((x1v, x2v) for x1v, x2v in raw if abs(p(x1v, x2v))
                 <= 1e-7 * (1.0 + norm * max(1.0, abs(x1v), abs(x2v)) ** p.degree)), None)


def check_smooth_cubic(p: Poly, h: Poly) -> None:
    """Raise SingularCubicError when the projective cubic of p is singular.

    P = homogenize(p) is smooth exactly when its partials P_0, P_1, P_2, three
    ternary quadrics, have no common projective zero.  By Sylvester's formula
    that resultant is, up to a nonzero constant, the determinant of the
    coefficients of P_0, P_1, P_2 and of the partials of their Jacobian
    h = det H(P) over the six quadratic monomials.  Only a singular cubic is
    searched for an affine singular point, to name it in the message.
    """
    P = homogenize(p)
    quadrics = [P.partial(i) for i in range(3)] + [h.partial(i) for i in range(3)]
    monos = [(a, b, 2 - a - b) for a in range(3) for b in range(3 - a)]
    if det_exact([[q.coeff(mono) for mono in monos] for q in quadrics]) != 0:
        return
    point = _affine_singular_point(p)
    if point is None:
        raise SingularCubicError("cubic is singular at infinity", singular_point=None)
    # complex float roots carry rounding-level imaginary parts; + 0.0 turns
    # a rounded -0.0 into 0.0
    display = tuple(round(v.real, 12) + 0.0 if abs(v.imag) <= 1e-6 * max(1.0, abs(v))
                    else v for v in point)
    raise SingularCubicError(
        f"cubic is singular near {display}; use the parametrization route "
        "for genus-zero cubics", singular_point=display)


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubicRepresentation:
    t_star: Scalar
    c: Scalar           # det H(s(x, t*)) = c * P(x)
    mu: Scalar          # real cube root, det(mu H) = P
    pencil: Pencil      # dehomogenised, det F(x) = p(x)


def _icbrt(n: int) -> int:
    """Floor of the cube root of n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _cube_root_exact(c: Fraction):
    """Rational cube root of c, or None."""
    if c == 0:
        return None
    num, den = abs(c.numerator), c.denominator
    n, d = _icbrt(num), _icbrt(den)
    if n**3 != num or d**3 != den:
        return None
    return Fraction(n if c > 0 else -n, d)


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
    P = homogenize(p)
    h = hessian_det(P)
    check_smooth_cubic(p, h)
    gpoly = _monomial_t_polys(P, h)

    # det H(h + t P) = c P exactly when g_b(t) P_A = g_A(t) P_b for every
    # monomial b, A the anchor of largest |P_A|; with P_A != 0 these generate
    # every pairwise condition g_a P_b - g_b P_a = 0
    anchor = max(P.coeffs, key=lambda e: abs(P.coeffs[e]))
    pa = P.coeff(anchor)
    constraints = [r for r in (gpoly[b] * pa - gpoly[anchor] * P.coeff(b)
                               for b in sorted(gpoly)) if not r.is_zero()]
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

    reps = []
    for tval, _mult in real_roots_with_multiplicity(gcd):
        t: Scalar = tval
        snapped = Fraction(tval).limit_denominator(10**9)
        if all(r(snapped) == 0 for r in constraints):
            t = snapped
        c = gpoly[anchor](t) / pa
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
