"""Determinantal representations of smooth plane cubics via Hessian homotopy.

Homogenise the cubic p to P(x0, x1, x2).  Its Hessian matrix at x0 = 1 is
a ``Pencil``, H(P)(1, x1, x2) = F0 + x1 F1 + x2 F2, read off P's
coefficients: entry (i, j) of F_k is the third partial of P in x_i, x_j,
x_k.  Its exact lattice determinant (``bezout.interpolate_det``),
homogenised, is h = det H(P).  Follow the family s(x, t) = h(x) + t P(x).
H is linear, so det H(s(x, t)) is a cubic in t whose t^3 coefficient is
h; three determinants give the rest.  The values t*
for which det H(s(x, t*)) is proportional to P(x) (a cubic condition, so up
to three real solutions) each yield a symmetric pencil

    F(x) = mu * H(s(x, t*))|_{x0 = 1},   mu = c^{-1/3},

with det F(x) = p(x) exactly.  Proportionality is found by matching every
coefficient against one anchor coefficient instead of evaluating at a flex,
which avoids computing flexes altogether.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bezout import interpolate_det
from .errors import IdenticallyZeroResultantError, NoRealSolutionError, SingularCubicError
from .locate import _solve_system, real_roots_with_multiplicity
from .polycore import _ZERO, Pencil, Poly, Scalar, UniPoly, det_exact, interpolate_exact


# ---------------------------------------------------------------------------
# homogeneous cubics (variables x0, x1, x2; exponent keys (a0, a1, a2))
# ---------------------------------------------------------------------------

def homogenize(p: Poly) -> Poly:
    """P(x0, x1, x2) = x0^3 p(x1/x0, x2/x0) for a bivariate cubic."""
    if p.nvars != 2 or p.degree > 3:
        raise ValueError("expected a bivariate polynomial of degree <= 3")
    return Poly({(3 - a - b, a, b): v for (a, b), v in p.coeffs.items()}, nvars=3)


# entry (i, j) of F_k is the third partial of P in x_i, x_j, x_k: P's
# coefficient at e = e_i + e_j + e_k times e0! e1! e2!
_TENSOR_EXPONENTS = tuple(tuple(tuple(tuple((i == v) + (j == v) + (k == v) for v in range(3))
                                      for j in range(3)) for i in range(3)) for k in range(3))


def hessian(P: Poly) -> Pencil:
    """The Hessian matrix of a homogeneous cubic at x0 = 1, as the pencil
    F(x1, x2) = H(P)(1, x1, x2).  H(P) is linear in x, so F0, F1, F2 are
    P's coefficients read as its third-derivative tensor."""
    if P.nvars != 3:
        raise ValueError("expected a homogeneous cubic in x0, x1, x2")
    third = {e: v * math.prod(map(math.factorial, e)) for e, v in P.coeffs.items()}
    return Pencil(3, tuple(tuple(tuple(third.get(e, _ZERO) for e in row) for row in mat)
                           for mat in _TENSOR_EXPONENTS))


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
    # the coefficient of dF/dx_i at the quadratic monomial m is (m_i + 1) F[m + e_i]
    monos = [(a, b, 2 - a - b) for a in range(3) for b in range(3 - a)]
    rows = [[(m[i] + 1) * F.coeff(m[:i] + (m[i] + 1,) + m[i + 1:])
             for m in monos] for F in (P, h) for i in range(3)]
    if det_exact(rows) != 0:
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
    """Coefficients of det H(h + t P) as exact polynomials in t (degree <= 3).
    H is linear, so the t^3 coefficient is det H(P) = h; the rest is
    interpolated exactly at t = -1, 0, 1, where t^3 = t.  h's support joins
    the monomials explicitly: h_m (t^3 - t) vanishes at all three points."""
    dets = [hessian_det(h + P * t) for t in (-1, 0, 1)]
    monos = sorted(set().union(*(d.coeffs for d in dets), P.coeffs, h.coeffs))
    return {mono: UniPoly(interpolate_exact([d.coeff(mono) - h.coeff(mono) * t
                                             for d, t in zip(dets, (-1, 0, 1))], -1)
                          + [h.coeff(mono)])
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
        # h + t P is formed before the factorial factors of hessian, not as
        # H(h) + t H(P): with a float t* the two round differently
        pencil = hessian(h + P * t).scaled(mu).with_scale(1)
        reps.append(CubicRepresentation(t, c, mu, pencil))
    if not reps:
        raise NoRealSolutionError("no real homotopy parameter found")
    reps.sort(key=lambda r: float(r.t_star))
    return reps
