"""Determinantal representations of smooth plane cubics via Hessian homotopy.

Homogenise the cubic p to P(x0, x1, x2).  Its Hessian matrix at x0 = 1 is
a ``Pencil``, H(P)(1, x1, x2) = F0 + x1 F1 + x2 F2, read off P's
coefficients: entry (i, j) of F_k is the third partial of P in x_i, x_j,
x_k.  Its exact lattice determinant (``bezout.interpolate_det``),
homogenised, is h = det H(P).  Follow the family s(x, t) = h(x) + t P(x).
For a smooth P the Hessian maps the Hesse pencil spanned by P and h into
itself, so det H(s(x, t)) = A(t) P(x) + B(t) h(x) with B a monic cubic; the
determinants of two 3 x 3 one-variable pencils, at lattice points that
separate P and h, give A and B.  Each real root t* of B (at least one, at
most three) yields a symmetric pencil

    F(x) = mu * H(s(x, t*))|_{x0 = 1},   mu = c^{-1/3},   c = A(t*),

with det F(x) = p(x) exactly.  No flex is computed.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bezout import interpolate_det
from .errors import IdenticallyZeroResultantError, SingularCubicError
from .locate import _solve_system, real_roots_with_multiplicity
from .polycore import _ZERO, Pencil, Poly, Scalar, UniPoly, det_exact


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


def _hesse_coordinates(P: Poly, h: Poly) -> tuple[UniPoly, UniPoly]:
    """(A, B) with det H(h + t P) = A(t) P + B(t) h, B monic of degree 3.

    A smooth P is, in some coordinates, a (x^3 + y^3 + z^3) + b xyz, whose
    Hessian -6ab^2 (x^3 + y^3 + z^3) + (216a^3 + 2b^3) xyz is again in that
    Hesse pencil.  At a point x, g_x(t) = det(H(h)(x) + t H(P)(x)) is
    A(t) P(x) + B(t) h(x).  The principal lattice of order 3 is unisolvent for
    cubics, so two of its points separate P and h, which are independent; the
    first such pair gives A and B by Cramer's rule."""
    @functools.cache
    def value(x):  # (P(x), h(x)) at an integer point
        return tuple(sum(c * math.prod(map(pow, x, e)) for e, c in F.coeffs.items())
                     for F in (P, h))

    lattice = ((3 - a - b, a, b) for a in range(4) for b in range(4 - a))
    x, y = next((x, y) for x, y in itertools.combinations(lattice, 2)
                if value(x)[0] * value(y)[1] != value(y)[0] * value(x)[1])
    (px, hx), (py, hy) = value(x), value(y)
    mats = hessian(h).mats, hessian(P).mats

    def g(x) -> UniPoly:  # det(H(h)(x) + t H(P)(x)), H(x) = x0 F0 + x1 F1 + x2 F2
        at = tuple(tuple(tuple(sum(xk * F[i][j] for xk, F in zip(x, pencil) if xk)
                               for j in range(3)) for i in range(3)) for pencil in mats)
        det = interpolate_det(Pencil(3, at))
        return UniPoly(det.coeff((k,)) for k in range(4))

    gx, gy, delta = g(x), g(y), px * hy - py * hx
    return (gx * hy - gy * hx) * (1 / delta), (gy * px - gx * py) * (1 / delta)


def cubic_representations(p: Poly) -> list[CubicRepresentation]:
    """All real symmetric pencils from the Hessian homotopy, sorted by t*.

    Raises SingularCubicError for genus-zero input.  B has odd degree, so at
    least one t* is real.  The roots come sorted, so the pencils do too."""
    if p.nvars != 2 or p.degree != 3:
        raise ValueError("expected a bivariate cubic")
    P = homogenize(p)
    h = hessian_det(P)
    check_smooth_cubic(p, h)
    A, B = _hesse_coordinates(P, h)

    # det H(h + t* P) = A(t*) P exactly when B(t*) = 0; c is its coefficient
    # at the anchor a of largest |P_a|, over P_a: A(t*) alone would round
    # differently at a float t*
    anchor = max(P.coeffs, key=lambda e: abs(P.coeffs[e]))
    pa = P.coeff(anchor)
    g_anchor = A * pa + B * h.coeff(anchor)

    reps = []
    for tval, _mult in real_roots_with_multiplicity(B):
        snapped = Fraction(tval).limit_denominator(10**9)
        t: Scalar = snapped if B(snapped) == 0 else tval
        c = g_anchor(t) / pa
        root = _cube_root_exact(c) if isinstance(c, Fraction) else None
        mu = 1 / root if root is not None else float(np.sign(float(c)) * abs(float(c)) ** (-1 / 3))
        # h + t P is formed before the factorial factors of hessian, not as
        # H(h) + t H(P): with a float t* the two round differently
        pencil = hessian(h + P * t).scaled(mu).with_scale(1)
        reps.append(CubicRepresentation(t, c, mu, pencil))
    return reps
