"""Determinantal representations of smooth plane cubics via Hessian homotopy.

Homogenise the cubic p to P(x0, x1, x2).  Its Hessian matrix is linear in
x, H(P)(x) = x0 F0 + x1 F1 + x2 F2, read off P's integers: entry (i, j) of
F_k is the third partial of P in x_i, x_j, x_k.  Along s(x, t) = h(x) +
t P(x), h = det H(P), a smooth P's Hessian maps the Hesse pencil of P and h
into itself: det H(s(x, t)) = A(t) P(x) + B(t) h(x), B a monic cubic.  h,
and det H(s) at two lattice points that separate P and h (A and B as integer
lists), expand over columns into integer 3 x 3 determinants (``_det_form``).
Each real root t* of B (at least one, at most three) yields a symmetric pencil

    F(x) = mu * H(s(x, t*))|_{x0 = 1},   mu = c^{-1/3},   c = A(t*),

with det F(x) = p(x) exactly.  No flex is computed, and Fractions only at a
rational t*.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IdenticallyZeroResultantError, SingularCubicError
from .locate import _narrowed, _root_in, _solve_system
from .polycore import _ZERO, Pencil, Poly, Scalar, _bareiss, _horner, _squarefree_factors
from .realroots import real_roots


# ---------------------------------------------------------------------------
# homogeneous cubics (variables x0, x1, x2; exponent keys (a0, a1, a2))
# ---------------------------------------------------------------------------

def homogenize(p: Poly) -> Poly:
    """P(x0, x1, x2) = x0^3 p(x1/x0, x2/x0) for a bivariate cubic."""
    if p.nvars != 2 or p.degree > 3:
        raise ValueError("expected a bivariate polynomial of degree <= 3")
    return Poly._make({(3 - a - b, a, b): v for (a, b), v in p.ints.items()}, p.den, 3)


# entry (i, j) of F_k is the third partial of P in x_i, x_j, x_k: P's
# coefficient at e = e_i + e_j + e_k times e0! e1! e2!
_TENSOR_EXPONENTS = tuple(tuple(tuple(tuple((i == v) + (j == v) + (k == v) for v in range(3))
                                      for j in range(3)) for i in range(3)) for k in range(3))
_WEIGHT = {e: math.prod(map(math.factorial, e)) for e in itertools.product(range(4), repeat=3)}


def _tensor(coeffs: dict, zero=_ZERO) -> tuple:
    """(F0, F1, F2) of the cubic with these coefficients, ``zero`` off its keys."""
    return tuple(tuple(tuple(coeffs[e] * _WEIGHT[e] if e in coeffs else zero for e in row)
                       for row in mat) for mat in _TENSOR_EXPONENTS)


def hessian(P: Poly) -> Pencil:
    """The Hessian matrix of a homogeneous cubic at x0 = 1, as the pencil
    F(x1, x2) = H(P)(1, x1, x2).  H(P) is linear in x, so F0, F1, F2 are
    P's coefficients read as its third-derivative tensor."""
    if P.nvars != 3:
        raise ValueError("expected a homogeneous cubic in x0, x1, x2")
    return Pencil(3, _tensor({e: Fraction(v, P.den) for e, v in P.ints.items()}))


# each (k0, k1, k2) in {0, .., r-1}^3 with how often it picks each k
_CHOICES = {r: [(ks, tuple(map(ks.count, range(r))))
                for ks in itertools.product(range(r), repeat=3)] for r in (2, 3)}


def _det_form(mats) -> dict:
    """det(y_0 C_0 + ... + y_(r-1) C_(r-1)) for r = 2 or 3 integer symmetric 3 x 3
    matrices C_k: a cubic form in y keyed by exponent, zeros kept.  det is linear in
    each column, and column j of C_k is its row j, so y^e sums det(C_k0[0], C_k1[1],
    C_k2[2]) over the choices (k0, k1, k2) that pick each k e_k times."""
    out = {}
    for (k0, k1, k2), e in _CHOICES[len(mats)]:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = mats[k0][0], mats[k1][1], mats[k2][2]
        out[e] = out.get(e, 0) + (a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2)
                                  + a2 * (b0 * c1 - b1 * c0))
    return out


def hessian_det(P: Poly) -> Poly:
    """h(x) = det H(P), again a homogeneous cubic: den^3 h is
    det(x0 F0 + x1 F1 + x2 F2) on the integer tensor of den P (``_det_form``)."""
    if P.nvars != 3:
        raise ValueError("expected a homogeneous cubic in x0, x1, x2")
    return Poly._make({e: v for e, v in _det_form(_tensor(P.ints, 0)).items() if v},
                      P.den**3, 3)


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

def _affine_singular_point(p: Poly):
    """Common (complex) zero of {p, dp/dx1, dp/dx2}, or None: the complex
    solutions of the gradient system, the first on which p vanishes."""
    norm = max(abs(v / p.den) for v in p.ints.values())
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
    # dF/dx_i has (m_i + 1) F[m + e_i] at the quadratic monomial m; den F scales a row
    monos = [(a, b, 2 - a - b) for a in range(3) for b in range(3 - a)]
    rows = [[(m[i] + 1) * F.ints.get(m[:i] + (m[i] + 1,) + m[i + 1:], 0)
             for m in monos] for F in (P, h) for i in range(3)]
    if _bareiss(rows) != 0:
        return
    point = _affine_singular_point(p)
    if point is None:
        raise SingularCubicError("cubic is singular at infinity", singular_point=None)
    # complex float roots carry rounding-level parts: each part is rounded to
    # 12 digits, and + 0.0 turns a rounded -0.0 into 0.0
    display = tuple(round(v.real, 12) + 0.0 if abs(v.imag) <= 1e-6 * max(1.0, abs(v))
                    else complex(round(v.real, 12) + 0.0, round(v.imag, 12) + 0.0) for v in point)
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


def _hesse_coordinates(P: Poly, h: Poly) -> tuple[list, list, int]:
    """(a, b, den), integer lists in t and an integer: det H(h + t P) = A(t) P + B(t) h
    with A = dP a / den, B = dh b / den monic, dP and dh the denominators of P and h.

    A smooth P is, in some coordinates, a (x^3 + y^3 + z^3) + b xyz, whose
    Hessian -6ab^2 (x^3 + y^3 + z^3) + (216a^3 + 2b^3) xyz is again in that
    Hesse pencil.  At a point x, g_x(t) = det(H(h)(x) + t H(P)(x)) is
    A(t) P(x) + B(t) h(x).  The principal lattice of order 3 is unisolvent for
    cubics, so two of its points separate P and h, which are independent; the
    first such pair gives A and B by Cramer's rule.  On the integers value(x) is
    (dP P(x), dh h(x)) and g(x) = (dP dh)^3 g_x is det(M0 + t M1), M0 = dP H(dh h)(x),
    M1 = dh H(dP P)(x): its t^s coefficient sums the column choices taking s from M1."""
    @functools.cache
    def value(x):  # (dP P(x), dh h(x)) at an integer point
        return tuple(sum([v * math.prod(map(pow, x, e)) for e, v in F.ints.items()])
                     for F in (P, h))

    lattice = ((3 - a - b, a, b) for a in range(4) for b in range(4 - a))
    x, y = next((x, y) for x, y in itertools.combinations(lattice, 2)
                if value(x)[0] * value(y)[1] != value(y)[0] * value(x)[1])
    (px, hx), (py, hy) = value(x), value(y)
    scaled = (P.den, _tensor(h.ints, 0)), (h.den, _tensor(P.ints, 0))

    def g(x) -> list:  # (M0, M1) at x as H(x) = x0 F0 + x1 F1 + x2 F2, then det(M0 + t M1)
        form = _det_form([[[f * sum([xk * F[i][j] for xk, F in zip(x, mats) if xk])
                            for j in range(3)] for i in range(3)] for f, mats in scaled])
        return [form[3 - s, s] for s in range(4)]

    # Cramer's rule in the scaled values, delta = dP P(x) dh h(y) - dP P(y) dh h(x):
    # A = (g_x h(y) - g_y h(x)) / delta, B = (g_y P(x) - g_x P(y)) / delta
    gx, gy, s = g(x), g(y), P.den * h.den
    return ([u * hy - v * hx for u, v in zip(gx, gy)], [v * px - u * py for u, v in zip(gx, gy)],
            s**3 * (px * hy - py * hx))


def _hessian_at(P: Poly, h: Poly, t: Scalar) -> Pencil:
    """``hessian(h + t P)``, exact at an exact t.  At a float t* this is the
    one float step: h_m + P_m t* on P's support, h_m and P_m each its
    integers' correctly rounded quotient (as float(Fraction) rounds), before
    the factorial factor w_m of ``hessian`` (H(h) + t H(P) would round
    differently); h's other monomials round h_m w_m once."""
    div, zero = (int.__truediv__, 0.0) if isinstance(t, float) else (Fraction, _ZERO)
    out = {e: div(v * _WEIGHT[e], h.den) for e, v in h.ints.items()}
    for e, v in P.ints.items():
        x = div(h.ints.get(e, 0), h.den) + div(v, P.den) * t
        out[e] = x * _WEIGHT[e] if x else zero  # as a Poly drops zeros
    return Pencil(3, tuple(tuple(tuple(out.get(e, zero) for e in row) for row in mat)
                           for mat in _TENSOR_EXPONENTS))


def cubic_representations(p: Poly) -> list[CubicRepresentation]:
    """All real symmetric pencils from the Hessian homotopy, sorted by t*.

    Raises SingularCubicError for genus-zero input.  B has odd degree, so at
    least one t* is real.  Each is read off its square-free factor of B
    (``locate._root_in`` on the ``_narrowed`` interval): exact when rational,
    else its isolating interval's midpoint."""
    if p.nvars != 2 or p.degree != 3:
        raise ValueError("expected a bivariate cubic")
    P = homogenize(p)
    h = hessian_det(P)
    check_smooth_cubic(p, h)
    a, b, den = _hesse_coordinates(P, h)

    # det H(h + t* P) = A(t*) P exactly when B(t*) = 0; c is its coefficient at the
    # anchor m of largest |P_m| over P_m, g(t*) dP / (den P.ints[m]) with
    # g = a P.ints[m] + b h.ints[m] (A(t*) alone would round differently at a float t*)
    anchor = max(P.ints, key=lambda e: abs(P.ints[e]))
    pa = P.ints[anchor]
    g = [u * pa + v * h.ints.get(anchor, 0) for u, v in zip(a, b)]
    reps = []
    for (y, exact), mid in sorted((_root_in(f, *_narrowed(f, lo, hi)), (lo + hi) / 2)
                                  for f, _ in _squarefree_factors(b) for lo, hi in real_roots(f)):
        # t* = y when rational, else the float its isolating interval rounds to,
        # and then Horner on the correctly rounded g_k / den
        div, t = (Fraction, y) if exact else (int.__truediv__, float(mid))
        c = _horner([div(v, den) for v in g], t) / div(pa, P.den)
        root = _cube_root_exact(c) if exact else None
        mu = 1 / root if root is not None else float(np.sign(float(c)) * abs(float(c)) ** (-1 / 3))
        reps.append(CubicRepresentation(t, c, mu, _hessian_at(P, h, t).scaled(mu).with_scale(1)))
    return reps
