"""Bezout matrices and symmetric pencils from rational curve parametrizations.

For univariate g, h of (padded) degree m the Bezout matrix B(g, h) collects
the coefficients of (g(u)h(v) - g(v)h(u)) / (u - v); it is symmetric,
bilinear, and det B is the resultant.  Writing the curve as
x1 = q1(u)/q0(u), x2 = q2(u)/q0(u) and eliminating u from
q1 - x1 q0 = q2 - x2 q0 = 0 gives the symmetric pencil

    F(x) = B(q1, q2) + x1 B(q2, q0) - x2 B(q1, q0)

whose determinant is proportional to the implicit equation p(x).  Positive
semidefiniteness of F(0) = B(q1, q2) decides rigid convexity around the
origin.  The pencil is built on integers: q0, q1, q2 times one common
denominator d, so d^2 F is integral and det F is scaled by d^(2m); its
Fractions are views, its floats made once per pencil (``Pencil.floats``).
Every decision is exact: det F comes from the integer lattice of
``interpolate_det`` and the inertia of F(0) from the characteristic
polynomial of ``signature_exact``.  Float eigenvalues are diagnostics only.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegreeZeroError, DeterminantMismatchError, DimensionMismatchError
from .polycore import Pencil, Poly, UniPoly, _add_ints, _bareiss, _cleared, \
    _divided_differences, _interpolate_minors, _newton_to_monomial, _variations


def _bezout_ints(g: list, h: list, m: int) -> list:
    """Integer m x m Bezout matrix of coefficient lists of length m + 1: as
    (u^i v^j - u^j v^i)/(u - v) = sum of u^(j+s) v^(i-1-s), s < i - j, entry
    (r, c) sums g_i h_j - g_j h_i over i + j = r + c + 1, j <= min(r, c)."""
    B = [[0] * m for _ in range(m)]
    for r in range(m):
        for c in range(r, m):
            k = r + c + 1
            B[r][c] = B[c][r] = sum([g[k - j] * h[j] - g[j] * h[k - j]
                                     for j in range(max(0, k - m), r + 1)])
    return B


def bezout_matrix(g: UniPoly, h: UniPoly, m: int | None = None) -> list:
    """Exact m x m Bezout matrix of g and h (shorter input zero-padded), as
    Fractions: B(d g, d h) / d^2 for one common denominator d."""
    m = max(g.degree, h.degree) if m is None else m
    if m < 1:
        raise DegreeZeroError("Bezout matrix needs degree >= 1")
    (gi, hi), d = _cleared([[q[k] for k in range(m + 1)] for q in (g, h)])
    return [[Fraction(v, d * d) for v in row] for row in _bezout_ints(gi, hi, m)]


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
    """Symmetric pencil F(x) with det F proportional to the implicit curve:
    d^2 F = B(Q1, Q2) + x1 B(Q2, Q0) + x2 B(Q0, Q1), Q_k = d q_k integral for
    the lcm d of the denominators, is its ``cleared`` form.  The overall sign
    makes the minimum eigenvalue of float F(0) as large as possible (ties +1)."""
    m = par.m
    (q0, q1, q2), d = _cleared([[q[k] for k in range(m + 1)] for q in (par.q0, par.q1, par.q2)])
    # F2 = -B(q1, q0) = B(q0, q1)
    ints = [_bezout_ints(q1, q2, m), _bezout_ints(q2, q0, m), _bezout_ints(q0, q1, m)]
    eigs = np.linalg.eigvalsh(np.array([[v / d**2 for v in row] for row in ints[0]]))
    if eigs.min() < -eigs.max():
        ints = [[[-v for v in row] for row in G] for G in ints]
    return Pencil.from_ints(ints, d * d)


# ---------------------------------------------------------------------------
# exact inertia
# ---------------------------------------------------------------------------

def signature_exact(rows) -> tuple[int, int, int]:
    """(n_pos, n_neg, n_zero) of a symmetric matrix A with rational or float
    entries, floats read as the binary rationals they are.  Cleared by one
    D > 0, det(tD - DA) = D^n det(tI - A) is taken by ``_interpolate_minors``
    at t = 0 .. n; it has only real roots, so Descartes' rule counts the
    positive ones exactly as the sign changes of its coefficients."""
    n = len(rows)
    mat, den = _cleared(rows)
    polys = [[-x, den * (i == j)] for i, row in enumerate(mat) for j, x in enumerate(row)]
    plan = [[(1, i * n + j) for j in range(n)] for i in range(n)]
    char = _interpolate_minors(plan, polys, 0, n + 1)[0]
    pos = _variations(char)
    zero = next(k for k, c in enumerate(char) if c)  # multiplicity of the root 0
    return pos, n - pos - zero, zero


# ---------------------------------------------------------------------------
# determinant verification
# ---------------------------------------------------------------------------

@functools.cache
def _lattice(m: int, nvars: int) -> tuple:
    """The principal lattice {x in N^n : |x| <= m} in product order; (x, k,
    x - e_k) for each x past the origin, k its last nonzero axis; the lines
    along each axis, the axes in order."""
    monos = [e for e in itertools.product(range(m + 1), repeat=nvars) if sum(e) <= m]
    steps = [(x, k + 1, x[:k] + (x[k] - 1,) + x[k + 1:])
             for x in monos[1:] for k in [max(a for a, e in enumerate(x) if e)]]
    return monos, steps, [[s[:a] + (k,) + s[a + 1:] for k in range(m + 1 - sum(s))]
                          for a in range(nvars) for s in monos if s[a] == 0]


def interpolate_det(pencil: Pencil) -> Poly:
    """det F(x) as an exact polynomial (total degree <= m) by Newton
    interpolation on the principal lattice {x in N^n : |x| <= m}: det G(x) of
    the ``cleared`` G = D F by Bareiss at each point, G(x) = G(x - e_k) + G_k.
    Divided differences along each axis give its coefficients in the
    falling-factorial basis, the one of index a using only the points <= a;
    converting back along each axis gives its integer monomial coefficients,
    divided by D^m."""
    m, nvars = pencil.m, pencil.nvars
    ints, den = pencil.cleared
    monos, steps, lines = _lattice(m, nvars)
    mats = {monos[0]: ints[0]}
    for x, k, prev in steps:
        mats[x] = [[a + b for a, b in zip(row, grow)] for row, grow in zip(mats[prev], ints[k])]
    vals = {x: _bareiss([row[:] for row in mat]) for x, mat in mats.items()}
    for convert in (_divided_differences, _newton_to_monomial):
        for line in lines:
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
        raise DimensionMismatchError(f"deg p = {p.degree} exceeds pencil size {pencil.m}")
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
    """Classify F(0) = F0 by its exact inertia: PD, PSD-with-kernel, or not PSD."""
    _pos, neg, zero = signature_exact(pencil.cleared[0][0])  # D F0, D > 0
    status = RigidVerdict.NO if neg else RigidVerdict.MARGINAL if zero else RigidVerdict.STRICT
    eigs = np.linalg.eigvalsh(pencil.floats[0])
    return RigidVerdict(status, tuple(float(e) for e in eigs))
