"""Locate a point certifying F(x) >= 0 when the origin is not interior.

The search is purely algebraic: candidate points are the real solutions of
the critical equations grad p = 0 and of the boundary systems
{p = 0, dp/dx_i = 0}, found by one exact solver.  The subresultants in x1,
taken on integers (see ``polycore``), give the eliminant in x2, whose
square-free pieces are isolated exactly, and x1 as a rational function of x2
on each piece, once a shear x2 -> x2 + k x1 has made the solutions' x2
distinct; no residual test and no float x1 root is needed.  Candidates
are then certified through the sign pattern of the characteristic
polynomial of F(x), det(tI + F(x)) = p_0(x) + p_1(x) t + ... + t^m, which is
entrywise nonnegative exactly on the LMI set.  F is singular wherever
p = 0, so only a critical point can certify PD: the critical points are
certified first, and the boundary systems are solved only when none is PD.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import IdenticallyZeroResultantError
from .polycore import Pencil, Poly, UniPoly, _hom, _horner, _int_gcd, _interpolate_minors, \
    _pdivmod, _primitive, _squarefree_factors
from .realroots import real_roots

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
    chosen: CandidatePoint | None  # the certified answer
    status: str  # "PD" | "PSD" | "none"
    degenerate: bool
    candidates: tuple[CandidatePoint, ...]  # every candidate certified
    note: str = ""

    @property
    def point(self) -> tuple[float, float] | None:
        return None if self.chosen is None else self.chosen.x


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def _x1_columns(p: Poly) -> tuple[int, dict[int, list]]:
    """(den, cols): den * p as a polynomial in x1 whose coefficient of x1^a is
    cols[a], an ascending integer list in x2; den is p's denominator."""
    cols: dict[int, list] = {}
    for (a, b), v in p.ints.items():
        col = cols.setdefault(a, [])
        col.extend([0] * (b + 1 - len(col)))
        col[b] = v
    return p.den, cols


def _subresultant(fc: dict, gc: dict, j: int) -> list[list]:
    """s_j,j .. s_j,0, the coefficients in x1 of the j-th subresultant S_j of
    the integer polynomials f, g with x1-columns fc, gc (degrees d1, d2 >= j),
    as ascending integer lists in x2 ([] is zero).  s_j,i is the minor, on
    the first d1 + d2 - 2j - 1 columns and the column of x1^i, of the rows
    x1^i f (i < d2 - j) and x1^i g (i < d1 - j) over x1^(d1+d2-j-1) .. 1: the
    last row ``_bareiss`` leaves, taken by ``_interpolate_minors`` at
    x2 = 0, 1, ..., N.  S_0 is the resultant; S_j for j = d1 = d2 is f.  Entry
    (x1^r f, column x1^c) has degree <= D1 - c + r in x2, D1 = deg f, and a
    minor's terms take one entry per row over distinct columns, so s_j,i has
    degree <= N - i: N sums D + r over the rows less c over the n-1 columns."""
    d1, d2 = max(fc), max(gc)
    if j == d1 == d2:
        return [fc.get(i, []) for i in range(j, -1, -1)]
    n = d1 + d2 - 2 * j
    D1, D2 = (max(a + len(c) - 1 for a, c in cols.items()) for cols in (fc, gc))
    bound = max((d2 - j) * D1 + (d1 - j) * D2 + math.comb(d2 - j, 2) + math.comb(d1 - j, 2)
                - (n - 1) * (d1 + d2) // 2, 0)
    # the Sylvester rows over f's x1-columns from x1^d1 down, g's, and zero
    polys = [fc.get(i, []) for i in range(d1, -1, -1)] + [gc.get(i, []) for i in range(d2, -1, -1)]
    frow, grow = [(1, q) for q in range(d1 + 1)], [(1, q) for q in range(d1 + 1, len(polys))]
    zero = [(1, len(polys))]
    plan = [zero * r + frow + zero * (d2 - j - 1 - r) for r in range(d2 - j)]
    plan += [zero * r + grow + zero * (d1 - j - 1 - r) for r in range(d1 - j)]
    out = _interpolate_minors(plan, polys + [[]], 0, bound + 1)
    return [c[:max((i + 1 for i, x in enumerate(c) if x), default=0)] for c in out]


def resultant_elim_x1(f: Poly, g: Poly) -> UniPoly:
    """Exact resultant of f and g with respect to x1, as a polynomial in x2:
    the subresultant S_0 of their integer x1-columns (denominators cf, cg),
    divided by cf^d2 cg^d1.  Raises IdenticallyZeroResultantError when f and
    g share a factor involving x1."""
    (cf, fc), (cg, gc) = _x1_columns(f), _x1_columns(g)
    d1, d2 = max(fc, default=0), max(gc, default=0)
    if d1 == 0 or d2 == 0:
        raise ValueError("both inputs need positive degree in x1")
    res = _subresultant(fc, gc, 0)[0]
    if not res:
        raise IdenticallyZeroResultantError(
            "resultant vanishes identically; common factor in x1")
    scale = cf**d2 * cg**d1
    return UniPoly([Fraction(c, scale) for c in res])


def real_roots_with_multiplicity(r: UniPoly) -> list[tuple[float, int]]:
    """Real roots of an exact polynomial with exact multiplicities, sorted.

    Yun's algorithm (``polycore._squarefree_factors``) splits r into
    square-free integer factors, one per multiplicity, no two sharing a root;
    each root is isolated exactly (``realroots.real_roots``) and reported as
    the float its interval rounds to.
    """
    return sorted((float((lo + hi) / 2), mult) for factor, mult in _squarefree_factors(r.coeffs)
                  for lo, hi in real_roots(factor))


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------

def _sheared(p: Poly, k: int) -> Poly:
    """p(x1, y - k x1) as a polynomial in (x1, y), on p's integers."""
    out: dict = {}
    for (a, b), v in p.ints.items():
        for t in range(b + 1 if k else 1):
            out[a + t, b - t] = out.get((a + t, b - t), 0) + v * math.comb(b, t) * (-k) ** t
    return Poly._make({e: v for e, v in out.items() if v}, p.den, 2)


def _one_root(s: list, h: list, mu: int) -> bool:
    """Whether S = s[0] x1^mu + s[1] x1^(mu-1) + ... is s[0] (x1 - beta)^mu
    modulo h, beta = -s[1] / (mu s[0]): the coefficient of x1^i must be
    s[0] C(mu, i) (-beta)^(mu-i), multiplied out by (mu s[0])^(mu-i) / s[0]."""
    c, a = UniPoly(s[0]), UniPoly(s[1])
    return not any(_pdivmod(_primitive((UniPoly(s[mu - i]) * mu ** (mu - i) * c ** (mu - i - 1)
                                        - a ** (mu - i) * math.comb(mu, i)).coeffs), h)[1]
                   for i in range(mu - 1))


def _narrowed(h: list, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """[lo, hi] around one root of the integer polynomial h, ends not roots,
    bisected on exact signs until it is narrower than 1 / |lc(h)|."""
    while (hi - lo) * abs(h[-1]) >= 1:
        m = (lo + hi) / 2
        s = _hom(h, m.numerator, m.denominator)
        if not s:
            return m, m
        lo, hi = (m, hi) if (s > 0) == (_hom(h, lo.numerator, lo.denominator) > 0) else (lo, m)
    return lo, hi


def _root_in(h: list, lo: Fraction, hi: Fraction) -> tuple[Fraction, bool]:
    """(n / lc(h), True) when that is the root of the integer polynomial h in
    [lo, hi], else (the midpoint, False).  A rational root's denominator
    divides lc(h), so this finds it on an interval ``_narrowed`` below 1 / |lc(h)|."""
    mid, lead = (lo + hi) / 2, h[-1]
    n = round(mid * lead)
    y = Fraction(n, lead)
    return (y, True) if lo <= y <= hi and not _hom(h, n, lead) else (mid, False)


def _sheared_solutions(f: Poly, g: Poly, k: int, real: bool) -> list | None:
    """The solutions of {f = 0, g = 0} through y = x2 + k x1, or None unless
    the sheared equations both involve x1, one with a constant leading
    coefficient, and one solution lies over each root of S_0.  The square-free
    factors of S_0 split, by gcds with s_11, s_22, ..., into pieces h whose
    roots first leave s_mu,mu nonzero: there gcd(f, g) is S_mu up to a factor,
    which must be s_mu,mu (x1 - beta)^mu modulo h (``_one_root``), and x1 =
    beta = -s_mu,mu-1 / (mu s_mu,mu) at each real root y of h (``_root_in``:
    exact when rational, else the midpoint of its interval) and, with
    ``real=False``, in complex floats at the others."""
    (_, fc), (_, gc) = _x1_columns(_sheared(f, k)), _x1_columns(_sheared(g, k))
    d1, d2 = max(fc), max(gc)
    if not (d1 and d2 and (len(fc[d1]) == 1 or len(gc[d2]) == 1)):
        return None
    sub = functools.cache(lambda j: _subresultant(fc, gc, j))
    res = sub(0)[0]
    if not res:
        raise IdenticallyZeroResultantError("system has a continuum of solutions")
    pieces = []
    # in Yun's order, which a singular-cubic note reads: it names the first point
    for rest, _mult in _squarefree_factors(res):
        mu = 0
        while len(rest) > 1:
            mu += 1
            if mu > min(d1, d2):  # an equation vanishes on a line y = const
                return None
            common = _int_gcd(rest, sub(mu)[0])
            piece = _pdivmod(rest, common)[0]
            if len(piece) > 1:
                if mu > 1 and not _one_root(sub(mu), piece, mu):
                    return None
                pieces.append((piece, mu))
            rest = common
    points = []
    for h, mu in pieces:
        c, a = sub(mu)[:2]
        ys = [_root_in(h, lo, hi)[0] for lo, hi in real_roots(h)]
        for y in ys:
            num, den = y.numerator, y.denominator
            x1 = Fraction(-_hom(a, num, den) * den ** (len(c) - 1),
                          mu * _hom(c, num, den) * den ** max(len(a) - 1, 0))
            points.append((float(x1), float(y - k * x1)))
        if not real:  # the float roots of h, less the nearest to each real one
            others = list(map(complex, UniPoly(h).roots()))
            for y in ys:
                others.remove(min(others, key=lambda z: abs(z - float(y))))
            for y in others:
                x1 = -_horner(a, y) / (mu * _horner(c, y))
                points.append((x1, y - k * x1))
    return points


def _solve_system(f: Poly, g: Poly, real: bool = True) -> list[tuple]:
    """Real solutions of {f = 0, g = 0} as float pairs, or with ``real=False``
    all complex ones (the non-real as complex pairs); raises
    IdenticallyZeroResultantError for a continuum.  The least good shear k of
    ``_sheared_solutions`` is in range: at most deg f + deg g values of k drop
    a leading coefficient, as many are directions of linear factors, and each
    pair of the at most N = deg f deg g solutions lines up for one k."""
    if f.is_zero() or g.is_zero():
        raise IdenticallyZeroResultantError("system has a continuum of solutions")
    if f.degree == 0 or g.degree == 0:
        return []
    d, n = f.degree + g.degree, f.degree * g.degree
    return next(points for k in range(2 * d + n * (n - 1) // 2 + 1)
                if (points := _sheared_solutions(f, g, k, real)) is not None)


def _dedupe_sorted(points: list[CandidatePoint]) -> list[CandidatePoint]:
    points = sorted(points, key=lambda c: (c.x[1], c.x[0], c.source))
    out: list[CandidatePoint] = []
    for cand in points:
        if not any(abs(cand.x[0] - kept.x[0]) <= MERGE_TOL * (1 + abs(cand.x[0]))
                   and abs(cand.x[1] - kept.x[1]) <= MERGE_TOL * (1 + abs(cand.x[1]))
                   for kept in out):
            out.append(cand)
    return out


def _real_points(f: Poly, g: Poly, source: str) -> list[CandidatePoint]:
    """Real solutions of {f = 0, g = 0}; [] when they form a continuum."""
    try:
        return [CandidatePoint(x, source) for x in _solve_system(f, g)]
    except IdenticallyZeroResultantError:
        return []


def critical_points(p: Poly) -> list[CandidatePoint]:
    """Real solutions of grad p = 0, sorted by (x2, x1).

    A gradient system with a common factor (non-reduced input) has a
    continuum of critical points; the isolated-point search then returns
    an empty list rather than failing.
    """
    if p.degree < 2:
        raise ValueError("need total degree >= 2")
    return _dedupe_sorted(_real_points(p.partial(0), p.partial(1), "critical"))


def boundary_points(p: Poly) -> list[CandidatePoint]:
    """Real solutions of {p = 0, dp/dx1 = 0} and {p = 0, dp/dx2 = 0}."""
    if p.degree < 2:
        raise ValueError("need total degree >= 2")
    return _dedupe_sorted([cand for i in (0, 1)
                           for cand in _real_points(p, p.partial(i), "boundary")])


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
    """First PD critical point, else the best PSD candidate flagged degenerate.

    The critical points of p are certified in (x2, x1) order up to the first
    PD one.  Every boundary point is singular for F, so only when no critical
    point is PD are the boundary systems solved, merged with the critical
    points in (x2, x1, source) order and certified.  ``candidates`` holds the
    critical points certified up to a PD answer, else every merged candidate.
    """
    cands = critical_points(p) if p.degree >= 2 else [CandidatePoint((0.0, 0.0), "critical")]
    certified = []
    for cand in cands:
        certified.append(cert := certify_psd_point(pencil, cand.x, cand.source))
        if cert.verdict == "PD":
            return LocateResult(cert, "PD", False, tuple(certified))
    if p.degree >= 2:
        # a singular point of the curve is also a boundary point, which the
        # merge keeps in its place: at the same x its certificate is reused
        done = {c.x: c for c in certified}
        certified = [replace(done[c.x], source=c.source) if c.x in done
                     else certify_psd_point(pencil, c.x, c.source)
                     for c in _dedupe_sorted(cands + boundary_points(p))]
    psd = [c for c in certified if c.verdict == "PSD"]
    if psd:
        return LocateResult(max(psd, key=lambda c: c.min_eig), "PSD", True, tuple(certified),
                            note="no strictly feasible candidate; the LMI set "
                                 "may degenerate to a single point")
    return LocateResult(None, "none", False, tuple(certified))
