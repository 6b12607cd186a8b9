import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rigidconvex import (
    IdenticallyZeroResultantError,
    Pencil,
    UniPoly,
    parse_poly,
)
from rigidconvex.bezout import Parametrization, interpolate_det, pencil_from_param
from rigidconvex import locate, polycore
from rigidconvex.locate import (
    MERGE_TOL,
    CandidatePoint,
    LocateResult,
    _dedupe_sorted,
    _narrowed,
    _root_in,
    _sheared,
    _sheared_solutions,
    _solve_system,
    _subresultant,
    _x1_columns,
    boundary_points,
    certify_psd_point,
    critical_points,
    find_interior_point,
    real_roots_with_multiplicity,
    resultant_elim_x1,
)
from rigidconvex.polycore import Poly, _bareiss, _horner, _newton_interpolate, det_exact
from rigidconvex.realroots import real_roots
from reference_poly import interpolate_exact

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from bench import workloads  # noqa: E402

CAPRICORN_P = parse_poly("x1^2*(x1^2+x2^2)-2*(x1^2+x2^2-x2)^2")
CAPRICORN_PENCIL = pencil_from_param(Parametrization(
    UniPoly([45, -8, 10, 0, 1]),
    UniPoly([-7, 44, -18, -4, 1]),
    UniPoly([49, -28, -10, 4, 1]),
))
BEAN_P = parse_poly("x1^4+x1^2*x2^2+x2^4-x1^3+x1*x2^2")
BEAN_PENCIL = pencil_from_param(Parametrization(
    UniPoly([1, 0, 1, 0, 1]),
    UniPoly([1, 0, -1]),
    UniPoly([0, 1, 0, -1]),
))


def _points(cands):
    return [c.x for c in cands]


def _has_point(cands, x1, x2, tol=1e-6):
    return any(abs(c.x[0] - x1) <= tol and abs(c.x[1] - x2) <= tol for c in cands)


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def test_resultant_linear_pair():
    r = resultant_elim_x1(parse_poly("x1-x2"), parse_poly("x1+x2"))
    assert r == UniPoly([0, 2])


def test_resultant_common_factor():
    with pytest.raises(IdenticallyZeroResultantError):
        resultant_elim_x1(parse_poly("x1-x2"), parse_poly("x1-x2"))


def test_resultant_capricorn_gradient():
    f = CAPRICORN_P.partial(0)
    g = CAPRICORN_P.partial(1)
    r = resultant_elim_x1(f, g)
    roots = real_roots_with_multiplicity(r)
    expected = {
        0.0: 3,
        0.5: 1,
        1.0: 1,
        3.0 - np.sqrt(5.0): 2,
        3.0 + np.sqrt(5.0): 2,
    }
    assert len(roots) == len(expected)
    for root, mult in roots:
        match = min(expected, key=lambda e: abs(e - root))
        assert abs(root - match) <= 1e-7 * max(1.0, abs(match))
        assert mult == expected[match]


def test_resultant_agrees_with_product_formula():
    # res(f, g)(x2) = lc_f^{deg g} * prod g(root_i(x2)) over roots of f in x1
    rng = np.random.default_rng(8)
    f = parse_poly("x1^3-2*x1*x2+x2^2-1")
    g = parse_poly("x1^2+x1*x2-3*x2+2")
    r = resultant_elim_x1(f, g)
    for x2val in rng.uniform(-2, 2, 20):
        fu = np.array([float(f.coeff((a, b))) * x2val**b
                       for a in range(4) for b in range(4)]).reshape(4, 4).sum(axis=1)
        roots = np.roots(fu[::-1])
        gu = lambda x1: sum(float(g.coeff((a, b))) * x1**a * x2val**b
                            for a in range(3) for b in range(3))
        prod = np.prod([gu(root) for root in roots])
        expected = float(fu[-1]) ** 2 * prod  # lc_f^{deg_x1 g}
        got = float(r(x2val))
        assert got == pytest.approx(expected.real, rel=1e-8, abs=1e-6)


def reference_resultant(f: Poly, g: Poly) -> UniPoly:
    """The Fraction path resultant_elim_x1 took before its integer columns:
    Sylvester determinants over Fraction at x2 = 0..N, rational Newton
    interpolation."""
    def columns(p):
        cols: dict = {}
        for (a, b), v in p.coeffs.items():
            cols.setdefault(a, {})[b] = v
        return {a: UniPoly([vals.get(k, 0) for k in range(max(vals) + 1)])
                for a, vals in cols.items()}
    fc, gc = columns(f), columns(g)
    d1, d2 = max(fc, default=0), max(gc, default=0)
    if d1 == 0 or d2 == 0:
        raise ValueError("both inputs need positive degree in x1")
    bound = (d2 * max(q.degree for q in fc.values())
             + d1 * max(q.degree for q in gc.values()))
    values = []
    for k in range(bound + 1):
        frow = [fc.get(i, UniPoly())(Fraction(k)) for i in range(d1, -1, -1)]
        grow = [gc.get(i, UniPoly())(Fraction(k)) for i in range(d2, -1, -1)]
        rows = [[0] * r + frow + [0] * (d2 - 1 - r) for r in range(d2)]
        rows += [[0] * r + grow + [0] * (d1 - 1 - r) for r in range(d1)]
        values.append(det_exact(rows))
    if all(v == 0 for v in values):
        raise IdenticallyZeroResultantError("common factor in x1")
    return UniPoly(interpolate_exact(values, 0))


def _random_bivariate(rng, dx1, dx2):
    # mixed denominators, gaps, and a leading x1 coefficient of either sign
    coeffs = {(a, b): Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 12]))
              for a in range(dx1 + 1) for b in range(dx2 + 1) if rng.random() < 0.6}
    coeffs[(dx1, rng.randint(0, dx2))] = Fraction(rng.choice([-3, -1, 2]), rng.choice([1, 7]))
    return Poly(coeffs)


def test_resultant_matches_fraction_sylvester_reference_random():
    rng = random.Random(71)
    for _ in range(80):
        f = _random_bivariate(rng, rng.randint(1, 3), rng.randint(0, 3))
        g = _random_bivariate(rng, rng.randint(1, 3), rng.randint(0, 3))
        r = resultant_elim_x1(f, g)
        assert r == reference_resultant(f, g)
        assert all(type(c) is Fraction for c in r.coeffs)


def test_resultant_reference_errors():
    rng = random.Random(73)
    for _ in range(10):
        h = _random_bivariate(rng, rng.randint(1, 2), rng.randint(0, 2))
        f = h * _random_bivariate(rng, rng.randint(0, 2), rng.randint(0, 2))
        g = h * _random_bivariate(rng, rng.randint(0, 2), rng.randint(0, 2))
        for fn in (resultant_elim_x1, reference_resultant):
            with pytest.raises(IdenticallyZeroResultantError):
                fn(f, g)
    x1_free = parse_poly("x2^2-1/3")
    for fn in (resultant_elim_x1, reference_resultant):
        for pair in ((x1_free, CAPRICORN_P), (CAPRICORN_P, x1_free),
                     (Poly.zero(), CAPRICORN_P)):
            with pytest.raises(ValueError, match="positive degree"):
                fn(*pair)


def reference_subresultant(f: Poly, g: Poly, j: int) -> list:
    """s_j,j .. s_j,0 from Fraction determinants of Sylvester submatrices: the
    rows x1^s f (s < d2 - j) and x1^s g (s < d1 - j), highest shift first,
    over x1^(d1+d2-j-1) .. 1, restricted to their first d1 + d2 - 2j - 1
    columns and the column of x1^i, at x2 = 0..N, rationally interpolated."""
    d1, d2 = (max(a for a, _b in p.coeffs) for p in (f, g))
    if j == d1 == d2:
        return [UniPoly([f.coeff((i, b)) for b in range(f.degree + 1)]) for i in range(j, -1, -1)]
    width, n = d1 + d2 - j, d1 + d2 - 2 * j
    bound = (d2 - j) * max(b for _a, b in f.coeffs) + (d1 - j) * max(b for _a, b in g.coeffs)

    def row(p, shift, x):
        return [sum(v * x**b for (a, b), v in p.coeffs.items() if a + shift == e)
                for e in range(width - 1, -1, -1)]
    out = []
    for i in range(j, -1, -1):
        values = []
        for x in range(bound + 1):
            rows = [row(f, s, Fraction(x)) for s in range(d2 - j - 1, -1, -1)]
            rows += [row(g, s, Fraction(x)) for s in range(d1 - j - 1, -1, -1)]
            values.append(det_exact([r[:n - 1] + [r[width - 1 - i]] for r in rows]))
        out.append(UniPoly(interpolate_exact(values, 0)))
    return out


def test_subresultants_match_fraction_sylvester_reference_random():
    rng = random.Random(79)
    for _ in range(40):
        f = _random_bivariate(rng, rng.randint(1, 3), rng.randint(0, 2))
        g = _random_bivariate(rng, rng.randint(1, 3), rng.randint(0, 2))
        (cf, fc), (cg, gc) = _x1_columns(f), _x1_columns(g)
        for j in range(min(max(fc), max(gc)) + 1):
            got = [UniPoly(c) for c in _subresultant(fc, gc, j)]
            assert got == reference_subresultant(f * cf, g * cg, j)
    # S_0 is the resultant up to the clearing factors
    (cf, fc), (cg, gc) = _x1_columns(f), _x1_columns(g)
    scale = cf ** max(gc) * cg ** max(fc)
    assert UniPoly(_subresultant(fc, gc, 0)[0]) == resultant_elim_x1(f, g) * scale


def x2_bound_subresultant(fc: dict, gc: dict, j: int) -> list:
    """``_subresultant`` with the interpolation bound it had before the
    weighted one: (d2-j) deg_x2 f + (d1-j) deg_x2 g + 1 points."""
    d1, d2 = max(fc), max(gc)
    if j == d1 == d2:
        return [fc.get(i, []) for i in range(j, -1, -1)]
    n = d1 + d2 - 2 * j
    bound = (d2 - j) * (max(len(c) for c in fc.values()) - 1) \
        + (d1 - j) * (max(len(c) for c in gc.values()) - 1)
    values = []
    for x in range(bound + 1):
        frow = [_horner(fc.get(i, ()), x) for i in range(d1, -1, -1)]
        grow = [_horner(gc.get(i, ()), x) for i in range(d2, -1, -1)]
        rows = [[0] * r + frow + [0] * (d2 - j - 1 - r) for r in range(d2 - j)]
        rows += [[0] * r + grow + [0] * (d1 - j - 1 - r) for r in range(d1 - j)]
        _bareiss(rows)
        values.append(rows[-1][n - 1:])
    out = [_newton_interpolate(col, 0) for col in zip(*values)]
    return [c[:max((i + 1 for i, x in enumerate(c) if x), default=0)] for c in out]


def _weighted_bound(fc: dict, gc: dict, j: int) -> int:
    """Sum over the rows x1^r f and x1^r g of their total degree plus r,
    less the exponents c of the d1 + d2 - 2j - 1 leading columns."""
    d1, d2 = max(fc), max(gc)
    D1, D2 = (max(a + len(c) - 1 for a, c in cols.items()) for cols in (fc, gc))
    rows = sum(D1 + r for r in range(d2 - j)) + sum(D2 + r for r in range(d1 - j))
    return rows - sum(range(j + 1, d1 + d2 - j))


def _random_pair(rng, kind):
    """Dense or sparse integer pairs of total degree <= 4, x1-degree below
    the total degree, or a pair sheared by k = 1..3."""
    def rand(dx1, total, density):
        coeffs = {(a, b): rng.randint(-5, 5) for a in range(dx1 + 1)
                  for b in range(total + 1 - a) if rng.random() < density}
        coeffs[(dx1, rng.randint(0, total - dx1))] = rng.choice([-2, 1, 3])
        return Poly(coeffs)
    if kind == "dense":
        return [rand(d, d, 1.0) for d in (rng.randint(1, 4), rng.randint(1, 3))]
    if kind == "sparse":
        return [rand(d, d + rng.randint(0, 1), 0.3) for d in (rng.randint(1, 4), rng.randint(1, 3))]
    if kind == "low-x1":
        return [rand(d, d + rng.randint(1, 2), 0.7) for d in (rng.randint(1, 3), rng.randint(1, 2))]
    k = rng.randint(1, 3)
    return [_sheared(rand(d, d, 0.8), k) for d in (rng.randint(1, 3), rng.randint(1, 3))]


@pytest.mark.parametrize("kind", ["dense", "sparse", "low-x1", "sheared"])
def test_subresultant_weighted_bound_matches_x2_bound(kind):
    """The weighted bound is a true degree bound: the subresultants equal
    those interpolated over the x2-degree bound, and s_j,i has degree at
    most the bound less i."""
    rng = random.Random(f"subres-{kind}")
    for _ in range(25):
        f, g = _random_pair(rng, kind)
        (_, fc), (_, gc) = _x1_columns(f), _x1_columns(g)
        for j in range(min(max(fc), max(gc))):
            got = _subresultant(fc, gc, j)
            assert got == x2_bound_subresultant(fc, gc, j)
            bound = _weighted_bound(fc, gc, j)
            assert all(len(s) - 1 <= bound - i for i, s in zip(range(j, -1, -1), got))


def test_dense_quartic_cubic_resultant_takes_bezout_many_points(monkeypatch):
    """A generic dense quartic and cubic reach the bound: their resultant in
    x1 has degree 4 * 3 = 12 in x2, from 13 evaluations, not 25."""
    rng = random.Random(97)
    f, g = (Poly({(a, b): rng.choice([-3, -2, -1, 1, 2, 3]) for a in range(d + 1)
                  for b in range(d + 1 - a)}) for d in (4, 3))
    (_, fc), (_, gc) = _x1_columns(f), _x1_columns(g)
    calls = []

    def counting(mat, *args):
        calls.append(len(mat))
        return _bareiss(mat, *args)
    monkeypatch.setattr(polycore, "_bareiss", counting)
    res = _subresultant(fc, gc, 0)[0]
    assert len(res) - 1 == 12 == _weighted_bound(fc, gc, 0)
    assert calls == [7] * 13


def reference_solutions(f: Poly, g: Poly) -> list:
    """Every complex solution of {f = 0, g = 0} at 60 digits: the pairs of
    roots of the square-free factors of sympy's resultants in x1 and in x2
    (``nroots``) at which f and g vanish, below 1e-25 of their scale."""
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    x1, x2 = sympy.symbols("x1 x2")

    def expr(p):
        return sum(sympy.Rational(v.numerator, v.denominator) * x1**a * x2**b
                   for (a, b), v in p.coeffs.items())

    def roots(var, other):
        res = sympy.Poly(sympy.resultant(expr(f), expr(g), other), var)
        return [mpmath.mpc(*(mpmath.mpf(str(part)) for part in sympy.sympify(r).as_real_imag()))
                for factor, _mult in res.sqf_list()[1]
                for r in factor.nroots(n=60, maxsteps=500)]

    def small(p, a1, a2):
        terms = [mpmath.mpf(v.numerator) / v.denominator * a1**a * a2**b
                 for (a, b), v in p.coeffs.items()]
        return abs(mpmath.fsum(terms)) <= mpmath.mpf(10) ** -25 * mpmath.fsum(abs(t) for t in terms)
    with mpmath.workdps(60):
        return [(complex(a1), complex(a2)) for a1 in roots(x1, x2) for a2 in roots(x2, x1)
                if small(f, a1, a2) and small(g, a1, a2)]


def _match(got, want):
    """Assert that got and want pair off one to one within 1e-9 relative."""
    assert len(got) == len(want), (got, want)
    left = list(got)
    for w in want:
        near = min(left, key=lambda z: abs(z[0] - w[0]) + abs(z[1] - w[1]))
        for a, b in zip(near, w):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b)), (near, w)
        left.remove(near)


def _random_system(rng, kind):
    """A random pair: generic, even in x1 (solutions in +-x1 pairs share x2),
    or both tangent at (a, b) to the line x2 = b, where gcd(f, g) has degree
    mu = 2 or 3 in x1."""
    def rand(dx1, total):
        coeffs = {(a, b): rng.randint(-4, 4) for a in range(dx1) for b in range(total + 1 - a)}
        coeffs[(dx1, 0)] = rng.choice([-2, -1, 1, 3])
        return Poly(coeffs)
    if kind == "generic":
        return rand(rng.randint(1, 3), 3), rand(rng.randint(1, 3), 3)
    if kind == "even":
        return tuple(Poly({(2 * a, b): v for (a, b), v in rand(rng.randint(1, 2), 2).coeffs.items()})
                     for _ in range(2))
    mu, a, b = rng.choice([2, 3]), rng.randint(-2, 2), rng.randint(-2, 2)
    base = parse_poly(f"(x1-({a}))^{mu}")
    line = parse_poly(f"x2-({b})")
    return base + line * rand(1, 1), base + line * rand(1, 1)


def test_solve_system_matches_high_precision_reference_random():
    rng = random.Random(83)
    for kind in ("generic", "even", "tangent"):
        for _ in range(8):
            f, g = _random_system(rng, kind)
            try:
                got = _solve_system(f, g, real=False)
            except IdenticallyZeroResultantError:
                continue
            want = reference_solutions(f, g)
            _match([(complex(a), complex(b)) for a, b in got], want)
            real = [(w[0].real, w[1].real) for w in want
                    if abs(w[0].imag) + abs(w[1].imag) <= 1e-20]
            points = _solve_system(f, g)
            _match(points, real)
            assert all(type(v) is float for pt in points for v in pt)
            if kind == "even" and len(real) > 1 and any(x[0] for x in real):
                assert _sheared_solutions(f, g, 0, True) is None  # +-x1 share x2
    # the capricorn and bean critical and boundary systems: shears, and
    # pieces with mu = 2 that pass or fail the one-root test
    for p in (CAPRICORN_P, BEAN_P):
        for f, g in ((p.partial(0), p.partial(1)), (p, p.partial(0)), (p, p.partial(1))):
            real = [(w[0].real, w[1].real) for w in reference_solutions(f, g)
                    if abs(w[0].imag) + abs(w[1].imag) <= 1e-20]
            _match(_solve_system(f, g), real)


def test_boundary_points_list_a_double_root_once():
    """A boundary point is a double x1 root of p on its x2 line.  Float x1
    slices split it by about 3e-8, more than MERGE_TOL, and so listed
    (-0.3203066, 1.6720277) three times."""
    pencil = pencil_from_param(Parametrization(
        UniPoly([1, 2, 2, 2]), UniPoly([0, -6, -1, 1]), UniPoly([4, -1, -4, 1])))
    cands = boundary_points(interpolate_det(pencil))
    assert _has_point(cands, -0.3203066, 1.6720277)
    points = _points(cands)
    for i, a in enumerate(points):
        for b in points[:i]:
            assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) > 1e-6


def test_solve_system_x1_free_equations():
    # x2 = +-1/2 against the capricorn: four real points on x2 = 1/2, where
    # x1^2 = (5 +- sqrt 17) / 8, and none on x2 = -1/2
    x1_free = parse_poly("2*x2^2-1/2")
    expected = sorted(s * math.sqrt((5 + t * math.sqrt(17)) / 8)
                      for s in (1, -1) for t in (1, -1))
    for pair in ((x1_free, CAPRICORN_P), (CAPRICORN_P, x1_free)):
        points = sorted(_solve_system(*pair))
        assert [x2 for _x1, x2 in points] == [0.5] * 4
        assert [x1 for x1, _x2 in points] == pytest.approx(expected, rel=1e-14)
    # two x1-free equations: no common root, or a common root, which is a
    # whole line of solutions
    assert _solve_system(x1_free, parse_poly("x2-1")) == []
    with pytest.raises(IdenticallyZeroResultantError):
        _solve_system(x1_free, parse_poly("(x2-1/2)*(x2+3)"))
    line = parse_poly("(x2-1/2)^2*(x2+3)")  # dp/dx1 = 0, p and dp/dx2 share x2 - 1/2
    assert critical_points(line) == [] and boundary_points(line) == []
    # a nonzero constant equation has no solution, a zero one a continuum
    assert _solve_system(Poly.constant(3), CAPRICORN_P) == []
    with pytest.raises(IdenticallyZeroResultantError):
        _solve_system(CAPRICORN_P, Poly.zero())


def test_real_roots_with_multiplicity_exact_triple():
    u = UniPoly([0, 1])
    f = u**3 * (u - 2) * (UniPoly([4, -6, 1]) ** 2)
    roots = real_roots_with_multiplicity(f)
    assert [m for _, m in roots] == [3, 2, 1, 2]  # at 0, 3-sqrt5, 2, 3+sqrt5


def test_real_roots_with_multiplicity_keeps_close_roots_apart():
    """(u - 1)^2 (u - 1 - 10^-9): the square-free factors u - 1 (twice) and
    u - 1 - 10^-9 (once) are coprime, so their roots are distinct although
    closer than 1e-7, and each keeps its own exact multiplicity."""
    u = UniPoly([0, 1])
    eps = Fraction(1, 10**9)
    f = (u - 1) ** 2 * (u - 1 - eps)
    roots = real_roots_with_multiplicity(f)
    assert [m for _, m in roots] == [2, 1]
    assert roots[0][0] == 1.0 and roots[1][0] == float(1 + eps)


# ---------------------------------------------------------------------------
# critical and boundary points
# ---------------------------------------------------------------------------

def test_critical_points_capricorn_contains_half():
    cands = critical_points(CAPRICORN_P)
    assert _has_point(cands, 0.0, 0.5)
    assert all(c.source == "critical" for c in cands)


def test_critical_points_disc():
    cands = critical_points(parse_poly("1-x1^2-x2^2"))
    assert _points(cands) == [(0.0, 0.0)]


def test_critical_points_tv():
    cands = critical_points(parse_poly("1-x1^4-x2^4"))
    assert len(cands) == 1
    assert cands[0].x == pytest.approx((0.0, 0.0), abs=1e-9)


def test_rational_eliminant_roots_come_out_exact():
    # x2 = -5/3 is not dyadic, so the midpoint of its isolating interval is
    # not the root, and x1 read there came out as -3.47e-17 instead of 0
    p = parse_poly("-x1^3-2*x1^2*x2-x2^3-4*x1^2-4*x2^2-5*x2")
    xs = [cand.x for cand in critical_points(p)]
    assert (0.0, -5 / 3) in xs and (0.0, -1.0) in xs


def test_root_in_finds_a_rational_root_far_below_its_leading_coefficient():
    # (q^2 y + 2304)(q^4 y^2 - 2): lc = q^6, but the rational root's denominator
    # is q^2, so at float width its midpoint times lc misses the numerator;
    # narrowed below 1 / lc it rounds to it
    q = 10007
    h = [-4608, -2 * q**2, 2304 * q**4, q**6]
    found = [_root_in(h, *_narrowed(h, lo, hi)) for lo, hi in real_roots(h)]
    assert [exact for _, exact in found] == [True, False, False]
    assert found[0][0] == Fraction(-2304, q**2)
    assert [float(y) for y, _ in found[1:]] == pytest.approx([-2**0.5 / q**2, 2**0.5 / q**2])


def test_critical_points_residual_bound():
    for p in (CAPRICORN_P, BEAN_P, parse_poly("1-x1^4-x2^4")):
        g1, g2 = p.partial(0), p.partial(1)
        norm = max(abs(float(v)) for v in p.coeffs.values())
        for cand in critical_points(p):
            r = max(1.0, float(np.hypot(*cand.x)))
            bound = 1e-7 * (1 + norm * r ** (p.degree - 1))
            grad = np.hypot(float(g1(*cand.x)), float(g2(*cand.x)))
            assert grad <= bound


def test_boundary_points_disc():
    cands = boundary_points(parse_poly("1-x1^2-x2^2"))
    # {p=0, dp/dx1=0} gives (0, +-1); {p=0, dp/dx2=0} gives (+-1, 0)
    assert _has_point(cands, 0.0, 1.0)
    assert _has_point(cands, 0.0, -1.0)
    assert _has_point(cands, 1.0, 0.0)
    assert _has_point(cands, -1.0, 0.0)


def test_boundary_points_tv():
    cands = boundary_points(parse_poly("1-x1^4-x2^4"))
    for pt in [(0, 1), (0, -1), (1, 0), (-1, 0)]:
        assert _has_point(cands, *pt)


def test_boundary_points_capricorn_nonempty_and_on_curve():
    cands = boundary_points(CAPRICORN_P)
    assert cands
    for cand in cands:
        assert abs(float(CAPRICORN_P(*cand.x))) <= 1e-5
    assert _has_point(cands, 0.0, 0.0)  # singular point


def test_candidates_sorted_lexicographically():
    cands = boundary_points(parse_poly("1-x1^2-x2^2"))
    keys = [(c.x[1], c.x[0]) for c in cands]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_capricorn_interior():
    cand = certify_psd_point(CAPRICORN_PENCIL, (0.0, 0.5))
    assert cand.verdict == "PD"
    assert len(cand.cert) == 4
    assert all(c > 0 for c in cand.cert)


def test_certify_bean_origin_psd_not_pd():
    cand = certify_psd_point(BEAN_PENCIL, (0.0, 0.0))
    assert cand.verdict == "PSD"
    assert cand.cert[0] == pytest.approx(0.0, abs=1e-9)  # det F(0) = 0


def test_certify_identity_pencil():
    eye = Pencil.from_rows(np.eye(3).tolist(), np.zeros((3, 3)).tolist(),
                           np.zeros((3, 3)).tolist())
    for x in [(0.0, 0.0), (2.5, -3.0)]:
        assert certify_psd_point(eye, x).verdict == "PD"


def test_certificate_matches_eigen_crosscheck():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = tuple(rng.normal(size=2))
        cand = certify_psd_point(CAPRICORN_PENCIL, x)
        eigs = np.linalg.eigvalsh(CAPRICORN_PENCIL.eval(*x))
        if cand.verdict == "PD":
            assert eigs.min() > 0
        elif cand.verdict == "rejected":
            assert eigs.min() < 0


def _reference_char_coeffs(eigs):
    """The former convolution loop: coefficients of prod (t + lambda_i),
    constant term first, leading 1 dropped."""
    coeffs = np.array([1.0])
    for lam in eigs:
        coeffs = np.convolve(coeffs, [1.0, lam])
    return coeffs[1:][::-1]


def test_certificate_matches_convolution_reference_bitwise():
    from rigidconvex.locate import CERT_TOL

    rng = np.random.default_rng(8)
    verdicts = set()
    for _ in range(400):
        m = int(rng.integers(1, 7))
        mats = [rng.normal(size=(m, m)) * 10.0 ** rng.integers(-3, 4) for _ in range(3)]
        mats[0] = mats[0] @ mats[0].T if rng.random() < 0.5 else mats[0] + mats[0].T
        pencil = Pencil.from_rows(*[(M + M.T).tolist() if k else M.tolist()
                                    for k, M in enumerate(mats)])
        x = tuple(rng.normal(size=2) * 0.1)
        cand = certify_psd_point(pencil, x)
        eigs = np.linalg.eigvalsh(pencil.eval(*x))
        normalised = _reference_char_coeffs(eigs / max(1.0, float(np.abs(eigs).max())))
        if np.all(normalised > CERT_TOL):
            verdict = "PD"
        elif np.all(normalised >= -CERT_TOL):
            verdict = "PSD"
        else:
            verdict = "rejected"
        assert cand.cert == tuple(float(c) for c in _reference_char_coeffs(eigs))
        assert cand.verdict == verdict
        verdicts.add(verdict)
    assert verdicts == {"PD", "PSD", "rejected"}


# ---------------------------------------------------------------------------
# find_interior_point
# ---------------------------------------------------------------------------

def test_find_interior_point_capricorn():
    res = find_interior_point(CAPRICORN_PENCIL, CAPRICORN_P)
    assert res.status == "PD"
    assert not res.degenerate
    assert res.point == pytest.approx((0.0, 0.5), abs=1e-7)


def test_find_interior_point_bean_degenerate():
    res = find_interior_point(BEAN_PENCIL, BEAN_P)
    assert res.status == "PSD"
    assert res.degenerate
    assert res.point == pytest.approx((0.0, 0.0), abs=1e-7)
    assert "single point" in res.note


def test_find_interior_point_identity():
    eye = Pencil.from_rows(np.eye(2).tolist(), np.zeros((2, 2)).tolist(),
                           np.zeros((2, 2)).tolist())
    res = find_interior_point(eye, parse_poly("1"))
    assert res.status == "PD"
    assert res.point == (0.0, 0.0)


def test_find_interior_point_none():
    # -I - x1*0 - x2*0 is nowhere PSD
    neg = Pencil.from_rows((-np.eye(2)).tolist(), np.zeros((2, 2)).tolist(),
                           np.zeros((2, 2)).tolist())
    res = find_interior_point(neg, parse_poly("1-x1^2-x2^2"))
    assert res.status == "none"
    assert res.point is None


def _exhaustive_search(pencil, p):
    """Every critical and boundary point, merged and certified, then the
    first PD one, else the best PSD one: the search without its early stop."""
    cands = (_dedupe_sorted(critical_points(p) + boundary_points(p)) if p.degree >= 2
             else [CandidatePoint((0.0, 0.0), "critical")])
    certified = tuple(certify_psd_point(pencil, c.x, c.source) for c in cands)
    pd = [c for c in certified if c.verdict == "PD"]
    psd = [c for c in certified if c.verdict == "PSD"]
    if pd:
        return LocateResult(pd[0], "PD", False, certified)
    if psd:
        return LocateResult(max(psd, key=lambda c: c.min_eig), "PSD", True, certified,
                            note="no strictly feasible candidate; the LMI set "
                                 "may degenerate to a single point")
    return LocateResult(None, "none", False, certified)


def _locate_inputs():
    """The find-component inputs of the origin-locate benchmark at seeds 1-2,
    the capricorn and the bean, the identity pencil and a nowhere-PSD one."""
    eye = Pencil.from_rows(np.eye(2).tolist(), np.zeros((2, 2)).tolist(),
                           np.zeros((2, 2)).tolist())
    neg = Pencil.from_rows((-np.eye(2)).tolist(), np.zeros((2, 2)).tolist(),
                           np.zeros((2, 2)).tolist())
    inputs = [(CAPRICORN_PENCIL, CAPRICORN_P), (BEAN_PENCIL, BEAN_P),
              (eye, parse_poly("1")), (neg, parse_poly("1-x1^2-x2^2"))]
    for seed in (1, 2):
        for case in workloads.build("origin-locate", seed, ROOT):
            if case.argv[0] == "find-component":
                pencil = pencil_from_param(Parametrization(*map(UniPoly, case.expect["q"])))
                inputs.append((pencil, interpolate_det(pencil)))
    return inputs


def test_find_interior_point_matches_exhaustive_search():
    """Only a critical point can certify PD, so stopping at the first PD one
    answers as certifying every candidate does, and the candidates examined
    are the exhaustive list's critical points up to the answer.  A critical
    point on the curve (the capricorn's origin) lies within MERGE_TOL of a
    boundary point, which the exhaustive merge keeps in its place."""
    statuses, merged = set(), 0
    for pencil, p in _locate_inputs():
        got, ref = find_interior_point(pencil, p), _exhaustive_search(pencil, p)
        assert (got.status, got.point, got.degenerate, got.note) == \
            (ref.status, ref.point, ref.degenerate, ref.note)
        assert (got.chosen and got.chosen.cert) == (ref.chosen and ref.chosen.cert)
        if ref.status == "PD":
            critical = [c for c in ref.candidates if c.source == "critical"]
            assert [c for c in got.candidates if c in ref.candidates] == \
                critical[:critical.index(ref.chosen) + 1]
            for c in got.candidates:
                if c not in ref.candidates:
                    merged += 1
                    assert c.verdict != "PD" and any(
                        b.source == "boundary" and all(abs(u - v) <= MERGE_TOL * (1 + abs(u))
                                                       for u, v in zip(c.x, b.x))
                        for b in ref.candidates)
        else:
            assert got.candidates == ref.candidates
        statuses.add(ref.status)
    assert statuses == {"PD", "PSD", "none"} and merged


def test_find_interior_point_solves_boundary_systems_only_without_pd(monkeypatch):
    def refuse(p):
        raise AssertionError("boundary systems solved for a PD answer")

    monkeypatch.setattr(locate, "boundary_points", refuse)
    assert find_interior_point(CAPRICORN_PENCIL, CAPRICORN_P).status == "PD"
    solved, points = [], []

    def counted(pencil, x, *args):
        points.append(tuple(x))
        return certify_psd_point(pencil, x, *args)

    monkeypatch.setattr(locate, "boundary_points", lambda p: solved.append(p) or boundary_points(p))
    monkeypatch.setattr(locate, "certify_psd_point", counted)
    res = find_interior_point(BEAN_PENCIL, BEAN_P)
    assert res.status == "PSD" and solved == [BEAN_P]
    assert len(points) == len(set(points)) == len(res.candidates)


@pytest.mark.parametrize("m", [5, 6])
def test_find_component_runtime(m):
    # seeded interlacing q1, q2 (the benchmark's origin-locate generator), so
    # F(0) = B(q1, q2) is definite; the eliminants reach degree 5m
    rng = random.Random(m)
    roots = sorted(rng.sample(range(-m - 1, m + 2), 2 * m))
    u = UniPoly([0, 1])
    q1 = math.prod([u - r for r in roots[0::2]], start=UniPoly([1]))
    q2 = math.prod([u - r for r in roots[1::2]], start=UniPoly([rng.choice([1, -1, 2, -2])]))
    q0 = UniPoly([rng.randint(1, 4)] + [rng.randint(-2, 2) for _ in range(m - 1)]
                 + [rng.randint(1, 3)])
    pencil = pencil_from_param(Parametrization(q0, q1, q2))
    started = time.perf_counter()
    result = find_interior_point(pencil, interpolate_det(pencil))
    assert time.perf_counter() - started < 30.0
    assert result.status in ("PD", "PSD") and result.point is not None


def test_critical_points_degenerate_gradient_returns_empty():
    # (1 - x1^2 - x2^2)^2 has the whole circle critical: isolated-point
    # search yields nothing instead of failing
    squared = parse_poly("(1-x1^2-x2^2)^2")
    assert critical_points(squared) == []
