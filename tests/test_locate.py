import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from rigidconvex import (
    IdenticallyZeroResultantError,
    Pencil,
    UniPoly,
    parse_poly,
)
from rigidconvex.bezout import Parametrization, interpolate_det, pencil_from_param
from rigidconvex.locate import (
    _eliminate,
    boundary_points,
    certify_psd_point,
    critical_points,
    find_interior_point,
    real_roots_with_multiplicity,
    resultant_elim_x1,
)
from rigidconvex.polycore import Poly, det_exact, interpolate_exact

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


def test_eliminate_x1_free_equations():
    x1_free = parse_poly("2*x2^2-1/2")
    assert _eliminate(x1_free, CAPRICORN_P) == UniPoly([Fraction(-1, 2), 0, 2])
    assert _eliminate(CAPRICORN_P, x1_free) == UniPoly([Fraction(-1, 2), 0, 2])
    # both x1-free: their gcd, or the constant 1 when coprime
    assert _eliminate(x1_free, parse_poly("(x2-1/2)*(x2+3)")) == UniPoly([Fraction(-1, 2), 1])
    assert _eliminate(x1_free, parse_poly("x2-1")) == UniPoly([1])


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
