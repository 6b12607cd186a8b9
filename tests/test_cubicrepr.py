import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rigidconvex import SingularCubicError, parse_poly
from rigidconvex.bezout import interpolate_det, verify_pencil_det
from rigidconvex.cli import main
from rigidconvex.cubicrepr import (
    _affine_singular_point,
    _hesse_coordinates,
    _hessian_at,
    check_smooth_cubic,
    cubic_representations,
    hessian,
    hessian_det,
    homogenize,
)
from fixture_data import load_fixture
from reference_poly import RefPoly, interpolate_exact, ref_gcd
from rigidconvex.locate import certify_psd_point
from rigidconvex.polycore import Pencil, Poly, UniPoly, det_exact

ELLIPTIC = parse_poly("x1^3-x2^2-x1")
# the published size-3 representation with t* = 0
F1_ROWS = [
    [[1, 0, 0], [0, 0, 0], [0, 0, 1]],      # F0
    [[0, 0, 1], [0, -1, 0], [1, 0, 0]],      # F1
    [[0, -1, 0], [-1, 0, 0], [0, 0, 0]],     # F2
]


def test_homogenize_roundtrip():
    P = homogenize(ELLIPTIC)
    assert P.coeffs == {
        (0, 3, 0): Fraction(1),
        (1, 0, 2): Fraction(-1),
        (2, 1, 0): Fraction(-1),
    }


def test_hessian_of_x0x1x2():
    G = hessian(Poly({(1, 1, 1): 1}, nvars=3))
    assert G.mats[0] == ((0, 0, 0), (0, 0, 1), (0, 1, 0))
    assert G.mats[1] == ((0, 0, 1), (0, 0, 0), (1, 0, 0))
    assert G.mats[2] == ((0, 1, 0), (1, 0, 0), (0, 0, 0))


def test_hessian_of_elliptic():
    # by hand: H = [[-2x1, -2x0, -2x2], [-2x0, 6x1, 0], [-2x2, 0, -2x0]]
    G = hessian(homogenize(ELLIPTIC))
    assert G.mats[0] == ((0, -2, 0), (-2, 0, 0), (0, 0, -2))
    assert G.mats[1] == ((-2, 0, 0), (0, 6, 0), (0, 0, 0))
    assert G.mats[2] == ((0, 0, -2), (0, 0, 0), (-2, 0, 0))


def test_hessian_structural_zero_without_x2():
    p3 = homogenize(parse_poly("x1^3-x1+1"))
    G = hessian(p3)
    # third row/column involves only x0 and x1
    assert all(G.mats[2][2][j] == 0 for j in range(3))
    assert all(G.mats[2][i][2] == 0 for i in range(3))


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(0)
    p3 = homogenize(ELLIPTIC)
    G = hessian(p3)
    eps = 1e-5

    def val(x):
        return float(sum(float(v) * x[0]**a * x[1]**b * x[2]**c
                         for (a, b, c), v in p3.coeffs.items()))

    for _ in range(10):
        x = rng.normal(size=3)
        # H(P) is linear in x, so H(P)(x) = x0 F(x1/x0, x2/x0)
        H = x[0] * G.eval(x[1] / x[0], x[2] / x[0])
        for i in range(3):
            for j in range(3):
                e_i = np.eye(3)[i] * eps
                e_j = np.eye(3)[j] * eps
                fd = (val(x + e_i + e_j) - val(x + e_i - e_j)
                      - val(x - e_i + e_j) + val(x - e_i - e_j)) / (4 * eps**2)
                assert H[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-5)


def test_hessian_det_elliptic():
    h = hessian_det(homogenize(ELLIPTIC))
    expected = Poly({(3, 0, 0): 8, (1, 2, 0): 24, (0, 1, 2): -24}, nvars=3)
    assert h == expected  # 8(x0^3 + 3 x0 x1^2 - 3 x1 x2^2)


def test_hessian_det_x0x1x2():
    h = hessian_det(Poly({(1, 1, 1): 1}, nvars=3))
    assert h == Poly({(1, 1, 1): 2}, nvars=3)


def test_hessian_det_degenerate():
    assert hessian_det(Poly({(3, 0, 0): 1}, nvars=3)).is_zero()


# the former symbolic determinant: the Leibniz formula over products of the
# Hessian's second-partial polynomials, kept as the reference
_PERMS = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
          ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1))


def _reference_hessian_det(P: Poly) -> Poly:
    mat = [[P.partial(i).partial(j) for j in range(3)] for i in range(3)]
    out = P.zero(3)
    for perm, sign in _PERMS:
        out = out + mat[0][perm[0]] * mat[1][perm[1]] * mat[2][perm[2]] * sign
    return out


_CUBIC_MONOS = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]


def _random_cubic3(rng: random.Random) -> Poly:
    coeffs = {}
    for mono in rng.sample(_CUBIC_MONOS, rng.randint(1, len(_CUBIC_MONOS))):
        coeffs[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Poly(coeffs, nvars=3)


def test_hessian_det_matches_reference_on_random_cubics():
    rng = random.Random(4)
    cubics = [Poly({(3, 0, 0): 1}, nvars=3)] + [_random_cubic3(rng) for _ in range(50)]
    for P in cubics:
        assert hessian_det(P) == _reference_hessian_det(P)


# the former Hessian and t-polynomials, kept as the references: second
# partials as polynomials read at each unit vector, and each coefficient of
# det H(h + t P) interpolated from four points

def _reference_hessian(P: Poly) -> Pencil:
    second = [[P.partial(i).partial(j) for j in range(3)] for i in range(3)]
    units = [tuple(int(k == var) for k in range(3)) for var in range(3)]
    return Pencil.from_rows(*([[second[i][j].coeff(unit) for j in range(3)]
                               for i in range(3)] for unit in units))


def _reference_monomial_t_polys(P: Poly, h: Poly) -> dict:
    dets = [homogenize(interpolate_det(_reference_hessian(h + P * t))) for t in (-1, 0, 1, 2)]
    monos = sorted(set().union(*(set(d.coeffs) for d in dets)) | set(P.coeffs))
    return {mono: UniPoly(interpolate_exact([d.coeff(mono) for d in dets], -1))
            for mono in monos}


def _typed_entries(pencil: Pencil) -> list:
    """Every entry with its type, so 1.0 and Fraction(1) differ."""
    return [(type(x), x) for mat in pencil.mats for row in mat for x in row]


def _ref(P: Poly) -> RefPoly:
    """P as the Fraction reference Poly, which takes float scalars."""
    return RefPoly(P.coeffs, P.nvars)


def _is_smooth3(P: Poly) -> bool:
    """Whether the ternary cubic P is smooth; x0 | P makes it reducible."""
    p = Poly({(a, b): v for (_, a, b), v in P.coeffs.items()})
    return p.degree == 3 and not _is_singular(p)


def _hesse_unipolys(P: Poly, h: Poly) -> tuple[UniPoly, UniPoly]:
    """A and B from the integer lists of ``_hesse_coordinates``."""
    a, b, den = _hesse_coordinates(P, h)
    return (UniPoly([Fraction(v * P.den, den) for v in a]),
            UniPoly([Fraction(v * h.den, den) for v in b]))


def _assert_matches_references(P: Poly, ts=()) -> bool:
    """The Hessian at P and at h + t P for each float or exact t; for a smooth P also
    A(t) P_m + B(t) h_m against every coefficient's t-polynomial, B monic
    of degree 3.  Returns whether P was smooth.  At a float t every entry is
    a float: the reference's exact entries (h's monomials off P's support,
    and zeros) rounded once."""
    assert _typed_entries(hessian(P)) == _typed_entries(_reference_hessian(P))
    h = hessian_det(P)
    for t in ts:
        want = _typed_entries(_reference_hessian(_ref(h) + _ref(P) * t))
        if isinstance(t, float):
            want = [(float, float(x)) for _, x in want]
        assert _typed_entries(_hessian_at(P, h, t)) == want
    if not _is_smooth3(P):  # the identity is a fact about smooth cubics
        return False
    A, B = _hesse_unipolys(P, h)
    assert B.degree == 3 and B[3] == 1
    ref = _reference_monomial_t_polys(P, h)
    for mono in _CUBIC_MONOS:
        assert A * P.coeff(mono) + B * h.coeff(mono) == ref.get(mono, UniPoly()), mono
    return True


def test_tensor_hessian_and_t_polys_match_references_on_random_cubics():
    rng = random.Random(4)
    cubics = [Poly({(3, 0, 0): 1}, nvars=3)] + [_random_cubic3(rng) for _ in range(60)]
    floats = smooth = 0
    for P in cubics:
        ts = [rng.uniform(-30, 30), rng.choice([-1, 1]) * rng.uniform(1e-3, 1e3),
              Fraction(rng.randint(-90, 90), rng.randint(1, 9))]
        smooth += _assert_matches_references(P, ts)
        floats += any(isinstance(x, float) for t in ts
                      for _, x in _typed_entries(_hessian_at(P, hessian_det(P), t)))
    assert floats >= 50 and smooth >= 25


@pytest.mark.parametrize("name", ["cubic-curve", "elliptic-cubic"])
def test_tensor_hessian_and_t_polys_match_references_on_fixtures(name):
    p = parse_poly(load_fixture(name)["poly"])
    P, reps = homogenize(p), cubic_representations(p)
    # both fixtures have rational t*, so float t are taken next to them
    assert _assert_matches_references(P, [float(rep.t_star) + 0.1 for rep in reps])
    # the final pencils at each t*, before the scaling by mu
    h = hessian_det(P)
    for rep in reps:
        assert _typed_entries(_hessian_at(P, h, rep.t_star)) == \
            _typed_entries(_reference_hessian(h + P * rep.t_star))


def test_smooth_cubic_makes_no_partials_and_three_determinants(monkeypatch):
    import rigidconvex.bezout as bezout
    import rigidconvex.cubicrepr as cubicrepr
    import rigidconvex.locate as locate

    counts = {"partial": 0, "interpolate_det": 0, "_interpolate_minors": 0, "_det_form": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Poly, "partial", counted("partial", Poly.partial))
    for module, name in ((bezout, "interpolate_det"), (locate, "_interpolate_minors"),
                         (cubicrepr, "_det_form")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert len(cubic_representations(ELLIPTIC)) == 3
    # h = det H(P), then det(M0 + t M1) at two lattice points, each one column
    # expansion on integers; no Poly-ring product, interpolation or Fraction
    # polynomial is left on the route
    assert counts == {"partial": 0, "interpolate_det": 0, "_interpolate_minors": 0,
                      "_det_form": 3}
    assert not {"interpolate_det", "_interpolate_minors", "UniPoly"} & set(vars(cubicrepr))


def _random_int_matrix(rng: random.Random) -> list:
    """A random integer symmetric 3 x 3 matrix; one in three has a zero
    column, and one in three two equal columns."""
    i, j, k = rng.sample(range(3), 3)
    mat = [[0] * 3 for _ in range(3)]
    for a, b in ((i, i), (i, j), (i, k), (j, j), (j, k), (k, k)):
        mat[a][b] = mat[b][a] = rng.randint(-50, 50)
    kind = rng.randrange(3)
    if kind == 0:
        mat[i] = [0] * 3
        mat[j][i] = mat[k][i] = 0
    elif kind == 1:  # column i = column j: equal rows i and j, and so H_ii = H_ij = H_jj
        mat[i][i] = mat[j][j] = mat[i][j]
        mat[i][k] = mat[k][i] = mat[j][k]
    return mat


def test_t_cubic_columns_match_interpolated_determinant():
    from rigidconvex.cubicrepr import _det_form
    from rigidconvex.polycore import _interpolate_minors

    rng = random.Random(28)
    zero = [[0] * 3 for _ in range(3)]
    pairs = [(zero, zero), (zero, _random_int_matrix(rng)), (_random_int_matrix(rng), zero)]
    pairs += [(_random_int_matrix(rng), _random_int_matrix(rng)) for _ in range(200)]
    for m0, m1 in pairs:
        form = _det_form([m0, m1])
        polys = [[m0[i][j], m1[i][j]] for i in range(3) for j in range(3)]
        plan = [[(1, 3 * i + j) for j in range(3)] for i in range(3)]
        assert set(form) == {(3 - s, s) for s in range(4)}
        assert [form[3 - s, s] for s in range(4)] == _interpolate_minors(plan, polys, 0, 4)[0]


@pytest.mark.parametrize("text", ["x1^3", "x1*x2*x3", "(x1+2*x2)*(x1^2-x2*x3+3*x3^2)",
                                  "(x1-x2)^2*(x1+x3)", "x2^2*x3+1/3*x3^3"])
def test_hessian_det_matches_reference_on_degenerate_cubics(text):
    # x1, x2, x3 stand for x0, x1, x2: a triple line, a triangle, a line
    # times a conic, a double line, and a cone over three points
    P = parse_poly(text, 3)
    assert hessian_det(P) == _reference_hessian_det(P)


_GOLDEN = json.loads((Path(__file__).parent / "data" / "cubic_repr_golden.json").read_text())


@pytest.mark.parametrize("poly", sorted(_GOLDEN))
def test_cubic_repr_report_matches_golden(capsys, poly):
    # the cubic-curve and elliptic-cubic fixtures, a cubic whose t* are
    # floats, seeded smooth cubics with one or three real t*, rational,
    # irrational or mixed, two with 44-bit coefficients, the elliptic cubic
    # over 7 and a nodal cubic; timing_seconds is the one field that varies
    # between runs
    assert main(["cubic-repr", "--poly", poly, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["timing_seconds"]
    assert json.dumps(report, sort_keys=True) == json.dumps(_GOLDEN[poly], sort_keys=True)


def test_root_constant_matches_reference_determinant():
    # c is read off the interpolated t-polynomials; the former code took
    # det H(h + t* P) at every root and read the anchor coefficient
    rng = random.Random(7)
    polys = [ELLIPTIC, parse_poly("x1^3+x2^3+1")]
    while len(polys) < 30:
        P = _random_cubic3(rng)
        if P.coeff((0, 3, 0)) != 0:
            polys.append(Poly({(a, b): v for (_, a, b), v in P.coeffs.items()}))
    exact = floating = 0
    for p in polys:
        try:
            reps = cubic_representations(p)
        except SingularCubicError:
            continue
        P = homogenize(p)
        h = _reference_hessian_det(P)
        anchor = max(P.coeffs, key=lambda e: abs(P.coeffs[e]))
        for rep in reps:
            s = _ref(h) + _ref(P) * rep.t_star
            want = _reference_hessian_det(s).coeff(anchor) / P.coeff(anchor)
            if isinstance(rep.t_star, Fraction):
                assert rep.c == want
                exact += 1
            else:
                assert abs(rep.c - want) <= 1e-11 * abs(want)
                floating += 1
    assert exact >= 3 and floating >= 10


# ---------------------------------------------------------------------------
# cubic_representations
# ---------------------------------------------------------------------------

def test_elliptic_t_values():
    reps = cubic_representations(ELLIPTIC)
    assert [float(r.t_star) for r in reps] == pytest.approx([-24.0, 0.0, 24.0], abs=1e-6)
    assert [r.t_star for r in reps] == [Fraction(-24), Fraction(0), Fraction(24)]


@pytest.mark.parametrize("q", [7, 49, 40009])
def test_rational_t_star_is_exact_at_any_denominator(q):
    # (x1^3 - x2^2 - x1) / q has t* = -24/q^2, 0, 24/q^2: Hessians scale by
    # 1/q^3, so h by 1/q^3 and det H(h + t P) by 1/q^8 at t = t0 / q^2; the
    # rational roots are read off B's square-free factor, and a snap to
    # denominators below 10^9 left them floats at q = 40009
    p = parse_poly(f"1/{q}*x1^3-1/{q}*x2^2-1/{q}*x1")
    reps = cubic_representations(p)
    assert [rep.t_star for rep in reps] == [Fraction(-24, q**2), 0, Fraction(24, q**2)]
    assert all(type(rep.t_star) is Fraction and type(rep.c) is Fraction for rep in reps)
    assert [rep.c for rep in reps] == [Fraction(c0, q**8) for c0 in (442368, 110592, 442368)]
    P = homogenize(p)
    h = _reference_hessian_det(P)
    for rep in reps:
        # the proof that t* and c are exact: det H(h + t* P) = c P
        assert _reference_hessian_det(h + P * rep.t_star) == P * rep.c
        assert float(verify_pencil_det(rep.pencil, p)) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("q", [3, 2**40 + 1, 3**40])
def test_rational_t_star_is_exact_at_any_numerator(q):
    # q (x1^3 - x2^2 - x1) has t* = -24 q^2, 0, 24 q^2: past 2^53 the float
    # midpoint of the root's interval, times lc, rounded to the wrong numerator
    p = parse_poly(f"{q}*x1^3-{q}*x2^2-{q}*x1")
    reps = cubic_representations(p)
    assert [rep.t_star for rep in reps] == [-24 * q**2, 0, 24 * q**2]
    assert all(type(rep.t_star) is Fraction and type(rep.c) is Fraction for rep in reps)
    P = homogenize(p)
    h = _reference_hessian_det(P)
    for rep in reps:
        assert _reference_hessian_det(h + P * rep.t_star) == P * rep.c


@pytest.mark.parametrize("q", [1409, 10007, 31622])
def test_rational_t_star_is_exact_when_lc_b_outgrows_its_denominator(q):
    # B of (11 x2^3 - 6 x1^2 - 16 x1^2 x2 - 9 x2) / q has a constant term, so its
    # primitive leading coefficient grows like q^6 while t* = -2304/q^2 keeps
    # the denominator q^2: the root's interval is narrowed below 1 / lc before
    # rounding, where float width alone rounded it to the wrong numerator
    p = parse_poly(f"11/{q}*x2^3-6/{q}*x1^2-16/{q}*x1^2*x2-9/{q}*x2")
    reps = cubic_representations(p)
    assert [type(rep.t_star) for rep in reps] == [Fraction, float, float]
    assert reps[0].t_star == Fraction(-2304, q**2) and type(reps[0].c) is Fraction
    P = homogenize(p)
    assert _reference_hessian_det(_reference_hessian_det(P) + P * reps[0].t_star) == P * reps[0].c


def test_elliptic_determinants_exact():
    for rep in cubic_representations(ELLIPTIC):
        c = verify_pencil_det(rep.pencil, ELLIPTIC)
        assert float(c) == pytest.approx(1.0, abs=1e-8)


def test_elliptic_t0_matches_published_pencil():
    reps = cubic_representations(ELLIPTIC)
    rep0 = next(r for r in reps if float(r.t_star) == 0)
    assert rep0.c == 110592  # 48^3
    assert rep0.mu == Fraction(1, 48)
    assert _signed_perm_equal(rep0.pencil, F1_ROWS)


def _signed_perm_equal(pencil, rows, tol=1e-9):
    """Entrywise match after some signed permutation congruence."""
    mats = [np.array(m, dtype=float) for m in pencil.mats]
    targets = [np.array(m, dtype=float) for m in rows]
    for perm in itertools.permutations(range(3)):
        P = np.eye(3)[:, perm]
        for signs in itertools.product([1, -1], repeat=3):
            S = P @ np.diag(signs)
            if all(np.allclose(S.T @ M @ S, T, atol=tol)
                   for M, T in zip(mats, targets)):
                return True
    return False


def test_elliptic_pd_certification_per_pencil():
    # sampled interior point of the compact oval
    reps = cubic_representations(ELLIPTIC)
    verdicts = [certify_psd_point(r.pencil, (-0.5, 0.0)).verdict for r in reps]
    by_t = dict(zip([float(r.t_star) for r in reps], verdicts))
    assert by_t[0.0] == "PD"
    assert by_t[24.0] == "rejected"
    # note: the homotopy also yields a second PD representative at t* = -24;
    # see the fixture metadata for the discrepancy with the published claim
    assert by_t[-24.0] == "PD"


def test_nodal_cubic_rejected():
    with pytest.raises(SingularCubicError) as err:
        cubic_representations(parse_poly("-x1^3-x1^2+x2^2"))
    assert err.value.singular_point == (0.0, 0.0)
    assert all(type(v) is float for v in err.value.singular_point)


def test_singular_note_never_prints_negative_zero():
    # the node's x1 = 0 is computed at the midpoint of x2's interval around
    # 1/3, as -4.6e-18, which rounds to -0.0
    with pytest.raises(SingularCubicError) as err:
        cubic_representations(parse_poly("(x2-1/3)^2-x1^2*(x1+1)"))
    assert err.value.singular_point == (0.0, 0.333333333333)
    assert "-0.0" not in str(err.value) and str(err.value.singular_point[0]) == "0.0"


@pytest.mark.parametrize("text, shown", [("(x1^2+x2^2+1)*(x1-2)", "(2.0, 2.2360679775j)"),
                                         ("(x1-1)*(x2^2+1)", "(1.0, 1j)")])
def test_complex_singular_note_prints_no_rounding_noise(text, shown):
    # the complex singular points (2, +-i sqrt 5) and (1, +-i) come out of the
    # float root finder with parts such as -4.4e-16 and 1.0000000000000002;
    # each part is rounded to 12 digits, and a rounded -0.0 is printed as 0.0
    with pytest.raises(SingularCubicError) as err:
        cubic_representations(parse_poly(text))
    assert str(err.value.singular_point) == shown
    assert f"singular near {shown};" in str(err.value)


def test_cuspidal_cubic_rejected():
    with pytest.raises(SingularCubicError):
        cubic_representations(parse_poly("x1^3-x2^2"))


def test_complex_singularity_rejected():
    # (x1^2 + x2^2 + 1)(x1 + 1) is singular only at complex points
    with pytest.raises(SingularCubicError):
        cubic_representations(parse_poly("(x1^2+x2^2+1)*(x1+1)"))


def test_fermat_cubic_representations():
    # x1^3 + x2^3 + 1 is smooth; all returned pencils must satisfy det F = p
    p = parse_poly("x1^3+x2^3+1")
    reps = cubic_representations(p)
    assert 1 <= len(reps) <= 3
    for rep in reps:
        c = verify_pencil_det(rep.pencil, p)
        assert float(c) == pytest.approx(1.0, abs=1e-8)


def test_gcd_degree_at_most_three():
    # indirect invariant: never more than three representations
    for expr in ("x1^3-x2^2-x1", "x1^3+x2^3+1", "1-x1^3+x2^3+x1*x2"):
        p = parse_poly(expr)
        try:
            reps = cubic_representations(p)
        except SingularCubicError:
            continue
        assert len(reps) <= 3


def reference_mu(c):
    """mu as cubic_representations chose it with one branch for rational and
    one for float c."""
    from rigidconvex.cubicrepr import _cube_root_exact

    if isinstance(c, Fraction):
        root = _cube_root_exact(c)
        if root is not None:
            return 1 / root
        return float(np.sign(float(c)) * abs(float(c)) ** (-1.0 / 3.0))
    return float(np.sign(c) * abs(c) ** (-1.0 / 3.0))


def test_mu_matches_two_branch_reference():
    # c = 110592 = 48^3 (exact root), 442368 (no rational root) and float c
    kinds = set()
    for expr in ("x1^3-x2^2-x1", "x1^3+x2^3+1", "x1^3-x2^2-x1+1/5"):
        for rep in cubic_representations(parse_poly(expr)):
            want = reference_mu(rep.c)
            assert rep.mu == want and type(rep.mu) is type(want)
            kinds.add((type(rep.c).__name__, type(rep.mu).__name__))
    assert kinds == {("Fraction", "Fraction"), ("Fraction", "float"), ("float", "float")}


# ---------------------------------------------------------------------------
# exact smoothness, anchor constraints and the integer cube root
# ---------------------------------------------------------------------------

def test_smooth_cubic_close_to_a_node_is_represented():
    # y^2 = x^3 + x^2 - 10^-7 has three distinct roots, so the cubic is smooth;
    # a residual test of 1e-7 took the nearby node for a singular point
    p = parse_poly("-x1^3-x1^2+x2^2+1/10^7")
    reps = cubic_representations(p)
    assert len(reps) == 3
    for rep in reps:
        assert float(verify_pencil_det(rep.pencil, p)) == pytest.approx(1.0, abs=1e-8)


def test_close_homotopy_roots_give_exact_pencils():
    # two of the three t* lie near -8.0008 and -7.9992; numpy.roots left them
    # too inexact for det F = p, the isolated roots round correctly
    p = parse_poly("-x1^3-x1^2+x2^2+1/10^9")
    reps = cubic_representations(p)
    assert [round(float(rep.t_star), 4) for rep in reps] == [-8.0008, -7.9992, 16.0]
    for rep in reps:
        assert float(verify_pencil_det(rep.pencil, p)) == pytest.approx(1.0, abs=1e-8)


def test_cube_root_exact_beyond_float_range():
    from rigidconvex.cubicrepr import _cube_root_exact

    big = 10**30 + 7
    assert _cube_root_exact(Fraction(big**3, 8)) == Fraction(big, 2)
    huge = 10**130 + 7  # huge^3 is beyond the float range
    assert _cube_root_exact(Fraction(-huge**3, 27)) == Fraction(-huge, 3)
    assert _cube_root_exact(Fraction(huge**3 + 1)) is None
    assert _cube_root_exact(Fraction(huge**3, 9)) is None
    assert _cube_root_exact(Fraction(110592)) == 48
    assert _cube_root_exact(Fraction(442368)) is None
    assert _cube_root_exact(Fraction(0)) is None


def test_integer_cube_root_is_the_floor():
    from rigidconvex.cubicrepr import _icbrt

    rng = random.Random(9)
    values = list(range(1, 200))
    for _ in range(300):
        r = rng.randint(1, 2**rng.randint(1, 1200))
        values += [r**3 - 1, r**3, r**3 + 1, rng.randint(1, r**3)]
    for n in filter(None, values):
        r = _icbrt(n)
        assert r**3 <= n < (r + 1) ** 3


def _reference_singular_at_infinity(P: Poly) -> bool:
    """The former test at infinity: a common zero of the three partials on
    x0 = 0, the direction (1 : 0) separately, the rest by a gcd at x2 = 1."""
    forms = []
    for i in range(3):
        binary = {(a1, a2): v for (a0, a1, a2), v in P.partial(i).coeffs.items()
                  if a0 == 0}
        if binary:
            forms.append(binary)
    if not forms:
        return True
    if all(form.get((2, 0), Fraction(0)) == 0 for form in forms):
        return True
    gcd = None
    for form in forms:
        uni = UniPoly([form.get((k, 2 - k), Fraction(0)) for k in range(3)])
        gcd = uni if gcd is None else ref_gcd(gcd, uni)
        if gcd.degree < 1:
            return False
    return gcd is not None and gcd.degree >= 1


def _reference_is_singular(p: Poly) -> bool:
    """The former float decision: a complex affine singular point within a
    residual of 1e-7, else the exact test at infinity."""
    return (_affine_singular_point(p) is not None
            or _reference_singular_at_infinity(homogenize(p)))


def _is_singular(p: Poly) -> bool:
    try:
        check_smooth_cubic(p, hessian_det(homogenize(p)))
    except SingularCubicError:
        return True
    return False


def _linear(rng, lo=-3, hi=3) -> Poly:
    return Poly({(1, 0): rng.randint(lo, hi), (0, 1): rng.randint(lo, hi),
                 (0, 0): rng.randint(lo, hi)})


def _weierstrass(rng, a, b, first_column=None) -> Poly:
    """Y^2 Z - X^3 - a X Z^2 - b Z^3 at (X, Y, Z) = M (x1, x2, 1), M a random
    invertible integer matrix, optionally with a given first column (the
    image of the point (1 : 0 : 0) at infinity)."""
    while True:
        M = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if first_column is not None:
            for row, v in zip(M, first_column):
                row[0] = v
        if det_exact([[Fraction(v) for v in row] for row in M]) != 0:
            break
    X, Y, Z = (Poly({(1, 0): r[0], (0, 1): r[1], (0, 0): r[2]}) for r in M)
    return Y**2 * Z - X**3 - X * Z**2 * a - Z**3 * b


def _cubic_zoo(rng):
    """(kind, cubic) pairs: random dense, nodal, cuspidal, line x conic, three
    lines, line x conic without real points, and node or cusp at infinity."""
    out = []
    for _ in range(40):
        p = Poly({(a, b): rng.randint(-5, 5) for a in range(4) for b in range(4 - a)})
        out.append(("random", p))
    for k in (1, 2):
        out += [("nodal", _weierstrass(rng, -3 * k * k, 2 * k**3)) for _ in range(10)]
        out += [("node-at-infinity", _weierstrass(rng, -3 * k * k, 2 * k**3, (k, 0, 1)))
                for _ in range(5)]
    out += [("cuspidal", _weierstrass(rng, 0, 0)) for _ in range(10)]
    out += [("cusp-at-infinity", _weierstrass(rng, 0, 0, (0, 0, 1))) for _ in range(5)]
    for _ in range(15):
        conic = Poly({(2, 0): rng.randint(-3, 3), (1, 1): rng.randint(-3, 3),
                      (0, 2): rng.randint(-3, 3), (1, 0): rng.randint(-3, 3),
                      (0, 1): rng.randint(-3, 3), (0, 0): rng.randint(-3, 3)})
        out.append(("line-conic", _linear(rng) * conic))
        out.append(("three-lines", _linear(rng) * _linear(rng) * _linear(rng)))
        empty = Poly({(2, 0): 1, (0, 2): rng.randint(1, 3), (0, 0): rng.randint(1, 3)})
        out.append(("complex-singular", _linear(rng) * empty))
    return [(kind, p) for kind, p in out if p.degree == 3]


def test_exact_smoothness_matches_reference_decision():
    rng = random.Random(12)
    kinds = {}
    for kind, p in _cubic_zoo(rng):
        singular = _is_singular(p)
        assert singular == _reference_is_singular(p), (kind, p)
        kinds.setdefault(kind, set()).add(singular)
    assert kinds["random"] == {False}
    for kind in ("nodal", "cuspidal", "line-conic", "three-lines", "complex-singular",
                 "node-at-infinity", "cusp-at-infinity"):
        assert kinds[kind] == {True}, kind


def test_smoothness_of_moved_weierstrass_cubics_is_the_discriminant():
    rng = random.Random(13)
    seen = set()
    pairs = [(a, b) for a in range(-3, 4) for b in range(-3, 4)] + [(-12, 16), (-12, -16)]
    for a, b in pairs:
        for _ in range(3):
            p = _weierstrass(rng, a, b)
            if p.degree != 3:
                continue
            singular = 4 * a**3 + 27 * b**2 == 0
            assert _is_singular(p) == singular, (a, b, p)
            seen.add(singular)
    assert seen == {True, False}


def _reference_pairwise_gcd(P: Poly, gpoly) -> UniPoly:
    """The former elimination: gcd of g_a P_b - g_b P_a over all pairs."""
    monos = sorted(gpoly)
    gcd = UniPoly()
    for i, a in enumerate(monos):
        for b in monos[i + 1:]:
            gcd = ref_gcd(gcd, gpoly[a] * P.coeff(b) - gpoly[b] * P.coeff(a))
    return gcd


def test_hesse_b_is_the_pairwise_gcd(monkeypatch):
    import rigidconvex.cubicrepr as cubicrepr

    seen = []
    original = cubicrepr._squarefree_factors
    monkeypatch.setattr(cubicrepr, "_squarefree_factors",
                        lambda r: seen.append(r) or original(r))
    rng = random.Random(14)
    cubics = [ELLIPTIC, parse_poly("x1^3+x2^3+1"), parse_poly("x1^3-x2^2-x1+1/5")]
    cubics += [p for kind, p in _cubic_zoo(rng) if kind == "random"]
    cubics += [_weierstrass(rng, 1, 1) for _ in range(10)]
    compared = 0
    for p in cubics:
        if p.degree != 3 or _is_singular(p):
            continue
        P, h = homogenize(p), hessian_det(homogenize(p))
        want = _reference_pairwise_gcd(P, _reference_monomial_t_polys(P, h))
        seen.clear()
        cubic_representations(p)
        # every pairwise condition is B (h_a P_b - h_b P_a), so their gcd is B;
        # the roots are taken from B's integer list
        assert seen == [_hesse_coordinates(P, h)[1]]
        assert _hesse_unipolys(P, h)[1] == want
        assert want.degree == 3
        compared += 1
    assert compared >= 30
