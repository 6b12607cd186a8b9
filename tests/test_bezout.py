import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from rigidconvex import (
    DegreeZeroError,
    DeterminantMismatchError,
    Pencil,
    UniPoly,
    parse_poly,
)
from rigidconvex.bezout import (
    Parametrization,
    RigidVerdict,
    bezout_matrix,
    interpolate_det,
    pencil_from_param,
    rigid_at_origin,
    signature_exact,
    verify_pencil_det,
)
from rigidconvex.locate import real_roots_with_multiplicity
from rigidconvex.polycore import Poly, det_exact, solve_exact
from reference_poly import ref_derivative

CAPRICORN_P = parse_poly("x1^2*(x1^2+x2^2)-2*(x1^2+x2^2-x2)^2")
CAPRICORN = Parametrization(
    UniPoly([45, -8, 10, 0, 1]),
    UniPoly([-7, 44, -18, -4, 1]),
    UniPoly([49, -28, -10, 4, 1]),
)
BEAN_P = parse_poly("x1^4+x1^2*x2^2+x2^4-x1^3+x1*x2^2")
# lines x2 = u x1 through the triple point at the origin give
# q0 = 1 + u^2 + u^4, q1 = 1 - u^2, q2 = u - u^3 (padded to degree 4)
BEAN = Parametrization(
    UniPoly([1, 0, 1, 0, 1]),
    UniPoly([1, 0, -1]),
    UniPoly([0, 1, 0, -1]),
)
CIRCLE = Parametrization(UniPoly([1, 0, 1]), UniPoly([1, 0, -1]), UniPoly([0, 2]))


def point(par: Parametrization, u):
    """(q1(u) / q0(u), q2(u) / q0(u)), the curve point at parameter u."""
    q0u = par.q0(u)
    if q0u == 0:
        raise ZeroDivisionError(f"q0({u}) = 0")
    return par.q1(u) / q0u, par.q2(u) / q0u


def sylvester_resultant(g: UniPoly, h: UniPoly, m: int) -> Fraction:
    """Independent oracle: resultant of g, h regarded as degree-m polynomials."""
    gc = [g[k] for k in range(m, -1, -1)]
    hc = [h[k] for k in range(m, -1, -1)]
    n = 2 * m
    rows = []
    for r in range(m):
        rows.append([Fraction(0)] * r + gc + [Fraction(0)] * (m - 1 - r))
    for r in range(m):
        rows.append([Fraction(0)] * r + hc + [Fraction(0)] * (m - 1 - r))
    assert all(len(row) == n for row in rows)
    return det_exact(rows)


def _random_unipoly(rng, degree):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
    coeffs.append(Fraction(rng.randint(1, 9)))
    return UniPoly(coeffs)


# ---------------------------------------------------------------------------
# bezout matrices
# ---------------------------------------------------------------------------

def test_bezout_trivial():
    assert bezout_matrix(UniPoly([0, 1]), UniPoly([1])) == [[Fraction(1)]]


def test_bezout_hand_case():
    B = bezout_matrix(UniPoly([1, 0, -1]), UniPoly([0, 2]))
    assert B == [[Fraction(-2), Fraction(0)], [Fraction(0), Fraction(-2)]]


def test_bezout_degree_zero_rejected():
    with pytest.raises(DegreeZeroError):
        bezout_matrix(UniPoly([1]), UniPoly([2]))


def test_bezout_symmetry_and_antisymmetry():
    rng = random.Random(42)
    for _ in range(500):
        m = rng.randint(1, 6)
        g, h = _random_unipoly(rng, m), _random_unipoly(rng, rng.randint(1, m))
        B = bezout_matrix(g, h, m)
        Bt = bezout_matrix(h, g, m)
        for i in range(m):
            for j in range(m):
                assert B[i][j] == B[j][i]
                assert B[i][j] == -Bt[i][j]


def test_bezout_bilinearity():
    rng = random.Random(7)
    for _ in range(500):
        m = rng.randint(1, 5)
        g1, g2, h = (_random_unipoly(rng, m) for _ in range(3))
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        left = bezout_matrix(g1 * a + g2 * b, h, m)
        r1 = bezout_matrix(g1, h, m)
        r2 = bezout_matrix(g2, h, m)
        for i in range(m):
            for j in range(m):
                assert left[i][j] == a * r1[i][j] + b * r2[i][j]


def test_bezout_det_is_resultant_up_to_sign():
    rng = random.Random(13)
    for m in range(1, 7):
        signs = set()
        for _ in range(8):
            g, h = _random_unipoly(rng, m), _random_unipoly(rng, m)
            B = bezout_matrix(g, h, m)
            detB = det_exact(B)
            res = sylvester_resultant(g, h, m)
            if res == 0:
                assert detB == 0
                continue
            assert detB == res or detB == -res
            signs.add(1 if detB == res else -1)
        assert len(signs) <= 1  # fixed sign per degree


# ---------------------------------------------------------------------------
# pencils from parametrizations
# ---------------------------------------------------------------------------

def test_capricorn_pencil_origin_eigenvalues():
    pencil = pencil_from_param(CAPRICORN)
    eigs = np.linalg.eigvalsh(pencil.eval(0, 0))
    root533 = float(np.sqrt(533))
    expected = sorted([0.0, 0.0, 1392 - 48 * root533, 1392 + 48 * root533])
    assert eigs == pytest.approx(expected, rel=1e-6, abs=1e-8)


def test_capricorn_pencil_det_proportional():
    pencil = pencil_from_param(CAPRICORN)
    c = verify_pencil_det(pencil, CAPRICORN_P)
    assert c != 0
    assert c == -(2**30)  # exact constant for the printed parametrization


def test_unit_circle_pencil():
    pencil = pencil_from_param(CIRCLE)
    assert pencil.mats[0] == ((2, 0), (0, 2))
    c = verify_pencil_det(pencil, parse_poly("1-x1^2-x2^2"))
    assert c == 4
    assert rigid_at_origin(pencil).status == RigidVerdict.STRICT


def test_bean_pencil_origin_eigenvalues():
    pencil = pencil_from_param(BEAN)
    eigs = sorted(np.linalg.eigvalsh(pencil.eval(0, 0)))
    assert eigs == pytest.approx([0.0, 0.0, 0.0, 2.0], abs=1e-8)


def test_bean_parametrization_annihilates_p():
    for u in (Fraction(0), Fraction(1, 3), Fraction(-7, 2), Fraction(5)):
        x1, x2 = point(BEAN, u)
        assert BEAN_P(x1, x2) == 0


def test_capricorn_parametrization_annihilates_p():
    for u in (Fraction(0), Fraction(1, 2), Fraction(-3), Fraction(11, 4)):
        x1, x2 = point(CAPRICORN, u)
        assert CAPRICORN_P(x1, x2) == 0


def test_pencil_rank_drops_on_curve():
    rng = np.random.default_rng(5)
    for par, p in ((CAPRICORN, CAPRICORN_P), (BEAN, BEAN_P), (CIRCLE, None)):
        pencil = pencil_from_param(par)
        for u in rng.uniform(-3, 3, 100):
            try:
                x1, x2 = point(par, float(u))
            except ZeroDivisionError:
                continue
            mat = pencil.eval(x1, x2)
            det = np.linalg.det(mat)
            scale = max(1.0, np.linalg.norm(mat) ** pencil.m)
            assert abs(det) <= 1e-7 * scale


# ---------------------------------------------------------------------------
# interlacing: the exact inertia of B(q1, q2)
# ---------------------------------------------------------------------------

def _inertia(q1: UniPoly, q2: UniPoly) -> tuple:
    return signature_exact(bezout_matrix(q1, q2, max(q1.degree, q2.degree)))


def _interlace_verdict(q1: UniPoly, q2: UniPoly) -> str:
    """'definite' when B(q1, q2) has one sign and no kernel (the roots of q1
    and q2 are real and strictly interlace), 'semidefinite' when it has one
    sign and a kernel (a common root, possibly at infinity), else
    'indefinite'."""
    pos, neg, zero = _inertia(q1, q2)
    if pos and neg:
        return "indefinite"
    return "semidefinite" if zero else "definite"


def test_interlace_definite():
    assert _inertia(UniPoly([1, 0, -1]), UniPoly([0, 2])) == (0, 2, 0)


def test_interlace_float_coefficients():
    # float coefficients are read as the binary rationals they are
    assert _inertia(UniPoly([0.5, 1.0]), UniPoly([1, 1])) == \
        _inertia(UniPoly([Fraction(1, 2), 1]), UniPoly([1, 1])) == (1, 0, 0)


def test_interlace_complex_roots_indefinite():
    assert _inertia(UniPoly([1, 0, 1]), UniPoly([0, 1])) == (1, 1, 0)


def test_interlace_nested_roots_indefinite():
    # signature 0: Cauchy index 0
    assert _inertia(UniPoly([-1, 0, 1]), UniPoly([-4, 0, 1])) == (1, 1, 0)


def test_interlace_double_root_semidefinite():
    assert _inertia(UniPoly([0, 0, 1]), UniPoly([0, 1])) == (1, 0, 1)  # u^2 vs u


def test_interlace_signature_matches_verdict_random():
    rng = random.Random(99)
    found = 0
    for _ in range(300):
        m = rng.randint(2, 5)
        # well-separated roots keep the Bezout matrix comfortably regular
        roots1 = [rng.uniform(-5, -4)]
        for _ in range(m - 1):
            roots1.append(roots1[-1] + rng.uniform(0.5, 2.0))
        # build strictly interlacing partner roots
        roots2 = [(roots1[i] + roots1[i + 1]) / 2 for i in range(m - 1)]
        q1 = UniPoly([1])
        for r in roots1:
            q1 = q1 * UniPoly([Fraction(-r).limit_denominator(997), 1])
        q2 = UniPoly([1])
        for r in roots2:
            q2 = q2 * UniPoly([Fraction(-r).limit_denominator(997), 1])
        if _interlace_verdict(q1, q2) == "definite":
            assert _inertia(q1, q2) in ((m, 0, 0), (0, m, 0))
            found += 1
    assert found > 200


def reference_interlace_check(q1: UniPoly, q2: UniPoly) -> str:
    """The float decision on interlacing made before the exact inertia: all
    roots real (imaginary part below 1e-8 relative), then strict alternation
    of the sorted roots, with gaps below 1e-7 counted as coincident."""
    def real_or_none(q):
        out = []
        for r in q.roots():
            if abs(r.imag) >= 1e-8 * max(1.0, abs(r)):
                return None
            out.append(float(r.real))
        return sorted(out)

    r1, r2 = real_or_none(q1), real_or_none(q2)
    if r1 is None or r2 is None:
        return "indefinite"
    events = sorted([(v, 0) for v in r1] + [(v, 1) for v in r2])
    coincident, ordered = False, abs(len(r1) - len(r2)) <= 1
    for k in range(1, len(events)):
        val, label = events[k]
        if abs(val - events[k - 1][0]) <= 1e-7 * max(1.0, abs(val)):
            coincident = True
        elif events[k - 1][1] == label:
            ordered = False
    if ordered and not coincident:
        return "definite"
    return "semidefinite" if ordered else "indefinite"


def _from_roots(roots, lead=1, quadratics=()):
    q = UniPoly([lead])
    for r in roots:
        q = q * UniPoly([-r, 1])
    for a, b in quadratics:  # (u - a)^2 + b^2, a complex pair when b != 0
        q = q * UniPoly([a * a + b * b, -2 * a, 1])
    return q


def test_interlace_matches_float_reference_random():
    """On well-separated roots (gaps >= 1/2, complex pairs >= 1/2 off the real
    axis, no shared root) the exact inertia and the old float alternation
    give the same verdict."""
    rng = random.Random(17)
    seen = set()
    for _ in range(300):
        n = rng.randint(2, 7)
        points = [Fraction(rng.randint(-40, -30), 7)]
        for _ in range(n - 1):
            points.append(points[-1] + Fraction(rng.randint(4, 14), 8))
        if rng.random() < 0.5:
            labels = [k % 2 for k in range(n)]  # strict alternation
        else:
            labels = [rng.randint(0, 1) for _ in range(n)]
        roots1 = [x for x, lab in zip(points, labels) if lab == 0]
        roots2 = [x for x, lab in zip(points, labels) if lab == 1]
        if not roots1 or abs(len(roots1) - len(roots2)) > 1:
            continue
        pairs = []
        if rng.random() < 0.3 and len(roots2) >= 2:  # two real roots become a complex pair
            del roots2[rng.randrange(len(roots2))]
            del roots2[rng.randrange(len(roots2))]
            pairs.append((Fraction(rng.randint(-8, 8), 3), Fraction(rng.randint(2, 6), 4)))
        q1 = _from_roots(roots1, Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 5])))
        q2 = _from_roots(roots2, Fraction(rng.choice([-2, 1, 7]), rng.choice([1, 3])), pairs)
        verdict = _interlace_verdict(q1, q2)
        assert verdict == reference_interlace_check(q1, q2)
        seen.add(verdict)
    assert seen == {"definite", "indefinite"}


def test_interlace_shared_complex_factor_semidefinite():
    """q1 = (u^2+1)(u-1), q2 = (u^2+1)(u+1): the roots are not all real, so
    the float alternation said 'indefinite'.  But B(g r, h r) is
    r(u) r(v) B(g, h) and B(u - 1, u + 1) = 2, so B(q1, q2) is the coefficient
    matrix of 2 (u^2+1)(v^2+1), which is 2 c c^T with c = (1, 0, 1): positive
    semidefinite of rank one, inertia (1, 0, 2)."""
    q1 = UniPoly([1, 0, 1]) * UniPoly([-1, 1])
    q2 = UniPoly([1, 0, 1]) * UniPoly([1, 1])
    B = bezout_matrix(q1, q2, 3)
    assert B == [[2, 0, 2], [0, 0, 0], [2, 0, 2]]
    assert signature_exact(B) == (1, 0, 2)
    assert _interlace_verdict(q1, q2) == "semidefinite"
    assert reference_interlace_check(q1, q2) == "indefinite"


def _cauchy_index(num: UniPoly, den: UniPoly) -> int:
    """Signed count of -inf -> +inf jumps of num/den along the real line.

    At a simple real pole r of den, the jump direction is the sign of
    num(r) * den'(r)."""
    dden = ref_derivative(den)
    index = 0
    for r, _mult in real_roots_with_multiplicity(den):
        nv = float(num(r))
        dv = float(dden(r))
        if abs(nv) < 1e-9 or abs(dv) < 1e-9:
            raise ValueError("pole not simple enough for the numeric oracle")
        index += 1 if nv * dv > 0 else -1
    return index


def test_signature_equals_cauchy_index():
    pairs = [
        (UniPoly([1, 0, -1]), UniPoly([0, 2])),
        (CAPRICORN.q1, CAPRICORN.q2),
        (BEAN.q1, BEAN.q2),
    ]
    rng = random.Random(31)
    for _ in range(60):
        m = rng.randint(2, 5)
        roots = [rng.uniform(-4, -3)]
        for _ in range(m - 1):
            roots.append(roots[-1] + rng.uniform(0.7, 2.0))
        q1 = UniPoly([1])
        for r in roots:
            q1 = q1 * UniPoly([Fraction(-r).limit_denominator(499), 1])
        q2 = UniPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(rng.randint(1, m))]
                     + [Fraction(rng.randint(1, 5))])
        pairs.append((q1, q2))

    asserted = 0
    for q1, q2 in pairs:
        m = max(q1.degree, q2.degree)
        pos, neg, _ = signature_exact(bezout_matrix(q1, q2, m))
        try:
            index = _cauchy_index(q2, q1)
        except ValueError:
            continue  # shared or near-multiple roots: oracle undefined
        assert pos - neg == index
        asserted += 1
    assert asserted >= 40


def reference_signature(rows) -> tuple[int, int, int]:
    """The Fraction congruence diagonalization signature_exact used before
    its integer characteristic polynomial (Sylvester's law of inertia)."""
    A = [[Fraction(x) for x in r] for r in rows]
    n = len(A)
    active = list(range(n))
    pos = neg = 0
    while active:
        piv = next((k for k in active if A[k][k] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active
                         if i != j and A[i][j] != 0), None)
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            # congruence by (I + e_i e_j^T) makes A[i][i] = 2 A[i][j] != 0
            for k in range(n):
                A[i][k] = A[i][k] + A[j][k]
            for k in range(n):
                A[k][i] = A[k][i] + A[k][j]
            continue
        a = A[piv][piv]
        if a > 0:
            pos += 1
        else:
            neg += 1
        active.remove(piv)
        for i in active:
            if A[i][piv] != 0:
                f = A[i][piv] / a
                for j in active:
                    A[i][j] = A[i][j] - f * A[piv][j]
        for i in active:
            A[i][piv] = A[piv][i] = Fraction(0)
    return pos, neg, n - pos - neg


def test_signature_matches_congruence_reference():
    rng = random.Random(37)
    cases = [[], [[0]], [[Fraction(-1, 3)]], [[0, 1], [1, 0]], [[0, 0], [0, 0]]]
    for _ in range(150):
        m = rng.randint(1, 6)
        # low rank, zero diagonals and mixed denominators
        rank = rng.randint(0, m)
        vecs = [[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5])) for _ in range(m)]
                for _ in range(rank)]
        signs = [rng.choice([-1, 1]) for _ in range(rank)]
        cases.append([[sum([s * v[i] * v[j] for s, v in zip(signs, vecs)], Fraction(0))
                       for j in range(m)] for i in range(m)])
        cases.append([[0] * m] + [[0] + [rng.randint(-2, 2) for _ in range(m - 1)]
                                  for _ in range(m - 1)])
    for q1, q2 in ((CAPRICORN.q1, CAPRICORN.q2), (BEAN.q1, BEAN.q2)):
        cases.append(bezout_matrix(q1, q2, max(q1.degree, q2.degree)))
    for rows in cases:
        rows = [[rows[j][i] if j < i else rows[i][j] for j in range(len(rows))]
                for i in range(len(rows))]  # symmetrise
        assert signature_exact(rows) == reference_signature(rows)


# ---------------------------------------------------------------------------
# determinant verification
# ---------------------------------------------------------------------------

def test_verify_cubic_f1_pencil():
    F = Pencil.from_rows(
        [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
        [[0, 0, 1], [0, -1, 0], [1, 0, 0]],
        [[0, -1, 0], [-1, 0, 0], [0, 0, 0]],
    )
    c = verify_pencil_det(F, parse_poly("x1^3-x2^2-x1"))
    assert c == 1


def test_verify_mismatch_raises():
    # det = (1 + x1)(1 - x2) has no x1^2 term
    F = Pencil.from_rows(
        [[1, 0], [0, 1]], [[1, 0], [0, 0]], [[0, 0], [0, -1]],
    )
    with pytest.raises(DeterminantMismatchError) as err:
        verify_pencil_det(F, parse_poly("1-x1^2-x2^2"))
    assert err.value.monomial is not None


def test_interpolate_det_exact_values():
    F = pencil_from_param(CIRCLE)
    det = interpolate_det(F)
    assert det == parse_poly("4-4*x1^2-4*x2^2")


def reference_interpolate_det(pencil: Pencil) -> Poly:
    """The Vandermonde solve interpolate_det used before the Newton lattice:
    exact determinants at the principal-lattice points, one dense exact solve
    for the monomial coefficients."""
    m, nvars = pencil.m, pencil.nvars
    monos = [e for e in itertools.product(range(m + 1), repeat=nvars) if sum(e) <= m]
    points = [tuple(Fraction(e) for e in mono) for mono in monos]
    rows = [[math.prod([x**e for x, e in zip(pt, mono)]) for mono in monos] for pt in points]
    rhs = [det_exact([[sum([x * F[i][j] for x, F in zip((1,) + pt, pencil.mats)])
                       for j in range(m)] for i in range(m)]) for pt in points]
    return Poly(dict(zip(monos, solve_exact(rows, rhs))), nvars)


def _random_symmetric(rng, m, rank=None):
    # mixed denominators; rank < m gives every matrix the same kernel
    size = m if rank is None else rank
    mat = [[Fraction(0)] * m for _ in range(m)]
    for i in range(size):
        for j in range(i, size):
            mat[i][j] = mat[j][i] = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 5, 12]))
    return mat


@pytest.mark.parametrize("nvars", [2, 3])
def test_interpolate_det_matches_vandermonde_reference(nvars):
    rng = random.Random(80 + nvars)
    for m in range(6):
        for singular in (False, True):
            if singular and m == 0:
                continue
            rank = m - 1 if singular else None
            pencil = Pencil.from_rows(*[_random_symmetric(rng, m, rank)
                                        for _ in range(nvars + 1)])
            det = interpolate_det(pencil)
            ref = reference_interpolate_det(pencil)
            # same coefficients in the same order, so later float sums agree
            assert list(det.coeffs.items()) == list(ref.coeffs.items())
            assert all(type(c) is Fraction for c in det.coeffs.values())
            assert det.is_zero() == singular
    # sparse integer pencils: zero pivots and zero lattice values
    for _ in range(20):
        m = rng.randint(1, 4)
        mats = [[[Fraction(0)] * m for _ in range(m)] for _ in range(nvars + 1)]
        for mat in mats:
            for _ in range(m):
                i, j = rng.randrange(m), rng.randrange(m)
                mat[i][j] = mat[j][i] = Fraction(rng.choice([-1, 1, 2]))
        pencil = Pencil.from_rows(*mats)
        assert list(interpolate_det(pencil).coeffs.items()) == \
            list(reference_interpolate_det(pencil).coeffs.items())


def reference_float_verify(pencil: Pencil, p: Poly) -> float:
    """The float path verify_pencil_det took before it interpolated float
    pencils exactly: numpy determinants at the principal-lattice points, one
    dense numpy solve for the monomial coefficients, then a coefficientwise
    comparison within 1e-8 of the largest one."""
    m, nvars = pencil.m, pencil.nvars
    monos = [e for e in itertools.product(range(m + 1), repeat=nvars) if sum(e) <= m]
    points = [tuple(float(e) for e in mono) for mono in monos]
    rows = np.array([[math.prod([x**e for x, e in zip(pt, mono)]) for mono in monos]
                     for pt in points])
    rhs = np.array([float(np.linalg.det(pencil.eval(*pt))) for pt in points])
    det = dict(zip(monos, np.linalg.solve(rows, rhs)))
    anchor = max(p.coeffs, key=lambda e: abs(p.coeffs[e]))
    c = det[anchor] / float(p.coeff(anchor))
    scale = max(1.0, max(abs(v) for v in det.values()))
    for mono in monos:
        if abs(det[mono] - c * float(p.coeff(mono))) > 1e-8 * scale:
            raise DeterminantMismatchError(f"det F != c*p at monomial {mono}")
    return c


def _float_pencils():
    """The float pencils of the elliptic-cubic homotopy (t* = -24 and 24)
    and exact random pencils scaled by an irrational float."""
    from rigidconvex.cubicrepr import cubic_representations

    elliptic = parse_poly("x1^3-x2^2-x1")
    out = [(rep.pencil, elliptic) for rep in cubic_representations(elliptic)
           if not rep.pencil.is_exact()]
    assert len(out) == 2
    rng = random.Random(61)
    for _ in range(12):
        m = rng.randint(1, 4)
        exact = Pencil.from_rows(*[_random_symmetric(rng, m) for _ in range(3)])
        p = interpolate_det(exact)
        if p.is_zero():
            continue
        out.append((exact.scaled(math.sqrt(2) / 3), p))
    return out


def test_verify_float_pencils_match_lattice_solve_reference():
    for pencil, p in _float_pencils():
        c = verify_pencil_det(pencil, p)
        assert type(c) is float
        assert c == pytest.approx(reference_float_verify(pencil, p), rel=1e-9)


def test_verify_float_pencil_perturbed_raises():
    for pencil, p in _float_pencils()[:6]:
        rows = [[list(row) for row in mat] for mat in pencil.mats]
        rows[1][0][0] += 1e-6
        with pytest.raises(DeterminantMismatchError) as err:
            verify_pencil_det(Pencil.from_rows(*rows), p)
        assert type(err.value.got) is float and type(err.value.expected) is float


def test_interpolate_det_reads_floats_as_binary_rationals():
    rng = random.Random(67)
    for _ in range(20):
        m = rng.randint(1, 4)
        mats = [[[rng.uniform(-3, 3) for _ in range(m)] for _ in range(m)] for _ in range(3)]
        mats = [[[row[j] if i <= j else mat[j][i] for j, _ in enumerate(row)]
                 for i, row in enumerate(mat)] for mat in mats]  # symmetrise
        floats = Pencil.from_rows(*mats)
        rationals = Pencil.from_rows(*[[[Fraction(x) for x in row] for row in mat]
                                       for mat in mats])
        assert not floats.is_exact()
        assert list(interpolate_det(floats).coeffs.items()) == \
            list(interpolate_det(rationals).coeffs.items())


def test_verify_float_pencil_path():
    mu = 0.5
    F = Pencil.from_rows(
        [[2 * mu, 0.0], [0.0, 2 * mu]],
        [[2 * mu, 0.0], [0.0, -2 * mu]],
        [[0.0, -2 * mu], [-2 * mu, 0.0]],
    )
    c = verify_pencil_det(F, parse_poly("1-x1^2-x2^2"))
    assert c == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# rigid_at_origin
# ---------------------------------------------------------------------------

def test_rigid_at_origin_capricorn_marginal():
    verdict = rigid_at_origin(pencil_from_param(CAPRICORN))
    assert verdict.status == RigidVerdict.MARGINAL
    root533 = float(np.sqrt(533))
    assert sorted(verdict.eigenvalues) == pytest.approx(
        [0.0, 0.0, 1392 - 48 * root533, 1392 + 48 * root533], rel=1e-6, abs=1e-6)


def test_rigid_at_origin_bean_marginal():
    verdict = rigid_at_origin(pencil_from_param(BEAN))
    assert verdict.status == RigidVerdict.MARGINAL
    assert sorted(verdict.eigenvalues) == pytest.approx([0, 0, 0, 2.0], abs=1e-8)


def test_rigid_at_origin_negative():
    F = Pencil.from_rows([[-1, 0], [0, 1]], [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert rigid_at_origin(F).status == RigidVerdict.NO


def reference_rigid_at_origin(pencil: Pencil) -> str:
    """The float decision rigid_at_origin made before the exact inertia:
    eigvalsh of F0 against 1e-9 times its Frobenius norm."""
    F0 = np.array([[float(x) for x in row] for row in pencil.mats[0]])
    low = float(np.linalg.eigvalsh(F0).min())
    tol = 1e-9 * max(1.0, float(np.linalg.norm(F0)))
    if low > tol:
        return RigidVerdict.STRICT
    return RigidVerdict.MARGINAL if low >= -tol else RigidVerdict.NO


def test_rigid_at_origin_matches_float_reference_random():
    """F0 = P^T D P with P unimodular, so its exact inertia is that of the
    integer diagonal D.  Where every nonzero eigenvalue is at least 1e-6 of
    the norm, the float decision agrees with the exact one."""
    rng = random.Random(71)
    seen = set()
    asserted = 0
    for _ in range(300):
        m = rng.randint(1, 5)
        P = [[int(i == j) for j in range(m)] for i in range(m)]
        for _ in range(2 * m):  # row operations keep det P = 1
            i, j = rng.sample(range(m), 2) if m > 1 else (0, 0)
            if i != j:
                k = rng.choice([-2, -1, 1, 2])
                P[i] = [a + k * b for a, b in zip(P[i], P[j])]
        D = [rng.choice([-2, -1, 0, 0, 1, 1, 2, 3]) * Fraction(1, rng.choice([1, 3]))
             for _ in range(m)]
        F0 = [[sum(P[k][i] * D[k] * P[k][j] for k in range(m)) for j in range(m)]
              for i in range(m)]
        zeros = [[0] * m for _ in range(m)]
        pencil = Pencil.from_rows(F0, zeros, zeros)
        verdict = rigid_at_origin(pencil)
        want = (RigidVerdict.NO if any(d < 0 for d in D) else
                RigidVerdict.MARGINAL if 0 in D else RigidVerdict.STRICT)
        assert verdict.status == want
        eigs = np.abs(np.array(verdict.eigenvalues))
        norm = max(1.0, float(np.linalg.norm(pencil.eval(0, 0))))
        if all(e < 1e-12 * norm or e > 1e-6 * norm for e in eigs):
            assert reference_rigid_at_origin(pencil) == want
            asserted += 1
        seen.add(want)
    assert asserted >= 250
    assert seen == {RigidVerdict.STRICT, RigidVerdict.MARGINAL, RigidVerdict.NO}


def test_rigid_at_origin_tiny_positive_eigenvalue_is_strict():
    """F0 = diag(1, 10^-12) is exactly positive definite, inertia (2, 0, 0).
    The float decision called it Marginal: its smallest eigenvalue, 1e-12,
    is below the tolerance 1e-9 * max(1, |F0|)."""
    F0 = [[1, 0], [0, Fraction(1, 10**12)]]
    pencil = Pencil.from_rows(F0, [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert signature_exact(F0) == (2, 0, 0)
    verdict = rigid_at_origin(pencil)
    assert verdict.status == RigidVerdict.STRICT
    assert sorted(verdict.eigenvalues) == pytest.approx([1e-12, 1.0], rel=1e-12)
    assert reference_rigid_at_origin(pencil) == RigidVerdict.MARGINAL


# ---------------------------------------------------------------------------
# cross-method agreement (Hermite vs Bezout) on genus-zero fixtures, p(0) > 0
# ---------------------------------------------------------------------------

def test_cross_method_agreement_unit_circle():
    from rigidconvex.circlepsd import CircleVerdict, psd_on_circle
    from rigidconvex.hermite import hermite_matrix

    p = parse_poly("1-x1^2-x2^2")
    hermite_status = psd_on_circle(hermite_matrix(p)).status
    bezout_status = rigid_at_origin(pencil_from_param(CIRCLE)).status
    assert hermite_status == CircleVerdict.PD
    assert bezout_status == RigidVerdict.STRICT
