import random
from fractions import Fraction

import numpy as np
import pytest

from rigidconvex import OriginOnCurveError, Poly, TrigMatrix, TrigPoly, parse_poly
from rigidconvex.hermite import hermite_matrix, line_substitute, newton_sums
from trig_helpers import tadd, teval, tmul, tscale

CUBIC = parse_poly("1-x1-4*x1^2-x2^2+4*x1^3")
TV = parse_poly("1-x1^4-x2^4")
DISC = parse_poly("1-x1^2-x2^2")


def C(*coeffs):
    return TrigPoly(coeffs)


# ---------------------------------------------------------------------------
# line substitution
# ---------------------------------------------------------------------------

def test_line_substitute_cubic_curve():
    line = line_substitute(CUBIC)
    assert line.m == 3
    assert line.q[0] == C(0, 12, 0, 4)          # 12(z+z^-1) + 4(z^3+z^-3)
    assert line.q[1] == C(-10, 0, -3)           # -(10 + 3(z^2+z^-2))
    assert line.q[2] == C(0, -1)                # -(z+z^-1)
    assert line.q[3] == C(1)


def test_line_substitute_tv_screen():
    line = line_substitute(TV)
    assert line.q[0] == C(-12, 0, 0, 0, -2)     # -12 - 2(z^4+z^-4)
    assert line.q[1] == TrigPoly()
    assert line.q[2] == TrigPoly()
    assert line.q[3] == TrigPoly()
    assert line.q[4] == C(1)


def test_line_substitute_disc():
    line = line_substitute(DISC)
    assert line.q[0] == C(-4)
    assert line.q[1] == TrigPoly()
    assert line.q[2] == C(1)


def test_line_substitute_normalises_constant():
    p = parse_poly("2-2*x1^2-2*x2^2")
    line = line_substitute(p)
    assert line.scale == 2
    assert line.q[0] == C(-4)


def test_line_substitute_origin_on_curve():
    with pytest.raises(OriginOnCurveError):
        line_substitute(parse_poly("x1^3-x2^2-x1"))


def test_line_substitute_halfdegree_bound():
    rng = random.Random(2)
    for _ in range(20):
        coeffs = {(a, b): Fraction(rng.randint(-5, 5))
                  for a in range(4) for b in range(4) if a + b <= 4}
        coeffs[(0, 0)] = Fraction(rng.randint(1, 5))
        p = Poly(coeffs)
        if p.degree < 1:
            continue
        line = line_substitute(p)
        for k, qk in enumerate(line.q):
            assert qk.half_degree <= line.m - k or qk.is_zero()


def test_line_substitute_matches_direct_evaluation():
    # q(t)|_{z=e^{i theta}} must equal t^m p((z+1/z)/t, i(1/z-z)/t) / p(0).
    rng = np.random.default_rng(4)
    p = parse_poly("1-x1-4*x1^2-x2^2+4*x1^3+x1*x2")  # includes odd x2 term
    line = line_substitute(p)
    for theta in rng.uniform(0, 2 * np.pi, 40):
        z = np.exp(1j * theta)
        for t in (0.7, -1.3, 2.1):
            x1 = (z + 1 / z).real / t
            x2 = (1j * (1 / z - z)).real / t
            direct = t ** line.m * float(p(x1, x2))
            via_q = sum(teval(line.q[k], theta) * t**k for k in range(line.m + 1))
            assert via_q == pytest.approx(direct, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# Newton sums
# ---------------------------------------------------------------------------

def test_newton_sums_t2_minus_4():
    line = line_substitute(DISC)  # q = t^2 - 4
    sums = newton_sums(line, 2)
    assert sums == [C(2), TrigPoly(), C(8)]


def test_newton_sums_cubic_curve():
    line = line_substitute(CUBIC)
    sums = newton_sums(line, 4)
    assert sums[1] == C(0, 1)          # z + z^-1
    assert sums[2] == C(22, 0, 7)      # 22 + 7(z^2+z^-2)


def test_newton_sums_tv_screen():
    line = line_substitute(TV)
    sums = newton_sums(line, 6)
    assert sums[4] == C(48, 0, 0, 0, 8)
    assert sums[5] == TrigPoly()
    assert sums[6] == TrigPoly()


def test_newton_sums_match_companion_traces():
    # oracle: N_k(z) = trace(C^k) for the numeric companion matrix of q at z
    rng = np.random.default_rng(10)
    for p in (CUBIC, TV, DISC, parse_poly("1+x1-x2^2+x1*x2+3*x1^3+x2^4")):
        line = line_substitute(p)
        m = line.m
        sums = newton_sums(line, 2 * m - 2)
        for theta in rng.uniform(0, 2 * np.pi, 200):
            comp = np.zeros((m, m), dtype=complex)
            comp[1:, :-1] = np.eye(m - 1)
            for k in range(m):
                comp[k, m - 1] = -teval(line.q[k], theta)
            power = np.eye(m, dtype=complex)
            for k in range(2 * m - 1):
                expected = np.trace(power)
                got = teval(sums[k], theta)
                scale = max(1.0, abs(expected))
                assert abs(got - expected) <= 1e-9 * scale
                power = power @ comp


# ---------------------------------------------------------------------------
# Hermite matrices (paper fixtures, exact)
# ---------------------------------------------------------------------------

def test_hermite_matrix_cubic_exact():
    H = hermite_matrix(CUBIC)
    assert H.m == 3
    assert H.entry(0, 0) == C(3)
    assert H.entry(0, 1) == C(0, 1)
    assert H.entry(0, 2) == C(22, 0, 7)
    assert H.entry(1, 1) == C(22, 0, 7)
    assert H.entry(1, 2) == C(0, 6, 0, -2)
    assert H.entry(2, 2) == C(250, 0, 124, 0, 15)


def test_hermite_matrix_tv_exact():
    H = hermite_matrix(TV)
    N4 = C(48, 0, 0, 0, 8)
    zero = TrigPoly()
    expected = [
        [C(4), zero, zero, zero],
        [zero, zero, zero, N4],
        [zero, zero, N4, zero],
        [zero, N4, zero, zero],
    ]
    assert H.m == 4
    for i in range(4):
        for j in range(4):
            assert H.entry(i, j) == expected[i][j]


def test_hermite_matrix_disc():
    H = hermite_matrix(DISC)
    assert H.entry(0, 0) == C(2)
    assert H.entry(0, 1) == TrigPoly()
    assert H.entry(1, 1) == C(8)


def test_hermite_hankel_structure():
    for p in (CUBIC, TV, parse_poly("1+x1*x2-x1^2-x2^4")):
        H = hermite_matrix(p)
        for i in range(H.m):
            for j in range(H.m):
                for k in range(H.m):
                    for l in range(H.m):
                        if i + j == k + l:
                            assert H.entry(i, j) == H.entry(k, l)


def test_hermite_halfdegree_bound():
    for p in (CUBIC, TV, parse_poly("1+x1-x2^2+x1*x2+3*x1^3+x2^4")):
        H = hermite_matrix(p)
        for i in range(H.m):
            for j in range(H.m):
                assert H.entry(i, j).half_degree <= i + j or H.entry(i, j).is_zero()


def test_hermite_root_sum_oracle():
    # brute force: sum of s-th powers of the numeric roots of q(t) at z
    rng = np.random.default_rng(21)
    for p in (CUBIC, TV, DISC):
        line = line_substitute(p)
        m = line.m
        H = hermite_matrix(p)
        for theta in rng.uniform(0, 2 * np.pi, 200):
            coeffs = [teval(line.q[k], theta) for k in range(m + 1)]
            roots = np.roots(list(reversed(coeffs)))
            for s in range(2 * m - 1):
                expected = np.sum(roots**s)
                got = teval(H.entry(min(s, m - 1), s - min(s, m - 1)), theta)
                assert abs(got - expected.real) <= 1e-8 * max(1.0, abs(expected))
                assert abs(expected.imag) <= 1e-8 * max(1.0, abs(expected))


def test_psd_verdict_equals_real_root_condition():
    # the decision's defining property, cross-validated by brute force:
    # H(z) PSD on the circle exactly when every line through the origin
    # meets the curve in m real points (q(t) has only real roots)
    from rigidconvex.circlepsd import CircleVerdict, psd_on_circle

    rng = random.Random(42)
    cases = [
        # products of conics whose interiors contain the origin are
        # real-zero; the shifted factors contribute odd x2 powers
        parse_poly("(1-x1^2-x2^2)*(1-0.25*x1^2-0.25*x2^2)"),
        parse_poly("(1-x1^2-(x2-0.3)^2*4/3)*(1-0.25*x1^2-0.25*x2^2)"),
        parse_poly("1-x1^2-(x2-0.5)^2*4/3"),
        parse_poly("(1-x1^2-(x2-0.25)^2)*(1-(x1-0.25)^2-x2^2)"),
    ]
    for _ in range(20):
        deg = rng.randint(2, 4)
        coeffs = {}
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                if rng.random() < 0.5:
                    coeffs[(a, b)] = Fraction(rng.randint(-3, 3))
        coeffs[(0, 0)] = Fraction(1)
        if not any(sum(k) == deg and v != 0 for k, v in coeffs.items()):
            coeffs[(deg, 0)] = Fraction(1)
        cases.append(Poly(coeffs))

    checked_pd = checked_not = 0
    for p in cases:
        if p.degree < 2:
            continue
        line = line_substitute(p)
        verdict = psd_on_circle(hermite_matrix(p))
        worst = 0.0
        for theta in np.linspace(0, 2 * np.pi, 400):
            qc = [teval(line.q[k], theta) for k in range(line.m + 1)]
            roots = np.roots(qc[::-1])
            for r in roots:
                worst = max(worst, abs(r.imag) / max(1.0, abs(r)))
        if verdict.status == CircleVerdict.PD:
            assert worst < 1e-6
            checked_pd += 1
        elif verdict.status == CircleVerdict.NOT_PSD and abs(verdict.min_eig) > 1e-6:
            assert worst > 1e-4
            checked_not += 1
    assert checked_pd >= 4
    assert checked_not >= 10


# ---------------------------------------------------------------------------
# integer line restriction and Newton sums against the Fraction versions
# ---------------------------------------------------------------------------

def reference_line_substitute(p: Poly) -> tuple[list, Fraction]:
    """q and p(0) by TrigPoly arithmetic over Fractions: q_(m-a-b) collects
    (coeff / p(0)) w^a v^b with w = z + 1/z and v = -i(z - 1/z)."""
    p0 = p(0, 0)
    m = p.degree
    w, v = TrigPoly([0, 1]), TrigPoly([], [0, -1])
    w_pow, v_pow = [TrigPoly([1])], [TrigPoly([1])]
    for _ in range(m):
        w_pow.append(tmul(w_pow[-1], w))
        v_pow.append(tmul(v_pow[-1], v))
    q = [TrigPoly() for _ in range(m + 1)]
    for (a, b), coeff in p.coeffs.items():
        q[m - a - b] = tadd(q[m - a - b], tscale(tmul(w_pow[a], v_pow[b]), coeff / p0))
    q[m] = TrigPoly([1])
    return q, p0


def reference_newton_sums(q: list, count: int) -> list:
    """Newton's identities over Fractions, one TrigPoly product per term."""
    m = len(q) - 1
    sums = [TrigPoly([m])]
    for k in range(1, count + 1):
        acc = TrigPoly()
        for j in range(1, min(k, m) + 1):
            if j != k:
                acc = tadd(acc, tmul(q[m - j], sums[k - j]))
        if k <= m:
            acc = tadd(acc, tscale(q[m - k], k))
        sums.append(tscale(acc, -1))
    return sums


def _random_line_inputs(seed, count):
    """Rational coefficients, odd x2-terms, negative or non-unit p(0), and
    shifts by Fraction(float) as check-rigid recentres."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        deg = rng.randint(1, 6)
        odd, rational = rng.random() < 0.5, rng.random() < 0.5
        coeffs = {}
        for a in range(deg + 1):
            for b in range(0, deg + 1 - a, 1 if odd else 2):
                if rng.random() < 0.6:
                    num = rng.choice([-9, -4, -1, 1, 2, 3, 7])
                    coeffs[(a, b)] = Fraction(num, rng.randint(1, 12) if rational else 1)
        coeffs[(deg, 0)] = Fraction(rng.choice([-3, 1, 2]))
        coeffs[(0, 0)] = rng.choice([Fraction(1), Fraction(-3), Fraction(5, 7),
                                     Fraction(rng.uniform(-2, 2))])
        p = Poly(coeffs)
        if rng.random() < 0.25:
            p = p.shifted(Fraction(rng.uniform(-1, 1)), Fraction(rng.uniform(-1, 1)))
        if p.coeff((0, 0)) != 0:
            out.append(p)
    return out


def test_line_substitute_matches_fraction_reference():
    inputs = _random_line_inputs(61, 120)
    assert any(p.coeff((0, 0)) < 0 for p in inputs)
    assert any(p.coeff((0, 0)).denominator.bit_length() > 50 for p in inputs)
    odd = 0
    for p in inputs:
        line = line_substitute(p)
        q, p0 = reference_line_substitute(p)
        assert line.q == tuple(q)
        assert line.scale == p0
        assert all(type(x) is Fraction for e in line.q for x in e.c + e.s)
        odd += any(not e.is_cosine() for e in line.q)
    assert odd >= 20


def test_newton_sums_match_fraction_reference():
    for p in _random_line_inputs(67, 80):
        line = line_substitute(p)
        count = 2 * line.m + 1
        sums = newton_sums(line, count)
        assert sums == reference_newton_sums(list(line.q), count)
        assert all(type(x) is Fraction for e in sums for x in e.c + e.s)


@pytest.mark.parametrize("text, cosine", [
    ("2-x1^2-3*x2^2+x1^3-x1*x2^2+5*x1^4", True),
    ("2-x1^2-3*x2^2+x1^2*x2-2*x2^3+x1*x2", False),
])
def test_newton_sums_and_det_build_no_fraction(monkeypatch, text, cosine):
    """Integer halves from the power sums to the determinant: for an
    integer p (here with p(0,0) = 2, so q has a denominator), neither
    ``newton_sums`` nor ``TrigMatrix.det`` makes a single Fraction."""
    line = line_substitute(parse_poly(text))
    made, new = [], Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    sums = newton_sums(line, 2 * line.m - 2)
    H = TrigMatrix.from_hankel(sums, line.m)
    det = H.det()
    monkeypatch.undo()
    assert made == []
    assert H.is_cosine() == det.is_cosine() == cosine and det.half_degree > 0
    assert sums[0] == line.m and sums[1] == tscale(line.q[line.m - 1], -1)


def test_hermite_matrix_shares_one_object_per_hankel_diagonal():
    H = hermite_matrix(parse_poly("1+x1-x2^2+x1*x2+3*x1^3+x2^4"))
    assert len({id(e) for row in H.entries for e in row}) == 2 * H.m - 1


def test_hermite_determinant_is_the_discriminant():
    # det of the Hankel matrix of power sums of a monic q is
    # prod_{i<j} (t_i - t_j)^2 = Disc_t(q); checked exactly at rational z
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def at(e, z):
        return (e.cos_coeff(0)
                + sum(e.cos_coeff(k) * (z**k + z**-k) for k in range(1, len(e.c)))
                + sum(e.sin_coeff(k) * sympy.I * (z**k - z**-k) for k in range(1, len(e.s))))

    cases = [CUBIC, TV, DISC] + _random_line_inputs(71, 12)
    for p in cases:
        line = line_substitute(p)
        det = hermite_matrix(p).det()
        for z in (sympy.Rational(2), sympy.Rational(-3), sympy.Rational(5, 7)):
            q = sum(at(line.q[k], z) * t**k for k in range(line.m + 1))
            disc = sympy.discriminant(sympy.expand(q), t)
            assert sympy.expand(at(det, z) - disc) == 0


def test_scan_table_is_the_direct_formula(monkeypatch):
    # hermite_image's scan values at a pass of the circle scan's grid, sliced
    # off the table kept for the pass, are the floats the direct formula gives
    # at the same angles, bit for bit, for p even in x2 (domain of 129 grid
    # angles) and not (256); so are the monomials at off-grid angles, whose
    # columns at m are a prefix of those at any larger m.  The cache keeps one
    # table per pass, grown to the largest m seen
    from rigidconvex import hermite
    from rigidconvex.circlepsd import _GROUPS, _REST, GRID

    monkeypatch.setattr(hermite, "_TABLES", {})
    rng = random.Random(53)
    off_grid = [0.3, 1.1, 2.5, 4.0]
    for m in (*range(2, 9), 3):
        for even in (True, False):
            terms = {(a, b): Fraction(rng.randint(-4, 4)) for a in range(m + 1)
                     for b in range(m + 1 - a) if not (even and b % 2)}
            terms[(0, 0)], terms[(m, 0)] = Fraction(rng.randint(1, 5)), Fraction(1)
            image, eval_thetas = hermite.hermite_image(Poly(terms))
            assert image[4] == (even, True)
            size = _GROUPS[image[4]][0]
            for k, thetas in enumerate((GRID[:size:8], _REST[:size * 7 // 8])):
                assert np.array_equal(eval_thetas(thetas, k), eval_thetas(thetas))
            direct = hermite._monomials(off_grid, m)
            assert np.array_equal(direct, hermite._monomials(off_grid, 8)[:, :direct.shape[1]])
            assert np.array_equal(direct, np.vstack([hermite._monomials([th], m)
                                                     for th in off_grid]))
    assert sorted(hermite._TABLES) == [0, 1]
    assert [hermite._TABLES[k][1] for k in (0, 1)] == [8, 8]
    assert [len(hermite._TABLES[k][0]) for k in (0, 1)] == [32, 224]
