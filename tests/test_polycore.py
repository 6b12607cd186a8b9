import random
from fractions import Fraction

import numpy as np
import pytest

from rigidconvex import (
    DimensionMismatchError,
    Pencil,
    Poly,
    PolyParseError,
    TrigPoly,
    UniPoly,
    UnknownVariableError,
    parse_poly,
)
from rigidconvex.polycore import (
    det_exact,
    format_scalar,
    interpolate_exact,
    parse_scalar,
    solve_exact,
)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_cubic_curve_coefficients():
    p = parse_poly("1-x1-4*x1^2-x2^2+4*x1^3")
    assert p.coeffs == {
        (0, 0): Fraction(1),
        (1, 0): Fraction(-1),
        (2, 0): Fraction(-4),
        (0, 2): Fraction(-1),
        (3, 0): Fraction(4),
    }
    assert p.degree == 3


def test_parse_zero():
    p = parse_poly("0")
    assert p.is_zero()
    assert p.coeffs == {}
    assert p.degree == -1


def test_parse_capricorn_expansion():
    # hand-expanded independently:
    # x1^2(x1^2+x2^2) - 2(x1^2+x2^2-x2)^2
    #   = -x1^4 - 3 x1^2 x2^2 - 2 x2^4 + 4 x1^2 x2 + 4 x2^3 - 2 x2^2
    p = parse_poly("x1^2*(x1^2+x2^2)-2*(x1^2+x2^2-x2)^2")
    assert p.coeffs == {
        (4, 0): Fraction(-1),
        (2, 2): Fraction(-3),
        (0, 4): Fraction(-2),
        (2, 1): Fraction(4),
        (0, 3): Fraction(4),
        (0, 2): Fraction(-2),
    }


def test_parse_decimal_and_rational_literals():
    assert parse_poly("0.5*x1").coeffs == {(1, 0): Fraction(1, 2)}
    assert parse_poly("1/3*x2^2").coeffs == {(0, 2): Fraction(1, 3)}


def test_parse_unary_minus_and_parens():
    p = parse_poly("-x1+(-x2+1)*2")
    assert p.coeffs == {(1, 0): Fraction(-1), (0, 1): Fraction(-2), (0, 0): Fraction(2)}


def test_parse_x3_autodetects_arity():
    p = parse_poly("1-x1^2-x2^2-x3^2+2*x1*x2*x3")
    assert p.nvars == 3
    assert p.coeff((1, 1, 1)) == 2


def test_parse_errors_carry_offset():
    with pytest.raises(PolyParseError) as err:
        parse_poly("1+*x1")
    assert err.value.offset == 2
    with pytest.raises(UnknownVariableError):
        parse_poly("1+y")
    with pytest.raises(UnknownVariableError):
        parse_poly("x4+1")
    with pytest.raises(PolyParseError):
        parse_poly("x1^(2)")
    with pytest.raises(PolyParseError):
        parse_poly("(1+x1")
    with pytest.raises(PolyParseError):
        parse_poly("1+x1)")


def _random_poly(rng, degree=8, nvars=2):
    coeffs = {}
    for _ in range(rng.randint(1, 10)):
        expo = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            expo[rng.randrange(nvars)] += 1
        if sum(expo) > degree:
            continue
        coeffs[tuple(expo)] = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
    return Poly(coeffs, nvars)


def test_parse_print_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        p = _random_poly(rng)
        assert parse_poly(p.to_expr()) == p


def test_parse_print_parse_idempotent():
    text = "1-x1-4*x1^2-x2^2+4*x1^3"
    p = parse_poly(text)
    assert parse_poly(p.to_expr()) == p
    assert parse_poly(parse_poly(p.to_expr()).to_expr()) == p


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_capricorn_exact():
    p = parse_poly("x1^2*(x1^2+x2^2)-2*(x1^2+x2^2-x2)^2")
    assert p(0, Fraction(1, 2)) == Fraction(-1, 8)


def test_eval_at_origin_is_constant_coeff():
    rng = random.Random(3)
    for _ in range(25):
        p = _random_poly(rng)
        assert p(0, 0) == p.coeff((0, 0))


def test_eval_on_curve_point():
    p = parse_poly("1-x1^4-x2^4")
    assert p(1, 0) == 0


def _reference_shifted(p: Poly, *offset) -> Poly:
    """The former expansion: each term times (x_i + offset_i)^e_i."""
    shifted = [Poly.variable(i, p.nvars) + off for i, off in enumerate(offset)]
    out = Poly.zero(p.nvars)
    for expo, val in p.coeffs.items():
        term = Poly.constant(val, p.nvars)
        for var, e in zip(shifted, expo):
            if e:
                term = term * var**e
        out = out + term
    return out


def test_shifted_matches_reference_expansion():
    rng = random.Random(11)
    for k in range(300):
        nvars = 2 if k % 3 else 3
        p = _random_poly(rng, degree=6, nvars=nvars)
        offset = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(nvars)]
        q = p.shifted(*offset)
        assert type(q) is Poly and q == _reference_shifted(p, *offset)
    assert Poly.constant(3).shifted(1, 2) == Poly.constant(3)
    assert Poly.zero().shifted(1, 2) == Poly.zero()


def test_eval_matches_unexpanded_expression():
    # independent oracle: evaluate the raw expression tree without expanding
    rng = random.Random(11)
    expr = "x1^2*(x1^2+x2^2)-2*(x1^2+x2^2-x2)^2"
    p = parse_poly(expr)
    for _ in range(50):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        direct = a**2 * (a**2 + b**2) - 2 * (a**2 + b**2 - b) ** 2
        assert p(a, b) == direct


def test_parse_degree_bound():
    from rigidconvex.polycore import MAX_DEGREE

    assert MAX_DEGREE >= 12
    assert parse_poly(f"x1^{MAX_DEGREE}").degree == MAX_DEGREE
    assert parse_poly(f"x1^{MAX_DEGREE - 1}*x2").degree == MAX_DEGREE
    for text in (f"x1^{MAX_DEGREE + 1}", f"x1^{MAX_DEGREE}*x2", "(1+x1+x2)^5000",
                 f"(x1^{MAX_DEGREE // 2 + 1})^2", f"(x1*x2)^{MAX_DEGREE // 2 + 1}"):
        with pytest.raises(PolyParseError, match="MAX_DEGREE"):
            parse_poly(text)


def test_parse_coeff_bound():
    from rigidconvex.polycore import MAX_COEFF_BITS

    big, half = 2 ** MAX_COEFF_BITS, MAX_COEFF_BITS // 2
    assert parse_poly(f"{big}*x1").coeff((1, 0)) == big
    assert parse_poly(f"-1/{big}*x1").coeff((1, 0)) == Fraction(-1, big)
    assert parse_poly(f"2^{MAX_COEFF_BITS}*x1").coeff((1, 0)) == big
    assert parse_poly(f"2^{half}*x1*2^{half}").coeff((1, 0)) == big
    for text in ("1-x1^2-x2^2+x1^3*2^100000", "1+x1*2^10000000", f"{big + 1}*x1",
                 f"1/{big + 1}", f"x1*2^{MAX_COEFF_BITS + 1}", f"x1*2^{half}*2^{half + 1}",
                 f"(1+{big}*x1)^2"):
        with pytest.raises(PolyParseError, match="MAX_COEFF_BITS"):
            parse_poly(text)
    # a power is refused at its exponent, before it is built
    with pytest.raises(PolyParseError) as err:
        parse_poly("1+x1*2^10000000")
    assert err.value.offset == 7


# ---------------------------------------------------------------------------
# ring axioms
# ---------------------------------------------------------------------------

def test_poly_ring_axioms_random():
    rng = random.Random(23)
    for _ in range(60):
        a, b, c = (_random_poly(rng, degree=4) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def _random_trig(rng, d=4):
    c = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, d))]
    s = [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, d - 1))]
    return TrigPoly(c, s)


def test_trig_ring_axioms_random():
    rng = random.Random(5)
    for _ in range(60):
        a, b, c = (_random_trig(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


# ---------------------------------------------------------------------------
# cosine arithmetic
# ---------------------------------------------------------------------------

def test_cosine_square():
    w = TrigPoly([0, 1])  # z + z^-1
    assert w * w == TrigPoly([2, 0, 1])


def test_cosine_identity():
    rng = random.Random(1)
    one = TrigPoly([1])
    for _ in range(20):
        a = _random_trig(rng)
        assert a * one == a


def test_cosine_cube():
    w = TrigPoly([0, 1])
    assert w**3 == TrigPoly([0, 3, 0, 1])  # 3(z+z^-1) + (z^3+z^-3)


def test_trig_halfdegree_additive():
    rng = random.Random(9)
    for _ in range(30):
        a, b = _random_trig(rng), _random_trig(rng)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).half_degree <= a.half_degree + b.half_degree


def test_cosine_mul_matches_pointwise_values():
    rng = random.Random(17)
    thetas = np.random.default_rng(0).uniform(0, 2 * np.pi, 1000)
    for _ in range(3):
        a, b = _random_trig(rng), _random_trig(rng)
        ab = a * b
        for theta in thetas:
            lhs = ab.eval_theta(theta)
            rhs = a.eval_theta(theta) * b.eval_theta(theta)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_trig_int_halves_round_trip():
    e = TrigPoly([Fraction(1, 6), 0, Fraction(-3, 4)], [0, Fraction(5, 2)])
    assert e.int_halves() == ([2, 0, -9], [0, 30, 0], 12)
    assert TrigPoly([0.5, -0.25]).int_halves() == ([2, -1], [], 4)  # floats exactly
    rng = random.Random(19)
    for _ in range(50):
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 5))]
        s = [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 4))]
        e = TrigPoly(c, s)
        re, im, den = e.int_halves()
        assert all(type(x) is int for x in re + im)
        assert TrigPoly.from_int_halves(re, im, den) == e


def test_trig_eval_sine_part():
    # i(z - z^-1) has value -2 sin(theta)
    s = TrigPoly([], [0, 1])
    for theta in (0.0, 0.5, 1.7, 3.9):
        assert abs(s.eval_theta(theta) + 2 * np.sin(theta)) < 1e-14


def test_cosine_u_form_round_trip():
    # c[0] + sum c[k](z^k + z^-k) as a polynomial in u = z + 1/z and back
    from rigidconvex.polycore import _cos_to_u, _u_to_cos

    assert _cos_to_u([5, 0, 1]) == [3, 0, 1]        # 5 + (u^2 - 2)
    assert _cos_to_u([0, 0, 0, 1]) == [0, -3, 0, 1]  # z^3 + z^-3 = u^3 - 3u
    assert _u_to_cos([0, 0, 0, 0, 1]) == [6, 0, 4, 0, 1]
    rng = random.Random(13)
    for _ in range(100):
        c = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 12))]
        assert _u_to_cos(_cos_to_u(c)) == c
        for theta in (0.3, 2.0):
            u = 2 * np.cos(theta)
            lhs = sum(x * u**k for k, x in enumerate(_cos_to_u(c)))
            rhs = TrigPoly(c).eval_theta(theta)
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, sum(abs(x) for x in c))


def test_coeff_checks_arity():
    p = parse_poly("1-x1^2-x3^2")
    assert p.coeff((0, 0, 0)) == 1
    with pytest.raises(DimensionMismatchError, match="expected 3 coordinates, got 2"):
        p.coeff((0, 0))


# ---------------------------------------------------------------------------
# TrigPoly product against the Laurent convolution it replaced
# ---------------------------------------------------------------------------

def reference_mul(p: TrigPoly, q: TrigPoly) -> tuple[list, list]:
    """Cosine and sine coefficients of p * q by the full Laurent convolution
    over k = -d..d, one ``cos_coeff``/``sin_coeff`` lookup per term."""
    da, db = p.half_degree, q.half_degree
    d = da + db
    re = [Fraction(0)] * (2 * d + 1)
    im = [Fraction(0)] * (2 * d + 1)

    def laurent(t: TrigPoly, k: int):
        if k >= 0:
            return t.cos_coeff(k), t.sin_coeff(k)
        return t.cos_coeff(-k), -t.sin_coeff(-k)

    for ka in range(-da, da + 1):
        ra, ia = laurent(p, ka)
        if ra == 0 and ia == 0:
            continue
        for kb in range(-db, db + 1):
            rb, ib = laurent(q, kb)
            if rb == 0 and ib == 0:
                continue
            k = ka + kb + d
            re[k] += ra * rb - ia * ib
            im[k] += ra * ib + ia * rb
    return re[d:], im[d:]


def _random_cosine(rng, d=5):
    return TrigPoly([_random_rational(rng) for _ in range(rng.randint(1, d + 1))])


def test_mul_matches_reference_exactly():
    rng = random.Random(29)
    pool = [TrigPoly(), TrigPoly([Fraction(-3, 7)]), TrigPoly([1]),
            TrigPoly([], [0, 1]), TrigPoly([0, 0, 2], [0, 0, Fraction(1, 3)])]
    pool += [_random_cosine(rng) for _ in range(20)]
    pool += [_random_trig(rng, d=6) for _ in range(20)]
    for a in pool:
        for b in pool:
            got = a * b
            assert got == TrigPoly(*reference_mul(a, b))
            assert all(type(x) is Fraction for x in got.c + got.s)
    assert any(not a.is_cosine() for a in pool)


def test_mul_of_float_operands_matches_reference():
    # entries as TrigMatrix.congruence makes them: Fractions times floats.
    # The reference's imaginary z^0 part, zero in exact arithmetic, can keep a
    # rounding residue (which TrigPoly would reject as s[0]); the product drops it.
    rng = random.Random(31)
    for _ in range(40):
        a = _random_trig(rng, d=5) * rng.uniform(-2, 2)
        b = _random_cosine(rng) * rng.uniform(-2, 2) + _random_trig(rng)
        c = _random_cosine(rng) * rng.uniform(-2, 2)
        for x, y in ((a, b), (b, a), (a, a), (a, c), (c, c), (c, _random_cosine(rng))):
            got = x * y
            cos, sin = reference_mul(x, y)
            assert abs(sin[0]) <= 1e-12 * max([1.0] + [abs(float(v)) for v in sin])
            ref = TrigPoly(cos, [0] + sin[1:])
            assert got.c == ref.c and got.s == ref.s
            assert [type(v) for v in got.c + got.s[1:]] == \
                [type(v) for v in ref.c + ref.s[1:]]


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

def test_unipoly_trims_leading_zeros():
    q = UniPoly([1, 2, 0, 0])
    assert q.degree == 1
    assert UniPoly([0, 0]).is_zero()


def test_unipoly_divmod_and_gcd():
    a = UniPoly([-1, 0, 1])     # u^2 - 1
    b = UniPoly([1, 1])         # u + 1
    quo, rem = a.divmod(b)
    assert rem.is_zero() and quo == UniPoly([-1, 1])
    g = a.gcd(UniPoly([-1, 1]))  # gcd(u^2-1, u-1) = u-1
    assert g == UniPoly([-1, 1])


def test_unipoly_squarefree_decomposition():
    # u^3 (u-1/2) (u-1) (u^2-6u+4)^2
    x = UniPoly([0, 1])
    f = x * x * x * (x - Fraction(1, 2)) * (x - 1) * (UniPoly([4, -6, 1]) ** 2)
    parts = f.squarefree_decomposition()
    by_mult = {mult: g for g, mult in parts}
    assert by_mult[3] == UniPoly([0, 1]).monic()
    assert by_mult[2] == UniPoly([4, -6, 1]).monic()
    assert by_mult[1] == ((x - Fraction(1, 2)) * (x - 1)).monic()


def reference_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """The Fraction Euclid that UniPoly.gcd used before its integer PRS."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


def reference_squarefree(f: UniPoly) -> list:
    """The Fraction Yun that squarefree_decomposition used before Z[x]."""
    if f.degree < 1:
        return []
    f = f.monic()
    d = f.derivative()
    a = reference_gcd(f, d)
    b, _ = f.divmod(a)
    c, _ = d.divmod(a)
    out = []
    mult = 1
    while b.degree >= 1:
        diff = c - b.derivative()
        g = reference_gcd(b, diff)
        if g.degree >= 1:
            out.append((g, mult))
        b, _ = b.divmod(g)
        c, _ = diff.divmod(g)
        mult += 1
    return out


def _random_factor(rng, degree):
    # mixed denominators, negative leading coefficients
    coeffs = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 12])) for _ in range(degree)]
    coeffs.append(Fraction(rng.choice([-5, -2, -1, 1, 3, 4]), rng.choice([1, 2, 9])))
    return UniPoly(coeffs)


def _random_with_multiplicities(rng, max_mult=4):
    f = UniPoly([Fraction(rng.choice([-7, -1, 2, 5]), rng.choice([1, 3, 4]))])
    for mult in range(1, max_mult + 1):
        for _ in range(rng.randint(0, 2)):
            f = f * _random_factor(rng, rng.randint(1, 2)) ** mult
    return f


def _assert_exact(q: UniPoly):
    assert all(type(c) is Fraction for c in q.coeffs)


def test_gcd_and_squarefree_match_fraction_references_random():
    rng = random.Random(61)
    for _ in range(150):
        f = _random_with_multiplicities(rng)
        parts = f.squarefree_decomposition()
        assert parts == reference_squarefree(f)
        for g, _mult in parts:
            _assert_exact(g)
        for other in (f.derivative(), _random_factor(rng, rng.randint(0, 4)),
                      _random_with_multiplicities(rng, 2), f * _random_factor(rng, 1)):
            assert f.gcd(other) == reference_gcd(f, other)
            assert other.gcd(f) == reference_gcd(other, f)
            _assert_exact(f.gcd(other))


def test_gcd_and_squarefree_edge_operands():
    x = UniPoly([0, 1])
    operands = [UniPoly(), UniPoly([3]), UniPoly([Fraction(-1, 2)]), x, -x + Fraction(1, 3),
                (x - 1) * (x - 2), (x - 1) ** 4 * (x + Fraction(2, 5)), UniPoly([1, 0, 1])]
    for a in operands:
        assert a.squarefree_decomposition() == reference_squarefree(a)
        for b in operands:
            assert a.gcd(b) == reference_gcd(a, b)
    # coprime pairs have gcd 1, zero with zero stays zero
    assert ((x - 1) * (x - 2)).gcd(UniPoly([1, 0, 1])) == UniPoly([1])
    assert UniPoly().gcd(UniPoly()) == UniPoly()
    assert UniPoly().gcd(x * -4 + 2) == x - Fraction(1, 2)
    assert ((x - 1) ** 4).squarefree_decomposition() == [(x - 1, 4)]


def test_squarefree_matches_sympy_sqf_list():
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    rng = random.Random(67)
    for _ in range(40):
        f = _random_with_multiplicities(rng)
        if f.degree < 1:
            continue
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(f.coeffs)], u, domain="QQ")
        _, factors = sympy.sqf_list(poly)
        expected = {(tuple(Fraction(int(c.p), int(c.q))
                           for c in reversed(g.monic().all_coeffs())), mult)
                    for g, mult in factors}
        assert {(g.coeffs, mult) for g, mult in f.squarefree_decomposition()} == expected


def test_unipoly_real_roots():
    q = UniPoly([-4, 0, 1])  # roots +-2
    assert q.real_roots() == pytest.approx([-2.0, 2.0])
    assert UniPoly([1, 0, 1]).real_roots() == []


def test_power_matches_repeated_product():
    rng = random.Random(29)
    cases = [(_random_poly(rng, degree=2), Poly.constant(1)),
             (UniPoly([Fraction(1, 2), -1, 3]), UniPoly([1])),
             (_random_trig(rng, d=2), TrigPoly([1]))]
    for base, one in cases:
        prod = base**0
        assert prod == one
        for n in range(1, 6):
            prod = prod * base
            assert base**n == prod
        with pytest.raises(ValueError):
            base ** -1


# ---------------------------------------------------------------------------
# exact elimination and interpolation, against the Fraction eliminations
# they replaced
# ---------------------------------------------------------------------------

def reference_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    mat = [list(r) for r in rows]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / Fraction(mat[col][col])
        for r in range(col + 1, n):
            if mat[r][col] != 0:
                f = mat[r][col] * inv
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return det


def reference_solve(rows, rhs) -> list:
    """Solution of A x = b by Gauss-Jordan elimination over Fractions."""
    mat = [list(r) + [b] for r, b in zip(rows, rhs)]
    n = len(mat)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = 1 / Fraction(mat[col][col])
        mat[col] = [x * inv for x in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return [mat[r][n] for r in range(n)]


def _random_rational(rng):
    # mixed denominators, some entries plain ints, some zero
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-99, 99), rng.choice([1, 2, 3, 7, 12, 35, 1024]))


def _exact_types(values):
    return all(type(v) is Fraction for v in values)


def test_det_and_solve_match_fraction_elimination_random():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randint(1, 7)
        rows = [[_random_rational(rng) for _ in range(n)] for _ in range(n)]
        rhs = [_random_rational(rng) for _ in range(n)]
        det = det_exact(rows)
        assert det == reference_det(rows) and type(det) is Fraction
        if det == 0:
            with pytest.raises(ZeroDivisionError):
                solve_exact(rows, rhs)
            continue
        x = solve_exact(rows, rhs)
        assert x == reference_solve(rows, rhs) and _exact_types(x)


def test_det_and_solve_zero_leading_pivot_needs_row_swap():
    rows = [[0, Fraction(1, 2), 3], [Fraction(2, 3), 1, 0], [1, 0, Fraction(-1, 5)]]
    rhs = [1, Fraction(1, 7), 0]
    assert det_exact(rows) == reference_det(rows) != 0
    assert solve_exact(rows, rhs) == reference_solve(rows, rhs)
    # a zero pivot that appears only after the first elimination step
    rows = [[1, 2, 3], [2, 4, 7], [Fraction(1, 3), 1, 0]]
    assert det_exact(rows) == reference_det(rows) != 0
    assert solve_exact(rows, rhs) == reference_solve(rows, rhs)


def test_det_and_solve_singular_matrix():
    rows = [[1, Fraction(1, 2), 2], [2, 1, 4], [Fraction(1, 3), 5, 0]]
    assert det_exact(rows) == 0 == reference_det(rows)
    with pytest.raises(ZeroDivisionError):
        solve_exact(rows, [1, 2, 3])
    # singular in the last pivot only
    rows = [[1, 2], [Fraction(1, 2), 1]]
    assert det_exact(rows) == 0
    with pytest.raises(ZeroDivisionError):
        solve_exact(rows, [1, 1])


def test_det_and_solve_empty_matrix():
    assert det_exact([]) == 1 and type(det_exact([])) is Fraction
    assert solve_exact([], []) == []


def test_det_and_solve_return_fractions_for_integer_input():
    # 1 x 1 and the last row of back substitution divide two ints
    assert det_exact([[3]]) == 3 and type(det_exact([[3]])) is Fraction
    x = solve_exact([[2]], [1])
    assert x == [Fraction(1, 2)] and _exact_types(x)
    x = solve_exact([[2, 1], [0, 4]], [1, 2])
    assert x == reference_solve([[2, 1], [0, 4]], [1, 2]) and _exact_types(x)


@pytest.mark.parametrize("npts", [1, 2, 20])
def test_interpolate_exact_matches_vandermonde_solve(npts):
    rng = random.Random(npts)
    for x0 in (0, -1, 3):
        values = [_random_rational(rng) for _ in range(npts)]
        xs = range(x0, x0 + npts)
        vandermonde = [[Fraction(x) ** j for j in range(npts)] for x in xs]
        coeffs = interpolate_exact(values, x0)
        assert coeffs == reference_solve(vandermonde, values)
        assert _exact_types(coeffs)


# ---------------------------------------------------------------------------
# scalar formatting and pencil JSON
# ---------------------------------------------------------------------------

def test_format_scalar_exact_decimal():
    assert format_scalar(Fraction(1, 2)) == "0.5"
    assert format_scalar(Fraction(-3, 8)) == "-0.375"
    assert format_scalar(Fraction(1, 3)) == "1/3"
    assert format_scalar(Fraction(7)) == "7"
    assert parse_scalar("0.5") == Fraction(1, 2)
    assert parse_scalar("1/3") == Fraction(1, 3)
    assert parse_scalar("-7") == Fraction(-7)


def test_pencil_json_roundtrip():
    F = Pencil.from_rows(
        [[1, 0], [0, 2]],
        [[0, 1], [1, 0]],
        [[Fraction(1, 3), 0], [0, -1]],
        c=Fraction(4),
    )
    again = Pencil.loads(F.dumps())
    assert again == F
    assert again.c == 4


def test_pencil_eval():
    F = Pencil.from_rows([[2, 0], [0, 2]], [[2, 0], [0, -2]], [[0, -2], [-2, 0]])
    val = F.eval(0.5, 0.25)
    assert np.allclose(val, [[3.0, -0.5], [-0.5, 1.0]])


def test_pencil_trivariate_json():
    F = Pencil.from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    )
    assert F.nvars == 3
    assert Pencil.loads(F.dumps()) == F


def test_pencil_json_float_entries_roundtrip_bitexact():
    mu = 4.0 ** (-1.0 / 3.0)
    F = Pencil.from_rows(
        [[mu, 0.0], [0.0, mu]], [[mu, 0.0], [0.0, -mu]],
        [[0.0, -mu], [-mu, 0.0]],
    )
    again = Pencil.loads(F.dumps())
    assert again == F
    assert not again.is_exact()
