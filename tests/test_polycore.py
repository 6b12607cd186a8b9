import math
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
    _bareiss,
    _int_gcd,
    _pdivmod,
    _primitive,
    _squarefree_factors,
    _squarefree_part,
    det_exact,
    format_scalar,
    parse_scalar,
    solve_exact,
)
from rigidconvex.realroots import _nonnegative_roots, real_roots
from reference_poly import interpolate_exact, ref_derivative, ref_divmod, ref_gcd, ref_monic, \
    ref_squarefree
from trig_helpers import tadd, teval, tmul, tpow


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


def test_eval_at_a_poly_is_refused():
    # a point is numbers (numpy scalars included); a Poly does not compose
    p = parse_poly("1-x1^4-x2^4")
    assert p(np.float64(0.5), np.int64(1)) == 1 - 0.5**4 - 1
    with pytest.raises(TypeError, match="a Poly is evaluated at numbers"):
        p(Poly.variable(0), 0)


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
        assert tmul(tmul(a, b), c) == tmul(a, tmul(b, c))
        assert tmul(a, tadd(b, c)) == tadd(tmul(a, b), tmul(a, c))
        assert tmul(a, b) == tmul(b, a)


# ---------------------------------------------------------------------------
# cosine arithmetic
# ---------------------------------------------------------------------------

def test_cosine_square():
    w = TrigPoly([0, 1])  # z + z^-1
    assert tmul(w, w) == TrigPoly([2, 0, 1])


def test_cosine_identity():
    rng = random.Random(1)
    one = TrigPoly([1])
    for _ in range(20):
        a = _random_trig(rng)
        assert tmul(a, one) == a


def test_cosine_cube():
    w = TrigPoly([0, 1])
    assert tpow(w, 3) == TrigPoly([0, 3, 0, 1])  # 3(z+z^-1) + (z^3+z^-3)


def test_trig_halfdegree_additive():
    rng = random.Random(9)
    for _ in range(30):
        a, b = _random_trig(rng), _random_trig(rng)
        if a.is_zero() or b.is_zero():
            continue
        assert tmul(a, b).half_degree <= a.half_degree + b.half_degree


def test_cosine_mul_matches_pointwise_values():
    rng = random.Random(17)
    thetas = np.random.default_rng(0).uniform(0, 2 * np.pi, 1000)
    for _ in range(3):
        a, b = _random_trig(rng), _random_trig(rng)
        ab = tmul(a, b)
        for theta in thetas:
            lhs = teval(ab, theta)
            rhs = teval(a, theta) * teval(b, theta)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def _fields(e: TrigPoly) -> tuple:
    return e.re, e.im, e.den


def test_trig_int_halves_round_trip():
    e = TrigPoly([Fraction(1, 6), 0, Fraction(-3, 4)], [0, Fraction(5, 2)])
    assert _fields(e) == ([2, 0, -9], [0, 30, 0], 12)
    assert _fields(TrigPoly([Fraction(1, 2), Fraction(-1, 4)])) == ([2, -1], [], 4)
    rng = random.Random(19)
    for _ in range(50):
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 5))]
        s = [0] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 4))]
        e = TrigPoly(c, s)
        re, im, den = _fields(e)
        assert all(type(x) is int for x in re + im) and den > 0
        assert len(re) == e.half_degree + 1 and len(im) in (0, len(re))
        assert math.gcd(den, *re, *im) == 1
        assert TrigPoly._make(re, im, den) == e
        assert TrigPoly(e.c, e.s) == e
        while c and not c[-1]:
            c.pop()
        while s and not s[-1]:
            s.pop()
        assert e.c == tuple(c) and e.s == tuple(s)


def test_trig_poly_checks_outside_input():
    with pytest.raises(TypeError, match="not rational"):
        TrigPoly([0.5])
    with pytest.raises(TypeError, match="not rational"):
        TrigPoly([1], [0, 0.25])
    with pytest.raises(ValueError, match="s\\[0\\]"):
        TrigPoly([1], [2])
    assert (TrigPoly([Fraction(1, 2)]) == 0.5) is False
    assert TrigPoly([Fraction(1, 2)]) == Fraction(1, 2) and TrigPoly([3]) == 3
    # the sine part sets the half-degree; an all-zero sine part is dropped
    e = TrigPoly([1], [0, 0, Fraction(3, 2)])
    assert _fields(e) == ([2, 0, 0], [0, 0, 3], 2) and e.c == (1,)
    assert _fields(TrigPoly([1, 2], [0, 0, 0])) == ([1, 2], [], 1)


def test_trig_make_normalises_like_the_constructor():
    # negative den, a common factor, trailing zeros and an all-zero sine part
    e = TrigPoly._make([-8, 12, 0, 0], [0, -4, 0], -12)
    want = TrigPoly([Fraction(2, 3), -1], [0, Fraction(1, 3)])
    assert e == want and hash(e) == hash(want)
    assert _fields(e) == ([2, -3], [0, 1], 3)
    e = TrigPoly._make([6, -9, 0], [0, 0, 0], -3)
    assert e == TrigPoly([-2, 3]) and hash(e) == hash(TrigPoly([-2, 3]))
    assert _fields(e) == ([-2, 3], [], 1)


def test_trig_zero():
    for z in (TrigPoly(), TrigPoly([0, 0], [0, 0]), TrigPoly._make([], [], 5),
              TrigPoly._make([0, 0], [0, 0], -7)):
        assert _fields(z) == ([0], [], 1)
        assert z.is_zero() and not z and z == 0 and z == TrigPoly()
        assert z.c == () and z.s == () and z.half_degree == 0 and z.is_cosine()
        assert z.int_poly() == ([0], 1) and z.int_poly(3) == ([0] * 4, 1)
        assert teval(z, 0.3) == 0.0 and str(z) == "0"


def test_trig_eval_sine_part():
    # i(z - z^-1) has value -2 sin(theta)
    s = TrigPoly([], [0, 1])
    for theta in (0.0, 0.5, 1.7, 3.9):
        assert abs(teval(s, theta) + 2 * np.sin(theta)) < 1e-14


def test_cosine_t_form_is_even():
    # c[0] + sum c[k](z^k + z^-k) with harmonics of h's parity only is
    # cos^h(theta) P(T), T = tan theta, P even in T, so W = T^2 keeps its
    # even-index coefficients; a harmonic of the other parity, or a
    # half-degree above h, is refused
    rng = random.Random(13)
    for _ in range(100):
        c = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 12))]
        h = len(c) - 1
        e = TrigPoly([x * ((k - h) % 2 == 0) for k, x in enumerate(c)])
        P, den = e.int_poly(h)
        assert den == 1 and len(P) == h + 1 and not any(P[1::2])
        for theta in (0.3, 2.0):
            lhs = sum(x * np.tan(theta) ** k for k, x in enumerate(P))
            rhs = teval(e, theta) / np.cos(theta) ** h
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs), sum(map(abs, P)))
        if any(c[(h + 1) % 2::2]):
            with pytest.raises(DimensionMismatchError):
                TrigPoly(c).int_poly(h)
        if e.half_degree:
            with pytest.raises(DimensionMismatchError):
                e.int_poly(e.half_degree - 1)


def test_coeff_checks_arity():
    p = parse_poly("1-x1^2-x3^2")
    assert p.coeff((0, 0, 0)) == 1
    with pytest.raises(DimensionMismatchError, match="expected 3 coordinates, got 2"):
        p.coeff((0, 0))


# ---------------------------------------------------------------------------
# TrigPoly product (laurent_mul) against the Laurent convolution it replaced
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
            got = tmul(a, b)
            assert got == TrigPoly(*reference_mul(a, b))
            assert all(type(x) is Fraction for x in got.c + got.s)
    assert any(not a.is_cosine() for a in pool)


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

def test_unipoly_trims_leading_zeros():
    q = UniPoly([1, 2, 0, 0])
    assert q.degree == 1
    assert UniPoly([0, 0]).is_zero()


def test_unipoly_divmod_and_gcd():
    """Division and gcds run in the integer kernels; the Fraction reference
    agrees."""
    a, b = UniPoly([-1, 0, 1]), UniPoly([1, 1])  # u^2 - 1, u + 1
    assert _pdivmod([-1, 0, 1], [1, 1]) == ([-1, 1], [])
    assert ref_divmod(a, b) == (UniPoly([-1, 1]), UniPoly())
    assert _int_gcd([-1, 0, 1], [-1, 1]) == [-1, 1]  # gcd(u^2-1, u-1) = u-1
    assert ref_gcd(a, UniPoly([-1, 1])) == UniPoly([-1, 1])
    # (u^2 + 1) mod (2u + 1) is 5/4; the pseudo-remainder is 4 times that
    assert _pdivmod([1, 0, 1], [1, 2])[1] == [5]
    assert ref_divmod(UniPoly([1, 0, 1]), UniPoly([1, 2]))[1] == UniPoly([Fraction(5, 4)])


def test_unipoly_squarefree_decomposition(monkeypatch):
    # u^3 (u-1/2) (u-1) (u^2-6u+4)^2
    x = UniPoly([0, 1])
    f = x * x * x * (x - Fraction(1, 2)) * (x - 1) * (UniPoly([4, -6, 1]) ** 2)
    assert _squarefree_factors(f.coeffs) == [([1, -3, 2], 1), ([4, -6, 1], 2), ([0, 1], 3)]
    assert _kernel_squarefree(f) == ref_squarefree(f)
    # zero and constants have no factor, x^k is one, floats are read as the
    # binary rationals they are
    assert _squarefree_factors([]) == [] == _squarefree_factors([Fraction(-7, 3)])
    assert _squarefree_factors([0, 0, 0, 0, -2]) == [([0, 1], 4)]
    assert _squarefree_factors([0, 0, 3, 3]) == [([1, 1], 1), ([0, 1], 2)]
    assert _squarefree_factors([0.25, -1.0, 1.0]) == [([-1, 2], 2)]
    n, d = (0.1).as_integer_ratio()
    assert _squarefree_factors([-0.1, 1.0]) == [([-n, d], 1)] and d == 2**55
    # on integers no Fraction is made
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    ints = [c.numerator for c in (f * 4).coeffs]
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    parts = _squarefree_factors(ints)
    monkeypatch.undo()
    assert made == [] and parts == _squarefree_factors(f.coeffs)


def _kernel_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """The monic gcd from the integer kernels, to compare with ``ref_gcd``."""
    return ref_monic(UniPoly(_int_gcd(_primitive(a.coeffs), _primitive(b.coeffs))))


def _kernel_squarefree(f: UniPoly) -> list:
    """``_squarefree_factors`` made monic, to compare with ``ref_squarefree``;
    every factor is primitive in Z[x] with a positive leading coefficient."""
    parts = _squarefree_factors(f.coeffs)
    for g, _mult in parts:
        assert all(type(c) is int for c in g) and g[-1] > 0 and math.gcd(*g) == 1
    return [(ref_monic(UniPoly(g)), mult) for g, mult in parts]


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


def test_gcd_and_squarefree_match_fraction_references_random():
    rng = random.Random(61)
    for _ in range(150):
        f = _random_with_multiplicities(rng)
        assert _kernel_squarefree(f) == ref_squarefree(f)
        for other in (ref_derivative(f), _random_factor(rng, rng.randint(0, 4)),
                      _random_with_multiplicities(rng, 2), f * _random_factor(rng, 1)):
            assert _kernel_gcd(f, other) == ref_gcd(f, other)
            assert _kernel_gcd(other, f) == ref_gcd(other, f)


def test_gcd_and_squarefree_edge_operands():
    x = UniPoly([0, 1])
    operands = [UniPoly(), UniPoly([3]), UniPoly([Fraction(-1, 2)]), x, -x + Fraction(1, 3),
                (x - 1) * (x - 2), (x - 1) ** 4 * (x + Fraction(2, 5)), UniPoly([1, 0, 1])]
    for a in operands:
        assert _kernel_squarefree(a) == ref_squarefree(a)
        for b in operands:
            assert _kernel_gcd(a, b) == ref_gcd(a, b)
    # coprime pairs have gcd 1, zero with zero stays zero
    assert _int_gcd([2, -3, 1], [1, 0, 1]) == [1]
    assert _int_gcd([], []) == []
    assert _int_gcd([], [2, -4]) == [-1, 2]
    assert _squarefree_factors(((x - 1) ** 4).coeffs) == [([-1, 1], 4)]


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
        assert {(g.coeffs, mult) for g, mult in _kernel_squarefree(f)} == expected


def numpy_real_roots(q: UniPoly) -> list[float]:
    """Reference real roots: companion-matrix roots whose imaginary part is
    below 1e-8 relative, a multiple root once per copy."""
    return sorted(float(r.real) for r in q.roots() if abs(r.imag) < 1e-8 * max(1.0, abs(r)))


def _mid(iv) -> float:
    return float((iv[0] + iv[1]) / 2)


def test_unipoly_real_roots():
    """The exact kernel against the numpy reference that UniPoly.real_roots was."""
    assert [_mid(iv) for iv in real_roots([-4, 0, 1])] == [-2.0, 2.0]
    assert real_roots([1, 0, 1]) == []
    rng = random.Random(13)
    for _ in range(30):
        # well separated rational roots and one complex pair
        roots = [Fraction(x, rng.choice([1, 3, 7])) for x in rng.sample(range(-40, 40, 3), rng.randint(1, 6))]
        q = math.prod([UniPoly([-r, 1]) for r in roots], start=UniPoly([rng.randint(1, 5), 1, 1]))
        den = math.lcm(*[c.denominator for c in q.coeffs])
        got = [_mid(iv) for iv in real_roots([int(c * den) for c in q.coeffs])]
        assert got == pytest.approx(numpy_real_roots(q), rel=1e-9, abs=1e-9)
        assert all(abs(g - float(r)) <= 2 * math.ulp(float(r)) for g, r in zip(got, sorted(roots)))


def _random_factored(rng) -> list:
    """An integer polynomial with multiple roots, roots at dyadic points, at
    0, +-1 and +-2, and random integer factors."""
    f = [rng.choice([-3, -1, 1, 2])]
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(4)
        if kind == 0:
            g = [rng.randint(-6, 6) for _ in range(rng.randint(2, 5))] + [rng.choice([-2, 1, 3])]
        elif kind == 1:  # a dyadic root a / 2^k
            g = [-rng.randint(-16, 16), 2 ** rng.randint(0, 4)]
        else:
            g = [-rng.choice([0, 1, -1, 2, -2]), 1]
        for _ in range(rng.choice([1, 1, 2, 4])):
            f = [sum(f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g))
                 for k in range(len(f) + len(g) - 1)]
    return f


def test_real_roots_match_sympy_count_random():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(31)
    for _ in range(200):
        f = _random_factored(rng)
        P = sympy.Poly(list(reversed(f)), x)
        sqf = _squarefree_part(f)
        for found, (lo, hi) in ((real_roots(sqf), (None, None)),
                                (_nonnegative_roots(sqf), (0, None))):
            assert len(found) == P.count_roots(lo, hi)  # distinct roots
            for a, b in found:
                assert P.count_roots(a, b) == 1
                assert (P.eval(a) == 0) == (a == b)  # exact roots exact, no root at an end
                assert b - a <= Fraction(1, 2**49) * max(1, abs(a))
            assert all(b1 <= a2 for (_, b1), (a2, _) in zip(found, found[1:]))


def test_power_matches_repeated_product():
    rng = random.Random(29)
    cases = [(_random_poly(rng, degree=2), Poly.constant(1)),
             (UniPoly([Fraction(1, 2), -1, 3]), UniPoly([1]))]
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


def test_bareiss_last_row_holds_bordered_minors():
    """For n rows and width >= n, the last row after elimination holds, at
    each column c >= n - 1, det(first n - 1 columns + column c): through row
    swaps (sign on the whole row) and a singular leading block (row zeroed)."""
    rng = random.Random(43)

    def check(mat):
        n, width = len(mat), len(mat[0])
        minors = [det_exact([row[:n - 1] + [row[c]] for row in mat]) for c in range(n - 1, width)]
        work = [list(row) for row in mat]
        assert _bareiss(work) == minors[0]
        assert work[-1][n - 1:] == minors
        return minors

    swapped = singular = 0
    for _ in range(150):
        n, extra = rng.randint(1, 6), rng.randint(0, 4)
        mat = [[rng.randint(-3, 3) for _ in range(n + extra)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:  # zero leading pivot: a row swap
            mat[0][0] = 0
            swapped += 1
        if n > 2 and rng.random() < 0.3:  # first n - 1 columns dependent
            for row in mat:
                row[1] = 2 * row[0]
            singular += 1
            assert not any(check(mat))
        else:
            check(mat)
    assert swapped and singular
    # the swap sign reaches every bordered minor, not only the determinant
    mat = [[0, 1, 5, 7], [1, 0, 2, 3]]
    assert check(mat) == [-1, -5, -7]


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
