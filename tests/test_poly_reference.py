"""The integer ``Poly`` and ``parse_poly`` against the Fraction reference they
replaced (``reference_poly``): equal values in the same key order, the same
errors with the same messages and offsets, and bit-identical floats."""
import random
from fractions import Fraction

from reference_poly import RefPoly, ref_parse_poly
from rigidconvex import Poly, parse_poly
from rigidconvex.polycore import MAX_COEFF_BITS, MAX_DEGREE


def _literal(rng) -> str:
    kind = rng.randrange(40)
    if kind < 4:
        return f"{rng.randint(0, 99)}.{rng.randint(0, 10**rng.randint(1, 6))}"
    if kind < 7:
        return f"{rng.randint(0, 50)}/{rng.randint(0, 12)}"
    if kind == 7:  # at the MAX_COEFF_BITS edge, on both sides
        big = 2 ** MAX_COEFF_BITS + rng.randint(-2, 2)
        return rng.choice([str(big), f"1/{big}", f"{big}/3", f"2^{MAX_COEFF_BITS // rng.choice([1, 2, 4])}"])
    if kind == 8:  # past int()'s 4300-digit limit, in either part
        digits = "7" * rng.choice([4299, 4300, 4301, 4400])
        return rng.choice([digits, f"1.{digits}", f"{digits}.5", f"1/{digits}"])
    if kind < 11:
        return rng.choice(["0", "00", "0.0", "1", "0/5", "007"])
    return str(rng.randint(0, 30))


def _base(rng, depth: int, nvars: int) -> str:
    kind = rng.randrange(9)
    if kind < 3:
        return _literal(rng)
    if kind < 7 or depth == 0:
        return f"x{rng.randint(1, nvars)}"
    return f"({_expr(rng, depth - 1, nvars)})"


def _factor(rng, depth: int, nvars: int) -> str:
    base = _base(rng, depth, nvars)
    if rng.random() < 0.35:
        # powers of sums stay small: the reference expands them slowly
        e = rng.choice([0, 1, 2, 3] if base.startswith("(") else
                       [0, 1, 1, 2, 2, 3, 5, MAX_DEGREE // 4, MAX_DEGREE // 2,
                        MAX_DEGREE, MAX_DEGREE + 1, 300])
        return f"{base}^{e}"
    return base


def _expr(rng, depth: int, nvars: int) -> str:
    terms = ["*".join(_factor(rng, depth, nvars) for _ in range(rng.randint(1, 3)))
             for _ in range(rng.randint(1, 4))]
    text = terms[0]
    for t in terms[1:]:
        text += rng.choice("+-") + t
    return rng.choice(["", "", "-", "+"]) + text


def _mangle(rng, text: str) -> str:
    """Occasional malformed input: a token dropped, doubled or foreign."""
    if len(text) < 2 or rng.random() < 0.8:
        return text
    i = rng.randrange(len(text))
    return rng.choice([text[:i] + text[i + 1:], text[:i] + text[i] + text[i:],
                       text[:i] + rng.choice(" y)(*^/.x4x3") + text[i:]])


def fuzzed_expressions(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.choice([2, 2, 2, 3])
        yield _mangle(rng, _expr(rng, rng.randint(0, 2), nvars))


def _outcome(parse, text):
    try:
        p = parse(text)
    except Exception as err:  # compared by class, message and offset
        return ("error", type(err).__name__, str(err), getattr(err, "offset", None))
    return ("ok", p.nvars, list(p.coeffs.items()))


def _fuzz(count: int, seed: int) -> tuple[int, int]:
    oks = errors = 0
    for text in fuzzed_expressions(count, seed):
        got, want = _outcome(parse_poly, text), _outcome(ref_parse_poly, text)
        assert got == want, text
        oks += got[0] == "ok"
        errors += got[0] == "error"
    return oks, errors


def test_parser_matches_fraction_reference_fuzzed():
    oks, errors = _fuzz(3000, 2024)
    # both outcomes are exercised, and each error kind the bounds produce
    assert oks > 1000 and errors > 300


def test_parser_reference_edge_cases():
    big = 2 ** MAX_COEFF_BITS
    cases = ["0", "-0", "+x1", "x1-x1", "x1-x1+x2", "(x1-x1)^0", "0^0", "0*x1^20*x1^20",
             f"x1^{MAX_DEGREE}", f"x1^{MAX_DEGREE}*x2", f"(1+x1)^{MAX_DEGREE}",
             f"{big}*x1", f"{big + 1}*x1", f"1/{big}", f"-1/{big + 1}", f"2^{MAX_COEFF_BITS}",
             f"(2/2)^100000000", f"(1/2*2)^100000000", "2^10000000", "(1/3)^200",
             "1-x1^2-x3^2", "x3", "x1*x3^2-x2", "x4", "y+1", "1+*x1", "x1^(2)", "(1+x1",
             "1+x1)", "1.5^2", "x1^1.5", "1/0", "1/2.5", "", "   ", "3 x1", "1..2",
             "9" * 4301, "1." + "9" * 4301, "x1^" + "9" * 4301, "1/" + "9" * 4301,
             "(x1+x2)^3-(x1^3+3*x1^2*x2+3*x1*x2^2+x2^3)", "0.50*x1+1/3*x2-0.5*x1"]
    for text in cases:
        assert _outcome(parse_poly, text) == _outcome(ref_parse_poly, text), text


def _random_pair(rng, nvars: int, degree: int = 5):
    coeffs = {}
    for _ in range(rng.randint(0, 8)):
        expo = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            expo[rng.randrange(nvars)] += 1
        coeffs[tuple(expo)] = rng.choice([0, 1, -1, rng.randint(-50, 50),
                                          Fraction(rng.randint(-9, 9), rng.randint(1, 12))])
    return Poly(coeffs, nvars), RefPoly(coeffs, nvars)


def _same(p: Poly, ref: RefPoly, ordered: bool = True) -> bool:
    """Equal values, and in the same key order unless not ``ordered``."""
    got, want = p.coeffs, ref.coeffs
    if ordered:
        got, want = list(got.items()), list(want.items())
    return type(p) is Poly and p.nvars == ref.nvars and got == want


def test_arithmetic_matches_fraction_reference():
    rng = random.Random(41)
    for k in range(400):
        nvars = 2 if k % 4 else 3
        (a, ra), (b, rb) = _random_pair(rng, nvars), _random_pair(rng, nvars)
        s = rng.choice([0, 3, -2, Fraction(5, 7), Fraction(-1, 4)])
        e = rng.randint(0, 4)
        offset = [rng.choice([0, 2, Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                              Fraction(0.1)]) for _ in range(nvars)]
        pairs = [(a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra),
                 (a + s, ra + s), (s - a, s - ra), (a * s, ra * s), (s * b, s * rb),
                 (a**e, ra**e)]
        pairs += [(a.partial(i), ra.partial(i)) for i in range(nvars)]
        for got, want in pairs:
            assert _same(got, want)
        # the key order of a shifted polynomial is its own: it only feeds the
        # Hermite route, whose integer sums do not depend on it
        assert _same(a.shifted(*offset), ra.shifted(*offset), ordered=False)
        assert (a == b) == (ra == rb) and a.degree == ra.degree
        assert a.to_expr() == ra.to_expr()


def test_integer_poly_builds_no_fractions(monkeypatch):
    # Poly runs on its integers: parsing an integer input and the ring
    # operations on the result build no Fraction
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    p = parse_poly("x1^2*(x1^2+x2^2)-2*(x1^2+x2^2-x2)^2+3*x1-7")
    q = parse_poly("(1+x1-2*x2)^3-x1*x2")
    results = [p + q, p - q, p * q, p**3, -p, p * 3, 2 - q, p.shifted(2, -1), p.partial(0),
               q.partial(1), p.degree, p == q]
    monkeypatch.undo()
    assert made == [] and len(results) == 12
    assert Fraction(1, 2) == Fraction(2, 4)  # restored


def test_evaluation_matches_fraction_reference_bitwise():
    rng = random.Random(43)
    for k in range(300):
        nvars = 2 if k % 4 else 3
        p, ref = _random_pair(rng, nvars, degree=8)
        exact = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(nvars)]
        floats = [rng.uniform(-3, 3) * 10 ** rng.randint(-3, 3) for _ in range(nvars)]
        complexes = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(nvars)]
        assert p(*exact) == ref(*exact)
        assert p(*[int(x) for x in exact]) == ref(*[int(x) for x in exact])
        for point in (floats, complexes):
            # repr tells every bit apart, signed zeros included; a constant
            # came back as a Fraction, and complex() rounds it as float() does
            assert repr(complex(p(*point))) == repr(complex(ref(*point)))


if __name__ == "__main__":  # the long run: python tests/test_poly_reference.py 60000
    import sys

    print(_fuzz(int(sys.argv[1]), int(sys.argv[1])))
