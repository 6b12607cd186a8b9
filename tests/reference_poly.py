"""Fraction references for the tests.

``RefPoly`` and ``ref_parse_poly`` are ``Poly`` and its parser as they were
before ``Poly`` moved to integers: the tests compare the integer ``Poly`` and
``parse_poly`` with them value for value, error for error and float for
float.  Coefficients are Fractions (floats stay floats), every result is
re-built through the validating constructor and the parser builds one Poly
per token.  ``interpolate_exact`` is the rational interpolation the package
no longer calls.  ``ref_gcd`` and ``ref_squarefree`` are Euclid and Yun over
the rationals, on ``UniPoly`` with their own ``ref_monic``, ``ref_derivative``
and ``ref_divmod``: the package runs those jobs in the integer kernels.
``ref_roots01`` is the real-root kernel with plain bisection on exact signs,
whose intervals quadratic interval refinement must reproduce.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Mapping

from rigidconvex.errors import DimensionMismatchError, PolyParseError, UnknownVariableError
from rigidconvex.polycore import MAX_COEFF_BITS, MAX_DEGREE, Scalar, UniPoly, _hom, \
    _newton_interpolate, _power, _taylor_shift, _tokenize, _variations, format_scalar, to_exact

_ZERO = Fraction(0)


class RefPoly:
    """Sparse exact polynomial in ``nvars`` variables.

    ``coeffs`` maps exponent tuples to nonzero Fractions; the zero polynomial
    has an empty map and degree -1.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, coeffs: Mapping[tuple, Scalar] | None = None, nvars: int = 2):
        clean = {}
        for expo, val in (coeffs or {}).items():
            val = to_exact(val)
            if val == 0:
                continue
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars:
                raise DimensionMismatchError(
                    f"exponent {expo} has arity {len(expo)}, expected {nvars}")
            clean[expo] = val
        self.nvars = nvars
        self.coeffs = clean

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int = 2) -> "RefPoly":
        return cls({}, nvars)

    @classmethod
    def constant(cls, value: Scalar, nvars: int = 2) -> "RefPoly":
        return cls({(0,) * nvars: value}, nvars)

    @classmethod
    def variable(cls, index: int, nvars: int = 2) -> "RefPoly":
        expo = tuple(1 if i == index else 0 for i in range(nvars))
        return cls({expo: 1}, nvars)

    # -- basic queries -------------------------------------------------------
    @property
    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, expo: tuple) -> Fraction:
        expo = tuple(expo)
        self._check_arity(len(expo))
        return self.coeffs.get(expo, _ZERO)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RefPoly) and self.nvars == other.nvars
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.coeffs.items()))))

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ----------------------------------------------------------
    def _check(self, other: "RefPoly"):
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"mixed arities {self.nvars} and {other.nvars}")

    def _check_arity(self, n: int):
        if n != self.nvars:
            raise DimensionMismatchError(f"expected {self.nvars} coordinates, got {n}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, float)):
            other = RefPoly.constant(other, self.nvars)
        self._check(other)
        out = dict(self.coeffs)
        for expo, val in other.coeffs.items():
            out[expo] = out.get(expo, Fraction(0)) + val
        return RefPoly(out, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return RefPoly({e: -v for e, v in self.coeffs.items()}, self.nvars)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, float)):
            other = RefPoly.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return RefPoly({e: v * other for e, v in self.coeffs.items()}, self.nvars)
        self._check(other)
        out: dict = {}
        for ea, va in self.coeffs.items():
            for eb, vb in other.coeffs.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + va * vb
        return RefPoly(out, self.nvars)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, RefPoly.constant(1, self.nvars))

    def shifted(self, *offset: Scalar) -> "RefPoly":
        """p(x + offset), expanded exactly by evaluating p at x_i + offset_i."""
        return RefPoly.zero(self.nvars) + self(*[RefPoly.variable(i, self.nvars) + off
                                              for i, off in enumerate(offset)])

    def partial(self, index: int) -> "RefPoly":
        """Exact partial derivative with respect to variable ``index``."""
        out = {}
        for expo, val in self.coeffs.items():
            if expo[index] == 0:
                continue
            e = list(expo)
            e[index] -= 1
            out[tuple(e)] = val * expo[index]
        return RefPoly(out, self.nvars)

    def __call__(self, *point: Scalar):
        """Exact evaluation when all inputs are rational; float otherwise.
        Poly inputs compose: the result is then a Poly, or a constant."""
        self._check_arity(len(point))
        point = [to_exact(x) for x in point]
        total = Fraction(0)
        for expo, val in self.coeffs.items():
            term = val
            for x, e in zip(point, expo):
                if e:
                    term = term * x**e
            total = total + term
        return total

    # -- printing -------------------------------------------------------------
    def to_expr(self) -> str:
        """Expression string that parse_poly maps back to this polynomial."""
        if not self.coeffs:
            return "0"
        items = sorted(self.coeffs.items(),
                       key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))
        parts = []
        for expo, val in items:
            factors = []
            for i, e in enumerate(expo):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            mag = format_scalar(abs(val))
            if factors and abs(val) == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([mag] + factors)
            else:
                body = mag
            parts.append(("-" if val < 0 else "+") + body)
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text

    def __str__(self):
        return self.to_expr()

    def __repr__(self):
        return f"RefPoly({self.to_expr()!r})"


def _bits(values) -> int:
    return (max([max(abs(v.numerator), v.denominator) for v in values], default=1)
            - 1).bit_length()


def _check_size(off: int, degree: int, bits: int = 0) -> None:
    if degree > MAX_DEGREE:
        raise PolyParseError(f"total degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}", off)
    if bits > MAX_COEFF_BITS:
        raise PolyParseError(f"constant up to 2^{bits} exceeds MAX_COEFF_BITS = "
                             f"{MAX_COEFF_BITS}", off)


class RefParser:
    def __init__(self, expr: str, nvars: int):
        self.tokens = _tokenize(expr)
        self.pos = 0
        self.nvars = nvars

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.take()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}", off)

    def parse_expr(self) -> RefPoly:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        out = self.parse_term()
        if negate:
            out = -out
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                term = self.parse_term()
                out = out - term if val == "-" else out + term
            else:
                return out

    def parse_term(self) -> RefPoly:
        out = self.parse_factor()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val == "*":
                self.take()
                factor = self.parse_factor()
                _check_size(off, out.degree + factor.degree)
                out = out * factor
            else:
                return out

    def parse_factor(self) -> RefPoly:
        base = self.parse_base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, off = self.take()
            if kind != "num" or "." in val:
                raise PolyParseError("exponent must be a nonnegative integer", off)
            e = int(val)
            # MAX_DEGREE bounds the exponent of any base but a constant
            _check_size(off, base.degree * e, _bits(base.coeffs.values()) * e
                        if base.degree <= 0 else 0)
            return base ** e
        return base

    def parse_base(self) -> RefPoly:
        kind, val, off = self.take()
        if kind == "num":
            numer = Fraction(val)
            # rational literal p/q
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.take()
                kind3, val3, off3 = self.take()
                if kind3 != "num" or "." in val3:
                    raise PolyParseError("denominator must be an integer", off3)
                if int(val3) == 0:
                    raise PolyParseError("zero denominator", off3)
                numer = numer / Fraction(val3)
            return RefPoly.constant(numer, self.nvars)
        if kind == "name":
            m = re.fullmatch(r"x([123])", val)
            if not m:
                raise UnknownVariableError(f"unknown variable {val!r}", off)
            index = int(m.group(1)) - 1
            if index >= self.nvars:
                raise UnknownVariableError(
                    f"variable {val!r} exceeds arity {self.nvars}", off)
            return RefPoly.variable(index, self.nvars)
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise PolyParseError(f"unexpected token {val!r}" if val else "unexpected end", off)


def ref_parse_poly(expr: str, nvars: int | None = None) -> RefPoly:
    """Parse an expression in x1, x2 (and x3) into a fully expanded RefPoly.

    With ``nvars=None`` the arity is 2 unless x3 occurs in the expression.
    """
    if nvars is None:
        nvars = 3 if re.search(r"\bx3\b", expr) else 2
    parser = RefParser(expr, nvars)
    poly = parser.parse_expr()
    kind, val, off = parser.peek()
    if kind != "end":
        raise PolyParseError(f"trailing input {val!r}", off)
    _check_size(0, 0, _bits(poly.coeffs.values()))
    return poly


def interpolate_exact(values, x0: int) -> list:
    """Ascending Fraction coefficients of the polynomial P of degree
    < len(values) that takes the rational ``values`` at x0, x0+1, ....  With L
    the lcm of their denominators, L P is integer-valued at n+1 consecutive
    integers, so n! L P has integer coefficients."""
    scale = math.lcm(*[v.denominator for v in values]) * math.factorial(len(values) - 1)
    ints = [v.numerator * (scale // v.denominator) for v in values]
    return [Fraction(c, scale) for c in _newton_interpolate(ints, x0)]


def ref_derivative(f: UniPoly) -> UniPoly:
    return UniPoly([k * c for k, c in enumerate(f.coeffs)][1:])


def ref_monic(f: UniPoly) -> UniPoly:
    return UniPoly([c / f.coeffs[-1] for c in f.coeffs]) if f.coeffs else f


def ref_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Quotient and remainder over the rationals, b nonzero."""
    rem = list(a.coeffs)
    quo = [_ZERO] * max(0, len(rem) - len(b.coeffs) + 1)
    while len(rem) >= len(b.coeffs) and rem:
        f = rem[-1] / b.coeffs[-1]
        shift = len(rem) - len(b.coeffs)
        quo[shift] = f
        for k, c in enumerate(b.coeffs):
            rem[shift + k] -= f * c
        while rem and rem[-1] == 0:
            rem.pop()
    return UniPoly(quo), UniPoly(rem)


def ref_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by Euclid over the rationals; zero for two zeros."""
    while not b.is_zero():
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_squarefree(f: UniPoly) -> list:
    """Yun's algorithm over the rationals: (monic factor, multiplicity) pairs."""
    if f.degree < 1:
        return []
    f = ref_monic(f)
    d = ref_derivative(f)
    a = ref_gcd(f, d)
    (b, _), (c, _) = ref_divmod(f, a), ref_divmod(d, a)
    out, mult = [], 1
    while b.degree >= 1:
        diff = c - ref_derivative(b)
        g = ref_gcd(b, diff)
        if g.degree >= 1:
            out.append((g, mult))
        (b, _), (c, _) = ref_divmod(b, g), ref_divmod(diff, g)
        mult += 1
    return out


def ref_roots01(f: list) -> list:
    """The roots in [0, 1] of a square-free integer polynomial, sorted: (r, r)
    for a root r met exactly, else an interval around one root whose ends are
    not roots, at most 2^-53 of its upper end wide.

    Vincent-Collins-Akritas bisection: g = 2^(kn) f((x + c) / 2^k) stands for
    (c/2^k, (c+1)/2^k), and the sign variations of (x + 1)^n g(1 / (x + 1))
    bound its roots there (Descartes): 0 means none, 1 exactly one, which
    bisection on exact signs of f at dyadic midpoints then narrows."""
    out, todo = [(Fraction(1),) * 2] * (not sum(f)), [(f, 0, 0, False)]
    while todo:
        g, c, k, at_c = todo.pop()  # at_c: c/2^k is a root already divided out
        ends = [at_c or not g[0], not sum(g)]  # whether c/2^k and (c+1)/2^k are roots
        if not g[0]:
            out.append((Fraction(c, 1 << k),) * 2)
            g = g[1:]
        v = _variations(_taylor_shift(g[::-1]))
        if v > 1:
            left = [x << (len(g) - 1 - i) for i, x in enumerate(g)]  # 2^n g(x/2)
            todo += [(_taylor_shift(left), 2 * c + 1, k + 1, False),
                     (left, 2 * c, k + 1, ends[0])]
        elif v == 1:  # f has g[0]'s sign right of lo; ends that are roots move
            lo, hi, den = c, c + 1, 1 << k
            while any(ends) or (hi - lo) << 53 > hi:
                mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
                s = _hom(f, mid, den)
                if not s:
                    out.append((Fraction(mid, den),) * 2)
                    break
                right = (s > 0) == (g[0] > 0)
                lo, hi = (mid, hi) if right else (lo, mid)
                ends[not right] = False
            else:
                out.append((Fraction(lo, den), Fraction(hi, den)))
    return sorted(out)
