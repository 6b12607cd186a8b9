"""Exact polynomial data types shared by every other module.

Representations:

* ``Poly``      -- multivariate polynomial, sparse map from exponent tuples to
                   ``Fraction``; two variables (x1, x2) unless stated otherwise.
* ``UniPoly``   -- univariate polynomial, ascending dense coefficient tuple.
* ``TrigPoly``  -- Laurent polynomial that is real-valued on the unit circle,
                   stored as cosine coefficients ``c[k]`` on z^k + z^-k plus
                   (rarely needed) sine coefficients ``s[k]`` on i(z^k - z^-k).
* ``TrigMatrix``-- symmetric matrix of TrigPoly entries; its exact determinant
                   is taken by integer evaluation, fraction-free Bareiss
                   elimination and integer Newton interpolation, in
                   u = z + 1/z when every entry is cosine-only and in
                   t = tan(theta/2) otherwise.
* ``Pencil``    -- constant symmetric matrices (F0, ..., Fn) with
                   F(x) = F0 + x1 F1 + ... + xn Fn; the Bezout and Hessian
                   routes build n = 2, pencil files may add F3 (n = 3).

Values are exact rationals (``Fraction``); floats only appear after
explicitly numeric steps such as congruence scaling or cube roots.

Exact arithmetic runs on integers: operands are cleared of denominators
once (``TrigPoly.int_halves``, back by ``TrigPoly.from_int_halves``) and
Fractions are built only for results.  Laurent products take ``laurent_mul``,
determinants and solves the one elimination kernel, the fraction-free
``_bareiss``, interpolation the integer Newton
``_newton_interpolate`` (``interpolate_exact`` for rationals; its divided
differences serve lattices too), and univariate gcds and square-free parts a
primitive pseudo-remainder sequence in Z[x] (``_pdivmod``, ``_int_gcd``).
"""
from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, PolyParseError, UnknownVariableError

Scalar = Union[int, Fraction, float]

_TEN = Fraction(10)
_ZERO = Fraction(0)


def to_exact(x: Scalar) -> Scalar:
    """Promote ints to Fraction; leave Fraction and float untouched."""
    if isinstance(x, int):
        return Fraction(x)
    return x


def format_scalar(x: Scalar) -> str:
    """Exact text form: finite decimal when possible, else p/q, floats via repr."""
    if isinstance(x, float):
        return repr(x)
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    den = x.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        shift = max(twos, fives)
        scaled = x * _TEN**shift
        digits = str(abs(scaled.numerator)).rjust(shift + 1, "0")
        sign = "-" if x < 0 else ""
        return f"{sign}{digits[:-shift]}.{digits[-shift:]}"
    return f"{x.numerator}/{x.denominator}"


def parse_scalar(text: Union[str, int, float]) -> Scalar:
    """Inverse of format_scalar; accepts ints/floats passed through JSON."""
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        return text
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    if any(ch in text for ch in ".eE") and not text.lstrip("+-").isdigit():
        return Fraction(text)
    return Fraction(int(text))


def _power(base, n: int, one):
    """base**n by square-and-multiply; ``one`` is the unit of base's ring."""
    if n < 0:
        raise ValueError("negative power")
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


# ---------------------------------------------------------------------------
# Multivariate polynomials with exact coefficients
# ---------------------------------------------------------------------------

class Poly:
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
    def zero(cls, nvars: int = 2) -> "Poly":
        return cls({}, nvars)

    @classmethod
    def constant(cls, value: Scalar, nvars: int = 2) -> "Poly":
        return cls({(0,) * nvars: value}, nvars)

    @classmethod
    def variable(cls, index: int, nvars: int = 2) -> "Poly":
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
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.coeffs.items()))))

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ----------------------------------------------------------
    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"mixed arities {self.nvars} and {other.nvars}")

    def _check_arity(self, n: int):
        if n != self.nvars:
            raise DimensionMismatchError(f"expected {self.nvars} coordinates, got {n}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, float)):
            other = Poly.constant(other, self.nvars)
        self._check(other)
        out = dict(self.coeffs)
        for expo, val in other.coeffs.items():
            out[expo] = out.get(expo, Fraction(0)) + val
        return Poly(out, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -v for e, v in self.coeffs.items()}, self.nvars)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, float)):
            other = Poly.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return Poly({e: v * other for e, v in self.coeffs.items()}, self.nvars)
        self._check(other)
        out: dict = {}
        for ea, va in self.coeffs.items():
            for eb, vb in other.coeffs.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + va * vb
        return Poly(out, self.nvars)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, Poly.constant(1, self.nvars))

    def shifted(self, *offset: Scalar) -> "Poly":
        """p(x + offset), expanded exactly by evaluating p at x_i + offset_i."""
        return Poly.zero(self.nvars) + self(*[Poly.variable(i, self.nvars) + off
                                              for i, off in enumerate(offset)])

    def partial(self, index: int) -> "Poly":
        """Exact partial derivative with respect to variable ``index``."""
        out = {}
        for expo, val in self.coeffs.items():
            if expo[index] == 0:
                continue
            e = list(expo)
            e[index] -= 1
            out[tuple(e)] = val * expo[index]
        return Poly(out, self.nvars)

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
        return f"Poly({self.to_expr()!r})"


# ---------------------------------------------------------------------------
# Expression parser
# ---------------------------------------------------------------------------
# expr   := ["-"] term (("+"|"-") term)*
# term   := factor ("*" factor)*
# factor := base ("^" uint)?
# base   := number | "x1" | "x2" | "x3" | "(" expr ")"
# number := digits ("." digits)? | digits "/" digits

_TOKEN = re.compile(r"(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*^()/])")


def _tokenize(expr: str):
    pos = 0
    n = len(expr)
    tokens = []
    while pos < n:
        if expr[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(expr, pos)
        if not m:
            raise PolyParseError(f"unexpected character {expr[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


MAX_DEGREE = 32  # largest total degree parse_poly expands; inputs today reach 12
# parse_poly keeps every |numerator| and denominator <= 2^MAX_COEFF_BITS: it
# checks each power of a constant before it expands (size times exponent) and
# the parsed result, so every literal; inputs today stay under 2^20, and far
# larger constants overflow the float stages
MAX_COEFF_BITS = 256


def _bits(values) -> int:
    return (max([max(abs(v.numerator), v.denominator) for v in values], default=1)
            - 1).bit_length()


def _check_size(off: int, degree: int, bits: int = 0) -> None:
    if degree > MAX_DEGREE:
        raise PolyParseError(f"total degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}", off)
    if bits > MAX_COEFF_BITS:
        raise PolyParseError(f"constant up to 2^{bits} exceeds MAX_COEFF_BITS = "
                             f"{MAX_COEFF_BITS}", off)


class _Parser:
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

    def parse_expr(self) -> Poly:
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

    def parse_term(self) -> Poly:
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

    def parse_factor(self) -> Poly:
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

    def parse_base(self) -> Poly:
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
            return Poly.constant(numer, self.nvars)
        if kind == "name":
            m = re.fullmatch(r"x([123])", val)
            if not m:
                raise UnknownVariableError(f"unknown variable {val!r}", off)
            index = int(m.group(1)) - 1
            if index >= self.nvars:
                raise UnknownVariableError(
                    f"variable {val!r} exceeds arity {self.nvars}", off)
            return Poly.variable(index, self.nvars)
        if kind == "op" and val == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise PolyParseError(f"unexpected token {val!r}" if val else "unexpected end", off)


def parse_poly(expr: str, nvars: int | None = None) -> Poly:
    """Parse an expression in x1, x2 (and x3) into a fully expanded Poly.

    With ``nvars=None`` the arity is 2 unless x3 occurs in the expression.
    """
    if nvars is None:
        nvars = 3 if re.search(r"\bx3\b", expr) else 2
    parser = _Parser(expr, nvars)
    poly = parser.parse_expr()
    kind, val, off = parser.peek()
    if kind != "end":
        raise PolyParseError(f"trailing input {val!r}", off)
    _check_size(0, 0, _bits(poly.coeffs.values()))
    return poly


# ---------------------------------------------------------------------------
# Univariate polynomials
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial, coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [to_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, float)):
            other = UniPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, float)):
            other = UniPoly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return UniPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, UniPoly([1]))

    def __call__(self, x: Scalar):
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def derivative(self) -> "UniPoly":
        return UniPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return UniPoly([c / lead for c in self.coeffs])

    def divmod(self, other: "UniPoly"):
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.coeffs[-1]
        while len(rem) >= len(other.coeffs) and rem:
            f = rem[-1] / dlead
            shift = len(rem) - len(other.coeffs)
            quo[shift] = f
            for k, c in enumerate(other.coeffs):
                rem[shift + k] -= f * c
            while rem and rem[-1] == 0:
                rem.pop()
        return UniPoly(quo), UniPoly(rem)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Exact monic gcd by a primitive PRS in Z[x] (rational coefficients)."""
        return UniPoly(_int_gcd(_primitive(self.coeffs), _primitive(other.coeffs))).monic()

    def squarefree_decomposition(self) -> list[tuple["UniPoly", int]]:
        """Yun's algorithm over Z[x]: list of (monic squarefree factor,
        multiplicity).  b and c are always divided by the same primitive
        gcd, so every quotient is exact and c - b' is Yun's remainder."""
        if self.degree < 1:
            return []
        f = _primitive(self.coeffs)
        d = [k * x for k, x in enumerate(f)][1:]
        a = _int_gcd(f, d)
        (b, _), (c, _) = _pdivmod(f, a), _pdivmod(d, a)
        out, mult = [], 1
        while len(b) > 1:
            db = [k * x for k, x in enumerate(b)][1:]
            diff = [x - y for x, y in itertools.zip_longest(c, db, fillvalue=0)]
            while diff and diff[-1] == 0:
                diff.pop()
            g = _int_gcd(b, diff)
            if len(g) > 1:
                out.append((UniPoly(g).monic(), mult))
            (b, _), (c, _) = _pdivmod(b, g), _pdivmod(diff, g)
            mult += 1
        return out

    def roots(self) -> np.ndarray:
        """All complex roots via the companion-matrix eigenvalues."""
        if self.degree < 1:
            return np.array([], dtype=complex)
        return np.roots([float(c) for c in reversed(self.coeffs)])

    def real_roots(self) -> list[float]:
        rts = self.roots()
        scale = np.maximum(1.0, np.abs(rts))
        return sorted(float(r.real) for r, s in zip(rts, scale)
                      if abs(r.imag) < 1e-8 * s)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            mag = format_scalar(abs(c))
            if k == 0:
                body = mag
            else:
                var = "u" if k == 1 else f"u^{k}"
                body = var if abs(c) == 1 else f"{mag}*{var}"
            parts.append(("-" if c < 0 else "+") + body)
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# Trigonometric (Laurent-on-the-circle) polynomials
# ---------------------------------------------------------------------------

class TrigPoly:
    """Real-on-the-circle Laurent polynomial.

    Value at z = e^{i theta}:

        c[0] + sum_k 2*c[k]*cos(k theta) - sum_k 2*s[k]*sin(k theta)

    where ``c[k]`` multiplies z^k + z^-k and ``s[k]`` multiplies i(z^k - z^-k).
    The sine part is zero for every polynomial even in x2; it only appears for
    line substitutions of polynomials with odd x2-terms.
    """

    __slots__ = ("c", "s")

    def __init__(self, c: Iterable[Scalar] = (), s: Iterable[Scalar] = ()):
        cs = [to_exact(x) for x in c]
        ss = [to_exact(x) for x in s]
        while cs and cs[-1] == 0:
            cs.pop()
        while ss and ss[-1] == 0:
            ss.pop()
        if ss and ss[0] != 0:
            raise ValueError("sine coefficient s[0] must be zero")
        self.c = tuple(cs)
        self.s = tuple(ss)

    # -- queries ----------------------------------------------------------------
    @property
    def half_degree(self) -> int:
        return max(len(self.c), len(self.s)) - 1 if (self.c or self.s) else 0

    def is_zero(self) -> bool:
        return not self.c and not self.s

    def is_cosine(self) -> bool:
        return not self.s

    def cos_coeff(self, k: int):
        return self.c[k] if 0 <= k < len(self.c) else Fraction(0)

    def sin_coeff(self, k: int):
        return self.s[k] if 0 <= k < len(self.s) else Fraction(0)

    def max_abs_coeff(self) -> float:
        vals = [abs(float(x)) for x in self.c] + [abs(float(x)) for x in self.s]
        return max(vals, default=0.0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float)):
            other = TrigPoly([other])
        return isinstance(other, TrigPoly) and self.c == other.c and self.s == other.s

    def __hash__(self):
        return hash((self.c, self.s))

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction, float)):
            other = TrigPoly([other])
        n = max(len(self.c), len(other.c))
        m = max(len(self.s), len(other.s))
        return TrigPoly([self.cos_coeff(k) + other.cos_coeff(k) for k in range(n)],
                        [self.sin_coeff(k) + other.sin_coeff(k) for k in range(m)])

    __radd__ = __add__

    def __neg__(self):
        return TrigPoly([-x for x in self.c], [-x for x in self.s])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, float)):
            other = TrigPoly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return TrigPoly([x * other for x in self.c], [x * other for x in self.s])
        return TrigPoly(*laurent_mul(*self._halves(), *other._halves()))

    def _halves(self) -> tuple[list, list]:
        """Real and imaginary parts of the coefficients of z^0 .. z^h, h the
        half-degree; the imaginary part is empty when the sine part is."""
        n = self.half_degree + 1
        re = list(self.c) + [0] * (n - len(self.c))
        return re, (list(self.s) + [0] * (n - len(self.s)) if self.s else [])

    def int_halves(self) -> tuple[list, list, int]:
        """(re, im, den): the halves (``_halves``) times den, the lcm of their
        denominators, as integers; floats are read exactly."""
        re, im = [[Fraction(x) if isinstance(x, float) else x for x in h] for h in self._halves()]
        den = math.lcm(*[x.denominator for x in re + im])
        ints = [x.numerator * (den // x.denominator) for x in re + im]
        return ints[:len(re)], ints[len(re):], den

    @classmethod
    def from_int_halves(cls, re: Sequence[int], im: Sequence[int], den: int = 1) -> "TrigPoly":
        """The TrigPoly with halves re / den and im / den; inverts ``int_halves``."""
        return cls([Fraction(x, den) for x in re], [Fraction(x, den) for x in im])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, TrigPoly([1]))

    # -- evaluation ------------------------------------------------------------------
    def eval_theta(self, theta: float) -> float:
        """Value at z = e^{i theta} (always real)."""
        ks = np.arange(1, max(len(self.c), len(self.s)))
        total = float(self.c[0]) if self.c else 0.0
        if len(self.c) > 1:
            cs = np.array([float(x) for x in self.c[1:]])
            total += 2.0 * float(cs @ np.cos(ks[: len(cs)] * theta))
        if len(self.s) > 1:
            ss = np.array([float(x) for x in self.s[1:]])
            total -= 2.0 * float(ss @ np.sin(ks[: len(ss)] * theta))
        return total

    def laurent_coeffs(self) -> np.ndarray:
        """Complex coefficients [l_-d, ..., l_0, ..., l_d]."""
        re, im = self._halves()
        im = im or [0] * len(re)
        return np.array([complex(float(x), float(y)) for x, y in
                         zip(re[:0:-1] + re, [-y for y in im[:0:-1]] + im)])

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.c and self.c[0] != 0:
            parts.append(("-" if self.c[0] < 0 else "+") + format_scalar(abs(self.c[0])))
        for coeffs, form in ((self.c, "(z^{k}+z^-{k})"), (self.s, "i*(z^{k}-z^-{k})")):
            for k, x in enumerate(coeffs[1:], 1):
                if x != 0:
                    coef = "" if abs(x) == 1 else f"{format_scalar(abs(x))}*"
                    parts.append(("-" if x < 0 else "+") + coef + form.format(k=k))
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text

    def __repr__(self):
        return f"TrigPoly({list(self.c)!r}, {list(self.s)!r})"


# ---------------------------------------------------------------------------
# Exact elimination and interpolation
# ---------------------------------------------------------------------------

def _bareiss(mat) -> int:
    """Fraction-free (Bareiss) elimination, in place, of an integer matrix with
    n rows and at least n columns; each division by the previous pivot is exact.
    Returns the determinant of the leading n x n block, 0 when it is singular;
    otherwise mat[i][j], j >= i, is now an upper-triangular equivalent system.
    """
    n = len(mat)
    if n == 0:
        return 1
    width = len(mat[0])
    sign, prev = 1, 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            piv = [r for r in range(k + 1, n) if mat[r][k] != 0]
            if not piv:
                return 0
            mat[k], mat[piv[0]] = mat[piv[0]], mat[k]
            sign = -sign
        pk, rowk = mat[k][k], mat[k]
        for rowi in mat[k + 1:]:
            f = rowi[k]
            for j in range(k + 1, width):
                rowi[j] = (pk * rowi[j] - f * rowk[j]) // prev
        prev = pk
    return sign * mat[n - 1][n - 1]


def _clear_rows(rows):
    """(mat, scale): each row times the lcm of its denominators, as integers,
    and the product of those lcms."""
    mat, scale = [], 1
    for row in rows:
        den = math.lcm(*[x.denominator for x in row])
        mat.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    return mat, scale


def det_exact(rows) -> Fraction:
    """Determinant of a square rational matrix: rows cleared to integers, one
    Bareiss elimination, then division by the clearing factors."""
    mat, scale = _clear_rows(rows)
    return Fraction(_bareiss(mat), scale)


def solve_exact(rows, rhs) -> list:
    """Solve A x = b exactly; A must be square nonsingular over the rationals.
    Bareiss elimination of the cleared augmented matrix, then back substitution
    for y = det * x, which Cramer's rule makes integral."""
    mat, _ = _clear_rows([list(r) + [b] for r, b in zip(rows, rhs)])
    n = len(mat)
    det = _bareiss(mat)
    if det == 0:
        raise ZeroDivisionError("singular system")
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = mat[i]
        rest = sum([row[j] * y[j] for j in range(i + 1, n)])
        y[i] = (det * row[n] - rest) // row[i]
    return [Fraction(v, det) for v in y]


def laurent_mul(ra, ia, rb, ib) -> tuple[list, list]:
    """Product of two Laurent polynomials with l_-k = conj(l_k), each given by
    the real and imaginary parts of its l_0 .. l_h (an imaginary part may be
    shorter, missing entries are zero, and is empty when that factor is real).
    Returns the same halves of the product, the imaginary part empty when both
    factors are real.

    Entries may be ints, Fractions or floats: every coefficient sums its terms
    in the same order whatever their type, so integer operands give exact
    integers and float operands the same floats in every caller.
    """
    if not ra or not rb:
        return [], []
    da, db = len(ra) - 1, len(rb) - 1
    d = da + db
    fa, fb = ra[:0:-1] + ra, rb[:0:-1] + rb
    re = [0] * (d + 1)
    if not (ia or ib):
        for a, x in enumerate(fa):
            if x:
                lo = max(0, d - a)
                for k, y in enumerate(fb[lo:], a + lo - d):
                    if y:
                        re[k] += x * y
        return re, []
    ia = list(ia) + [0] * (da + 1 - len(ia))
    ib = list(ib) + [0] * (db + 1 - len(ib))
    ga, gb = [-x for x in ia[:0:-1]] + ia, [-x for x in ib[:0:-1]] + ib
    im = [0] * (d + 1)
    for a, (x, y) in enumerate(zip(fa, ga)):
        if x or y:
            for b in range(max(0, d - a), 2 * db + 1):
                u, v = fb[b], gb[b]
                if u or v:
                    re[a + b - d] += x * u - y * v
                    im[a + b - d] += x * v + y * u
    im[0] = 0  # z^0's coefficient is real; float sums can leave a residue
    return re, im


def _cos_to_u(c: list) -> list:
    """Ascending coefficients in u = z + 1/z of c[0] + sum c[k] (z^k + z^-k),
    by z^k + z^-k = D_k(u): D_1 = u, D_2 = u^2 - 2, D_k = u D_(k-1) - D_(k-2)
    (Dickson polynomials, integer coefficients)."""
    out = list(c[:1]) + [0] * (len(c) - 1)
    prev, cur = [2], [0, 1]
    for ck in c[1:]:
        for i, x in enumerate(cur):
            out[i] += ck * x
        nxt = [0] + cur
        for i, x in enumerate(prev):
            nxt[i] -= x
        prev, cur = cur, nxt
    return out


def _u_to_cos(coeffs: list) -> list:
    """Cosine coefficients (as in ``TrigPoly``) of sum coeffs[k] u^k,
    u = z + 1/z, by u^k = sum_j C(k, j) z^(k-2j)."""
    cos = [0] * len(coeffs)
    for k, x in enumerate(coeffs):
        if x:
            for j in range(k // 2 + 1):
                cos[k - 2 * j] += x * math.comb(k, j)
    return cos


def _horner(coeffs, x: int) -> int:
    acc = 0
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def _halves_to_t(re: list, im: list, table: list) -> list:
    """Ascending integer coefficients in t = tan(theta/2) of (1+t^2)^h e, e of
    half-degree h given by integer halves.  z^k = (1+it)^(2k) / (1+t^2)^k, so
    (1+t^2)^h e = c_0 (1+t^2)^h + sum 2 Re((c_k + i s_k)(1+it)^(2k)) (1+t^2)^(h-k),
    summed by Horner in 1+t^2.  ``table[k][j]`` is C(2k, j) (-1)^(j//2), k <= h:
    the real part of (1+it)^(2k) at even j, the imaginary part at odd j."""
    out = [re[0]]
    for k in range(1, len(re)):
        out += [0, 0]
        for j in range(len(out) - 1, 1, -1):  # out *= 1 + t^2
            out[j] += out[j - 2]
        ck, sk = 2 * re[k], -2 * im[k] if im else 0
        if ck or sk:
            for j, x in enumerate(table[k]):
                out[j] += (sk if j & 1 else ck) * x
    return out


def _taylor_shift(coeffs) -> list:
    """Ascending coefficients of p(x + 1), by n(n+1)/2 additions."""
    a = list(coeffs)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _t_to_halves(coeffs: list) -> tuple[list, list]:
    """Integer halves of l, sum l_k z^k over |k| <= n, from the 2n+1 ascending
    coefficients of D(t) = (1+t^2)^n l: t = -i(z-1)/(z+1) gives
    (z+1)^(2n) D(t) = 4^n sum l_k z^(n+k).  (-i)^j is (-1)^ceil(j/2), times i
    for odd j, so even j make Re l and odd j Im l, each by
    (z+1)^N P((z-1)/(z+1)) = V^N G(-2/V), G(x) = P(1+x), V = z + 1."""
    n = (len(coeffs) - 1) // 2
    halves = []
    for odd in (0, 1):
        part = [x * (-1) ** ((j + 1) // 2) if j & 1 == odd else 0
                for j, x in enumerate(coeffs)]
        g = _taylor_shift(part)
        full = _taylor_shift([x * (-2) ** j for j, x in enumerate(g)][::-1])
        halves.append([x >> 2 * n for x in full[n:]])  # / 4^n, exact
    return halves[0], halves[1]


def _divided_differences(values) -> list:
    """Divided differences f[x0], f[x0, x0+1], ... of the values of an
    integer polynomial at consecutive integers: all integers, so each
    division below is exact."""
    dd = list(values)
    n = len(dd) - 1
    for k in range(1, n + 1):
        for j in range(n, k - 1, -1):
            dd[j] = (dd[j] - dd[j - 1]) // k
    return dd


def _newton_to_monomial(dd, x0: int = 0) -> list:
    """Ascending coefficients of sum_k dd[k] (x - x0) ... (x - x0 - k + 1)."""
    n = len(dd) - 1
    coeffs = [dd[n]]
    for k in range(n - 1, -1, -1):  # coeffs <- coeffs * (x - x_k) + dd[k]
        xk = x0 + k
        nxt = [0] * (len(coeffs) + 1)
        nxt[0] = dd[k] - xk * coeffs[0]
        for i in range(1, len(coeffs)):
            nxt[i] = coeffs[i - 1] - xk * coeffs[i]
        nxt[-1] = coeffs[-1]
        coeffs = nxt
    return coeffs


def _newton_interpolate(values, x0: int) -> list:
    """Ascending integer coefficients of the integer polynomial of degree
    < len(values) that takes ``values`` at x0, x0+1, ...."""
    return _newton_to_monomial(_divided_differences(values), x0)


def _primitive(coeffs) -> list:
    """Primitive part in Z[x], leading coefficient > 0, of ascending rational
    coefficients."""
    den = math.lcm(*[c.denominator for c in coeffs])
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = (math.gcd(*ints) or 1) * (-1 if ints and ints[-1] < 0 else 1)
    return [x // g for x in ints]


def _pdivmod(a: list, b: list) -> tuple[list, list]:
    """Pseudo-division in Z[x] of ascending integer lists, b nonzero.  Each
    step multiplies the running remainder by lc(b)/g, g = gcd(lc(b), lc(r)),
    so r is a constant multiple of a mod b.  When b is primitive with
    lc(b) > 0 and divides a, no step scales (a / b is then in Z[x], as
    primitive polynomials have primitive products) and q = a / b."""
    r, n, q = list(a), len(b) - 1, []
    while len(r) > n:
        g = math.gcd(b[-1], r[-1])
        p, c = b[-1] // g, r.pop() // g
        if p != 1:
            r = [p * x for x in r]
        q.append(c)
        if c:
            for k in range(n):
                r[len(r) - n + k] -= c * b[k]
    while r and r[-1] == 0:
        r.pop()
    return q[::-1], r


def _int_gcd(a: list, b: list) -> list:
    """Primitive gcd in Z[x], leading coefficient > 0, of ascending integer
    lists ([] is zero), by the primitive pseudo-remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[1])
    return _primitive(a)


def interpolate_exact(values, x0: int) -> list:
    """Ascending Fraction coefficients of the polynomial P of degree
    < len(values) that takes the rational ``values`` at x0, x0+1, ....  With L
    the lcm of their denominators, L P is integer-valued at n+1 consecutive
    integers, so n! L P has integer coefficients."""
    scale = math.lcm(*[v.denominator for v in values]) * math.factorial(len(values) - 1)
    ints = [v.numerator * (scale // v.denominator) for v in values]
    return [Fraction(c, scale) for c in _newton_interpolate(ints, x0)]


# ---------------------------------------------------------------------------
# Symmetric matrices of TrigPoly
# ---------------------------------------------------------------------------

class TrigMatrix:
    """Symmetric m x m matrix with TrigPoly entries (real symmetric on |z|=1)."""

    __slots__ = ("m", "entries")

    def __init__(self, entries: Sequence[Sequence[TrigPoly]]):
        m = len(entries)
        rows = []
        for i in range(m):
            if len(entries[i]) != m:
                raise DimensionMismatchError("entries must form a square matrix")
            rows.append(tuple(entries[i]))
        for i in range(m):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise DimensionMismatchError(f"entry ({i},{j}) breaks symmetry")
        self.m = m
        self.entries = tuple(rows)

    @classmethod
    def from_hankel(cls, sums: Sequence[TrigPoly], m: int) -> "TrigMatrix":
        """Hankel matrix with entry (i, j) = sums[i + j]."""
        if len(sums) < 2 * m - 1:
            raise DimensionMismatchError("need 2m-1 Hankel generators")
        return cls([[sums[i + j] for j in range(m)] for i in range(m)])

    @property
    def d(self) -> int:
        """Max half-degree over the entries."""
        return max((e.half_degree for row in self.entries for e in row), default=0)

    def entry(self, i: int, j: int) -> TrigPoly:
        return self.entries[i][j]

    def is_cosine(self) -> bool:
        return all(e.is_cosine() for row in self.entries for e in row)

    def _distinct(self) -> tuple[list, list]:
        """(entries, index): the distinct entries by identity, in row-major
        order of first occurrence, and the m x m matrix of their places in
        that list; a Hankel matrix repeats 2m-1 objects over its m^2 places."""
        slot: dict = {}
        index = [[slot.setdefault(id(e), len(slot)) for e in row] for row in self.entries]
        return list({id(e): e for row in self.entries for e in row}.values()), index

    def max_abs_coeff(self) -> float:
        return max((e.max_abs_coeff() for e in self._distinct()[0]), default=0.0)

    def eval_thetas(self, thetas) -> np.ndarray:
        """H(e^{i theta}) at every angle, shape (N, m, m): the cosine and sine
        coefficients become (d+1, m, m) float blocks once, and one product with
        the cos(k theta) and sin(k theta) tables gives, entrywise,
        c0 + 2 sum c_k cos(k theta) - 2 sum s_k sin(k theta)."""
        m, d = self.m, self.d
        blocks = np.zeros((2, d + 1, m, m))
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                blocks[0, :len(e.c), i, j] = [float(x) for x in e.c]
                blocks[1, :len(e.s), i, j] = [float(x) for x in e.s]
        blocks[:, 1:] *= 2.0
        kt = np.multiply.outer(np.asarray(thetas, dtype=float), np.arange(d + 1))
        table = np.concatenate([np.cos(kt), -np.sin(kt)], axis=1)
        return (table @ blocks.reshape(2 * (d + 1), m * m)).reshape(-1, m, m)

    def eval_theta(self, theta: float) -> np.ndarray:
        return self.eval_thetas([theta])[0]

    def cos_block_exact(self, k: int) -> list:
        return [[e.cos_coeff(k) for e in row] for row in self.entries]

    def congruence(self, w: np.ndarray) -> "TrigMatrix":
        """W H W^T for a constant real matrix W (float coefficients)."""
        m = self.m
        if w.shape != (m, m):
            raise DimensionMismatchError("congruence matrix has wrong shape")
        out = [[TrigPoly() for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                acc = TrigPoly()
                for a in range(m):
                    wia = float(w[i, a])
                    if wia == 0.0:
                        continue
                    for b in range(m):
                        wjb = float(w[j, b])
                        if wjb == 0.0:
                            continue
                        acc = acc + self.entries[a][b] * (wia * wjb)
                out[i][j] = out[j][i] = acc
        return TrigMatrix(out)

    def det(self) -> TrigPoly:
        """Exact determinant in the TrigPoly ring, by evaluation and interpolation.

        Each distinct entry is cleared to integers once (``int_halves``).  Row
        i and column j are scaled by r_i and c_j, c_j the gcd of the
        denominators in column j and r_i the lcm of those left in row i, so
        every entry becomes integral.  With b_j the least half-degree in column
        j and a_i the largest excess over it in row i, det H has half-degree at
        most n = sum(a) + sum(b) <= m*d; a Hermite matrix, entry (i, j) of
        half-degree at most i + j, usually gets n = m(m-1).

        Every entry becomes a real integer polynomial: in u = z + 1/z when H is
        cosine-only (``_cos_to_u``), so D(u) = prod(r_i c_j) det H has degree
        <= n; otherwise in t = tan(theta/2), as (1+t^2)^(a_i+b_j) e
        (``_halves_to_t``), so D(t) = prod(r_i c_j) (1+t^2)^n det H has degree
        <= 2n, its real roots the circle roots but theta = pi, where D loses
        degree.  D is evaluated at n+1 or 2n+1 consecutive integers around 0
        (Horner per polynomial, one ``_bareiss`` per point), recovered by
        integer Newton interpolation and mapped back (``_u_to_cos``,
        ``_t_to_halves``); the only Fractions built are the final coefficients.
        """
        m = self.m
        distinct, index = self._distinct()
        parts = [e.int_halves() for e in distinct]
        den = [p[2] for p in parts]
        half = [e.half_degree for e in distinct]
        cols = [[row[j] for row in index] for j in range(m)]
        # lists, not generator expressions, here and in int_halves: with
        # generators the process's peak RSS grew with every call on CPython 3.11
        b = [min([half[k] for k in col]) for col in cols]
        c = [math.gcd(*[den[k] for k in col]) for col in cols]
        a = [max([half[k] - b[j] for j, k in enumerate(row)]) for row in index]
        r = [math.lcm(*[den[k] // c[j] for j, k in enumerate(row)]) for row in index]
        n = sum(a) + sum(b)
        scale = math.prod(r) * math.prod(c)

        # M_ij(x) = factor * P(x), one P per distinct (entry k, padding s):
        # den_k e_k in u, or den_k (1+t^2)^(a_i+b_j) e_k in t, where
        # s = a_i + b_j - h_k zero halves appended to e_k's raise h_k to a_i + b_j
        cosine = self.is_cosine()
        key: dict = {}
        plan = [[(r[i] * c[j] // den[k],
                  key.setdefault((k, 0 if cosine else a[i] + b[j] - half[k]), len(key)))
                 for j, k in enumerate(row)] for i, row in enumerate(index)]
        if cosine:
            polys, count = [_cos_to_u(parts[k][0]) for k, _ in key], n + 1
        else:
            table = [[math.comb(2 * k, j) * (-1) ** (j // 2) for j in range(2 * k + 1)]
                     for k in range(max(half) + 1)]
            polys = [_halves_to_t(parts[k][0] + [0] * s, parts[k][1] and parts[k][1] + [0] * s,
                                  table) for k, s in key]
            count = 2 * n + 1
        lo = -((count - 1) // 2)
        vals = []
        for x in range(lo, lo + count):
            at = [_horner(p, x) for p in polys]
            vals.append(_bareiss([[f * at[q] for f, q in row] for row in plan]))
        coeffs = _newton_interpolate(vals, lo)
        if cosine:
            return TrigPoly.from_int_halves(_u_to_cos(coeffs), [], scale)
        return TrigPoly.from_int_halves(*_t_to_halves(coeffs), scale)

    def __eq__(self, other):
        return (isinstance(other, TrigMatrix) and self.m == other.m
                and self.entries == other.entries)

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]"
                         for row in self.entries)


# ---------------------------------------------------------------------------
# Symmetric linear pencils
# ---------------------------------------------------------------------------

def _as_matrix(rows, m: int):
    out = []
    for row in rows:
        if len(row) != m:
            raise DimensionMismatchError("pencil matrix is not square")
        out.append(tuple(to_exact(x) for x in row))
    if len(out) != m:
        raise DimensionMismatchError("pencil matrix is not square")
    for i in range(m):
        for j in range(i):
            if not _num_eq(out[i][j], out[j][i]):
                raise DimensionMismatchError(f"pencil matrix not symmetric at ({i},{j})")
    return tuple(out)


def _num_eq(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return float(a) == float(b)
    return a == b


@dataclass(frozen=True)
class Pencil:
    """F(x) = F0 + x1 F1 + ... + xn Fn, all matrices symmetric of size m.

    ``mats`` is (F0, ..., Fn), so the pencil has n = len(mats) - 1 variables.
    ``c`` optionally records the proportionality det F(x) = c * p(x) once a
    determinant check has been run.
    """

    m: int
    mats: tuple
    c: Scalar | None = None

    @classmethod
    def from_rows(cls, *mats, c=None) -> "Pencil":
        m = len(mats[0])
        return cls(m, tuple(_as_matrix(F, m) for F in mats), c)

    @property
    def nvars(self) -> int:
        return len(self.mats) - 1

    def is_exact(self) -> bool:
        return all(not isinstance(x, float) for mat in self.mats for row in mat for x in row)

    def with_scale(self, c: Scalar) -> "Pencil":
        return Pencil(self.m, self.mats, c)

    def scaled(self, s: Scalar) -> "Pencil":
        return Pencil(self.m, tuple(tuple(tuple(x * s for x in row) for row in mat)
                                    for mat in self.mats), self.c)

    def eval(self, *x: Scalar) -> np.ndarray:
        """Float matrix F(x)."""
        if len(x) != self.nvars:
            raise DimensionMismatchError(
                f"expected {self.nvars} coordinates, got {len(x)}")
        out = np.array([[float(v) for v in row] for row in self.mats[0]])
        for xi, mat in zip(x, self.mats[1:]):
            out += float(xi) * np.array([[float(v) for v in row] for row in mat])
        return out

    # -- JSON ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        # exact entries become strings; floats stay JSON numbers so a reload
        # does not silently promote an approximate pencil to the exact path
        def enc1(x):
            return x if isinstance(x, float) else format_scalar(x)

        def enc(mat):
            return [[enc1(x) for x in row] for row in mat]
        out = {"m": self.m, "c": None if self.c is None else enc1(self.c)}
        for k, mat in enumerate(self.mats):
            out[f"F{k}"] = enc(mat)
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Pencil":
        def dec(rows):
            return [[parse_scalar(x) for x in row] for row in rows]
        # F0, F1 and F2 are required, F3 (a third variable) is optional
        keys = ("F0", "F1", "F2", "F3") if "F3" in data else ("F0", "F1", "F2")
        mats = [dec(data[k]) for k in keys]
        if data.get("m", len(mats[0])) != len(mats[0]):
            raise DimensionMismatchError(f"pencil declares m = {data['m']}, F0 is "
                                         f"{len(mats[0])}x{len(mats[0])}")
        c = data.get("c")
        return cls.from_rows(*mats, c=parse_scalar(c) if c is not None else None)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "Pencil":
        return cls.from_json_dict(json.loads(text))
