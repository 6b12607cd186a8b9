"""Exact polynomial data types shared by every other module.

Representations:

* ``Poly``      -- multivariate polynomial, a sparse map from exponent tuples
                   to integers over one positive denominator, in lowest terms;
                   two variables (x1, x2) unless stated otherwise.
* ``UniPoly``   -- univariate polynomial, ascending dense coefficient tuple.
* ``TrigPoly``  -- Laurent polynomial that is real-valued on the unit circle:
                   cosine (on z^k + z^-k) and sine (on i(z^k - z^-k)) integer
                   coefficients over one positive denominator, in lowest terms.
* ``TrigMatrix``-- symmetric matrix of TrigPoly entries; its exact determinant
                   is taken by integer evaluation, fraction-free Bareiss
                   elimination and integer Newton interpolation, in
                   T = tan(theta/f), f = 1 when H is graded (as every
                   Hermite matrix is) and f = 2 otherwise, or in W = T^2
                   when every entry is cosine-only.
* ``Pencil``    -- constant symmetric matrices (F0, ..., Fn) with
                   F(x) = F0 + x1 F1 + ... + xn Fn; the Bezout and Hessian
                   routes build n = 2, pencil files may add F3 (n = 3).

Values are exact rationals; floats only appear after explicitly numeric
steps such as cube roots, and in pencil files.

Exact arithmetic runs on integers: ``Poly`` from ``parse_poly`` on and
``TrigPoly`` from the line substitution to the circle verdict keep integer
numerators over one denominator, other operands are cleared of denominators
once, and Fractions are built only as views of results.
Each job has one kernel.  Laurent products take ``laurent_mul``; the
polynomial in T = tan(theta/f) of a TrigPoly ``TrigPoly.int_poly``, and the
integer image of a TrigMatrix, in T or W = T^2, ``TrigMatrix._image``, which
``TrigMatrix.det`` interpolates and ``_image_sign`` evaluates (as it does
``hermite.hermite_image``'s);
determinants, solves and bordered minors the fraction-free ``_bareiss``;
every univariate determinant or bordered minor (``TrigMatrix.det``, ``locate``'s
subresultants, ``bezout.signature_exact``) the loop ``_interpolate_minors``:
integer evaluation, ``_bareiss``, the integer Newton ``_newton_interpolate``;
the 3 x 3 ones of ``cubicrepr`` a column expansion (``cubicrepr._det_form``).
Univariate jobs run on ascending integer lists: ``_primitive`` clears
rationals, ``_pdivmod`` pseudo-divides, ``_int_gcd`` takes gcds (1 proved
modulo 2^31 - 1, else a primitive pseudo-remainder sequence) and
``_squarefree_factors`` is Yun's algorithm; ``_variations``,
``_taylor_shift`` and ``_hom`` serve the real-root kernel in ``realroots``.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import operator
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
    return Fraction(x) if isinstance(x, int) else x


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


# a decimal literal's exponent, read before it is expanded; the mantissa is in
# Fraction's grammar, so a malformed literal such as 1e9e9 is never expanded
_EXPONENT = re.compile(r"\s*([-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?)"
                       r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_scalar(text: Union[str, int, float]) -> Scalar:
    """Inverse of format_scalar; accepts ints/floats passed through JSON.  Like
    a polynomial literal, the value must be within MAX_COEFF_BITS: a float by
    its magnitude (and finite), whatever its binary denominator; a literal
    whose exponent alone rules it out is refused before it is expanded."""
    if isinstance(text, float):
        if not math.isfinite(text):
            raise ValueError(f"non-finite number {text!r}")
        _check_size(0, 0, _bits([int(text)]))
        return text
    if isinstance(text, int):
        value = Fraction(text)
    elif "/" in text:
        parts = text.split("/")
        if len(parts) != 2 or not all(x.strip() for x in parts):
            raise ValueError(f"malformed rational literal {text!r}")
        num, den = map(int, parts)
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        value = Fraction(num, den)
    else:
        m = _EXPONENT.match(text)
        # M 10^k with M != 0 of at most len(text) digits has |M 10^k| or its
        # denominator past 10^(|k| - len(text)) > 2^MAX_COEFF_BITS
        if m and abs(int(m.group(2))) > len(text) + MAX_COEFF_BITS:
            if Fraction(m.group(1)):
                raise PolyParseError(f"literal {text.strip()!r} exceeds MAX_COEFF_BITS = "
                                     f"{MAX_COEFF_BITS}", 0)
            return Fraction(0)
        value = Fraction(text.strip())
    _check_size(0, 0, _bits([value.numerator], value.denominator))
    return value


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


def _mul_ints(a: dict, b: dict) -> dict:
    """Product of {exponent: int} maps, keys in order of first occurrence."""
    out: dict = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            key = tuple(map(operator.add, ea, eb))
            out[key] = out.get(key, 0) + va * vb
    if len(a) > 1 and len(b) > 1:  # else no two products meet
        return {e: v for e, v in out.items() if v}
    return out


def _add_ints(a: dict, b: dict, f: int) -> None:
    """a += f * b in place; new keys go last, zero sums leave."""
    for e, v in b.items():
        s = a.get(e, 0) + f * v
        if s:
            a[e] = s
        else:
            a.pop(e, None)


# ---------------------------------------------------------------------------
# Multivariate polynomials with exact coefficients
# ---------------------------------------------------------------------------

class Poly:
    """Sparse exact polynomial in ``nvars`` variables, sum ints[e] x^e / den.

    ``ints`` maps exponent tuples to nonzero integers over one positive
    ``den``, in lowest terms, so equal polynomials have equal fields; zero is
    {} over 1, of degree -1.  Arithmetic, ``shifted``, ``partial`` and
    evaluation run on the integers and build results unchecked (``_make``);
    only ``coeff``, the read-only ``coeffs`` view and ``to_expr`` make Fractions.
    """

    __slots__ = ("nvars", "ints", "den")

    def __init__(self, coeffs: Mapping[tuple, Scalar] | None = None, nvars: int = 2):
        """From a map of exponent tuples to ints and Fractions."""
        clean = {}
        for expo, val in (coeffs or {}).items():
            if not isinstance(val, (int, Fraction)):
                raise TypeError(f"coefficient {val!r} is not rational")
            if val == 0:
                continue
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars:
                raise DimensionMismatchError(
                    f"exponent {expo} has arity {len(expo)}, expected {nvars}")
            clean[expo] = val
        # the lcm of reduced denominators leaves no common factor
        den = math.lcm(*[v.denominator for v in clean.values()])
        self.nvars = nvars
        self.ints = {e: v.numerator * (den // v.denominator) for e, v in clean.items()}
        self.den = den

    @classmethod
    def _make(cls, ints: dict, den: int, nvars: int) -> "Poly":
        """The polynomial ints / den, no value zero, brought to lowest terms."""
        g = math.gcd(den, *ints.values()) if den != 1 else 1
        out = object.__new__(cls)
        out.nvars, out.ints, out.den = nvars, ints, den
        if g != 1:
            out.ints, out.den = {e: v // g for e, v in ints.items()}, den // g
        return out

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
        return max(map(sum, self.ints), default=-1)

    def is_zero(self) -> bool:
        return not self.ints

    @property
    def coeffs(self) -> dict:
        """The coefficients as Fractions, a fresh map in the order of ``ints``."""
        return {e: Fraction(v, self.den) for e, v in self.ints.items()}

    def coeff(self, expo: tuple) -> Fraction:
        expo = tuple(expo)
        self._check_arity(len(expo))
        v = self.ints.get(expo)
        return _ZERO if v is None else Fraction(v, self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.den == other.den and self.ints == other.ints)

    def __hash__(self):
        return hash((self.nvars, self.den, tuple(sorted(self.ints.items()))))

    def __bool__(self):
        return bool(self.ints)

    # -- arithmetic ----------------------------------------------------------
    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"mixed arities {self.nvars} and {other.nvars}")

    def _check_arity(self, n: int):
        if n != self.nvars:
            raise DimensionMismatchError(f"expected {self.nvars} coordinates, got {n}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.nvars)
        self._check(other)
        den = math.lcm(self.den, other.den)
        f = den // self.den
        out = {e: v * f for e, v in self.ints.items()} if f != 1 else dict(self.ints)
        _add_ints(out, other.ints, den // other.den)
        return Poly._make(out, den, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make({e: -v for e, v in self.ints.items()}, self.den, self.nvars)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.nvars)
        self._check(other)
        return Poly._make(_mul_ints(self.ints, other.ints), self.den * other.den, self.nvars)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, Poly.constant(1, self.nvars))

    def shifted(self, *offset: Scalar) -> "Poly":
        """p(x + offset), offset rational, expanded one variable at a time: with
        x_i -> x_i + a/b and t the degree in x_i, b^t v x_i^k becomes
        v sum_s C(k, s) a^(k-s) b^(t-k+s) x_i^s."""
        self._check_arity(len(offset))
        ints, den = self.ints, self.den
        for i, off in enumerate(offset):
            a, b, t = off.numerator, off.denominator, max([e[i] for e in ints], default=0)
            out: dict = {}
            for expo, v in ints.items():
                k = expo[i]
                for s in range(k + 1) if a else (k,):
                    key = expo[:i] + (s,) + expo[i + 1:]
                    out[key] = out.get(key, 0) + v * math.comb(k, s) * a**(k - s) * b**(t - k + s)
            ints, den = {e: v for e, v in out.items() if v}, den * b**t
        return Poly._make(ints, den, self.nvars)

    def partial(self, index: int) -> "Poly":
        """Exact partial derivative with respect to variable ``index``."""
        out = {}
        for expo, val in self.ints.items():
            k = expo[index]
            if k:
                out[expo[:index] + (k - 1,) + expo[index + 1:]] = val * k
        return Poly._make(out, self.den, self.nvars)

    def __call__(self, *point):
        """Exact value (a Fraction) at a rational point: the constant term of
        ``shifted``.  At a float or complex point each term is its coefficient,
        correctly rounded to a float, times the powers x**e, summed in the
        order of ``ints``.  The point is numbers: a Poly does not compose."""
        self._check_arity(len(point))
        if not all(isinstance(x, numbers.Number) for x in point):
            raise TypeError(f"a Poly is evaluated at numbers, not at {point!r}")
        if all(isinstance(x, (int, Fraction)) for x in point):
            return self.shifted(*point).coeff((0,) * self.nvars)
        total = 0
        for expo, v in self.ints.items():
            term = v / self.den
            for x, e in zip(point, expo):
                if e:
                    term = term * x**e
            total = total + term
        return total

    # -- printing -------------------------------------------------------------
    def to_expr(self) -> str:
        """Expression string that parse_poly maps back to this polynomial."""
        if not self.ints:
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
            if abs(val) != 1 or not factors:
                factors.insert(0, format_scalar(abs(val)))
            parts.append(("-" if val < 0 else "+") + "*".join(factors))
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
_VARIABLES = {"x1": 0, "x2": 1, "x3": 2}  # name token -> variable index


def _tokenize(expr: str):
    pos, n = 0, len(expr)
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


def _bits(values, den: int = 1) -> int:
    """Bit length of (the largest |num| or den of values / den in lowest terms) - 1."""
    return (max([max(abs(v), den) // math.gcd(v, den) for v in values], default=1)
            - 1).bit_length()


def _check_size(off: int, degree: int, bits: int = 0) -> None:
    if degree > MAX_DEGREE:
        raise PolyParseError(f"total degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}", off)
    if bits > MAX_COEFF_BITS:
        raise PolyParseError(f"constant up to 2^{bits} exceeds MAX_COEFF_BITS = "
                             f"{MAX_COEFF_BITS}", off)


class _Parser:
    """Recursive descent to (ints, den, degree): ints / den as in ``Poly``,
    with its total degree (-1 for zero).  Terms are added and multiplied on
    the integers, keys in the order ``Poly`` arithmetic keeps them; a sum, and
    so every base of a power, comes out in lowest terms."""

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

    def parse_expr(self) -> tuple[dict, int, int]:
        kind, val, _ = self.peek()
        sign = 1
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        out, den = {}, 1
        while True:
            ints, tden, _ = self.parse_term()
            if den % tden:
                lcm = math.lcm(den, tden)
                out = {e: v * (lcm // den) for e, v in out.items()}
                den = lcm
            _add_ints(out, ints, sign * (den // tden))
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                total = Poly._make(out, den, self.nvars)
                return total.ints, total.den, total.degree
            self.take()
            sign = -1 if val == "-" else 1

    def parse_term(self) -> tuple[dict, int, int]:
        ints, den, degree = self.parse_factor()
        while True:
            kind, val, off = self.peek()
            if kind != "op" or val != "*":
                return ints, den, degree
            self.take()
            fints, fden, fdegree = self.parse_factor()
            _check_size(off, degree + fdegree)
            ints, den = _mul_ints(ints, fints), den * fden
            degree = degree + fdegree if ints else -1

    def parse_factor(self) -> tuple[dict, int, int]:
        base = self.parse_base()
        kind, val, _ = self.peek()
        if kind != "op" or val != "^":
            return base
        self.take()
        kind, val, off = self.take()
        if kind != "num" or "." in val:
            raise PolyParseError("exponent must be a nonnegative integer", off)
        e = int(val)
        ints, den, degree = base
        # MAX_DEGREE bounds the exponent of any base but a constant
        _check_size(off, degree * e, _bits(ints.values(), den) * e if degree <= 0 else 0)
        if len(ints) != 1:  # a sum in lowest terms, or zero
            power = Poly._make(ints, den, self.nvars) ** e
            return power.ints, power.den, power.degree
        ((expo, v),) = ints.items()
        return {tuple([x * e for x in expo]): v**e}, den**e, degree * e

    def parse_base(self) -> tuple[dict, int, int]:
        kind, val, off = self.take()
        if kind == "num":
            # read as Fraction(val) reads it: the integer part, then the decimals
            whole, _, frac = val.partition(".")
            den = 10 ** len(frac)
            num = int(whole) * den + int(frac or 0)
            if self.peek()[:2] == ("op", "/"):  # rational literal p/q
                self.take()
                kind3, val3, off3 = self.take()
                if kind3 != "num" or "." in val3:
                    raise PolyParseError("denominator must be an integer", off3)
                if int(val3) == 0:
                    raise PolyParseError("zero denominator", off3)
                den *= int(val3)
            g = math.gcd(num, den)
            return ({(0,) * self.nvars: num // g}, den // g, 0) if num else ({}, 1, -1)
        if kind == "name":
            index = _VARIABLES.get(val)
            if index is None:
                raise UnknownVariableError(f"unknown variable {val!r}", off)
            if index >= self.nvars:
                raise UnknownVariableError(f"variable {val!r} exceeds arity {self.nvars}", off)
            return {tuple([int(i == index) for i in range(self.nvars)]): 1}, 1, 1
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
    ints, den, _ = parser.parse_expr()
    kind, val, off = parser.peek()
    if kind != "end":
        raise PolyParseError(f"trailing input {val!r}", off)
    _check_size(0, 0, _bits(ints.values(), den))
    return Poly._make(ints, den, nvars)


# ---------------------------------------------------------------------------
# Univariate polynomials
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial, coefficients ascending by degree; a ring
    with evaluation and float ``roots``, its exact jobs in the integer kernels."""

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
        return _horner(self.coeffs, x)

    def roots(self) -> np.ndarray:
        """All complex roots via the companion-matrix eigenvalues."""
        if self.degree < 1:
            return np.array([], dtype=complex)
        return np.roots([float(c) for c in reversed(self.coeffs)])

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# Trigonometric (Laurent-on-the-circle) polynomials
# ---------------------------------------------------------------------------

def _nonzero_len(xs: list) -> int:
    """1 + the index of the last nonzero entry of xs; 0 if there is none."""
    return max([k + 1 for k, x in enumerate(xs) if x], default=0)


class TrigPoly:
    """Real-on-the-circle Laurent polynomial.

    Value at z = e^{i theta}:

        c[0] + sum_k 2*c[k]*cos(k theta) - sum_k 2*s[k]*sin(k theta)

    where ``c[k]`` multiplies z^k + z^-k and ``s[k]`` multiplies i(z^k - z^-k).
    The sine part is zero for every polynomial even in x2; it only appears for
    line substitutions of polynomials with odd x2-terms.

    Stored as integer lists ``re`` = den c and ``im`` = den s of length
    half-degree + 1 (``im`` empty when cosine-only) over one positive ``den``,
    in lowest terms; zero is [0], [] over 1.  Results are built unchecked
    (``_make``); only the read-only views ``c`` and ``s`` make Fractions.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, c: Iterable[Scalar] = (), s: Iterable[Scalar] = ()):
        """From cosine and sine coefficients given as ints and Fractions."""
        c, s = list(c), list(s)
        for x in c + s:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"coefficient {x!r} is not rational")
        if any(s[:1]):
            raise ValueError("sine coefficient s[0] must be zero")
        den = math.lcm(*[x.denominator for x in c + s])
        ints = [x.numerator * (den // x.denominator) for x in c + s]
        out = self._make(ints[:len(c)], ints[len(c):], den)
        self.re, self.im, self.den = out.re, out.im, out.den

    @classmethod
    def _make(cls, re: list, im: list, den: int) -> "TrigPoly":
        """The TrigPoly with halves re / den and im / den (im shorter or empty
        when its tail is zero), padded, trimmed and brought to lowest terms."""
        n = max(_nonzero_len(re), _nonzero_len(im), 1)
        re = re[:n] + [0] * (n - len(re))
        im = im[:n] + [0] * (n - len(im)) if any(im) else []
        g = math.gcd(den, *re, *im) * (1 if den > 0 else -1)
        out = object.__new__(cls)
        out.re, out.im, out.den = re, im, den
        if g != 1:
            out.re, out.im, out.den = [x // g for x in re], [x // g for x in im], den // g
        return out

    # -- queries ----------------------------------------------------------------
    @property
    def c(self) -> tuple:
        return tuple([Fraction(x, self.den) for x in self.re[:_nonzero_len(self.re)]])

    @property
    def s(self) -> tuple:
        return tuple([Fraction(x, self.den) for x in self.im[:_nonzero_len(self.im)]])

    @property
    def half_degree(self) -> int:
        return len(self.re) - 1

    def is_zero(self) -> bool:
        return self.re == [0]

    def is_cosine(self) -> bool:
        return not self.im

    def cos_coeff(self, k: int) -> Fraction:
        return Fraction(self.re[k], self.den) if 0 <= k < len(self.re) else _ZERO

    def sin_coeff(self, k: int) -> Fraction:
        return Fraction(self.im[k], self.den) if 0 <= k < len(self.im) else _ZERO

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TrigPoly([other])
        return (isinstance(other, TrigPoly) and self.den == other.den
                and self.re == other.re and self.im == other.im)

    def __hash__(self):
        return hash((self.den, tuple(self.re), tuple(self.im)))

    def __bool__(self):
        return not self.is_zero()

    def int_poly(self, graded: bool, h: int | None = None) -> tuple[list, int]:
        """(P, den) with integer P of formal degree g, h >= the half-degree
        (default): den cos^-g(theta/f) e = P(T), T = tan(theta/f), with f = 1
        and g = h when ``graded`` (e carries only harmonics of h's parity),
        else f = 2 and g = 2h, cos^-2(theta/2) = 1 + T^2.  P is even when e is
        cosine-only; theta = f pi/2, where T is infinite, drops the degree."""
        h = self.half_degree if h is None else h
        re, im = (x + [0] * (h + 1 - len(x)) if x or graded else [] for x in (self.re, self.im))
        if not graded:
            return _halves_to_t(re, im), self.den
        if h % 2 == 0:  # z^(2k) = (1+iT)^(2k) / (1+T^2)^k: the t form in z^2
            return _halves_to_t(re[::2], im[::2]), self.den
        # z^(2k+1) = cos theta (1+iT) z^(2k), and l (1+iT) = l - T (s - ic), l = c + is
        a = _halves_to_t([2 * re[1]] + re[3::2], im[1::2])
        b = _halves_to_t([2 * im[1]] + im[3::2], [-x for x in re[1::2]])
        return [x - y for x, y in zip(a + [0], [0] + b)], self.den

    def __str__(self):
        parts = [("-" if x < 0 else "+") + format_scalar(abs(x)) for x in self.c[:1] if x]
        for coeffs, form in ((self.c, "(z^{k}+z^-{k})"), (self.s, "i*(z^{k}-z^-{k})")):
            for k, x in enumerate(coeffs[1:], 1):
                if x != 0:
                    coef = "" if abs(x) == 1 else f"{format_scalar(abs(x))}*"
                    parts.append(("-" if x < 0 else "+") + coef + form.format(k=k))
        return "".join(parts).removeprefix("+") or "0"

    def __repr__(self):
        return f"TrigPoly({list(self.c)!r}, {list(self.s)!r})"


# ---------------------------------------------------------------------------
# Exact elimination and interpolation
# ---------------------------------------------------------------------------

def _bareiss(mat, swap: bool = True) -> int:
    """Fraction-free (Bareiss) elimination, in place, of an integer matrix with
    n rows and at least n columns; each division by the previous pivot is exact.
    Returns the determinant of the leading n x n block, 0 when it is singular;
    otherwise mat[i][j], j >= i, is now an upper-triangular equivalent system.
    The last row then holds, at each column c >= n - 1, the determinant of the
    first n - 1 columns bordered by column c (the row swaps' sign is applied
    to the whole row, and the row is zero when those n - 1 columns are
    dependent).  With ``swap=False`` it stops at the first zero pivot instead
    of swapping rows, and pivot k is the leading principal minor of order k + 1.
    """
    n = len(mat)
    if n == 0:
        return 1
    width = len(mat[0])
    sign, prev = 1, 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            piv = [r for r in range(k + 1, n) if mat[r][k] != 0] if swap else []
            if not piv:
                mat[n - 1][n - 1:] = [0] * (width - n + 1)
                return 0
            mat[k], mat[piv[0]] = mat[piv[0]], mat[k]
            sign = -sign
        pk, rowk = mat[k][k], mat[k]
        for rowi in mat[k + 1:]:
            f = rowi[k]
            for j in range(k + 1, width):
                rowi[j] = (pk * rowi[j] - f * rowk[j]) // prev
        prev = pk
    if sign < 0:
        mat[n - 1][n - 1:] = [-x for x in mat[n - 1][n - 1:]]
    return mat[n - 1][n - 1]


def _clear_rows(rows):
    """(mat, dens): each row of rationals (floats read as the binary rationals
    they are) times the lcm of its denominators, as integers, and those lcms."""
    mat, dens = [], []
    for row in rows:
        ratios = [x.as_integer_ratio() for x in row]
        den = math.lcm(*[d for _, d in ratios])
        mat.append([n * (den // d) for n, d in ratios])
        dens.append(den)
    return mat, dens


def det_exact(rows) -> Fraction:
    """Determinant of a square rational matrix: rows cleared to integers, one
    Bareiss elimination, then division by the clearing factors."""
    mat, dens = _clear_rows(rows)
    return Fraction(_bareiss(mat), math.prod(dens))


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
    return re, im


def _horner(coeffs, x):
    acc = 0
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


@functools.cache
def _one_plus_it(k: int) -> tuple:
    """C(2k, j) (-1)^(j//2), j = 0 .. 2k: t^j in (1+it)^(2k), real at even j."""
    return tuple(math.comb(2 * k, j) * (-1) ** (j // 2) for j in range(2 * k + 1))


def _halves_to_t(re: list, im: list) -> list:
    """Ascending integer coefficients in t = tan(theta/2) of (1+t^2)^h e, e of
    half-degree h given by integer halves.  z^k = (1+it)^(2k) / (1+t^2)^k, so
    (1+t^2)^h e = c_0 (1+t^2)^h + sum 2 Re((c_k + i s_k)(1+it)^(2k)) (1+t^2)^(h-k),
    summed by Horner in 1+t^2."""
    out = [re[0]]
    for k in range(1, len(re)):
        out += [0, 0]
        for j in range(len(out) - 1, 1, -1):  # out *= 1 + t^2
            out[j] += out[j - 2]
        ck, sk = 2 * re[k], -2 * im[k] if im else 0
        if ck or sk:
            for j, b in enumerate(_one_plus_it(k)):
                out[j] += (sk if j & 1 else ck) * b
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


def _interpolate_minors(plan, polys, lo: int, count: int) -> list:
    """The last row ``_bareiss`` leaves, from column n - 1 on, on the integer
    polynomial matrix M with n rows and entry f * polys[q] at (f, q) =
    plan[i][j], as ascending integer polynomials of degree < count: M is
    evaluated at x = lo .. lo + count - 1 (Horner once per polynomial),
    eliminated, and each entry Newton-interpolated.  For a square M the one
    entry is det M (1 when n = 0).  The work is known before it runs: count
    eliminations of n rows, on entries of the size of M at x."""
    n, values = len(plan), []
    for x in range(lo, lo + count):
        at = [_horner(p, x) for p in polys]
        mat = [[f * at[q] for f, q in row] for row in plan]
        _bareiss(mat)
        values.append(mat[-1][n - 1:] if n else [1])
    return [_newton_interpolate(col, lo) for col in zip(*values)]


def _primitive(coeffs) -> list:
    """Primitive part in Z[x], leading coefficient > 0, of ascending rational
    coefficients: ints, Fractions, or floats read as the binary rationals
    they are."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    den = math.lcm(*[d for _, d in ratios])
    ints = [n * (den // d) for n, d in ratios]
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


_PRIME = 2**31 - 1


def _int_gcd(a: list, b: list) -> list:
    """Primitive gcd in Z[x], leading coefficient > 0, of ascending integer
    lists ([] is zero).  Euclid modulo _PRIME, which must not divide lc(a),
    proves a gcd of 1 (the true gcd keeps its degree mod p); only otherwise
    does the primitive pseudo-remainder sequence run."""
    if len(a) < len(b):
        a, b = b, a
    u, v = ([x % _PRIME for x in g] for g in (a, b))
    while u and u[-1] and v:
        if v[-1]:
            inv = pow(v[-1], -1, _PRIME)
            while len(u) >= len(v):
                c = u.pop() * inv % _PRIME
                for j in range(1, len(v)):
                    u[-j] -= c * v[-1 - j]
            u, v = v, [x % _PRIME for x in u]
        else:
            v.pop()
    if len(u) == 1:
        return [1]
    while b:
        a, b = b, _primitive(_pdivmod(a, b)[1])
    return _primitive(a)


def _squarefree_factors(f) -> list:
    """Yun's algorithm in Z[x] on ascending rationals f (``_primitive``, no
    trailing zero): (factor, multiplicity) pairs by increasing multiplicity,
    the factors primitive, square-free, lc > 0 and pairwise coprime; [] for a
    constant or zero.  b and c are always divided by the same primitive gcd,
    so every quotient is exact and c - b' is Yun's remainder."""
    f = _primitive(f)
    if len(f) < 2:
        return []
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
            out.append((g, mult))
        (b, _), (c, _) = _pdivmod(b, g), _pdivmod(diff, g)
        mult += 1
    return out


def _squarefree_part(f: list) -> list:
    """f / gcd(f, f') for a nonzero integer polynomial, x^k split off first."""
    k = next(i for i, x in enumerate(f) if x)
    f = f[k:]
    return [0] * (k > 0) + _pdivmod(f, _int_gcd(f, [i * x for i, x in enumerate(f)][1:]))[0]


def _variations(coeffs) -> int:
    """Sign changes in a sequence, zeros skipped (Descartes' rule of signs)."""
    signs = [x > 0 for x in coeffs if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _hom(f: list, a: int, b: int) -> int:
    """b^n f(a/b), n = len(f) - 1."""
    acc, bk = 0, 1
    for c in reversed(f):
        acc, bk = acc * a + c * bk, bk * b
    return acc


def _image_sign(image: tuple):
    """x -> 1 if H is positive definite at T or W = x (the coordinate of
    ``image``, H's integer image in the format of ``TrigMatrix._image``),
    otherwise the sign of its first leading minor there that is not positive
    (Sylvester: the pivots of ``_bareiss`` without swaps); -1 proves a
    negative eigenvalue.  H is exact there, up to row and column scalings that
    keep every leading minor's sign: the image at x = a/b, each polynomial
    homogenised to one power of b."""
    plan, polys, *_ = image
    e = max(map(len, polys), default=0)

    def sign(x) -> int:
        a, b = x.numerator, x.denominator
        vals = [_hom(poly, a, b) * b ** (e - len(poly)) for poly in polys]
        mat = [[f * vals[k] for f, k in row] for row in plan]
        _bareiss(mat, swap=False)
        return next((-1 if row[k] else 0 for k, row in enumerate(mat) if row[k] <= 0), 1)
    return sign


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

    def is_graded(self) -> bool:
        """Whether every entry (i, j) has only harmonics = i + j mod 2, as a Hermite matrix."""
        return not any(any(h[(i + j + 1) % 2::2]) for i, row in enumerate(self.entries)
                       for j, e in enumerate(row) for h in (e.re, e.im))

    def eval_thetas(self, thetas) -> np.ndarray:
        """H(e^{i theta}) at every angle, shape (N, m, m): the cosine and sine
        coefficients become (d+1, m, m) float blocks once, and one product with
        the cos(k theta) and sin(k theta) tables gives, entrywise,
        c0 + 2 sum c_k cos(k theta) - 2 sum s_k sin(k theta)."""
        m, d = self.m, self.d
        blocks = np.zeros((2, d + 1, m, m))
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                blocks[0, :len(e.re), i, j] = [x / e.den for x in e.re]
                blocks[1, :len(e.im), i, j] = [x / e.den for x in e.im]
        blocks[:, 1:] *= 2.0
        kt = np.multiply.outer(np.asarray(thetas, dtype=float), np.arange(d + 1))
        table = np.concatenate([np.cos(kt), -np.sin(kt)], axis=1)
        return (table @ blocks.reshape(2 * (d + 1), m * m)).reshape(-1, m, m)

    def _image(self) -> tuple:
        """(plan, polys, n, scale, (even, graded)): H as the integer
        polynomial matrix M of ``_interpolate_minors``, in T = tan(theta/f),
        f = 1 when ``graded`` and f = 2 otherwise, or in W = T^2 when ``even``
        (every entry cosine-only, so each polynomial is even in T and keeps
        its even-index coefficients).  Row i and column j are scaled by r_i
        and c_j, c_j the gcd of the denominators of the distinct entries in
        column j and r_i the lcm of those left in row i, so each entry is
        integral; scale = prod(r_i c_j).  With b_j the least half-degree in
        column j and a_i the largest excess over it in row i (raised to the
        parity of j and i when graded), det H has half-degree at most N =
        sum(a) + sum(b) (a Hermite matrix, entry (i, j) of half-degree at most
        i + j, usually gets N = m(m-1)).  M_ij is r_i c_j H_ij times
        cos^-g(theta/f), g = f (a_i + b_j): H under row and column scalings
        with positive products, so det M = D = scale cos^-fN(theta/f) det H,
        of degree at most n = fN in T, fN/2 in W.  Its entries are
        ``int_poly``s at their own degrees, one per distinct (entry, degree),
        and a Hankel H has only 2m-1 distinct entries."""
        m, even, graded = self.m, self.is_cosine(), self.is_graded()
        slot: dict = {}
        index = [[slot.setdefault(id(e), len(slot)) for e in row] for row in self.entries]
        distinct = list({id(e): e for row in self.entries for e in row}.values())
        half = [e.half_degree for e in distinct]
        cols = [[row[j] for row in index] for j in range(m)]
        up = (lambda x, i: x + (x + i) % 2) if graded else (lambda x, i: x)
        b = [up(min([half[k] for k in col]), j) for j, col in enumerate(cols)]
        c = [math.gcd(*[distinct[k].den for k in col]) for col in cols]
        a = [up(max([half[k] - b[j] for j, k in enumerate(row)]), i) for i, row in enumerate(index)]
        r = [math.lcm(*[distinct[k].den // c[j] for j, k in enumerate(row)]) for row in index]
        # (r_i c_j / den_k, P): P the int_poly of e_k at half-degree a_i + b_j
        key: dict = {}
        plan = [[(r[i] * c[j] // distinct[k].den, key.setdefault((k, a[i] + b[j]), len(key)))
                 for j, k in enumerate(row)] for i, row in enumerate(index)]
        polys = [distinct[k].int_poly(graded, h)[0][::1 + even] for k, h in key]
        n = (sum(a) + sum(b)) * (2 - graded) // (1 + even)
        return plan, polys, n, math.prod(r) * math.prod(c), (even, graded)

    def det(self) -> TrigPoly:
        """Exact determinant in the TrigPoly ring: D = det M of ``_image``,
        interpolated at n+1 consecutive integers around 0, read in T (D(W) as
        D(T^2)) and mapped back (``_t_to_halves``) to the halves of the result
        over scale; no Fraction is built.  A graded det H has only even
        harmonics, and D(T) is its t form in z^2, so its halves come back with
        every index doubled."""
        plan, polys, n, scale, (even, graded) = self._image()
        D = _interpolate_minors(plan, polys, -(n // 2), n + 1)[0]
        if even:
            D = [x for y in D for x in (y, 0)][:-1]
        re, im = ([x for y in h for x in (y, 0)] if graded else h for h in _t_to_halves(D))
        return TrigPoly._make(re, im, scale)

    def __eq__(self, other):
        return (isinstance(other, TrigMatrix) and self.m == other.m
                and self.entries == other.entries)


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
        def enc(x):
            return x if isinstance(x, float) else format_scalar(x)
        mats = {f"F{k}": [[enc(x) for x in row] for row in mat] for k, mat in enumerate(self.mats)}
        return {"m": self.m, "c": None if self.c is None else enc(self.c), **mats}

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
