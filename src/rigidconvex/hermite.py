"""Hermite matrix of a plane polynomial restricted to lines through the origin.

A line through the origin hits the curve p(x) = 0 where the monic polynomial

    q(t) = t^m p(x1, x2),   x1 = (z + z^-1)/t,   x2 = i (z^-1 - z)/t

vanishes, with z on the unit circle and m = deg p.  The sublevel set around
the origin is rigidly convex exactly when q(t) has m real roots for every z,
i.e. when the Hankel matrix of Newton power sums of q is positive
semidefinite along the circle.  Everything here is exact and runs on the
integer fields of ``Poly`` and ``TrigPoly``, read and built as they are.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import OriginOnCurveError
from .polycore import Poly, TrigMatrix, TrigPoly, laurent_mul


def _add_into(acc: list, xs: list, f: int = 1) -> None:
    """acc += f * xs entrywise, acc padded with zeros to the length of xs; one
    half of a running sum of ``laurent_mul`` products."""
    acc.extend([0] * (len(xs) - len(acc)))
    for i, x in enumerate(xs):
        acc[i] += f * x


@dataclass(frozen=True)
class LinePoly:
    """Coefficients q[k] of the monic line restriction q(t) = sum q_k(z) t^k.

    ``scale`` records the normalisation constant p(0,0) that was divided out,
    so q relates to the original polynomial by q(t) = t^m p(x) / scale.
    """

    m: int
    q: tuple[TrigPoly, ...]
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        if len(self.q) != self.m + 1:
            raise ValueError("need m+1 coefficients")
        if self.q[self.m] != TrigPoly([1]):
            raise ValueError("line restriction must be monic")


def line_substitute(p: Poly) -> LinePoly:
    """Restrict p to the line family and clear denominators.

    With w = x1 t = z + 1/z and v = x2 t = -i(z - 1/z), P_00 t^m q_(m-j) sums P_ab w^a v^b
    over a + b = j, P_ab p's integer numerators (``Poly.ints``); the powers of w and v and
    their products are integer Laurent lists, and the TrigPolys of q are built once, at the end.

    Raises OriginOnCurveError when p(0,0) = 0, since the construction divides
    by the constant term; the locate module handles that situation.
    """
    if p.nvars != 2:
        raise ValueError("line substitution is defined for bivariate input")
    p0 = p.coeff((0, 0))
    if p0 == 0:
        raise OriginOnCurveError("p(0,0) = 0; cannot normalise p(0) = 1")
    m = p.degree
    if m < 1:
        raise ValueError("need total degree >= 1")

    w, v = ([0, 1], []), ([0, 0], [0, -1])  # halves of z + 1/z and -i(z - 1/z)
    w_pow = [([1], [])]
    v_pow = w_pow[:]
    for _ in range(m):
        w_pow.append(laurent_mul(*w_pow[-1], *w))
        v_pow.append(laurent_mul(*v_pow[-1], *v))
    re = [[] for _ in range(m + 1)]
    im = [[] for _ in range(m + 1)]
    for (a, b), coeff in p.ints.items():
        wr, wi = laurent_mul(*w_pow[a], *v_pow[b])
        _add_into(re[a + b], wr, coeff)
        _add_into(im[a + b], wi, coeff)
    lead = re[0][0]
    q = [TrigPoly._make(re[m - k], im[m - k], lead) for k in range(m + 1)]
    return LinePoly(m, tuple(q), scale=p0)


def newton_sums(line: LinePoly, count: int) -> list[TrigPoly]:
    """Power sums N_0 ... N_count of the roots of q(t), by Newton's identities.

    With L the lcm of the denominators of q, the roots times L are the roots
    of the monic Q(t) = L^m q(t/L), whose coefficients Q_(m-j) = L^j q_(m-j)
    lie in Z[z, 1/z].  Their power sums S_k = L^k N_k are integers:
    S_0 = m; for 1 <= k <= m,
        S_k = -k Q_{m-k} - sum_{j=1}^{k-1} Q_{m-j} S_{k-j};
    for k > m,
        S_k = -sum_{j=1}^{m} Q_{m-j} S_{k-j},
    each product one integer Laurent convolution; N_k = S_k / L^k.
    """
    m, q = line.m, line.q
    den = math.lcm(*[e.den for e in q])
    sums = [([m], [])]
    for k in range(1, count + 1):
        re, im = [], []
        for j in range(1, min(k, m) + 1):
            e = q[m - j]
            if not e:
                continue
            qr, qi, f = e.re, e.im, den**j // e.den  # Q_(m-j) = f * (qr, qi)
            if j < k:
                qr, qi = laurent_mul(qr, qi, *sums[k - j])
            else:
                f *= k
            _add_into(re, qr, -f)
            _add_into(im, qi, -f)
        sums.append((re, im))
    return [TrigPoly._make(re, im, den**k) for k, (re, im) in enumerate(sums)]


def hermite_matrix(p: Poly) -> TrigMatrix:
    """m x m Hankel matrix with entry (i, j) = N_{i+j-2} (1-based indices)."""
    line = line_substitute(p)
    sums = newton_sums(line, 2 * line.m - 2)
    return TrigMatrix.from_hankel(sums, line.m)
