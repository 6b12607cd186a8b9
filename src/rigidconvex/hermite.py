"""Hermite matrix of a plane polynomial restricted to lines through the origin.

A line through the origin hits the curve p(x) = 0 where the monic polynomial

    q(t) = t^m p(x1, x2),   x1 = (z + z^-1)/t,   x2 = i (z^-1 - z)/t

vanishes, with z on the unit circle and m = deg p.  The sublevel set around
the origin is rigidly convex exactly when q(t) has m real roots for every z,
i.e. when the Hankel matrix of Newton power sums of q is positive
semidefinite along the circle.  Everything here is exact and runs on the
integer fields of ``Poly`` and ``TrigPoly``, read and built as they are.
``hermite_matrix`` builds that matrix as a TrigMatrix; ``hermite_image``
reads its integer image and its values at angles straight off the power
sums of Q_T over Z[T], T = tan theta (``power_sums``), for the circle
decision alone: in T, or in W = T^2 when p is even in x2, as Q_T then is.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OriginOnCurveError
from .polycore import Poly, TrigMatrix, TrigPoly, _hankel_image, laurent_mul

_TABLES: dict = {}  # a scan pass's key -> (angles, m, _monomials(angles, m))


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


def _line_degree(p: Poly) -> int:
    """m = deg p, after checking that p is bivariate of degree >= 1 with
    p(0,0) != 0 (OriginOnCurveError, since the line polynomials divide by
    the constant term; the locate module handles that situation)."""
    if p.nvars != 2:
        raise ValueError("line substitution is defined for bivariate input")
    if not p.ints.get((0, 0)):
        raise OriginOnCurveError("p(0,0) = 0; cannot normalise p(0) = 1")
    if p.degree < 1:
        raise ValueError("need total degree >= 1")
    return p.degree


def line_substitute(p: Poly) -> LinePoly:
    """Restrict p to the line family and clear denominators.

    With w = x1 t = z + 1/z and v = x2 t = -i(z - 1/z), P_00 t^m q_(m-j) sums P_ab w^a v^b
    over a + b = j, P_ab p's integer numerators (``Poly.ints``); the powers of w and v and
    their products are integer Laurent lists, and the TrigPolys of q are built once, at the end.
    """
    m = _line_degree(p)
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
    return LinePoly(m, tuple(q), scale=p.coeff((0, 0)))


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


def power_sums(p: Poly) -> tuple[list, int]:
    """(S, p0): the power sums S_0 .. S_(2m-2) of the roots of the monic

        Q_T(mu) = mu^m + sum_(k>=1) p_k(1, T) p0^(k-1) mu^(m-k)

    over Z[T], as ascending integer lists with S_k of length k + 1, p_k p's
    form of degree k and p0 its constant term, both read off ``Poly.ints``.
    On the line at angle theta, with T = tan theta, the roots of
    ``line_substitute``'s q(t) are t = (2 cos theta / p0) mu, so its power
    sums are N_k = (2 cos theta / p0)^k S_k(tan theta).  Newton's identities
    as in ``newton_sums``, each product a convolution in T."""
    m = _line_degree(p)
    p0 = p.ints[(0, 0)]
    c = [[0] * (k + 1) for k in range(m + 1)]  # c[k][b]: T^b in p_k(1, T) p0^(k-1)
    for (a, b), x in p.ints.items():
        if a + b:
            c[a + b][b] += x * p0 ** (a + b - 1)
    sums = [[m]]
    for k in range(1, 2 * m - 1):
        acc = [0] * (k + 1)
        for j in range(1, min(k, m) + 1):
            if j == k:
                for b, x in enumerate(c[j]):
                    acc[b] -= k * x
                continue
            s = sums[k - j]
            for b, x in enumerate(c[j]):
                if x:
                    for e, y in enumerate(s, b):
                        acc[e] -= x * y
        sums.append(acc)
    return sums, p0


@functools.cache
def _layout(m: int) -> tuple:
    """(ks, bs, ks - bs, hankel[i, j] = i + j) at m: monomial r of the scan is cos^(k-b) sin^b,
    (k, b) = (ks[r], bs[r]), in an order where those at m lead those at any larger m."""
    ks, bs = np.array([(k, b) for k in range(2 * m - 1) for b in range(k + 1)]).T
    return ks, bs, ks - bs, np.add.outer(np.arange(m), np.arange(m))


def _monomials(thetas, m: int, key=None) -> np.ndarray:
    """The ``_layout(m)`` monomials, a row per angle; under a key, a slice of the table kept
    there for prefixes of one sequence of angles, grown to the longest and the largest m,
    so that a pass of the circle scan takes one table per process."""
    angles, top, table = _TABLES.get(key, ((), 0, None))
    if len(thetas) > len(angles) or m > top:
        angles, top = max(angles, thetas, key=len), max(m, top)
        _, bs, cos_exp, _ = _layout(top)
        th = np.asarray(angles, dtype=float)[:, None]
        c, e = np.cos(th), np.arange(2 * top - 1)
        cos = np.abs(c) ** e * np.where(e % 2, np.sign(c), 1.0)  # pow is slow on a negative base
        table = cos[:, cos_exp] * (np.sin(th) ** e)[:, bs]
        if key is not None:
            _TABLES[key] = angles, top, table
    return table[:len(thetas), :m * (2 * m - 1)]


def hermite_image(p: Poly) -> tuple:
    """(image, eval_thetas) of H = ``hermite_matrix(p)``, read off
    ``power_sums`` without building H: H_ij = (2 cos theta / p0)^k S_k(tan theta),
    k = i + j.

    ``image`` is H's integer image (``_hankel_image``, as
    ``TrigMatrix._image`` builds it from H), polynomial k = i + j being
    2^k S_k(T) = p0^k cos^-k(theta) N_k in T = tan theta, of degree <= k, so
    n = m(m-1), keyed even = False; or, when every S_k is even in T (p even in
    x2), 2^k s_k(W) in W = tan^2 theta, s_k = S_k's even-index coefficients,
    of degree <= k/2, keyed even = True: its det is D(W) = (1+W)^n det H up to
    a positive constant, n = m(m-1)/2, of degree <= n, whose W^n coefficient
    is det H at theta = pi/2 up to that constant.
    ``eval_thetas(thetas, key=None)``: H at each angle, ``_monomials`` (kept
    per pass of the circle scan) times the forms sum_b S_(k,b) cos^(k-b) sin^b,
    each coefficient the exact quotient 2^k S_(k,b) / p0^k rounded once."""
    sums, p0 = power_sums(p)
    m = (len(sums) + 1) // 2
    even = not any(x for s in sums for x in s[1::2])
    image = _hankel_image([[x << k for x in (s[::2] if even else s)] for k, s in enumerate(sums)],
                          even)
    # column k of ``forms`` holds 2^k S_(k,b) / p0^k at the monomials of degree k
    ks, _, _, hankel = _layout(m)
    forms = np.zeros((len(ks), 2 * m - 1))
    forms[range(len(ks)), ks] = [(x << k) / p0**k for k, s in enumerate(sums) for x in s]

    def eval_thetas(thetas, key=None) -> np.ndarray:
        return (_monomials(thetas, m, key) @ forms)[:, hankel]
    return image, eval_thetas
