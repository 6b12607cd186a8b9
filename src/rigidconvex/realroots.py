"""Exact real roots of square-free integer polynomials: Descartes' rule of
signs with bisection (Vincent-Collins-Akritas) isolates them, and quadratic
interval refinement on exact signs (Abbott 2006) narrows each to the interval
that plain bisection would return, to float width.
"""
from __future__ import annotations

from fractions import Fraction

from .polycore import _hom, _taylor_shift, _variations


def _descartes(g: list) -> int:
    """min(2, v), v the sign variations of (x + 1)^n g(1 / (x + 1)): the
    Taylor shift of g reversed, whose coefficients are final in ascending
    order, so it stops at the second sign change."""
    a, v, prev = g[::-1], 0, None
    for i in range(len(a)):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
        if a[i]:
            v += prev not in (None, a[i] > 0)
            if v == 2:
                return v
            prev = a[i] > 0
    return v


def _refine(f: list, lo: int, k: int, ends: list, pos: bool, fa: int, fb: int) -> tuple:
    """The interval bisection on exact signs returns for the one root r of f
    in the open cell (lo, lo + 1) / 2^k: it halves while an end is a root
    (``ends``) or the upper numerator is below 2^53, and gives (r, r) if it
    meets r.  f has sign ``pos`` right of lo; fa and fb, positive multiples
    of f at the ends, only guide the secant.

    Refine quadratically on the grid of N = 2^e steps: test the grid cell at
    the secant's root with one or two exact signs; on success take it and
    square N, else halve e.  e = 1 is a bisection step, which cannot fail and
    is taken while an end is a root.  Dyadic cells nest, so bisection's last
    cell is the first ancestor of the last one whose upper numerator reaches
    2^53, and it meets a root x / 2^M, x odd, iff an end is a root or the
    parent cell (x >> 1) / 2^(M-1) is still below that."""
    n, k0, e, x = len(f) - 1, k, 2, None
    while any(ends) or not (lo + 1) >> 53:
        # bisect while an end is a root, else go no finer than the last cell needs
        e, k0 = (1, k + 1) if any(ends) else (min(e, 54 - lo.bit_length()), k0)
        size, base, den, a, b = 1 << e, lo << e, 1 << (k + e), abs(fa), abs(fb)
        m = min(max((2 * size * a + a + b) // (2 * (a + b) or 1), 1), size - 1)
        s = _hom(f, base + m, den)
        if not s:
            x = base + m
            break
        right = (s > 0) == pos  # whether r > m; test the grid cell on that side
        t = m + 1 if right else m - 1
        if 0 < t < size:
            w = _hom(f, base + t, den)
            if not w:
                x = base + t
                break
            if ((w > 0) == pos) == right:  # r is beyond t
                e = max(e // 2, 1)
                continue
        else:
            w = (fb if right else fa) << e * n
        lo, k, e = base + min(m, t), k + e, 2 * e
        fa, fb = (s, w) if right else (w, s)
        ends[not right] = False
    if x is not None:  # x / 2^(k+e) is r
        zeros = (x & -x).bit_length() - 1
        x, k = x >> zeros, k + e - zeros
        if any(ends) or not ((x >> 1) + 1) >> 53:
            return (Fraction(x, 1 << k),) * 2
        lo, k = x >> 1, k - 1
    while k > k0 and ((lo >> 1) + 1) >> 53:
        lo, k = lo >> 1, k - 1
    return Fraction(lo, 1 << k), Fraction(lo + 1, 1 << k)


def _roots01(f: list) -> list:
    """The roots in [0, 1] of a square-free integer polynomial, sorted: (r, r)
    for a root r met exactly, else an interval around one root, at most 2^-53
    of its upper end wide, whose ends are not roots (``_refine``).

    Vincent-Collins-Akritas bisection: g = 2^(kn) f((x + c) / 2^k) stands for
    (c/2^k, (c+1)/2^k), and the sign variations of (x + 1)^n g(1 / (x + 1))
    bound its roots there (Descartes): 0 means none, 1 exactly one, which
    ``_refine`` narrows.  A root at c/2^k is divided out of g, which keeps
    its signs on the cell but not its values."""
    out, todo = [(Fraction(1),) * 2] * (not sum(f)), [(f, 0, 0, False)]
    while todo:
        g, c, k, at_c = todo.pop()  # at_c: c/2^k is a root already divided out
        fa, fb = g[0], sum(g)
        ends = [at_c or not fa, not fb]  # whether c/2^k and (c+1)/2^k are roots
        if not fa:
            out.append((Fraction(c, 1 << k),) * 2)
            g = g[1:]
        v = _descartes(g)
        if v > 1:
            left = [x << (len(g) - 1 - i) for i, x in enumerate(g)]  # 2^n g(x/2)
            todo += [(_taylor_shift(left), 2 * c + 1, k + 1, False),
                     (left, 2 * c, k + 1, ends[0])]
        elif v == 1:
            out.append(_refine(f, c, k, ends, g[0] > 0, fa, fb))
    return sorted(out)


def _nonnegative_roots(f: list) -> list:
    """Sorted ``_roots01`` intervals of the roots in [0, inf) of a square-free
    integer polynomial (ascending, no trailing zero): those in [0, 1], then
    the reciprocals of those of its reversal, a root at 0 divided out, but 1."""
    if f[0] and not _variations(f):  # none, by Descartes
        return []
    above = _roots01((f if f[0] else f[1:])[::-1])
    return _roots01(f) + [(1 / hi, 1 / lo) for lo, hi in reversed(above) if lo != 1]


def real_roots(f: list) -> list:
    """Sorted ``_roots01`` intervals of the distinct real roots of a
    square-free integer polynomial (ascending, no trailing zero): the
    ``_nonnegative_roots`` of f(-x), negated but for 0, and of f(x).  The
    intervals are plain bisection's (``_refine``)."""
    negative = _nonnegative_roots([-x if k & 1 else x for k, x in enumerate(f)])
    return [(-hi, -lo) for lo, hi in reversed(negative) if hi] + _nonnegative_roots(f)
