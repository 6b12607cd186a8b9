"""The exact real-root kernel against plain bisection on exact signs.

Quadratic interval refinement must return exactly the intervals of
``reference_poly.ref_roots01``: the same Fractions, so every float read off
them and every rational root found inside them is the same.
"""
import math
import random
from fractions import Fraction

import pytest

import reference_poly
from rigidconvex import realroots
from rigidconvex.polycore import _hom, _squarefree_part
from rigidconvex.realroots import _nonnegative_roots, _roots01, real_roots
from reference_poly import ref_roots01


def _mul(*polys) -> list:
    out = [1]
    for g in polys:
        out = [sum(out[i] * g[k - i] for i in range(len(out)) if 0 <= k - i < len(g))
               for k in range(len(out) + len(g) - 1)]
    return out


def _random_squarefree(rng) -> list:
    while True:
        f = [rng.randint(-20, 20) for _ in range(rng.randint(2, 12))]
        if f[-1] and any(f[:-1]):
            return _squarefree_part(f)


def _dyadic(rng) -> list:
    """Roots m / 2^L in (0, 1), L up to 70, beside a random factor."""
    roots = [[-(2 * rng.randrange(1 << (L - 1)) + 1), 1 << L]
             for L in rng.sample(range(1, 71), rng.randint(1, 3))]
    return _squarefree_part(_mul(*roots, [rng.randint(-5, 5), rng.randint(-5, 5), 1]))


def _close_pair(rng) -> list:
    """Two roots 2^-61 apart: a and a + 2^-61, a = p / q in (0, 1)."""
    q = rng.choice([3, 5, 7, 11])
    p = rng.randrange(1, q)
    return _mul([-p, q], [-(p << 61) - q, q << 61], [rng.randint(1, 5), 0, 1])


def _tiny(rng) -> list:
    """Roots below 2^-40, one of them beside 0."""
    a, b = rng.randint(41, 60), rng.randint(41, 60)
    return _squarefree_part(_mul([-rng.choice([1, 3]), 3 << a], [-1, 1 << b],
                                 [rng.choice([-1, 0, 1]), 1], [-rng.randint(1, 9), 10]))


def _huge(rng) -> list:
    """2000-bit coefficients."""
    while True:
        f = [rng.getrandbits(2000) * rng.choice([-1, 1]) for _ in range(rng.randint(2, 7))]
        if f[-1]:
            return _squarefree_part(f)


def _open_ends_not_roots(f: list) -> bool:
    """No interval of ``_roots01(f)`` that is not a point has a root of f at
    either end; the arc points of ``circle_roots_of`` rely on it."""
    return all(_hom(f, x.numerator, x.denominator)
               for lo, hi in _roots01(f) if lo != hi for x in (lo, hi))


FAMILIES = {"random": _random_squarefree, "dyadic": _dyadic, "close": _close_pair,
            "tiny": _tiny, "huge": _huge}

# roots at 0 and 1; a cell end that is a root with a root inside the cell on
# either side of it (1/2 beside 3/10 and 3/5, and 2^-60 from 1/2); degree 1
EDGES = [
    [0, 1], [-1, 1], [-1, 3], [-1, 1 << 70], [-(1 << 70) - 1, 1 << 71],
    _mul([0, 1], [-1, 1], [-1, 3]),
    _mul([-1, 2], [-3, 10], [-3, 5]),
    _mul([-1, 2], [-(1 << 59) - 1, 1 << 60], [-(1 << 59) + 1, 1 << 60], [-3, 5]),
    _mul([-1, 2], [-1, 4], [-3, 4], [-5, 8]),
    _mul([0, 1], [-1, 1 << 60], [-3, 1 << 61]),
]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_roots01_equal_bisection_intervals(family):
    rng = random.Random(f"roots01-{family}")
    for _ in range(60 if family != "huge" else 15):
        f = FAMILIES[family](rng)
        assert _roots01(f) == ref_roots01(f), f
        rev = f[::-1] if f[0] else f[1:][::-1]
        assert _roots01(rev) == ref_roots01(rev), rev
        assert _open_ends_not_roots(f) and _open_ends_not_roots(rev), f


def test_roots01_edge_cases():
    for f in EDGES:
        assert _roots01(f) == ref_roots01(f), f
        assert _roots01([-x for x in f]) == ref_roots01([-x for x in f]), f
        assert _open_ends_not_roots(f), f
    assert _roots01([-1, 2]) == [(Fraction(1, 2),) * 2]
    assert _roots01([0, 1])[0] == (0, 0) and _roots01([-1, 1]) == [(1, 1)]


def test_real_roots_equal_bisection_intervals(monkeypatch):
    rng = random.Random(83)
    polys = [FAMILIES[name](rng) for name in sorted(FAMILIES) for _ in range(8)] + EDGES
    got = [(real_roots(f), _nonnegative_roots(f)) for f in polys]
    monkeypatch.setattr(realroots, "_roots01", ref_roots01)
    assert got == [(real_roots(f), _nonnegative_roots(f)) for f in polys]


def test_roots_in_an_interval_are_the_real_roots_there():
    # the root domain [0, inf) of the circle test in W: the real roots there,
    # the same intervals, a point a root and an interval's ends not roots
    rng = random.Random(89)
    polys = [FAMILIES[name](rng) for name in sorted(FAMILIES) for _ in range(6)] + EDGES
    polys += [_mul([-2, 1], [0, 1], [1, 1], [4, 3]), _mul([2, 1], [-1, 1], [1, 1], [1, -5])]
    for f in polys:
        got = _nonnegative_roots(f)
        assert got == [(lo, hi) for lo, hi in real_roots(f) if lo >= 0], f
        for lo, hi in got:
            assert all((_hom(f, x.numerator, x.denominator) == 0) == (lo == hi) for x in (lo, hi))


def test_refinement_needs_half_the_signs(monkeypatch):
    """Exact sign evaluations per root that is not met exactly: at most half
    of bisection's, on a fixed seeded set (a count, not a time)."""
    counts = {}

    def counting(module, key):
        hom = module._hom

        def wrapped(*args):
            counts[key] = counts.get(key, 0) + 1
            return hom(*args)
        monkeypatch.setattr(module, "_hom", wrapped)
    counting(realroots, "qir")
    counting(reference_poly, "bisection")
    rng = random.Random(89)
    polys = [FAMILIES[name](rng) for name in ("random", "dyadic", "close", "tiny")
             for _ in range(25)]
    cells = 0
    for f in polys:
        found = _roots01(f)
        assert found == ref_roots01(f)
        cells += sum(lo != hi for lo, hi in found)
    assert cells > 100
    assert counts["qir"] / cells <= counts["bisection"] / cells / 2


def test_interval_width_and_float_midpoint():
    """The intervals are at most 2^-53 of their upper end wide, so the
    midpoint rounds to a float within one ulp of the root."""
    f = _mul([-1, 3], [-2, 0, 1])  # 1/3 and sqrt(2)
    roots = real_roots(f)
    assert [float((lo + hi) / 2) for lo, hi in roots] == pytest.approx(
        [-math.sqrt(2), 1 / 3, math.sqrt(2)], rel=2**-52)
    assert all(hi - lo <= hi * Fraction(1, 2**53) or lo == hi
               for lo, hi in roots if 0 <= lo <= hi <= 1)
