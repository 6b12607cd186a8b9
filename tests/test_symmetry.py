"""The symmetries of the Hermite matrix that ``psd_on_circle`` works under,
proved exactly: every Hermite matrix is graded (entry (i, j) carries only
harmonics = i + j mod 2, so H(theta + pi) = S H(theta) S, S = diag((-1)^i)),
the scan's leading grid angles meet every orbit of the grid, the
determinant in W = tan^2 theta takes one value on an orbit, and Sylvester's
signs agree across an orbit.  A unimodular congruence that breaks the
grading runs the same routine with a smaller group, in tan(theta/2), and
must reach the same answers."""
import functools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rigidconvex import TrigMatrix, TrigPoly, circlepsd, parse_poly, polycore
from rigidconvex.circlepsd import (_GROUPS, GRID, GRID_SIZE, CircleVerdict, _circle_roots,
                                  psd_on_circle)
from rigidconvex.polycore import _horner, _image_sign, det_exact
from rigidconvex.hermite import hermite_matrix
from rigidconvex.locate import critical_points
from fixture_data import FIXTURE_NAMES, load_fixture
from trig_helpers import tadd

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from bench import workloads  # noqa: E402


def _recentred(p):
    """p as check-rigid reads it: when p(0) = 0, shifted to its first critical
    point off the curve (None without one)."""
    if p.coeff((0, 0)):
        return p
    norm = max(abs(v / p.den) for v in p.ints.values())
    pivot = next((c for c in (critical_points(p) if p.degree >= 2 else [])
                  if abs(float(p(*c.x))) > 1e-9 * norm), None)
    return pivot and p.shifted(*[Fraction(v) for v in pivot.x])


@functools.cache
def _hermite_matrices(seeds: tuple) -> list:
    """The Hermite matrices of the fixture curves and of the check-rigid inputs
    (every check-rigid family) of the benchmark workloads at these seeds,
    recentred as check-rigid does."""
    texts = [load_fixture(name).get("poly") for name in FIXTURE_NAMES]
    for workload in ("hermite-ladder", "hermite-scan", "origin-locate"):
        for seed in seeds:
            texts += [case.argv[1].removeprefix("--poly=")
                      for case in workloads.build(workload, seed, ROOT)
                      if case.argv[0] == "check-rigid"]
    polys = [_recentred(parse_poly(text)) for text in dict.fromkeys(texts) if text]
    return [hermite_matrix(p) for p in polys if p is not None]


def _sheared(H: TrigMatrix) -> TrigMatrix:
    """W H W^T for W = I + E_10 (row and then column 1 += row and column 0):
    W is unimodular and lower unitriangular, so H's inertia at every theta and
    every leading principal minor stay, and det is unchanged; entry (0, 1)
    gains H_00's constant, so the result is not graded."""
    rows = [list(row) for row in H.entries]
    rows[1] = [tadd(a, b) for a, b in zip(rows[1], rows[0])]
    for row in rows:
        row[1] = tadd(row[1], row[0])
    return TrigMatrix(rows)


def _orbit(k: int, cosine: bool, graded: bool) -> set:
    """The grid indices of k's orbit: k -> -k when cosine, k -> k + N/2 when
    graded, N = GRID_SIZE."""
    return {(s * k + t * GRID_SIZE // 2) % GRID_SIZE
            for s in ((1, -1) if cosine else (1,)) for t in ((0, 1) if graded else (0,))}


def test_every_hermite_matrix_is_graded():
    matrices = _hermite_matrices((1, 2))
    assert len(matrices) > 150 and {H.is_cosine() for H in matrices} == {True, False}
    for H in matrices:
        for i, row in enumerate(H.entries):
            for j, e in enumerate(row):
                for half in (e.re, e.im):
                    assert not any(x for k, x in enumerate(half) if (k - i - j) % 2)
        assert H.is_graded()
    # and the check sees a harmonic of the wrong parity, cosine or sine
    for e in (TrigPoly([1, 1]), TrigPoly([1], [0, 1]), TrigPoly([0, 0, 1])):
        assert not TrigMatrix([[TrigPoly([1]), e], [e, TrigPoly([1])]]).is_graded()


@pytest.mark.parametrize("cosine, graded", list(_GROUPS))
def test_scan_prefix_meets_every_orbit(cosine, graded):
    count, images = _GROUPS[cosine, graded]
    orbits = [_orbit(k, cosine, graded) for k in range(GRID_SIZE)]
    assert all(min(orbit) < count for orbit in orbits)
    assert min(orbits[count - 1]) == count - 1  # and no shorter prefix does
    # the images of a grid angle are the grid angles of its orbit
    step = GRID[1]
    for k in range(GRID_SIZE):
        assert {round(th / step) % GRID_SIZE for th in images(GRID[k])} == orbits[k]


def _random_graded_cosine(rng) -> TrigMatrix:
    """A symmetric matrix of up to 4 x 4 random cosine entries, entry (i, j)
    of half-degree up to 4 and harmonics = i + j mod 2 only."""
    m = rng.randint(1, 4)
    rows = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            c = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if (k - i - j) % 2 == 0 else 0
                 for k in range(rng.randint(0, 4) + 1)]
            rows[i][j] = rows[j][i] = TrigPoly(c)
    return TrigMatrix(rows)


def _cosine_value(e: TrigPoly, c: Fraction) -> Fraction:
    """A cosine-only e at the angle with cos theta = c, exactly:
    c_0 + 2 sum c_k cos(k theta), cos(k theta) by Chebyshev's recursion."""
    total, prev, cur = e.cos_coeff(0), Fraction(1), c
    for k in range(1, e.half_degree + 1):
        total += 2 * e.cos_coeff(k) * cur
        prev, cur = cur, 2 * c * cur - prev
    return total


def test_mirrored_det_equals_the_unmirrored_one():
    # the ladder's and fixtures' cosine Hermite matrices, and random graded
    # ones, whose W-degree bound n is odd about half the time: the image in
    # W = tan^2 theta has D(W) = scale (1+W)^n det H at theta and at its
    # mirror pi - theta alike (t = tan(theta/2) and 1/t, exact cos theta),
    # and det H comes back from it even in T = tan theta
    rng = random.Random(3)
    cosine = [H for H in _hermite_matrices((1,)) if H.is_cosine() and H.m > 1]
    randoms = [_random_graded_cosine(rng) for _ in range(120)]
    assert len(cosine) > 30 and {H._image()[2] % 2 for H in randoms} == {0, 1}
    for H in cosine + randoms:
        assert H.is_graded()
        plan, polys, n, scale, key = H._image()
        assert key == (True, True)
        D = polycore._interpolate_minors(plan, polys, -(n // 2), n + 1)[0]
        det = H.det()
        assert det.is_cosine() and not any(det.int_poly(True)[0][1::2])
        for t in (Fraction(1, 3), Fraction(-5, 2), Fraction(7)):
            W = (2 * t / (1 - t * t)) ** 2
            for c in ((1 - t * t) / (1 + t * t), (t * t - 1) / (t * t + 1)):
                value = det_exact([[_cosine_value(e, c) for e in row] for row in H.entries])
                assert _horner(D, W) == scale * (1 + W) ** n * value
                assert _cosine_value(det, c) == value


def test_sylvester_signs_agree_across_an_orbit():
    # theta's orbit under a graded H's group: theta, -theta, pi - theta and
    # pi + theta when H is cosine-only (one W = tan^2 theta), theta and
    # theta + pi otherwise (one T = tan theta).  The sheared matrix, not
    # graded, has H's leading minors and tells them apart in t = tan(theta/2):
    # at W = t^2 and 1/t^2, or at t and -1/t
    rng = random.Random(11)
    xs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 23))
          for _ in range(10)]
    seen = set()
    for H in _hermite_matrices((1,)):
        sign, other = _image_sign(H._image()), _image_sign(_sheared(H)._image())
        cosine = H.is_cosine()
        for x in xs:
            T = 2 * x / (1 - x * x)
            s, *rest = ((sign(T * T), other(x * x), other(1 / (x * x))) if cosine
                        else (sign(T), other(x), other(-1 / x)))
            assert rest == [s] * len(rest)
            seen.add((cosine, s))
    assert seen >= {(True, 1), (True, -1), (False, 1), (False, -1)}


def test_trivial_group_path_agrees_on_a_congruent_matrix():
    # the same status and circle roots from the graded domain, in tan theta,
    # and from the smaller group's, in tan(theta/2); WHW^T has H's leading
    # minors and det
    for H in _hermite_matrices((1, 2)):
        if H.m < 2:
            continue
        G = _sheared(H)
        cosine = H.is_cosine()
        assert G.is_cosine() == cosine and H.is_graded() and not G.is_graded()
        assert G.det() == H.det()
        assert psd_on_circle(G).status == psd_on_circle(H).status
        found = _circle_roots(H._image())
        if found is not None:
            assert found[1] == pytest.approx(_circle_roots(G._image())[1], abs=1e-9)


def test_work_follows_the_symmetry(monkeypatch):
    # the scan's angles per group, and the determinant's Bareiss points: a
    # graded cosine H eliminates at the n/2+1 points of W = tan^2 theta, a
    # graded sine H at n+1 points in T = tan theta, and a matrix without the
    # grading at n+1 in W = tan^2(theta/2) or 2n+1 in t = tan(theta/2).  The
    # shifted capricorn's entry (0, 1) is zero, so its column minima
    # b = (0, 0, 2, 3) are raised to the parity of the column in T:
    # b = (0, 1, 2, 3), a = (0, 1, 2, 3) and n = 12.  The scan's first pass
    # takes every 8th angle of the domain; the probe at its minimum decides
    # both sine matrices NotPSD, and the PD and marginal ones scan the rest
    # of the domain in a second pass
    cubic = hermite_matrix(parse_poly("1-x1-4*x1^2-x2^2+4*x1^3"))  # n = 6
    sine = hermite_matrix(parse_poly("1-x1^2-x2^2+x2^3"))  # m = 3, n = 6
    cap = hermite_matrix(parse_poly("x1^2*(x1^2+x2^2)-2*(x1^2+x2^2-x2)^2")
                         .shifted(Fraction(0), Fraction(1, 2)))
    scanned, eliminated = [], []
    eval_thetas, bareiss = TrigMatrix.eval_thetas, polycore._bareiss
    monkeypatch.setattr(TrigMatrix, "eval_thetas",
                        lambda H, thetas: scanned.append(list(thetas)) or eval_thetas(H, thetas))
    monkeypatch.setattr(polycore, "_bareiss",
                        lambda mat, swap=True: eliminated.append(swap) or bareiss(mat, swap))
    for H, grid, points, decided in ((cubic, 129, 4, False), (_sheared(cubic), 257, 7, False),
                                     (sine, 256, 7, True), (_sheared(sine), 512, 13, True),
                                     (cap, 256, 13, False)):
        scanned.clear()
        verdict = psd_on_circle(H)
        assert (verdict.status == CircleVerdict.NOT_PSD) == decided
        assert scanned[0] == list(GRID[:grid:8])
        if decided:
            assert len(scanned) == 1
        else:
            assert sorted(scanned[0] + scanned[1]) == list(GRID[:grid])
        eliminated.clear()
        H.det()
        assert eliminated == [True] * points


def test_degree_loss_at_a_right_angle():
    # p(0, s) = (1-s)^2 (1+2s): the vertical line through the origin touches
    # the curve at x2 = 1, so det H vanishes at theta = pi/2, where T = tan theta
    # is infinite and D(T) loses its top coefficient; the sheared matrix reads
    # the same root at t = tan(theta/2) = 1
    H = hermite_matrix(parse_poly("1-x1^2-3*x2^2+2*x2^3"))
    assert H.is_graded() and not H.is_cosine()
    D = H.det().int_poly(True)[0]
    assert D[-1] == 0 and any(D)
    verdict, sheared = psd_on_circle(H), psd_on_circle(_sheared(H))
    assert verdict.status == CircleVerdict.MARGINAL
    assert verdict.circle_roots == (math.pi / 2, 3 * math.pi / 2)
    assert (sheared.status, sheared.circle_roots) == (verdict.status, verdict.circle_roots)


def test_minor_probe_reads_tan_theta(monkeypatch):
    # the scan's witness, a grid angle, and the leading minors at T = tan theta
    # there, none of which reaches det: 1+x2^3 and 1-x1^2+x2^3 have theirs at
    # theta = pi/2 exactly, where T is about 1.6e16; the first has a zero
    # diagonal entry in a nonzero row, the second a negative minor.  The
    # quadric's minor is negative at tan theta and not at tan(theta/2)
    monkeypatch.setattr(circlepsd, "_circle_roots", lambda image: pytest.fail("det reached"))
    for text, k, shortcut in (("1+x2^3", GRID_SIZE // 4, True), ("1-x1^2+x2^3", GRID_SIZE // 4, False),
                              ("1+2*x2+x2^2-x1-5*x1*x2+x1^2", 208, False)):
        H = hermite_matrix(parse_poly(text))
        verdict = psd_on_circle(H)
        assert (verdict.status, verdict.shortcut) == (CircleVerdict.NOT_PSD, shortcut)
        assert verdict.witness_theta == GRID[k]
        x = Fraction(math.tan(GRID[k])).limit_denominator(2**20)
        assert _image_sign(H._image())(x) == (0 if shortcut else -1)
    assert GRID[GRID_SIZE // 4] == math.pi / 2 and math.tan(math.pi / 2) > 1e16
