"""The symmetries of the Hermite matrix that ``psd_on_circle`` works under,
proved exactly: every Hermite matrix is in Hermite form (entry (i, j) carries
only harmonics = i + j mod 2, so H(theta + pi) = S H(theta) S,
S = diag((-1)^i)), the scan's leading grid angles meet every orbit of the
grid, the determinant in W = tan^2 theta takes one value on an orbit, and
Sylvester's signs agree across an orbit.  A linear change of p's coordinates
moves theta = pi/2, where T = tan theta is infinite, to a finite T, and a
curve even in x2, decided in W, to one decided in T; the mapped curve must
reach the same answers at the mapped angles."""
import functools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rigidconvex import (DimensionMismatchError, TrigMatrix, TrigPoly, circlepsd, parse_poly,
                         polycore)
from rigidconvex.circlepsd import (_GROUPS, GRID, GRID_SIZE, CircleVerdict, _circle_roots,
                                  psd_on_circle)
from rigidconvex.polycore import _horner, _image_sign, det_exact
from rigidconvex.hermite import hermite_matrix
from rigidconvex.locate import critical_points
from fixture_data import FIXTURE_NAMES, load_fixture
from linear_maps import angle_image, mapped, mod_pi, tan_image

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
def _curves(seeds: tuple) -> list:
    """The fixture curves and the check-rigid inputs (every check-rigid family)
    of the benchmark workloads at these seeds, recentred as check-rigid does."""
    texts = [load_fixture(name).get("poly") for name in FIXTURE_NAMES]
    for workload in ("hermite-ladder", "hermite-scan", "origin-locate"):
        for seed in seeds:
            texts += [case.argv[1].removeprefix("--poly=")
                      for case in workloads.build(workload, seed, ROOT)
                      if case.argv[0] == "check-rigid"]
    polys = [_recentred(parse_poly(text)) for text in dict.fromkeys(texts) if text]
    return [p for p in polys if p is not None]


@functools.cache
def _hermite_matrices(seeds: tuple) -> list:
    return [hermite_matrix(p) for p in _curves(seeds)]


SHEAR = ((1, 1), (0, 1))


def _orbit(k: int, cosine: bool) -> set:
    """The grid indices of k's orbit: k -> k + N/2, and k -> -k when cosine,
    N = GRID_SIZE."""
    return {(s * k + t * GRID_SIZE // 2) % GRID_SIZE
            for s in ((1, -1) if cosine else (1,)) for t in (0, 1)}


def test_every_hermite_matrix_is_graded():
    matrices = _hermite_matrices((1, 2))
    assert len(matrices) > 150 and {H.is_cosine() for H in matrices} == {True, False}
    for H in matrices:
        for i, row in enumerate(H.entries):
            for j, e in enumerate(row):
                for half in (e.re, e.im):
                    assert not any(x for k, x in enumerate(half) if (k - i - j) % 2)
    # and the image refuses a harmonic of the wrong parity, cosine or sine
    for e in (TrigPoly([1, 1]), TrigPoly([1], [0, 1]), TrigPoly([0, 0, 1])):
        with pytest.raises(DimensionMismatchError):
            TrigMatrix([[TrigPoly([1]), e], [e, TrigPoly([1])]])._image()


@pytest.mark.parametrize("cosine", list(_GROUPS))
def test_scan_prefix_meets_every_orbit(cosine):
    count, images = _GROUPS[cosine]
    orbits = [_orbit(k, cosine) for k in range(GRID_SIZE)]
    assert all(min(orbit) < count for orbit in orbits)
    assert min(orbits[count - 1]) == count - 1  # and no shorter prefix does
    # the images of a grid angle are the grid angles of its orbit
    step = GRID[1]
    for k in range(GRID_SIZE):
        assert {round(th / step) % GRID_SIZE for th in images(GRID[k])} == orbits[k]


def _random_graded_cosine(rng) -> TrigMatrix:
    """An up to 4 x 4 Hankel matrix of random cosine entries N_k of half-degree
    up to k with harmonics = k mod 2 only, as a Hermite matrix."""
    m = rng.randint(1, 4)
    gen = [TrigPoly([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * ((j - k) % 2 == 0)
                     for j in range(rng.randint(0, k) + 1)]) for k in range(2 * m - 1)]
    return TrigMatrix.from_hankel(gen, m)


def _cosine_value(e: TrigPoly, c: Fraction) -> Fraction:
    """A cosine-only e at the angle with cos theta = c, exactly:
    c_0 + 2 sum c_k cos(k theta), cos(k theta) by Chebyshev's recursion."""
    total, prev, cur = e.cos_coeff(0), Fraction(1), c
    for k in range(1, e.half_degree + 1):
        total += 2 * e.cos_coeff(k) * cur
        prev, cur = cur, 2 * c * cur - prev
    return total


def test_mirrored_det_equals_the_unmirrored_one():
    # the ladder's and fixtures' cosine Hermite matrices, and random Hankel
    # ones, whose W-degree bound n is odd about half the time: the image in
    # W = tan^2 theta has D(W) = scale (1+W)^n det H at theta and at its
    # mirror pi - theta alike (t = tan(theta/2) and 1/t, exact cos theta),
    # and det H comes back from it even in T = tan theta
    rng = random.Random(3)
    cosine = [H for H in _hermite_matrices((1,)) if H.is_cosine() and H.m > 1]
    randoms = [_random_graded_cosine(rng) for _ in range(120)]
    assert len(cosine) > 30 and {H._image()[2] % 2 for H in randoms} == {0, 1}
    for H in cosine + randoms:
        plan, polys, n, scale, key = H._image()
        assert key is True
        D = polycore._interpolate_minors(plan, polys, -(n // 2), n + 1)[0]
        det = H.det()
        assert det.is_cosine() and not any(det.int_poly()[0][1::2])
        for t in (Fraction(1, 3), Fraction(-5, 2), Fraction(7)):
            W = (2 * t / (1 - t * t)) ** 2
            for c in ((1 - t * t) / (1 + t * t), (t * t - 1) / (t * t + 1)):
                value = det_exact([[_cosine_value(e, c) for e in row] for row in H.entries])
                assert _horner(D, W) == scale * (1 + W) ** n * value
                assert _cosine_value(det, c) == value


def test_sylvester_signs_agree_across_an_orbit():
    # theta's orbit under H's group: theta, -theta, pi - theta and pi + theta
    # when H is cosine-only (one W = tan^2 theta), theta and theta + pi
    # otherwise (one T = tan theta).  q = p(A x), A the shear, on the line at
    # angle theta is p on the line through A (cos theta, sin theta), so q's
    # Hermite matrix there is H's at that angle under a diagonal congruence,
    # with H's leading minor signs; q, not even in x2, is read in T at the
    # rational points that A maps to T and, for a cosine H, to -T
    rng = random.Random(11)
    Ts = [Fraction(rng.choice([-1, 1]) * rng.randint(2, 60), rng.randint(1, 23))
          for _ in range(10)]
    inverse = ((1, -1), (0, 1))
    seen = set()
    for p in _curves((1,)):
        H, G = hermite_matrix(p), hermite_matrix(mapped(p, SHEAR))
        sign, other = _image_sign(H._image()), _image_sign(G._image())
        cosine = H.is_cosine()
        for T in Ts:
            s = sign(T * T if cosine else T)
            xs = [tan_image(inverse, t) for t in ((T, -T) if cosine else (T,))]
            assert [other(x * x if G.is_cosine() else x) for x in xs] == [s] * len(xs)
            seen.add((cosine, s))
    assert seen >= {(True, 1), (True, -1), (False, 1), (False, -1)}


def test_mapped_curve_has_the_same_status_and_roots():
    # the same status from p's Hermite matrix and from that of q = p(A x), A
    # the shear, and q's circle roots mapped by A are p's, mod pi: a curve even
    # in x2, decided in W, against one decided in T, and theta = pi/2 against
    # a finite T
    forms = set()
    for p in _curves((1, 2)):
        H = hermite_matrix(p)
        if H.m < 2:
            continue
        G = hermite_matrix(mapped(p, SHEAR))
        assert psd_on_circle(G).status == psd_on_circle(H).status
        found, found_q = _circle_roots(H._image()), _circle_roots(G._image())
        assert (found is None) == (found_q is None)
        if found is not None:
            assert mod_pi(found[1]) == pytest.approx(
                mod_pi([angle_image(SHEAR, th) for th in found_q[1]]), abs=1e-9)
            forms.add((H.is_cosine(), G.is_cosine(), math.pi / 2 in found[1]))
    assert {(True, False, True), (False, False, True), (True, False, False)} <= forms





def test_work_follows_the_symmetry(monkeypatch):
    # the scan's angles per group, and the determinant's Bareiss points: a
    # cosine H eliminates at the n+1 points of W = tan^2 theta, n = m(m-1)/2,
    # and a sine H at the 2n+1 points of T = tan theta.  The scan's first pass
    # takes every 8th angle of the domain; the probe at its minimum decides
    # the sine matrix NotPSD, and the PD and marginal ones scan the rest of
    # the domain in a second pass
    cubic = hermite_matrix(parse_poly("1-x1-4*x1^2-x2^2+4*x1^3"))  # n = 3
    sine = hermite_matrix(parse_poly("1-x1^2-x2^2+x2^3"))  # m = 3, n = 3
    cap = hermite_matrix(parse_poly("x1^2*(x1^2+x2^2)-2*(x1^2+x2^2-x2)^2")
                         .shifted(Fraction(0), Fraction(1, 2)))  # m = 4, n = 6
    scanned, eliminated = [], []
    eval_thetas, bareiss = TrigMatrix.eval_thetas, polycore._bareiss
    monkeypatch.setattr(TrigMatrix, "eval_thetas",
                        lambda H, thetas: scanned.append(list(thetas)) or eval_thetas(H, thetas))
    monkeypatch.setattr(polycore, "_bareiss",
                        lambda mat, swap=True: eliminated.append(swap) or bareiss(mat, swap))
    for H, grid, points, decided in ((cubic, 129, 4, False), (sine, 256, 7, True),
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
    # is infinite and D(T) loses its top coefficient.  The shear reads the
    # same line at theta = 3 pi/4, T = -1, and the swap of x1 and x2 at
    # theta = 0, W = 0
    p = parse_poly("1-x1^2-3*x2^2+2*x2^3")
    H = hermite_matrix(p)
    assert not H.is_cosine()
    D = H.det().int_poly()[0]
    assert D[-1] == 0 and any(D)
    verdict = psd_on_circle(H)
    assert verdict.status == CircleVerdict.MARGINAL
    assert verdict.circle_roots == (math.pi / 2, 3 * math.pi / 2)
    swap = ((0, 1), (1, 0))
    for A, roots in ((SHEAR, (3 * math.pi / 4, 7 * math.pi / 4)), (swap, (0.0, math.pi))):
        other = psd_on_circle(hermite_matrix(mapped(p, A)))
        assert other.status == verdict.status
        assert other.circle_roots == pytest.approx(roots, abs=1e-12)
        assert [angle_image(A, th) for th in roots] == pytest.approx([math.pi / 2] * 2, abs=1e-12)


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
