"""The circle test of a curve even in x2, in W = tan^2 theta: ``hermite_image``
gives the Hankel matrix of 2^k s_k(W), and ``hermite_psd`` isolates the
roots of its determinant D(W) on W >= 0 (theta in [0, pi/2])."""
import math
import random
from fractions import Fraction

import pytest

from rigidconvex import Poly, hermite_matrix, parse_poly, psd_on_circle
from rigidconvex.circlepsd import CircleVerdict, _circle_roots, hermite_psd
from rigidconvex.hermite import hermite_image
from rigidconvex.polycore import _horner, _interpolate_minors


def w_det(image) -> list:
    """D(W) of a W image, interpolated at its n + 1 points as ``hermite_psd``
    takes it."""
    plan, polys, n, *_ = image
    return _interpolate_minors(plan, polys, -(n // 2), n + 1)[0]


def test_roots_at_zero_and_at_a_right_angle():
    # (1-x2^2)(1-x1^2-x2^2): the x1-axis meets the curve twice at infinity
    # and the x2-axis touches it at x2 = +-1, so D(W) vanishes at W = 0
    # (theta = 0) and loses its top coefficient n = m(m-1)/2 = 6 (theta = pi/2)
    p = parse_poly("(1-x2^2)*(1-x1^2-x2^2)")
    image = hermite_image(p)[0]
    assert image[4] is True and image[2] == 6
    D = w_det(image)
    assert D[0] == 0 and D[6] == 0 and any(D)
    verdict = hermite_psd(p)
    assert verdict.status == CircleVerdict.MARGINAL
    assert verdict.circle_roots == (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
    reference = psd_on_circle(hermite_matrix(p))
    assert (reference.status, reference.circle_roots) == (verdict.status, verdict.circle_roots)


def test_w_det_is_det_h_times_a_power_of_one_plus_t_squared():
    # D(T^2) = c (1+T^2)^(m(m-1)/2) det H at rational T = tan theta, one
    # c > 0 per p; det H = DT(T) / ((1+T^2)^(h/2) den), DT the T form of
    # det H at its half-degree h, even in T.  The image's determinant at W is
    # taken directly (sympy) and must equal the interpolated D there.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for _ in range(8):
        deg = rng.randint(2, 5)
        terms = {(a, b): Fraction(rng.randint(-3, 3))
                 for a in range(deg + 1) for b in range(0, deg + 1 - a, 2)}
        terms[(0, 0)] = Fraction(rng.choice([-2, 1, 3]))
        terms[(deg, 0)] = Fraction(rng.choice([-1, 2]))
        p = Poly(terms)
        image = hermite_image(p)[0]
        plan, polys, n, _, key = image
        assert key is True and n == deg * (deg - 1) // 2
        D = w_det(image)
        det = hermite_matrix(p).det()
        DT, den = det.int_poly()
        assert not any(DT[1::2])
        ratios = set()
        for T in (Fraction(0), Fraction(1, 3), Fraction(-2), Fraction(7, 5), Fraction(-11, 4)):
            W = T * T
            at = [_horner(poly, W) for poly in polys]
            direct = sympy.Matrix([[f * sympy.Rational(at[k].numerator, at[k].denominator)
                                    for f, k in row] for row in plan]).det()
            assert direct == _horner(D, W)
            det_h = (sum(x * W ** (k // 2) for k, x in enumerate(DT))
                     / ((1 + W) ** (det.half_degree // 2) * den))
            if det_h:
                ratios.add(Fraction(direct) / ((1 + W) ** n * det_h))
            else:
                assert direct == 0
        assert len(ratios) == 1 and ratios.pop() > 0


@pytest.mark.parametrize("text", [
    "(1-x2^2)*(1-x1^2-x2^2)",  # roots at theta = 0 and pi/2 only
    "(1-x1^2-4*x2^2)*(1-4*x1^2-x2^2)",  # the ellipses cross at theta = pi/4
    "(1-x1^2-4*x2^2)*(1-4*x1^2-x2^2)*(1-2*x1^2-3*x2^2+x1)",
    "1-x1^2-3*x2^2+x1^4",
])
def test_one_point_on_every_arc(text):
    # the arcs of theta in [0, pi/2] between the roots each get one rational
    # point: in angle order, points and roots alternate, with a point at
    # either end unless 0 or pi/2 is a root
    angles, _, points = _circle_roots(hermite_image(parse_poly(text))[0])
    assert angles
    for x, theta in points:
        assert theta == math.atan(math.sqrt(x))
    kinds = [kind for _, kind in sorted([(a, "root") for a in angles]
                                        + [(th, "point") for _, th in points])]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))
    assert (kinds[0] == "root") == (0.0 in angles)
    assert (kinds[-1] == "root") == (math.pi / 2 in angles)
