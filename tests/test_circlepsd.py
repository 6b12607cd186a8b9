import math
from fractions import Fraction

import numpy as np
import pytest

from rigidconvex import DimensionMismatchError, TrigMatrix, TrigPoly, parse_poly
from rigidconvex.circlepsd import (
    GRID_SIZE,
    CircleVerdict,
    MatrixPoly,
    build_sdp,
    circle_roots_of,
    hermite_psd,
    psd_on_circle,
    verify_spectral_factor,
    write_sdpa,
)
from rigidconvex.hermite import hermite_matrix
from trig_helpers import tadd, teval, tmul, tpow, tscale

CUBIC_H = hermite_matrix(parse_poly("1-x1-4*x1^2-x2^2+4*x1^3"))
TV_H = hermite_matrix(parse_poly("1-x1^4-x2^4"))
DISC_H = hermite_matrix(parse_poly("1-x1^2-x2^2"))
# a product of two ellipses, each tangent to the other's axis; cos^4 theta
# divides det H
ELLIPSES = ("1-6*x2^2+9*x2^4-2*x1^1+6*x1^1*x2^2-7*x1^2+21*x1^2*x2^2+6*x1^3+12*x1^4")
# det(I + x1 A + x2 B) of degree 6, even in x2: rigidly convex, PD on the circle
EVEN_PENCIL = ("1-21*x2^2+76*x2^4-16*x2^6-3*x1^1+56*x1^1*x2^2-168*x1^1*x2^4-10*x1^2"
               "+74*x1^2*x2^2+80*x1^2*x2^4+26*x1^3-249*x1^3*x2^2+18*x1^4+140*x1^4*x2^2"
               "-60*x1^5+24*x1^6")

# the published 4-decimal spectral factor for the cubic-curve Hermite matrix
PAPER_U = MatrixPoly.from_lists([
    [[-0.9021, 0.0, -11.7639], [0.0, 4.3449, 0.0], [1.1578, 0.0, 2.4331]],
    [[0.0, -0.5284, 0.0], [0.1925, 0.0, 0.7771], [0.0, 0.3819, 0.0]],
    [[-0.7094, 0.0, -9.6359], [0.0, 1.6218, 0.0], [-0.5527, 0.0, -2.8689]],
    [[0.0, 0.2027, 0.0], [0.0, 0.0, -0.5411], [0.0, 0.1579, 0.0]],
    [[0.0, 0.0, -1.5201], [0.0, 0.0, 0.0], [0.0, 0.0, -1.1844]],
])


def congruence(H: TrigMatrix, w) -> TrigMatrix:
    """W H W^T exactly, W's float entries read as the binary rationals they are."""
    W = [[Fraction(float(x)) for x in row] for row in w]
    out = [[None] * H.m for _ in range(H.m)]
    for i in range(H.m):
        for j in range(i, H.m):
            acc = TrigPoly()
            for a in range(H.m):
                for b in range(H.m):
                    if W[i][a] and W[j][b]:
                        acc = tadd(acc, tscale(H.entries[a][b], W[i][a] * W[j][b]))
            out[i][j] = out[j][i] = acc
    return TrigMatrix(out)


def scaling(H: TrigMatrix, theta0: float) -> np.ndarray:
    """W with W H(e^{i theta0}) W^T = I, for H positive definite there."""
    evals, vecs = np.linalg.eigh(H.eval_thetas([theta0])[0])
    return np.diag(1.0 / np.sqrt(evals)) @ vecs.T


def binary(H: TrigMatrix) -> bool:
    """Whether some entry of H carries a long binary denominator."""
    return any(x.denominator > 2**40 for row in H.entries for e in row for x in e.c + e.s)


def max_abs_coeff(H: TrigMatrix) -> float:
    """Largest |coefficient|, cosine or sine, over H's entries."""
    return max((abs(float(x)) for row in H.entries for e in row for x in e.c + e.s),
               default=0.0)


def tolerance(H: TrigMatrix) -> float:
    """1e-9 max(1, largest |coefficient| of H): the scale at which the tests
    compare a verdict's least eigenvalue with zero."""
    return 1e-9 * max(1.0, max_abs_coeff(H))


def brute_force_min_eig(H, samples=10000):
    thetas = np.linspace(0, 2 * np.pi, samples, endpoint=False)
    return min(float(np.linalg.eigvalsh(H.eval_thetas([t])[0]).min()) for t in thetas)


# ---------------------------------------------------------------------------
# psd_on_circle
# ---------------------------------------------------------------------------

def test_cubic_curve_is_pd():
    verdict = psd_on_circle(CUBIC_H)
    assert verdict.status == CircleVerdict.PD
    assert verdict.min_eig > 0


def test_tv_screen_not_psd_via_shortcut():
    verdict = psd_on_circle(TV_H)
    assert verdict.status == CircleVerdict.NOT_PSD
    assert verdict.shortcut


def test_structural_zero_decides_below_tolerance():
    # [[0, e], [e, 1]] with e = 10^-6 is not PSD, but its least eigenvalue,
    # about -e^2, lies inside the tolerance: the zero diagonal entry decides
    e = TrigPoly([Fraction(1, 10**6)])
    H = TrigMatrix([[TrigPoly(), e], [e, TrigPoly([1])]])
    verdict = psd_on_circle(H)
    assert verdict.status == CircleVerdict.NOT_PSD and verdict.shortcut
    assert -tolerance(H) < verdict.min_eig < 0
    assert verdict.circle_roots == ()


def test_disc_is_pd():
    assert psd_on_circle(DISC_H).status == CircleVerdict.PD


def test_psd_on_circle_builds_one_image_per_matrix(monkeypatch):
    # the signs and the circle roots read the same integer image of H: one build per matrix
    # that reaches the determinant (PD, marginal cosine and sine-carrying)
    cap = parse_poly("x1^2*(x1^2+x2^2)-2*(x1^2+x2^2-x2)^2").shifted(Fraction(0), Fraction(1, 2))
    cases = [(DISC_H, CircleVerdict.PD), (CUBIC_H, CircleVerdict.PD),
             (hermite_matrix(parse_poly(ELLIPSES)), CircleVerdict.MARGINAL),
             (hermite_matrix(cap), CircleVerdict.MARGINAL)]
    built = []
    image = TrigMatrix._image
    monkeypatch.setattr(TrigMatrix, "_image", lambda H: built.append(H) or image(H))
    for H, status in cases:
        built.clear()
        assert psd_on_circle(H).status == status
        assert built == [H]


def test_marginal_scalar():
    H = TrigMatrix([[TrigPoly([2, 1])]])  # 2 + (z+z^-1) = 2 + 2cos(theta)
    verdict = psd_on_circle(H)
    assert verdict.status == CircleVerdict.MARGINAL
    assert verdict.witness_theta == pytest.approx(np.pi, abs=1e-6)
    assert verdict.min_eig == pytest.approx(0.0, abs=1e-9)


def test_even_pencil_is_pd():
    # the scan's least eigenvalue, 0.0091, is far below 1e-9 times H's largest
    # coefficient (1.14); D(W) has no root in [0, inf) and H(0) is PD exactly
    H = hermite_matrix(parse_poly(EVEN_PENCIL))
    verdict = psd_on_circle(H)
    assert verdict.status == CircleVerdict.PD
    assert 0 < verdict.min_eig < tolerance(H)


def test_ellipse_product_is_marginal_at_a_quadruple_root():
    H = hermite_matrix(parse_poly(ELLIPSES))
    D, _ = H.det().int_poly(True)
    assert D[-4:] == [0, 0, 0, 0] and D[-5]  # in T = tan theta: cos^4 divides det H, cos^6 does not
    verdict = psd_on_circle(H)
    assert verdict.status == CircleVerdict.MARGINAL
    assert verdict.circle_roots == pytest.approx((np.pi / 2, 3 * np.pi / 2), abs=1e-12)


def test_negative_scalar():
    H = TrigMatrix([[TrigPoly([-1, 1])]])  # -1 + 2cos(theta)
    verdict = psd_on_circle(H)
    assert verdict.status == CircleVerdict.NOT_PSD
    # witness where value is most negative: theta = pi
    assert verdict.witness_theta == pytest.approx(np.pi, rel=1e-3)


def test_identically_zero_det_inconclusive():
    zero = TrigPoly()
    one = TrigPoly([1])
    H = TrigMatrix([[one, zero], [zero, zero]])
    # zero diagonal with zero row: shortcut must NOT fire, det == 0
    verdict = psd_on_circle(H)
    assert verdict.status == CircleVerdict.INCONCLUSIVE


def test_brute_force_agreement_on_fixtures():
    for H in (CUBIC_H, TV_H, DISC_H):
        verdict = psd_on_circle(H)
        brute = brute_force_min_eig(H)
        if verdict.status == CircleVerdict.PD:
            assert brute > 0
        elif verdict.status == CircleVerdict.NOT_PSD:
            assert brute < tolerance(H)
        else:
            assert abs(brute) <= 10 * tolerance(H)


def test_congruence_invariance_of_classification():
    rng = np.random.default_rng(3)
    for H in (CUBIC_H, TV_H):
        base = psd_on_circle(H).is_psd
        for _ in range(3):
            w = rng.normal(size=(H.m, H.m))
            w += H.m * np.eye(H.m)  # keep well-conditioned
            assert psd_on_circle(congruence(H, w)).is_psd == base


def test_notpsd_witness_consistent_with_det_sign_or_shortcut():
    verdict = psd_on_circle(TV_H)
    assert verdict.shortcut or verdict.circle_roots


def test_circle_roots_of_marginal_case():
    # the double zero of z + 2 + z^-1 is one distinct root, at theta = pi,
    # where W = tan^2(theta/2) is infinite: D(W) = 4 drops its degree 1; the
    # one arc left gets one point, W = 0
    roots, points = circle_roots_of(TrigPoly([2, 1]))
    assert roots == [np.pi]
    assert points == [(0, 0.0)]


def laurent_coeffs(det: TrigPoly) -> np.ndarray:
    """Complex coefficients [l_-d, ..., l_0, ..., l_d] of det."""
    re, im, den = det.re, det.im or [0] * len(det.re), det.den
    return np.array([complex(x / den, y / den) for x, y in
                     zip(re[:0:-1] + re, [-y for y in im[:0:-1]] + im)])


def numpy_circle_roots(det: TrigPoly, tol: float = 1e-6) -> list[float]:
    """Reference circle roots: the companion-matrix roots of z^d det(z) within
    tol of the unit circle, a multiple root once per copy."""
    if det.is_zero() or det.half_degree == 0:
        return []
    roots = np.roots(laurent_coeffs(det)[::-1])
    return sorted(float(np.angle(r)) % (2 * np.pi) for r in roots if abs(abs(r) - 1.0) < tol)


def _cos_product(angles, sine_shift=None) -> TrigPoly:
    """prod_j (2 cos theta - 2 cos a_j), simple zeros at +-a_j, times
    1 + sin(theta - sine_shift) / 2 (no zero) when sine_shift is given."""
    out = TrigPoly([1])
    for a in angles:
        out = tmul(out, TrigPoly([Fraction(-2 * np.cos(a)), 1]))
    if sine_shift is not None:
        c, s = Fraction(np.cos(sine_shift)), Fraction(np.sin(sine_shift))
        out = tmul(out, TrigPoly([1, -s / 4], [0, -c / 4]))
    return out


def test_circle_roots_match_numpy_reference_on_simple_roots():
    import random

    rng = random.Random(5)
    for trial in range(12):
        angles = sorted(rng.uniform(0.2, 2.9) for _ in range(rng.randint(1, 4)))
        det = _cos_product(angles, rng.uniform(0, 6) if trial % 2 else None)
        roots, points = circle_roots_of(det)
        assert roots == pytest.approx(numpy_circle_roots(det), abs=1e-7)
        assert roots == pytest.approx(sorted(angles + [2 * np.pi - a for a in angles]),
                                      abs=1e-12)
        # one point per arc; in W = tan^2(theta/2) an interval stands for two arcs
        assert len(points) == (len(roots) // 2 + 1 if trial % 2 == 0 else len(roots))


# ---------------------------------------------------------------------------
# SDP export
# ---------------------------------------------------------------------------

def test_build_sdp_cubic_sizes():
    prob = build_sdp(CUBIC_H)
    assert prob.block_size == 15
    assert prob.num_vars == 78


def test_build_sdp_tv_sizes():
    prob = build_sdp(TV_H)
    assert prob.block_size == 20
    assert prob.num_vars == 136


def test_build_sdp_scalar_trivial():
    prob = build_sdp(TrigMatrix([[TrigPoly([3])]]))
    assert prob.block_size == 1
    assert prob.num_vars == 0
    assert prob.L0 == ((3,),)


def test_sdp_roundtrip_recovers_H():
    for H in (CUBIC_H, TV_H, DISC_H):
        prob = build_sdp(H)
        assert prob.reconstruct() == H


def test_sdpa_file_format(tmp_path):
    prob = build_sdp(CUBIC_H)
    path = tmp_path / "cubic.dat-s"
    write_sdpa(prob, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "78"
    assert lines[1] == "1"
    assert lines[2] == "15"
    obj = lines[3].split()
    assert len(obj) == 78
    assert obj.count("-1") == 12  # one per diagonal variable of P
    body = [ln.split() for ln in lines[4:]]
    for mat, blk, i, j, val in body:
        assert blk == "1"
        assert 1 <= int(i) <= int(j) <= 15
        float(val)
    # every variable contributes exactly two entries
    counts = {}
    for mat, *_ in body:
        counts[mat] = counts.get(mat, 0) + 1
    for k in range(1, 79):
        assert counts[str(k)] == 2


def test_sdpa_variable_structure():
    prob = build_sdp(DISC_H)  # m=2, d=0: no variables
    assert prob.num_vars == 0
    assert list(prob.variable_entries()) == []


# ---------------------------------------------------------------------------
# spectral factor verification
# ---------------------------------------------------------------------------

def test_paper_factor_passes():
    report = verify_spectral_factor(CUBIC_H, PAPER_U, tol=1e-2)
    assert report.passed
    assert report.relative <= 1e-2


def test_identity_factor_zero_residual():
    one = TrigPoly([1])
    zero = TrigPoly()
    H = TrigMatrix([[one, zero], [zero, one]])
    U = MatrixPoly.from_lists([np.eye(2)])
    report = verify_spectral_factor(H, U, tol=1e-12)
    assert report.max_residual == pytest.approx(0.0, abs=1e-13)
    assert report.passed


def test_forced_1x1_factor():
    # (1 + z^-1)(1 + z) = 2 + z + z^-1
    H = TrigMatrix([[TrigPoly([2, 1])]])
    U = MatrixPoly.from_lists([[[1.0]], [[1.0]]])
    report = verify_spectral_factor(H, U, tol=1e-12)
    assert report.max_residual == pytest.approx(0.0, abs=1e-12)


def test_factor_dimension_mismatch():
    U = MatrixPoly.from_lists([np.eye(2)])
    with pytest.raises(DimensionMismatchError):
        verify_spectral_factor(CUBIC_H, U)


def test_matrixpoly_json_roundtrip():
    again = MatrixPoly.from_json_dict(PAPER_U.to_json_dict())
    assert again == PAPER_U


# ---------------------------------------------------------------------------
# harder cases: no shortcut, sine-carrying entries, marginal strips
# ---------------------------------------------------------------------------

def test_notpsd_without_shortcut():
    # perturbing the quartic gives nonzero diagonals, so the eigenvalue
    # route (not the structural shortcut) must find the violation
    H = hermite_matrix(parse_poly("1-x1-x1^4-x2^4"))
    verdict = psd_on_circle(H)
    assert verdict.status == CircleVerdict.NOT_PSD
    assert not verdict.shortcut
    assert verdict.witness_theta == pytest.approx(np.pi / 2, abs=1e-6)
    assert verdict.min_eig == pytest.approx(-64.0, rel=1e-9)


def test_notpsd_decided_on_an_arc():
    # H = diag(1, f), f = (cos theta - 1/3)^2 - 10^-8, is negative only on two
    # arcs of width 2.1e-4 around +-arccos(1/3), which fall between the scan's
    # angles: its least eigenvalue there is +1.26e-5.  Only Sylvester's test on
    # the arcs between the circle roots of det H = f decides, at the rational
    # point between two roots near W = tan^2(theta/2) = 1/2, where f is about -10^-8.
    f = TrigPoly([Fraction(11, 18) - Fraction(1, 10**8), Fraction(-1, 3), Fraction(1, 4)])
    H = TrigMatrix([[TrigPoly([1]), TrigPoly()], [TrigPoly(), f]])
    grid = np.linspace(0.0, 2 * np.pi, GRID_SIZE, endpoint=False)
    assert np.linalg.eigvalsh(H.eval_thetas(grid))[:, 0].min() > 1.2e-5
    verdict = psd_on_circle(H)
    assert verdict.status == CircleVerdict.NOT_PSD and not verdict.shortcut
    roots = verdict.circle_roots
    assert len(roots) == 4 and roots[0] < verdict.witness_theta < roots[1]
    assert abs(math.cos(verdict.witness_theta) - 1 / 3) < 1e-4
    assert verdict.min_eig == pytest.approx(-1e-8, rel=1e-6)


def test_strip_is_marginal():
    # 1 - x1^2 >= 0 is a strip: PSD along the circle with kernel directions
    verdict = psd_on_circle(hermite_matrix(parse_poly("1-x1^2")))
    assert verdict.status == CircleVerdict.MARGINAL
    assert verdict.circle_roots
    assert all(abs(abs(r - np.pi / 2) % np.pi) < 1e-6 or
               abs(abs(r - np.pi / 2) % np.pi - np.pi) < 1e-6
               for r in verdict.circle_roots)


def test_sine_carrying_matrix_psd_and_det():
    # recentring the capricorn at its interior critical point produces a
    # matrix with genuine sine parts; verdict must stay PSD (marginal: the
    # curve's singular point sits on the component boundary)
    from fractions import Fraction

    cap = parse_poly("x1^2*(x1^2+x2^2)-2*(x1^2+x2^2-x2)^2")
    recentred = cap.shifted(Fraction(0), Fraction(1, 2))
    H = hermite_matrix(recentred)
    assert not H.is_cosine()
    verdict = psd_on_circle(H)
    assert verdict.status == CircleVerdict.MARGINAL

    det = H.det()
    rng = np.random.default_rng(12)
    for theta in rng.uniform(0, 2 * np.pi, 25):
        sym = teval(det, theta)
        num = float(np.linalg.det(H.eval_thetas([theta])[0]))
        assert sym == pytest.approx(num, rel=1e-9, abs=1e-6)


def test_build_sdp_rejects_sine_parts():
    from fractions import Fraction

    cap = parse_poly("x1^2*(x1^2+x2^2)-2*(x1^2+x2^2-x2)^2")
    H = hermite_matrix(cap.shifted(Fraction(0), Fraction(1, 2)))
    with pytest.raises(ValueError):
        build_sdp(H)


def test_trigmatrix_det_matches_numeric_random():
    import random
    from fractions import Fraction

    rng = random.Random(3)
    for _ in range(10):
        m = rng.randint(1, 4)
        entries = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                e = TrigPoly([Fraction(rng.randint(-4, 4)) for _ in range(3)],
                             [0] + [Fraction(rng.randint(-3, 3))])
                entries[i][j] = entries[j][i] = e
        H = TrigMatrix(entries)
        det = H.det()
        for theta in (0.2, 1.9, 3.3):
            sym = teval(det, theta)
            num = float(np.linalg.det(H.eval_thetas([theta])[0]))
            assert sym == pytest.approx(num, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# exact determinant against the column-subset recursion
# ---------------------------------------------------------------------------

def subset_recursion_det(H: TrigMatrix) -> TrigPoly:
    """Reference det H: Laplace expansion row by row, keeping one minor per
    set of used columns (2^m of them), over Fractions (floats taken exactly)."""
    from fractions import Fraction

    rows = [[TrigPoly([Fraction(x) for x in e.c], [Fraction(x) for x in e.s])
             for e in row] for row in H.entries]
    m = len(rows)
    minors = {0: TrigPoly([1])}  # mask of used columns -> minor over first rows
    for row in range(m):
        nxt: dict = {}
        for mask, val in minors.items():
            if val.is_zero():
                continue
            seen = 0
            for col in range(m):
                bit = 1 << col
                if mask & bit:
                    seen += 1
                    continue
                e = rows[row][col]
                if e.is_zero():
                    continue
                term = tmul(val, e)
                # sign flips once per used column to the right of col
                if (row - seen) & 1:
                    term = tscale(term, -1)
                nxt[mask | bit] = tadd(nxt.get(mask | bit, TrigPoly()), term)
        minors = nxt
    return minors.get((1 << m) - 1, TrigPoly())


def _random_trig_matrix(rng, m, sine):
    from fractions import Fraction

    entries = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            h = rng.randint(0, 3)
            c = [Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(h + 1)]
            s = [0] + [Fraction(rng.randint(-6, 6), rng.randint(1, 9))
                       for _ in range(h)] if sine else []
            entries[i][j] = entries[j][i] = TrigPoly(c, s)
    return TrigMatrix(entries)


@pytest.mark.parametrize("sine", [False, True])
def test_det_equals_subset_recursion_random(sine):
    import random

    rng = random.Random(41 + sine)
    dets = []
    for m in range(6):
        for _ in range(6):
            H = _random_trig_matrix(rng, m, sine)
            dets.append(H.det())
            assert dets[-1] == subset_recursion_det(H)
    assert any(not det.is_cosine() for det in dets) == sine


def test_cosine_matrix_is_decided_in_w():
    # a cosine-only H, graded (f = 1) or not (f = 2), has its image in
    # W = tan^2(theta/f): its det equals the subset recursion exactly, and
    # psd_on_circle the per-angle reference; a dominant constant diagonal
    # makes a copy of each positive definite
    import random

    rng = random.Random(47)
    seen = set()
    for graded in (True, False):
        for m in range(1, 5):
            for _ in range(3):
                rows = [[None] * m for _ in range(m)]
                for i in range(m):
                    for j in range(i, m):
                        c = [Fraction(rng.randint(-6, 6), rng.randint(1, 9))
                             * (not graded or (k - i - j) % 2 == 0)
                             for k in range(rng.randint(0, 3) + 1)]
                        rows[i][j] = rows[j][i] = TrigPoly(c)
                H = TrigMatrix(rows)
                shift = TrigPoly([4 * m * m * 10])
                shifted = [[tadd(e, shift) if i == j else e for j, e in enumerate(row)]
                           for i, row in enumerate(rows)]
                for K in (H, TrigMatrix(shifted)):
                    assert K.is_cosine() and K._image()[4] == (True, K.is_graded())
                    assert K.det() == subset_recursion_det(K)
                    seen.add((K.is_graded(), matches_per_angle_scan(K)))
    assert {(g, CircleVerdict.PD) for g in (True, False)} <= seen
    assert {(g, CircleVerdict.NOT_PSD) for g in (True, False)} <= seen
    assert {g for g, _ in seen} == {True, False}


def test_det_of_singular_matrix_is_zero():
    from fractions import Fraction

    u = [TrigPoly([1, Fraction(1, 2)]), TrigPoly([Fraction(-2, 3), 0, 1], [0, 3]),
         TrigPoly([5])]
    rank_one = TrigMatrix([[tmul(a, b) for b in u] for a in u])
    assert rank_one.det() == subset_recursion_det(rank_one) == TrigPoly()
    zero_row = TrigMatrix([[TrigPoly(), TrigPoly()], [TrigPoly(), TrigPoly([1, 1])]])
    assert zero_row.det() == TrigPoly()


def test_det_of_float_congruence_is_exact():
    for theta0 in (0.0, 1.0):
        H0 = congruence(CUBIC_H, scaling(CUBIC_H, theta0))
        assert binary(H0)
        assert H0.det() == subset_recursion_det(H0)


def test_det_of_recentred_hermite_matrix():
    # recentring at a float critical point gives shifts with 53-bit
    # denominators, as check-rigid does when p(0) = 0
    from fractions import Fraction

    from rigidconvex.locate import critical_points

    for text in ("x1*(1-x1^2-x2^2)+x2^3", "2*x1-x1^2-x2^2+x1^2*x2-x2^4"):
        p = parse_poly(text)
        pivot = next(c for c in critical_points(p) if abs(float(p(*c.x))) > 1e-9)
        H = hermite_matrix(p.shifted(*[Fraction(v) for v in pivot.x]))
        assert not H.is_cosine()
        assert H.det() == subset_recursion_det(H)


def z_form_det(H: TrigMatrix) -> TrigPoly:
    """Reference det of a cosine-only H, by the real z-form: row i and column
    j scaled by z^a_i r_i and z^b_j c_j make integer polynomials in z, and
    D(z) = z^n prod(r_i c_j) det H, of degree at most 2n, is taken by Bareiss
    at the 2n+1 integers -n..n and Newton interpolation."""
    import math

    from rigidconvex.polycore import _bareiss, _horner, _newton_interpolate

    def ints(e):
        c = [Fraction(x) for x in e.c]
        den = math.lcm(*[x.denominator for x in c])
        h = e.half_degree
        full = [0] * (2 * h + 1)
        for k, x in enumerate(c):
            full[h + k] = full[h - k] = x.numerator * (den // x.denominator)
        return den, full

    m, rows = H.m, H.entries
    cols = [[row[j] for row in rows] for j in range(m)]
    b = [min(e.half_degree for e in col) for col in cols]
    c = [math.gcd(*[ints(e)[0] for e in col]) for col in cols]
    a = [max(e.half_degree - b[j] for j, e in enumerate(row)) for row in rows]
    r = [math.lcm(*[ints(e)[0] // c[j] for j, e in enumerate(row)]) for row in rows]
    n = sum(a) + sum(b)
    vals = []
    for x in range(-n, n + 1):
        mat = [[r[i] * c[j] // ints(e)[0] * x**(a[i] + b[j] - e.half_degree)
                * _horner(ints(e)[1], x) for j, e in enumerate(row)]
               for i, row in enumerate(rows)]
        vals.append(_bareiss(mat))
    scale = math.prod(r) * math.prod(c)
    return TrigPoly([Fraction(v, scale) for v in _newton_interpolate(vals, -n)[n:]])


def test_cosine_det_matches_z_form_reference():
    import random

    from rigidconvex.polycore import Poly

    rng = random.Random(83)
    matrices = [CUBIC_H, TV_H, DISC_H]
    matrices += [_random_trig_matrix(rng, m, False) for m in range(6) for _ in range(4)]
    for deg in (2, 3, 4, 5, 6):
        for _ in range(3):
            terms = {(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                     for i in range(deg + 1) for j in range(0, deg + 1 - i, 2)}
            terms[(deg, 0)] = Fraction(1)
            terms[(0, 0)] = Fraction(rng.choice([1, -2, 3]), rng.randint(1, 4))
            matrices.append(hermite_matrix(Poly(terms)))
    for H in matrices[:3] + matrices[-6:]:
        for theta0 in (0.0, 1.0):
            if min(np.linalg.eigvalsh(H.eval_thetas([theta0])[0])) > 0:
                matrices.append(congruence(H, scaling(H, theta0)))
    assert any(binary(H) for H in matrices)
    for H in matrices:
        assert H.is_cosine()
        assert H.det() == z_form_det(H)


def test_cosine_det_takes_n_plus_one_points(monkeypatch):
    # CUBIC_H has entry half-degrees i + j, so n = m(m-1) = 6: D(T) in
    # T = tan theta has degree 6, and as CUBIC_H is cosine-only it is even, so
    # D(W) in W = T^2 takes the 4 points -1 .. 2 where the z-form took 2n+1 = 13
    from rigidconvex import polycore

    calls = []
    bareiss = polycore._bareiss
    monkeypatch.setattr(polycore, "_bareiss", lambda mat: calls.append(1) or bareiss(mat))
    assert CUBIC_H.det() == z_form_det(CUBIC_H)
    assert len(calls) == 4 + 13


# ---------------------------------------------------------------------------
# sine-carrying determinants in t = tan(theta/2)
# ---------------------------------------------------------------------------

CAP_H = hermite_matrix(parse_poly("x1^2*(x1^2+x2^2)-2*(x1^2+x2^2-x2)^2")
                       .shifted(Fraction(0), Fraction(1, 2)))


def test_sine_det_takes_two_n_plus_one_integer_points(monkeypatch):
    # W CAP_H W^T, W = I + E_10, is not graded (entry (0, 1) gains the constant
    # of entry (0, 0)), so its image is in t = tan(theta/2): column minima
    # b = (0, 0, 2, 3) of its half-degrees and row excesses a = (0, 2, 3, 4),
    # so n = 14 and D(t) takes 2n+1 = 29 points.  CAP_H itself is graded and
    # takes n+1 points in T = tan theta (test_work_follows_the_symmetry)
    from rigidconvex import polycore

    calls = []
    bareiss = polycore._bareiss

    def counted(mat):
        assert all(type(x) is int for row in mat for x in row)
        calls.append(1)
        return bareiss(mat)

    H = congruence(CAP_H, [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    monkeypatch.setattr(polycore, "_bareiss", counted)
    assert not H.is_cosine() and not H.is_graded()
    assert H.det() == subset_recursion_det(H)
    assert len(calls) == 29


def _general_pencil_poly(rng, m):
    """det(I + x1 A + x2 B) for random symmetric A, B, of degree m and with
    odd x2-terms, so its Hermite matrix carries sine parts."""
    from rigidconvex.bezout import interpolate_det
    from rigidconvex.polycore import Pencil

    def sym():
        A = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                A[i][j] = A[j][i] = rng.randint(-2, 2)
        return A

    eye = [[int(i == j) for j in range(m)] for i in range(m)]
    while True:
        p = interpolate_det(Pencil.from_rows(eye, sym(), sym()))
        if p.degree == m and any(b % 2 for _, b in p.coeffs):
            return p


@pytest.mark.parametrize("m", [5, 6, 7])
def test_sine_det_of_general_pencil_equals_subset_recursion(m):
    import random

    H = hermite_matrix(_general_pencil_poly(random.Random(90 + m), m))
    assert H.m == m and not H.is_cosine()
    assert H.det() == subset_recursion_det(H)


def test_sine_det_of_float_congruence_is_exact():
    import random

    for H in (CAP_H, hermite_matrix(_general_pencil_poly(random.Random(7), 3))):
        assert not H.is_cosine()
        for theta0 in (0.0, 1.0):
            H0 = congruence(H, scaling(H, theta0))
            assert binary(H0) and not H0.is_cosine()
            assert H0.det() == subset_recursion_det(H0)


def test_sine_det_vanishing_at_pi():
    # 1 + cos(theta) is zero at theta = pi, where t is infinite and D(t)
    # loses degree; once as a 1 x 1 block, twice through a scaled row and column
    import random

    g = TrigPoly([1, Fraction(1, 2)])
    rng = random.Random(29)
    for m in (2, 3, 4):
        H = _random_trig_matrix(rng, m, True)
        zero = TrigPoly()
        block = TrigMatrix([[g] + [zero] * m]
                           + [[zero] + list(row) for row in H.entries])
        scaled = TrigMatrix([[tmul(e, tpow(g, (i == 0) + (j == 0))) for j, e in enumerate(row)]
                             for i, row in enumerate(H.entries)])
        for K in (block, scaled):
            assert not K.is_cosine()
            det = K.det()
            assert det == subset_recursion_det(K)
            assert not det.is_zero()
            assert det.c[0] + 2 * sum((-1) ** k * x for k, x in enumerate(det.c) if k) == 0


def test_t_form_round_trip():
    # (1+t^2)^h e in t = tan(theta/2), and back to e's integer halves
    import random

    from rigidconvex.polycore import _halves_to_t, _t_to_halves

    rng = random.Random(17)
    for h in range(9):
        for _ in range(20):
            re = [rng.randint(-10**9, 10**9) for _ in range(h + 1)]
            im = [0] + [rng.randint(-10**9, 10**9) for _ in range(h)]
            t = _halves_to_t(re, im)
            assert len(t) == 2 * h + 1
            assert _t_to_halves(t) == (re, im)
            for theta in (0.4, 2.5):
                lhs = sum(x * np.tan(theta / 2) ** j for j, x in enumerate(t))
                rhs = (1 + np.tan(theta / 2) ** 2) ** h * teval(TrigPoly(re, im), theta)
                assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), sum(map(abs, t)))


def _cos_scaled(e: TrigPoly, g: int, T: Fraction) -> Fraction:
    """cos^-g(theta) e(theta) at T = tan theta, e's harmonics of g's parity,
    exactly: z^k = cos^k(theta) (1+iT)^k and cos^-2(theta) = 1 + T^2."""
    total, a, b = Fraction(0), Fraction(1), Fraction(0)  # (1+iT)^k = a + ib
    for k in range(g + 1):
        a, b = (a - b * T, b + a * T) if k else (a, b)
        if (g - k) % 2 == 0:
            re = (e.cos_coeff(k) * a - e.sin_coeff(k) * b) * (2 if k else 1)
            total += re * (1 + T * T) ** ((g - k) // 2)
    return total


def test_tan_form_round_trip():
    # the T = tan theta form of a TrigPoly with harmonics of one parity g only,
    # in Z[T] of degree g, sine-carrying or cosine (then even in T); at even g
    # it is the t form in z^2, and ``_t_to_halves`` gives the even halves back
    import random

    from rigidconvex.polycore import _t_to_halves

    rng = random.Random(23)
    for g in range(9):
        for _ in range(20):
            re = [rng.randint(-10**9, 10**9) * ((k - g) % 2 == 0) for k in range(g + 1)]
            im = [rng.randint(-10**9, 10**9) * (k > 0 and (k - g) % 2 == 0) for k in range(g + 1)]
            for e in (TrigPoly(re, im), TrigPoly(re)):
                P, den = e.int_poly(True, g)
                assert len(P) == g + 1 and all(type(x) is int for x in P)
                assert e.im or not any(P[1::2])
                for T in (Fraction(0), Fraction(3, 7), Fraction(-5, 2), Fraction(1000, 3)):
                    assert Fraction(sum(x * T**j for j, x in enumerate(P)), den) == _cos_scaled(e, g, T)
                if g % 2 == 0:
                    halves = [(x + [0] * (g + 1))[:g + 1:2] for x in (e.re, e.im)]
                    assert _t_to_halves(P) == tuple(halves)


# ---------------------------------------------------------------------------
# batched evaluation against the per-angle, per-entry loop it replaced
# ---------------------------------------------------------------------------

def per_angle_eval(H: TrigMatrix, theta: float) -> np.ndarray:
    """Reference H(e^{i theta}): one 1 x 1 evaluation per upper entry."""
    out = np.empty((H.m, H.m))
    for i in range(H.m):
        for j in range(i, H.m):
            out[i, j] = out[j, i] = teval(H.entries[i][j], theta)
    return out


def _cos_sin_tables(t, h):
    """Exact (cos k theta, sin k theta), k <= h, at t = tan(theta/2); None for
    t is theta = pi."""
    c, s = (Fraction(-1), Fraction(0)) if t is None else ((1 - t * t) / (1 + t * t),
                                                         2 * t / (1 + t * t))
    out = [(Fraction(1), Fraction(0))]
    for _ in range(h):
        ck, sk = out[-1]
        out.append((ck * c - sk * s, sk * c + ck * s))
    return out


def _exact_entry(e: TrigPoly, table) -> Fraction:
    return Fraction(e.cos_coeff(0)) + 2 * sum(Fraction(e.cos_coeff(k)) * ck - Fraction(e.sin_coeff(k)) * sk
                                              for k, (ck, sk) in enumerate(table) if k)


def _leading_minors_positive(rows) -> bool:
    """Gaussian elimination without pivoting: pivot k is the ratio of the
    leading minors of orders k + 1 and k, so all are positive exactly when
    every pivot is."""
    a = [list(r) for r in rows]
    for k in range(len(a)):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return True


def sympy_circle_reference(H: TrigMatrix):
    """(status, root angles) decided independently of polycore's kernel:
    sympy builds (1+t^2)^h det H in t = tan(theta/2) from the cosine and
    sine coefficients and isolates its distinct real roots (theta =
    pi is a root when det H vanishes there), and the leading minors of H at
    one rational point inside every arc between them decide."""
    sympy = pytest.importorskip("sympy")
    det = H.det()
    if det.is_zero():
        return CircleVerdict.INCONCLUSIVE, []
    t = sympy.Symbol("t")
    h = det.half_degree

    def poly(coeffs):  # ascending
        return sympy.Poly(list(reversed(coeffs)), t, domain="QQ")
    D = poly([sympy.Rational(det.cos_coeff(0))]) * poly([1, 0, 1]) ** h
    for k in range(1, h + 1):
        # (1 + i t)^(2k) = re + i im by the binomial theorem
        re = poly([math.comb(2 * k, j) * (-1) ** (j // 2) * (1 - j % 2) for j in range(2 * k + 1)])
        im = poly([math.comb(2 * k, j) * (-1) ** (j // 2) * (j % 2) for j in range(2 * k + 1)])
        D += (re * (2 * sympy.Rational(det.cos_coeff(k))) - im * (2 * sympy.Rational(det.sin_coeff(k)))) \
            * poly([1, 0, 1]) ** (h - k)
    at_pi = _exact_entry(det, _cos_sin_tables(None, h)) == 0
    # sympy's own isolation; its Sturm count_roots took 14 s at degree 34
    ivs = sympy.Poly(D.sqf_part(), t).intervals(eps=sympy.Rational(1, 10**9)) if D.degree() > 0 else []
    ivs = [(Fraction(str(a)), Fraction(str(b))) for (a, b), _ in ivs]
    points = [(b + c) / 2 for (_, b), (c, _) in zip(ivs, ivs[1:])]
    assert all(b < c for (_, b), (c, _) in zip(ivs, ivs[1:]))
    if not at_pi:
        points.append(None)
    elif ivs:
        points += [ivs[0][0] - 1, ivs[-1][1] + 1]
    else:
        points.append(Fraction(0))
    for pt in points:
        table = _cos_sin_tables(pt, H.d)
        if not _leading_minors_positive([[_exact_entry(e, table) for e in row] for row in H.entries]):
            return CircleVerdict.NOT_PSD, None
    roots = sorted([2 * np.arctan(float((a + b) / 2)) % (2 * np.pi) for a, b in ivs] + [np.pi] * at_pi)
    return (CircleVerdict.MARGINAL if roots else CircleVerdict.PD), roots


def _eval_test_matrices():
    import random
    from fractions import Fraction

    rng = random.Random(53)
    out = []
    for sine in (False, True):
        for m in range(1, 7):
            for _ in range(3):
                H = _random_trig_matrix(rng, m, sine)
                out.append(H)
                # a dominant constant diagonal makes it positive definite
                shift = Fraction(4 * m * m * 10)
                out.append(TrigMatrix([[tadd(e, TrigPoly([shift if i == j else 0]))
                                        for j, e in enumerate(row)]
                                       for i, row in enumerate(H.entries)]))
            const = [[TrigPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
                      for _ in range(m)] for _ in range(m)]
            out.append(TrigMatrix([[const[min(i, j)][max(i, j)] for j in range(m)]
                                   for i in range(m)]))
    out.append(TrigMatrix([[TrigPoly([2, 1]), TrigPoly()], [TrigPoly(), TrigPoly([1])]]))
    return out + [CUBIC_H, TV_H, DISC_H]


def test_eval_thetas_matches_per_angle_loop():
    thetas = np.concatenate([np.linspace(0, 2 * np.pi, 37), [np.pi, 1e-9, 5.0]])
    matrices = _eval_test_matrices()
    assert {H.d for H in matrices} >= {0, 1, 2, 3}
    assert {H.m for H in matrices} == set(range(1, 7))
    assert any(not H.is_cosine() for H in matrices)
    for H in matrices:
        bound = 1e-12 * max(1.0, max_abs_coeff(H))
        batch = H.eval_thetas(thetas)
        assert batch.shape == (len(thetas), H.m, H.m)
        for theta, got in zip(thetas, batch):
            assert np.abs(got - per_angle_eval(H, theta)).max() <= bound


def test_eval_thetas_of_scale_congruence_output():
    # m = 3: random, shifted positive definite, constant and CUBIC_H; cosine and
    # sine; scaled to the identity at theta0 where H is positive definite there,
    # else by its eigenvectors, as the float congruence scaling did
    for H in [DISC_H] + [H for H in _eval_test_matrices() if H.m == 3]:
        for theta0 in (0.0, 1.0):
            evals, vecs = np.linalg.eigh(H.eval_thetas([theta0])[0])
            full = evals.min() > 0 and evals.max() / evals.min() <= 1e8
            H0 = congruence(H, scaling(H, theta0) if full else vecs.T)
            thetas = np.linspace(0, 2 * np.pi, 29)
            bound = 1e-12 * max(1.0, max_abs_coeff(H0))
            for theta, got in zip(thetas, H0.eval_thetas(thetas)):
                assert np.abs(got - per_angle_eval(H0, theta)).max() <= bound


def matches_per_angle_scan(H: TrigMatrix) -> str:
    """``psd_on_circle(H)``'s status, after checking it against
    ``sympy_circle_reference`` (or a shortcut), its circle roots against the
    reference's, and its least eigenvalue against the per-angle values on the
    grid and, unless a negative minor there decided, at the roots and the
    arcs' points; or, for a NotPSD verdict, on the scan's first pass, every
    8th grid angle, where the probe or a structural zero may decide."""
    from rigidconvex.circlepsd import _circle_roots

    def min_eig(angles):
        return min([float(np.linalg.eigvalsh(per_angle_eval(H, t)).min()) for t in angles],
                   default=np.inf)

    verdict = psd_on_circle(H)
    if verdict.shortcut:
        status, roots = CircleVerdict.NOT_PSD, None
    else:
        status, roots = sympy_circle_reference(H)
    assert verdict.status == status
    if roots and verdict.circle_roots:
        assert verdict.circle_roots == pytest.approx(roots, abs=1e-7)
    grid = np.linspace(0, 2 * np.pi, GRID_SIZE, endpoint=False)
    low = low_all = min_eig(grid)
    found = _circle_roots(H._image())
    if found is not None:
        angles, _, points = found
        low_all = min(low, min_eig(angles + [theta for _, theta in points]))
    lows = [low, low_all] + [min_eig(grid[::8])] * (status == CircleVerdict.NOT_PSD)
    bound = 1e-12 * max(1.0, max_abs_coeff(H))
    assert any(abs(verdict.min_eig - x) <= bound for x in lows)
    return status


def test_psd_on_circle_matches_per_angle_scan():
    # tangencies: a strip, two ellipses, and a sine-carrying marginal matrix
    tangent = [hermite_matrix(parse_poly(p)) for p in (
        "1-x1^2", ELLIPSES, "(1-x1^2-x1*x2-2*x2^2)*(1-3*x1^2+x1*x2-1/2*x2^2)")]
    # (2 - sin theta)(1 + cos theta)^2: a double root at theta = pi only
    pi_zero = tmul(TrigPoly([2], [0, Fraction(1, 2)]), tpow(TrigPoly([1, Fraction(1, 2)]), 2))
    seen = {matches_per_angle_scan(H)
            for H in _eval_test_matrices() + tangent + [CAP_H, TrigMatrix([[pi_zero]])]}
    assert seen >= {CircleVerdict.PD, CircleVerdict.NOT_PSD, CircleVerdict.MARGINAL}


@pytest.mark.parametrize("degree", [8, 10, 12, 16, 20])
def test_degree_runtime(degree):
    import random
    import time
    from fractions import Fraction

    from rigidconvex.polycore import Poly

    rng = random.Random(0)
    terms = {(a, b): Fraction(rng.randint(-3, 3))
             for a in range(degree + 1) for b in range(0, degree + 1 - a, 2)}
    terms[(0, 0)] = Fraction(5)
    p = Poly(terms)
    assert p.degree == degree
    started = time.perf_counter()
    verdict = psd_on_circle(hermite_matrix(p))
    assert time.perf_counter() - started < 30.0
    assert verdict.status in (CircleVerdict.PD, CircleVerdict.NOT_PSD,
                              CircleVerdict.MARGINAL)
    # the route check-rigid runs, under the same limit
    started = time.perf_counter()
    assert hermite_psd(p).status == verdict.status
    assert time.perf_counter() - started < 30.0


def test_shortcut_witness_carries_violation():
    # zero diagonal with an off-diagonal entry that vanishes at theta = 0:
    # the witness must still come with min_eig < -tol
    zero = TrigPoly()
    e = TrigPoly([-2, 0, 1])  # 2cos(2 theta) - 2, zero at theta = 0
    one = TrigPoly([1])
    H = TrigMatrix([[zero, e], [e, one]])
    verdict = psd_on_circle(H)
    assert verdict.status == CircleVerdict.NOT_PSD
    assert verdict.shortcut
    assert verdict.min_eig < -tolerance(H)
    direct = np.linalg.eigvalsh(H.eval_thetas([verdict.witness_theta])[0]).min()
    assert direct == pytest.approx(verdict.min_eig, rel=1e-12)


def test_tv_shortcut_witness_violation():
    verdict = psd_on_circle(TV_H)
    assert verdict.shortcut
    assert verdict.min_eig < -tolerance(TV_H)
