from fractions import Fraction

import numpy as np
import pytest

from rigidconvex import DimensionMismatchError, TrigMatrix, TrigPoly, parse_poly
from rigidconvex.circlepsd import (
    CircleVerdict,
    MatrixPoly,
    build_sdp,
    circle_roots_of,
    psd_on_circle,
    scale_congruence,
    verify_spectral_factor,
    write_sdpa,
)
from rigidconvex.hermite import hermite_matrix

CUBIC_H = hermite_matrix(parse_poly("1-x1-4*x1^2-x2^2+4*x1^3"))
TV_H = hermite_matrix(parse_poly("1-x1^4-x2^4"))
DISC_H = hermite_matrix(parse_poly("1-x1^2-x2^2"))

# the published 4-decimal spectral factor for the cubic-curve Hermite matrix
PAPER_U = MatrixPoly.from_lists([
    [[-0.9021, 0.0, -11.7639], [0.0, 4.3449, 0.0], [1.1578, 0.0, 2.4331]],
    [[0.0, -0.5284, 0.0], [0.1925, 0.0, 0.7771], [0.0, 0.3819, 0.0]],
    [[-0.7094, 0.0, -9.6359], [0.0, 1.6218, 0.0], [-0.5527, 0.0, -2.8689]],
    [[0.0, 0.2027, 0.0], [0.0, 0.0, -0.5411], [0.0, 0.1579, 0.0]],
    [[0.0, 0.0, -1.5201], [0.0, 0.0, 0.0], [0.0, 0.0, -1.1844]],
])


def brute_force_min_eig(H, samples=10000):
    thetas = np.linspace(0, 2 * np.pi, samples, endpoint=False)
    return min(float(np.linalg.eigvalsh(H.eval_theta(t)).min()) for t in thetas)


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
    verdict = psd_on_circle(TrigMatrix([[TrigPoly(), e], [e, TrigPoly([1])]]))
    assert verdict.status == CircleVerdict.NOT_PSD and verdict.shortcut
    assert -verdict.tolerance < verdict.min_eig < 0
    assert verdict.circle_roots == ()


def test_disc_is_pd():
    assert psd_on_circle(DISC_H).status == CircleVerdict.PD


def test_marginal_scalar():
    H = TrigMatrix([[TrigPoly([2, 1])]])  # 2 + (z+z^-1) = 2 + 2cos(theta)
    verdict = psd_on_circle(H)
    assert verdict.status == CircleVerdict.MARGINAL
    assert verdict.witness_theta == pytest.approx(np.pi, abs=1e-6)
    assert verdict.min_eig == pytest.approx(0.0, abs=1e-9)


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
            assert brute < verdict.tolerance
        else:
            assert abs(brute) <= 10 * verdict.tolerance


def test_congruence_invariance_of_classification():
    rng = np.random.default_rng(3)
    for H in (CUBIC_H, TV_H):
        base = psd_on_circle(H).is_psd
        for _ in range(3):
            w = rng.normal(size=(H.m, H.m))
            w += H.m * np.eye(H.m)  # keep well-conditioned
            assert psd_on_circle(H.congruence(w)).is_psd == base


def test_notpsd_witness_consistent_with_det_sign_or_shortcut():
    verdict = psd_on_circle(TV_H)
    assert verdict.shortcut or verdict.circle_roots


def test_circle_roots_of_marginal_case():
    roots = circle_roots_of(TrigPoly([2, 1]))
    assert len(roots) == 2  # double zero of z + 2 + z^-1 at theta = pi
    assert all(abs(r - np.pi) < 1e-5 for r in roots)


# ---------------------------------------------------------------------------
# scale_congruence
# ---------------------------------------------------------------------------

def test_scale_cubic_full_mode():
    H0, w, mode = scale_congruence(CUBIC_H, 0.0)
    assert mode == "full"
    assert np.allclose(H0.eval_theta(0.0), np.eye(3), atol=1e-10)
    # transform maps back: H0 = W H W^T
    assert np.allclose(w @ CUBIC_H.eval_theta(0.0) @ w.T, np.eye(3), atol=1e-10)


def test_scale_identity_unchanged():
    one = TrigPoly([1])
    zero = TrigPoly()
    H = TrigMatrix([[one, zero], [zero, one]])
    H0, w, mode = scale_congruence(H, 0.0)
    assert mode == "full"
    assert np.allclose(np.abs(w), np.eye(2), atol=1e-12)
    assert np.allclose(H0.eval_theta(1.234), np.eye(2), atol=1e-12)


def test_scale_tv_diag_mode():
    H0, w, mode = scale_congruence(TV_H, 0.0)
    assert mode == "diag"
    val = H0.eval_theta(0.0)
    off = val - np.diag(np.diag(val))
    assert np.allclose(off, 0, atol=1e-8)


def test_scale_preserves_verdict():
    H0, _, _ = scale_congruence(CUBIC_H, 0.0)
    assert psd_on_circle(H0).status == CircleVerdict.PD


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
        sym = det.eval_theta(theta)
        num = float(np.linalg.det(H.eval_theta(theta)))
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
            sym = det.eval_theta(theta)
            num = float(np.linalg.det(H.eval_theta(theta)))
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
                term = val * e
                # sign flips once per used column to the right of col
                if (row - seen) & 1:
                    term = -term
                nxt[mask | bit] = nxt.get(mask | bit, TrigPoly()) + term
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


def test_det_of_singular_matrix_is_zero():
    from fractions import Fraction

    u = [TrigPoly([1, Fraction(1, 2)]), TrigPoly([Fraction(-2, 3), 0, 1], [0, 3]),
         TrigPoly([5])]
    rank_one = TrigMatrix([[a * b for b in u] for a in u])
    assert rank_one.det() == subset_recursion_det(rank_one) == TrigPoly()
    zero_row = TrigMatrix([[TrigPoly(), TrigPoly()], [TrigPoly(), TrigPoly([1, 1])]])
    assert zero_row.det() == TrigPoly()


def test_det_of_float_congruence_is_exact():
    for theta0 in (0.0, 1.0):
        H0, _, mode = scale_congruence(CUBIC_H, theta0)
        assert mode == "full"
        assert any(isinstance(x, float) for e in H0.entries[0] for x in e.c)
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
            matrices.append(scale_congruence(H, theta0)[0])
    assert any(isinstance(x, float) for H in matrices for row in H.entries
               for e in row for x in e.c)
    for H in matrices:
        assert H.is_cosine()
        assert H.det() == z_form_det(H)


def test_cosine_det_takes_n_plus_one_points(monkeypatch):
    # CUBIC_H has entry half-degrees i + j, so n = m(m-1) = 6: the u-form
    # takes 7 Bareiss points where the z-form took 2n+1 = 13
    from rigidconvex import polycore

    calls = []
    bareiss = polycore._bareiss
    monkeypatch.setattr(polycore, "_bareiss", lambda mat: calls.append(1) or bareiss(mat))
    assert CUBIC_H.det() == z_form_det(CUBIC_H)
    assert len(calls) == 7 + 13


# ---------------------------------------------------------------------------
# sine-carrying determinants in t = tan(theta/2)
# ---------------------------------------------------------------------------

CAP_H = hermite_matrix(parse_poly("x1^2*(x1^2+x2^2)-2*(x1^2+x2^2-x2)^2")
                       .shifted(Fraction(0), Fraction(1, 2)))


def test_sine_det_takes_two_n_plus_one_integer_points(monkeypatch):
    # CAP_H has column minima b = (0, 0, 2, 3) of its half-degrees and row
    # excesses a = (0, 2, 3, 4), so n = 14: D(t) takes 2n+1 = 29 points
    from rigidconvex import polycore

    calls = []
    bareiss = polycore._bareiss

    def counted(mat):
        assert all(type(x) is int for row in mat for x in row)
        calls.append(1)
        return bareiss(mat)

    monkeypatch.setattr(polycore, "_bareiss", counted)
    assert not CAP_H.is_cosine()
    assert CAP_H.det() == subset_recursion_det(CAP_H)
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
            H0 = scale_congruence(H, theta0)[0]
            assert any(isinstance(x, float) for e in H0.entries[0] for x in e.s)
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
        scaled = TrigMatrix([[e * g ** ((i == 0) + (j == 0)) for j, e in enumerate(row)]
                             for i, row in enumerate(H.entries)])
        for K in (block, scaled):
            assert not K.is_cosine()
            det = K.det()
            assert det == subset_recursion_det(K)
            assert not det.is_zero()
            assert det.c[0] + 2 * sum((-1) ** k * x for k, x in enumerate(det.c) if k) == 0


def test_t_form_round_trip():
    # (1+t^2)^h e in t = tan(theta/2), and back to e's integer halves
    import math
    import random

    from rigidconvex.polycore import _halves_to_t, _t_to_halves

    rng = random.Random(17)
    for h in range(9):
        # (1+it)^(2k) = sum C(2k, j) i^j t^j
        table = [[math.comb(2 * k, j) * (-1) ** (j // 2) for j in range(2 * k + 1)]
                 for k in range(h + 1)]
        for _ in range(20):
            re = [rng.randint(-10**9, 10**9) for _ in range(h + 1)]
            im = [0] + [rng.randint(-10**9, 10**9) for _ in range(h)]
            t = _halves_to_t(re, im, table)
            assert len(t) == 2 * h + 1
            assert _t_to_halves(t) == (re, im)
            for theta in (0.4, 2.5):
                lhs = sum(x * np.tan(theta / 2) ** j for j, x in enumerate(t))
                rhs = (1 + np.tan(theta / 2) ** 2) ** h * TrigPoly(re, im).eval_theta(theta)
                assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), sum(map(abs, t)))


# ---------------------------------------------------------------------------
# batched evaluation against the per-angle, per-entry loop it replaced
# ---------------------------------------------------------------------------

def per_angle_eval(H: TrigMatrix, theta: float) -> np.ndarray:
    """Reference H(e^{i theta}): one TrigPoly.eval_theta per upper entry."""
    out = np.empty((H.m, H.m))
    for i in range(H.m):
        for j in range(i, H.m):
            out[i, j] = out[j, i] = H.entries[i][j].eval_theta(theta)
    return out


def per_angle_scan(H: TrigMatrix) -> tuple[str, float]:
    """Reference psd_on_circle status and min eigenvalue, one eigvalsh per angle."""
    from rigidconvex.circlepsd import (
        GRID_SIZE,
        _sample_angles,
        _structural_shortcut,
        default_tolerance,
    )

    def min_eig(angles):
        return min(float(np.linalg.eigvalsh(per_angle_eval(H, t)).min()) for t in angles)

    tol = default_tolerance(H)
    if _structural_shortcut(H) is not None:
        return CircleVerdict.NOT_PSD, min_eig(np.linspace(0, 2 * np.pi, GRID_SIZE,
                                                          endpoint=False))
    det = H.det()
    roots = [] if det.is_zero() else circle_roots_of(det)
    low = min_eig(_sample_angles(roots, GRID_SIZE))
    if low < -tol:
        return CircleVerdict.NOT_PSD, low
    if det.is_zero():
        return CircleVerdict.INCONCLUSIVE, low
    if roots or low <= tol:
        return CircleVerdict.MARGINAL, low
    return CircleVerdict.PD, low


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
                out.append(TrigMatrix([[e + (shift if i == j else 0) for j, e in enumerate(row)]
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
        bound = 1e-12 * max(1.0, H.max_abs_coeff())
        batch = H.eval_thetas(thetas)
        assert batch.shape == (len(thetas), H.m, H.m)
        for theta, got in zip(thetas, batch):
            assert np.abs(got - per_angle_eval(H, theta)).max() <= bound


def test_eval_thetas_of_scale_congruence_output():
    # m = 3: random, shifted positive definite, constant and CUBIC_H; cosine and sine
    for H in [DISC_H] + [H for H in _eval_test_matrices() if H.m == 3]:
        for theta0 in (0.0, 1.0):
            H0, _, _ = scale_congruence(H, theta0)
            thetas = np.linspace(0, 2 * np.pi, 29)
            bound = 1e-12 * max(1.0, H0.max_abs_coeff())
            for theta, got in zip(thetas, H0.eval_thetas(thetas)):
                assert np.abs(got - per_angle_eval(H0, theta)).max() <= bound


def test_psd_on_circle_matches_per_angle_scan():
    seen = set()
    for H in _eval_test_matrices():
        verdict = psd_on_circle(H)
        status, low = per_angle_scan(H)
        assert verdict.status == status
        assert abs(verdict.min_eig - low) <= 1e-12 * max(1.0, H.max_abs_coeff())
        seen.add(status)
    assert seen >= {CircleVerdict.PD, CircleVerdict.NOT_PSD, CircleVerdict.MARGINAL}


def test_scale_congruence_nonzero_theta0():
    H0, w, mode = scale_congruence(CUBIC_H, 1.0)
    assert mode == "full"
    assert np.allclose(H0.eval_theta(1.0), np.eye(3), atol=1e-9)


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
    assert verdict.min_eig < -verdict.tolerance
    direct = np.linalg.eigvalsh(H.eval_theta(verdict.witness_theta)).min()
    assert direct == pytest.approx(verdict.min_eig, rel=1e-12)


def test_tv_shortcut_witness_violation():
    verdict = psd_on_circle(TV_H)
    assert verdict.shortcut
    assert verdict.min_eig < -verdict.tolerance
