import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from rigidconvex import NoRealSolutionError, SingularCubicError, parse_poly
from rigidconvex.bezout import verify_pencil_det
from rigidconvex.cubicrepr import (
    cubic_representations,
    hessian,
    hessian_det,
    homogenize,
)
from rigidconvex.locate import certify_psd_point
from rigidconvex.polycore import Poly

ELLIPTIC = parse_poly("x1^3-x2^2-x1")
# the published size-3 representation with t* = 0
F1_ROWS = [
    [[1, 0, 0], [0, 0, 0], [0, 0, 1]],      # F0
    [[0, 0, 1], [0, -1, 0], [1, 0, 0]],      # F1
    [[0, -1, 0], [-1, 0, 0], [0, 0, 0]],     # F2
]


def test_homogenize_roundtrip():
    P = homogenize(ELLIPTIC)
    assert P.coeffs == {
        (0, 3, 0): Fraction(1),
        (1, 0, 2): Fraction(-1),
        (2, 1, 0): Fraction(-1),
    }


def test_hessian_of_x0x1x2():
    G = hessian(Poly({(1, 1, 1): 1}, nvars=3))
    assert G.mats[0] == ((0, 0, 0), (0, 0, 1), (0, 1, 0))
    assert G.mats[1] == ((0, 0, 1), (0, 0, 0), (1, 0, 0))
    assert G.mats[2] == ((0, 1, 0), (1, 0, 0), (0, 0, 0))


def test_hessian_of_elliptic():
    # by hand: H = [[-2x1, -2x0, -2x2], [-2x0, 6x1, 0], [-2x2, 0, -2x0]]
    G = hessian(homogenize(ELLIPTIC))
    assert G.mats[0] == ((0, -2, 0), (-2, 0, 0), (0, 0, -2))
    assert G.mats[1] == ((-2, 0, 0), (0, 6, 0), (0, 0, 0))
    assert G.mats[2] == ((0, 0, -2), (0, 0, 0), (-2, 0, 0))


def test_hessian_structural_zero_without_x2():
    p3 = homogenize(parse_poly("x1^3-x1+1"))
    G = hessian(p3)
    # third row/column involves only x0 and x1
    assert all(G.mats[2][2][j] == 0 for j in range(3))
    assert all(G.mats[2][i][2] == 0 for i in range(3))


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(0)
    p3 = homogenize(ELLIPTIC)
    G = hessian(p3)
    eps = 1e-5

    def val(x):
        return float(sum(float(v) * x[0]**a * x[1]**b * x[2]**c
                         for (a, b, c), v in p3.coeffs.items()))

    for _ in range(10):
        x = rng.normal(size=3)
        # H(P) is linear in x, so H(P)(x) = x0 F(x1/x0, x2/x0)
        H = x[0] * G.eval(x[1] / x[0], x[2] / x[0])
        for i in range(3):
            for j in range(3):
                e_i = np.eye(3)[i] * eps
                e_j = np.eye(3)[j] * eps
                fd = (val(x + e_i + e_j) - val(x + e_i - e_j)
                      - val(x - e_i + e_j) + val(x - e_i - e_j)) / (4 * eps**2)
                assert H[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-5)


def test_hessian_det_elliptic():
    h = hessian_det(homogenize(ELLIPTIC))
    expected = Poly({(3, 0, 0): 8, (1, 2, 0): 24, (0, 1, 2): -24}, nvars=3)
    assert h == expected  # 8(x0^3 + 3 x0 x1^2 - 3 x1 x2^2)


def test_hessian_det_x0x1x2():
    h = hessian_det(Poly({(1, 1, 1): 1}, nvars=3))
    assert h == Poly({(1, 1, 1): 2}, nvars=3)


def test_hessian_det_degenerate():
    assert hessian_det(Poly({(3, 0, 0): 1}, nvars=3)).is_zero()


# the former symbolic determinant: the Leibniz formula over products of the
# Hessian's second-partial polynomials, kept as the reference
_PERMS = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
          ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1))


def _reference_hessian_det(P: Poly) -> Poly:
    mat = [[P.partial(i).partial(j) for j in range(3)] for i in range(3)]
    out = Poly.zero(3)
    for perm, sign in _PERMS:
        out = out + mat[0][perm[0]] * mat[1][perm[1]] * mat[2][perm[2]] * sign
    return out


_CUBIC_MONOS = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]


def _random_cubic3(rng: random.Random) -> Poly:
    coeffs = {}
    for mono in rng.sample(_CUBIC_MONOS, rng.randint(1, len(_CUBIC_MONOS))):
        coeffs[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Poly(coeffs, nvars=3)


def test_hessian_det_matches_reference_on_random_cubics():
    rng = random.Random(4)
    cubics = [Poly({(3, 0, 0): 1}, nvars=3)] + [_random_cubic3(rng) for _ in range(50)]
    for P in cubics:
        assert hessian_det(P) == _reference_hessian_det(P)


def test_root_constant_matches_reference_determinant():
    # c is read off the interpolated t-polynomials; the former code took
    # det H(h + t* P) at every root and read the anchor coefficient
    rng = random.Random(7)
    polys = [ELLIPTIC, parse_poly("x1^3+x2^3+1")]
    while len(polys) < 30:
        P = _random_cubic3(rng)
        if P.coeff((0, 3, 0)) != 0:
            polys.append(Poly({(a, b): v for (_, a, b), v in P.coeffs.items()}))
    exact = floating = 0
    for p in polys:
        try:
            reps = cubic_representations(p)
        except (SingularCubicError, NoRealSolutionError):
            continue
        P = homogenize(p)
        h = _reference_hessian_det(P)
        anchor = max(P.coeffs, key=lambda e: abs(P.coeffs[e]))
        for rep in reps:
            want = _reference_hessian_det(h + P * rep.t_star).coeff(anchor) / P.coeff(anchor)
            if isinstance(rep.t_star, Fraction):
                assert rep.c == want
                exact += 1
            else:
                assert abs(rep.c - want) <= 1e-11 * abs(want)
                floating += 1
    assert exact >= 3 and floating >= 10


# ---------------------------------------------------------------------------
# cubic_representations
# ---------------------------------------------------------------------------

def test_elliptic_t_values():
    reps = cubic_representations(ELLIPTIC)
    assert [float(r.t_star) for r in reps] == pytest.approx([-24.0, 0.0, 24.0], abs=1e-6)
    assert [r.t_star for r in reps] == [Fraction(-24), Fraction(0), Fraction(24)]


def test_elliptic_determinants_exact():
    for rep in cubic_representations(ELLIPTIC):
        c = verify_pencil_det(rep.pencil, ELLIPTIC)
        assert float(c) == pytest.approx(1.0, abs=1e-8)


def test_elliptic_t0_matches_published_pencil():
    reps = cubic_representations(ELLIPTIC)
    rep0 = next(r for r in reps if float(r.t_star) == 0)
    assert rep0.c == 110592  # 48^3
    assert rep0.mu == Fraction(1, 48)
    assert _signed_perm_equal(rep0.pencil, F1_ROWS)


def _signed_perm_equal(pencil, rows, tol=1e-9):
    """Entrywise match after some signed permutation congruence."""
    mats = [np.array(m, dtype=float) for m in pencil.mats]
    targets = [np.array(m, dtype=float) for m in rows]
    for perm in itertools.permutations(range(3)):
        P = np.eye(3)[:, perm]
        for signs in itertools.product([1, -1], repeat=3):
            S = P @ np.diag(signs)
            if all(np.allclose(S.T @ M @ S, T, atol=tol)
                   for M, T in zip(mats, targets)):
                return True
    return False


def test_elliptic_pd_certification_per_pencil():
    # sampled interior point of the compact oval
    reps = cubic_representations(ELLIPTIC)
    verdicts = [certify_psd_point(r.pencil, (-0.5, 0.0)).verdict for r in reps]
    by_t = dict(zip([float(r.t_star) for r in reps], verdicts))
    assert by_t[0.0] == "PD"
    assert by_t[24.0] == "rejected"
    # note: the homotopy also yields a second PD representative at t* = -24;
    # see the fixture metadata for the discrepancy with the published claim
    assert by_t[-24.0] == "PD"


def test_nodal_cubic_rejected():
    with pytest.raises(SingularCubicError) as err:
        cubic_representations(parse_poly("-x1^3-x1^2+x2^2"))
    assert err.value.singular_point == (0.0, 0.0)
    assert all(type(v) is float for v in err.value.singular_point)


def test_cuspidal_cubic_rejected():
    with pytest.raises(SingularCubicError):
        cubic_representations(parse_poly("x1^3-x2^2"))


def test_complex_singularity_rejected():
    # (x1^2 + x2^2 + 1)(x1 + 1) is singular only at complex points
    with pytest.raises(SingularCubicError):
        cubic_representations(parse_poly("(x1^2+x2^2+1)*(x1+1)"))


def test_fermat_cubic_representations():
    # x1^3 + x2^3 + 1 is smooth; all returned pencils must satisfy det F = p
    p = parse_poly("x1^3+x2^3+1")
    reps = cubic_representations(p)
    assert 1 <= len(reps) <= 3
    for rep in reps:
        c = verify_pencil_det(rep.pencil, p)
        assert float(c) == pytest.approx(1.0, abs=1e-8)


def test_gcd_degree_at_most_three():
    # indirect invariant: never more than three representations
    for expr in ("x1^3-x2^2-x1", "x1^3+x2^3+1", "1-x1^3+x2^3+x1*x2"):
        p = parse_poly(expr)
        try:
            reps = cubic_representations(p)
        except (SingularCubicError, NoRealSolutionError):
            continue
        assert len(reps) <= 3


def reference_mu(c):
    """mu as cubic_representations chose it with one branch for rational and
    one for float c."""
    from rigidconvex.cubicrepr import _cube_root_exact

    if isinstance(c, Fraction):
        root = _cube_root_exact(c)
        if root is not None:
            return 1 / root
        return float(np.sign(float(c)) * abs(float(c)) ** (-1.0 / 3.0))
    return float(np.sign(c) * abs(c) ** (-1.0 / 3.0))


def test_mu_matches_two_branch_reference():
    # c = 110592 = 48^3 (exact root), 442368 (no rational root) and float c
    kinds = set()
    for expr in ("x1^3-x2^2-x1", "x1^3+x2^3+1", "x1^3-x2^2-x1+1/5"):
        for rep in cubic_representations(parse_poly(expr)):
            want = reference_mu(rep.c)
            assert rep.mu == want and type(rep.mu) is type(want)
            kinds.add((type(rep.c).__name__, type(rep.mu).__name__))
    assert kinds == {("Fraction", "Fraction"), ("Fraction", "float"), ("float", "float")}
