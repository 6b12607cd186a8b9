"""Positive semidefiniteness of a Hermite matrix H along the unit circle.

The decision is exact: the circle zeros of det H are isolated exactly
(``realroots``) and Sylvester's criterion at rational points decides
(``_decide``), on one fundamental domain of H's symmetry, in the
coordinate of H's integer image: T = tan(theta/f) (theta mod f pi), or
W = tan^2(theta/f) (theta/f in [0, pi/2]) when H is even in theta, with
f = 1 for a graded H and f = 2 otherwise.  One routine, ``_circle_roots``,
takes the circle roots off any such image.  Floats only propose a witness,
in that domain, and report the least eigenvalue, from batched ``eigvalsh``
over stacks of H's values at a grid's angles, in two passes.  Two front ends
feed ``_decide``: ``psd_on_circle`` reads a TrigMatrix (``TrigMatrix._image``,
``eval_thetas``), in W when H is cosine-only; and ``hermite_psd`` reads the
image and the values of ``hermite_matrix(p)`` straight off p's power sums
(``hermite.hermite_image``, a kept trig table per pass), in W = tan^2 theta
when p is even in x2, else in T = tan theta.  The equivalent semidefinite
feasibility problem is exported in SDPA sparse format for external solvers;
candidate spectral factors can be verified against H on a grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatchError
from .hermite import hermite_image
from .polycore import (Poly, TrigMatrix, TrigPoly, _image_sign, _interpolate_minors, _nonzero_len,
                       _squarefree_part, parse_scalar)
from .realroots import _nonnegative_roots, real_roots

GRID_SIZE = 512
GRID = np.linspace(0.0, 2 * np.pi, GRID_SIZE, endpoint=False)
# H's symmetry groups by the image's key (even, graded): H(-theta) = H(theta) when even (the
# image in W), H(theta + pi) = S H(theta) S with S = diag((-1)^i) when graded (f = 1, else
# f = 2; ``TrigMatrix.is_graded``).  Each: the GRID prefix that meets every orbit, theta's orbit.
_GROUPS = {
    (True, True): (GRID_SIZE // 4 + 1, lambda th: (th, -th, math.pi - th, math.pi + th)),
    (True, False): (GRID_SIZE // 2 + 1, lambda th: (th, -th)),
    (False, True): (GRID_SIZE // 2, lambda th: (th, th + math.pi)),
    (False, False): (GRID_SIZE, lambda th: (th,)),
}
# the angles of the scan's second pass, after GRID[::8]; a domain GRID[:size] has the first
# size * 7 // 8, and ties of the two passes go to the lower angle, as in one pass over GRID
_REST = GRID[[i for i in range(GRID_SIZE) if i % 8]]


@dataclass(frozen=True)
class CircleVerdict:
    status: str  # PositiveDefinite | PositiveSemidefiniteMarginal | NotPSD | Inconclusive
    witness_theta: float | None  # in the fundamental domain of H's symmetry (_GROUPS)
    min_eig: float
    circle_roots: tuple[float, ...] = ()
    shortcut: bool = False

    PD = "PositiveDefinite"
    MARGINAL = "PositiveSemidefiniteMarginal"
    NOT_PSD = "NotPSD"
    INCONCLUSIVE = "Inconclusive"

    @property
    def is_psd(self) -> bool:
        return self.status in (self.PD, self.MARGINAL)


def _circle_roots(image: tuple) -> tuple[list, list, list] | None:
    """(angles, roots, points) of H from its integer image (the format of
    ``TrigMatrix._image``), None where det H = 0: the circle zeros of det H
    in the fundamental domain, their orbits (all zeros in [0, 2 pi), sorted)
    and (x, theta) inside each arc there, x exact.  D = det M is interpolated
    at the image's n + 1 points and its square-free part isolated in
    T = tan(theta/f) = x on the whole line (theta mod f pi), or in
    W = tan^2(theta/f) = x on [0, inf) (theta/f in [0, pi/2]).  theta = f pi/2,
    where T is infinite, is a root where D has degree below n; W = 0 is
    theta = 0.  The arcs' points: a midpoint between neighbouring roots; in T
    one more on the arc through theta = f pi/2, or one either side of it
    when it is a root; in W, 0 unless it is a root, and an integer above the
    last root."""
    plan, polys, n, _, (even, graded) = image
    D = _interpolate_minors(plan, polys, -(n // 2), n + 1)[0]
    if not any(D):
        return None
    f, sqf = 2 - graded, _squarefree_part(D[:_nonzero_len(D)])
    roots = _nonnegative_roots(sqf) if even else real_roots(sqf)
    xs = [(a[1] + b[0]) / 2 for a, b in zip(roots, roots[1:])]
    if even:
        xs = [Fraction(0)] * (not roots or roots[0][0] > 0) + xs
        xs += [Fraction(math.ceil(hi) + 1) for _, hi in roots[-1:]]
    elif roots:  # the arc through theta = f pi/2, or the two beside it when it is a root
        xs.append(Fraction(math.floor(roots[0][0]) - 1))
        xs += [Fraction(math.ceil(roots[-1][1]) + 1)] * (not D[n])
    else:
        xs = [Fraction(0)]

    def theta(x) -> float:
        return f * math.atan(math.sqrt(x)) if even else f * math.atan(x) % (f * math.pi)
    angles = [theta((lo + hi) / 2) for lo, hi in roots] + [f * math.pi / 2] * (not D[n])
    orbit = _GROUPS[even, graded][1]
    return (angles, sorted({th % (2 * math.pi) for a in angles for th in orbit(a)}),
            [(x, theta(x)) for x in xs])


def circle_roots_of(det: TrigPoly) -> tuple[list, list]:
    """(roots, points) of ``_circle_roots`` on the 1 x 1 image [[det]], det
    nonzero."""
    return _circle_roots(TrigMatrix([[det]])._image())[1:]


def _scan(eval_thetas, thetas, key=None) -> tuple[float, float]:
    """(least eigenvalue, its angle) over the angles, by one batched eigvalsh
    of the stack ``eval_thetas(thetas, key)``."""
    eigs = np.linalg.eigvalsh(eval_thetas(thetas, key))[:, 0]
    k = int(np.argmin(eigs))
    return float(eigs[k]), float(thetas[k])


def _decide(image: tuple, eval_thetas) -> CircleVerdict:
    """The circle verdict of a matrix H given by its integer image (the
    format of ``TrigMatrix._image``) and its float values at angles (the
    stack of ``TrigMatrix.eval_thetas``), in the coordinate the image's key
    names, T = tan(theta/f) or W = T^2.  The float scan only proposes a
    witness and reports the least eigenvalue.  NOT_PSD, with the witness and
    least eigenvalue of the scan's first pass, every 8th grid angle: a
    structural zero (a zero diagonal entry whose row is not identically zero;
    an entry is zero where its image polynomial is), or a negative leading
    minor of H at a rational point next to that pass's minimum.  Else, after
    the second (``_REST``), det H = 0 is INCONCLUSIVE; otherwise H's inertia
    is constant on each arc between the circle roots of det H, and
    Sylvester's criterion at one point per arc decides: NOT_PSD where it
    fails, else MARGINAL with roots and PD without.  H's symmetries keep its
    inertia: scan, arcs and witness keep to one ``_GROUPS`` domain."""
    plan, polys, *_, (even, graded) = image
    size = _GROUPS[even, graded][0]
    min_eig, witness = _scan(eval_thetas, GRID[:size:8], 0)
    # a PSD matrix with a zero diagonal entry has a zero row, so a structural
    # zero decides NOT_PSD without the determinant
    zero = [[not any(polys[k]) for _, k in row] for row in plan]
    if any(row[i] and not all(row) for i, row in enumerate(zero)):
        return CircleVerdict(CircleVerdict.NOT_PSD, witness, min_eig, shortcut=True)
    sign = _image_sign(image)
    # the witness and a quarter grid step on, in the image's coordinate
    # T = tan(theta/f) or W = T^2: a grid angle can lie on a symmetry axis,
    # where H is singular
    near = [math.tan(th / (2 - graded)) ** (1 + even)
            for th in (witness, witness + np.pi / (2 * GRID_SIZE))]
    if min_eig < 0 and any(sign(Fraction(x).limit_denominator(2**20)) < 0 for x in near):
        return CircleVerdict(CircleVerdict.NOT_PSD, witness, min_eig)
    min_eig, witness = min((min_eig, witness), _scan(eval_thetas, _REST[:size * 7 // 8], 1))
    found = _circle_roots(image)
    if found is None:
        return CircleVerdict(CircleVerdict.INCONCLUSIVE, witness, min_eig)
    angles, roots, points = found
    min_eig, witness = min((min_eig, witness),
                           _scan(eval_thetas, angles + [th for _, th in points]))
    status = CircleVerdict.MARGINAL if roots else CircleVerdict.PD
    for x, theta in points:
        if sign(x) < 1:
            status, witness = CircleVerdict.NOT_PSD, theta
            break
    return CircleVerdict(status, witness, min_eig, tuple(roots))


def psd_on_circle(H: TrigMatrix) -> CircleVerdict:
    """Classify H(z) on |z| = 1 as PD / marginal PSD / not PSD / inconclusive,
    exactly (``_decide``), from H's ``_image`` and ``eval_thetas``."""
    return _decide(H._image(), lambda thetas, key: H.eval_thetas(thetas))


def hermite_psd(p: Poly) -> CircleVerdict:
    """``psd_on_circle(hermite_matrix(p))``, decided on ``hermite_image(p)``
    without building H.  The two images share their coordinate and, up to a
    positive factor, det H, so the status, shortcut and circle roots are the
    same; so is the witness, unless the two float scans' minima fall on
    different grid angles.  The least eigenvalue is of the same matrices, at
    the same angles."""
    return _decide(*hermite_image(p))


# ---------------------------------------------------------------------------
# SDP export
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdpProblem:
    """Feasibility problem: L0 + sum y_ij A_ij >= 0, maximising trace(P).

    The block has size (d+1)m; P is a symmetric dm x dm matrix whose upper
    triangle supplies the scalar variables y_ij.  A_ij adds +1 at (i, j) and
    (j, i) in the leading dm block and -1 at (i+m, j+m), (j+m, i+m).
    """

    m: int
    d: int
    L0: tuple  # exact (d+1)m x (d+1)m symmetric matrix
    objective: tuple = field(default=())  # c vector: minimising c^T y maximises trace P

    @property
    def block_size(self) -> int:
        return (self.d + 1) * self.m

    @property
    def num_vars(self) -> int:
        dm = self.d * self.m
        return dm * (dm + 1) // 2

    def variable_entries(self):
        """Yield (var_index, i, j, i2, j2) for A_k; 1-based var indices."""
        dm = self.d * self.m
        k = 0
        for i in range(dm):
            for j in range(i, dm):
                k += 1
                yield k, i, j, i + self.m, j + self.m

    def reconstruct(self) -> TrigMatrix:
        """H(z) = B^T(z^-1) L0 B(z) with B(z) = [I; zI; ...; z^d I], exactly."""
        m, d = self.m, self.d
        out = [[TrigPoly() for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(m):
                laurent: dict[int, Fraction] = {}
                for bi in range(d + 1):
                    for bj in range(d + 1):
                        val = self.L0[bi * m + i][bj * m + j]
                        if val != 0:
                            k = bj - bi
                            laurent[k] = laurent.get(k, Fraction(0)) + val
                dmax = max((abs(k) for k in laurent), default=0)
                c = [laurent.get(0, Fraction(0))]
                for k in range(1, dmax + 1):
                    plus = laurent.get(k, Fraction(0))
                    minus = laurent.get(-k, Fraction(0))
                    if plus != minus:
                        raise ValueError("asymmetric Laurent data in L0 block")
                    c.append(plus)
                out[i][j] = TrigPoly(c)
        return TrigMatrix(out)


def build_sdp(H: TrigMatrix) -> SdpProblem:
    """Assemble L0 with H0 in the leading block and H1..Hd along the leading
    block row/column; trivial for d = 0."""
    if not H.is_cosine():
        raise ValueError("SDP export requires a cosine-only matrix")
    m, d = H.m, H.d
    size = (d + 1) * m
    L0 = [[Fraction(0)] * size for _ in range(size)]
    for k in range(d + 1):
        for i in range(m):
            for j in range(m):  # k = 0 writes H0[i][j] twice, H being symmetric
                L0[i][k * m + j] = H.entry(i, j).cos_coeff(k)
                L0[k * m + i][j] = H.entry(j, i).cos_coeff(k)
    dm = d * m
    objective = tuple(-1 if i == j else 0
                      for i in range(dm) for j in range(i, dm))
    return SdpProblem(m, d, tuple(tuple(row) for row in L0), objective)


def write_sdpa(problem: SdpProblem, path: str) -> None:
    """SDPA sparse format; objective encodes maximise trace(P)."""
    lines = [str(problem.num_vars), "1", str(problem.block_size)]
    lines.append(" ".join(str(c) for c in problem.objective))
    # matno 0 holds -L0 (constraint is sum y_k A_k - (-L0) >= 0)
    for i in range(problem.block_size):
        for j in range(i, problem.block_size):
            val = problem.L0[i][j]
            if val != 0:
                lines.append(f"0 1 {i + 1} {j + 1} {-float(val):.17g}")
    for k, i, j, i2, j2 in problem.variable_entries():
        lines.append(f"{k} 1 {i + 1} {j + 1} 1")
        lines.append(f"{k} 1 {i2 + 1} {j2 + 1} -1")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# spectral factor verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixPoly:
    """U(z) = U0 + U1 z + ... + Ud z^d with real square coefficient matrices."""

    m: int
    coeff: tuple  # tuple of m x m tuples

    @classmethod
    def from_lists(cls, mats) -> "MatrixPoly":
        mats = [np.asarray(mat, dtype=float) for mat in mats]
        m = mats[0].shape[0]
        for mat in mats:
            if mat.shape != (m, m):
                raise DimensionMismatchError("factor blocks must be square, equal size")
        return cls(m, tuple(tuple(tuple(float(x) for x in row) for row in mat)
                            for mat in mats))

    @property
    def degree(self) -> int:
        return len(self.coeff) - 1

    def eval(self, z: complex) -> np.ndarray:
        out = np.zeros((self.m, self.m), dtype=complex)
        for k, mat in enumerate(self.coeff):
            out += np.asarray(mat) * z**k
        return out

    @classmethod
    def from_json_dict(cls, data) -> "MatrixPoly":
        mats = [[[float(parse_scalar(x)) for x in row] for row in mat]
                for mat in data["U"]]
        return cls.from_lists(mats)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "degree": self.degree,
                "U": [[[float(x) for x in row] for row in mat]
                      for mat in self.coeff]}


@dataclass(frozen=True)
class FactorReport:
    max_residual: float
    max_norm: float
    relative: float
    tolerance: float
    passed: bool


def verify_spectral_factor(H: TrigMatrix, U: MatrixPoly,
                           tol: float = 1e-2) -> FactorReport:
    """Check H(e^{i theta}) = U(e^{-i theta})^T U(e^{i theta}) on a grid."""
    if U.m != H.m:
        raise DimensionMismatchError(f"factor size {U.m} != matrix size {H.m}")
    max_res = 0.0
    max_h = 0.0
    thetas = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    for theta, Hval in zip(thetas, H.eval_thetas(thetas)):
        z = np.exp(1j * theta)
        prod = U.eval(1 / z).T @ U.eval(z)
        max_res = max(max_res, float(np.linalg.norm(Hval - prod)))
        max_h = max(max_h, float(np.linalg.norm(Hval)))
    rel = max_res / max_h if max_h > 0 else max_res
    return FactorReport(max_res, max_h, rel, tol, rel <= tol)
