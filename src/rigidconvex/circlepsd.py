"""Positive semidefiniteness of a TrigMatrix along the unit circle.

The decision procedure is eigenvalue-based: locate the circle zeros of
det H(z) exactly-in-coefficients / numerically-in-roots, then take the minimum
eigenvalue at the sample angles (a uniform grid, the zeros and the midpoints
between consecutive zeros) from one batched ``eigvalsh`` over the stack that
``TrigMatrix.eval_thetas`` evaluates in one product.  The
equivalent semidefinite feasibility problem is exported in SDPA sparse
format for external solvers; candidate spectral factors can be verified
against H on a grid.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatchError
from .polycore import TrigMatrix, TrigPoly, parse_scalar

GRID_SIZE = 512
CIRCLE_ROOT_TOL = 1e-6


def default_tolerance(H: TrigMatrix) -> float:
    env = os.environ.get("RIGIDCONVEX_TOL")
    if env:
        return float(env)
    return 1e-9 * max(1.0, H.max_abs_coeff())


@dataclass(frozen=True)
class CircleVerdict:
    status: str  # PositiveDefinite | PositiveSemidefiniteMarginal | NotPSD | Inconclusive
    witness_theta: float | None
    min_eig: float
    tolerance: float
    circle_roots: tuple[float, ...] = ()
    shortcut: bool = False

    PD = "PositiveDefinite"
    MARGINAL = "PositiveSemidefiniteMarginal"
    NOT_PSD = "NotPSD"
    INCONCLUSIVE = "Inconclusive"

    @property
    def is_psd(self) -> bool:
        return self.status in (self.PD, self.MARGINAL)


def _structural_shortcut(H: TrigMatrix) -> int | None:
    """Index of a zero diagonal entry whose row is not identically zero."""
    for i in range(H.m):
        if H.entry(i, i).is_zero():
            if any(not H.entry(i, j).is_zero() for j in range(H.m) if j != i):
                return i
    return None


def circle_roots_of(det: TrigPoly) -> list[float]:
    """Angles theta where det(e^{i theta}) = 0, from companion eigenvalues
    of the ordinary polynomial z^d * det(z)."""
    if det.is_zero() or det.half_degree == 0:
        return []
    coeffs = det.laurent_coeffs()  # ascending in z
    roots = np.roots(coeffs[::-1])
    angles = sorted(float(np.angle(r)) % (2 * np.pi)
                    for r in roots if abs(abs(r) - 1.0) < CIRCLE_ROOT_TOL)
    return angles


def _sample_angles(roots: list[float], grid_size: int) -> np.ndarray:
    grid = np.linspace(0.0, 2 * np.pi, grid_size, endpoint=False)
    if not roots:
        return grid
    rts = np.asarray(sorted(roots))
    mids = (rts + np.roll(rts, -1)) / 2.0
    mids[-1] = ((rts[-1] + rts[0] + 2 * np.pi) / 2.0) % (2 * np.pi)
    return np.unique(np.concatenate([grid, rts, mids]))


def psd_on_circle(H: TrigMatrix) -> CircleVerdict:
    """Classify H(z) on |z| = 1 as PD / marginal PSD / not PSD / inconclusive."""
    tol = default_tolerance(H)

    # a PSD matrix with a zero diagonal entry has a zero row, so a structural
    # zero decides NOT_PSD without the determinant; the scan still picks the
    # witness where the violation is largest
    shortcut = _structural_shortcut(H) is not None
    det = None if shortcut else H.det()
    roots = [] if shortcut else circle_roots_of(det)
    angles = _sample_angles(roots, GRID_SIZE)
    eigs = np.linalg.eigvalsh(H.eval_thetas(angles))[:, 0]
    k = int(np.argmin(eigs))
    min_eig, witness = float(eigs[k]), float(angles[k])

    if shortcut or min_eig < -tol:
        return CircleVerdict(CircleVerdict.NOT_PSD, witness, min_eig, tol,
                             tuple(roots), shortcut=shortcut)
    if det.is_zero():
        return CircleVerdict(CircleVerdict.INCONCLUSIVE, witness, min_eig, tol)
    if roots:
        return CircleVerdict(CircleVerdict.MARGINAL, witness, min_eig, tol,
                             tuple(roots))
    if min_eig > tol:
        return CircleVerdict(CircleVerdict.PD, witness, min_eig, tol)
    # no detected circle root but the eigenvalue scan grazes zero
    return CircleVerdict(CircleVerdict.MARGINAL, witness, min_eig, tol)


# ---------------------------------------------------------------------------
# congruence scaling
# ---------------------------------------------------------------------------

def scale_congruence(H: TrigMatrix,
                     theta0: float = 0.0) -> tuple[TrigMatrix, np.ndarray, str]:
    """Rescale H so that H0(e^{i theta0}) is the identity (mode 'full') or at
    least diagonal (mode 'diag'); returns (H0, W, mode) with H0 = W H W^T."""
    A = H.eval_theta(theta0)
    evals, vecs = np.linalg.eigh(A)
    if evals.min() > 0 and evals.max() / evals.min() <= 1e8:
        w = np.diag(1.0 / np.sqrt(evals)) @ vecs.T
        return H.congruence(w), w, "full"
    w = vecs.T
    return H.congruence(w), w, "diag"


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
        Hk = H.cos_block_exact(k)
        for i in range(m):
            for j in range(m):
                if k == 0:
                    L0[i][j] = Hk[i][j]
                else:
                    L0[i][k * m + j] = Hk[i][j]
                    L0[k * m + i][j] = Hk[j][i]
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
