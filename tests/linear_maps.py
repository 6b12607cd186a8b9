"""Linear changes of a plane curve's coordinates for the tests: q(x) = p(A x)
for an integer 2 x 2 matrix A, and the map of q's line angles onto p's."""
import math

from rigidconvex import Poly


def mapped(p: Poly, A) -> Poly:
    """q(x) = p(A x), composed through ``Poly``."""
    x1, x2 = Poly.variable(0), Poly.variable(1)
    y = [A[0][0] * x1 + A[0][1] * x2, A[1][0] * x1 + A[1][1] * x2]
    return sum((v * y[0] ** a * y[1] ** b for (a, b), v in p.coeffs.items()), Poly.zero())


def tan_image(A, x):
    """tan phi, phi = arg(A (1, x)): q's line at T = tan theta = x is p's line
    at T = tan phi (None where that is infinite)."""
    den = A[0][0] + A[0][1] * x
    return (A[1][0] + A[1][1] * x) / den if den else None


def angle_image(A, theta: float) -> float:
    """arg(A (cos theta, sin theta)) mod pi: q's line at theta is p's there."""
    c, s = math.cos(theta), math.sin(theta)
    return math.atan2(A[1][0] * c + A[1][1] * s, A[0][0] * c + A[0][1] * s) % math.pi


def mod_pi(angles, tol: float = 1e-9) -> list:
    """The angles mod pi, sorted, those within tol of pi read as 0."""
    return sorted(0.0 if math.pi - x % math.pi <= tol else x % math.pi for x in angles)
