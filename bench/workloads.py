"""Seeded input lists for the four benchmark workloads.

Every workload is a fixed list of CLI invocations (one pass); a run makes
several whole passes.  The counts per family put the median and the tail
percentile (``run.tail_percentile`` of the list length) inside a block of
calls of similar cost, not on the edge between two blocks.  Inputs come from
``random.Random(f"{workload}/{seed}")`` only, and each case carries the
answer its construction guarantees, for ``checks.py``.

Redrawing below happens only where a draw would not be an input of the
family at all (a pencil whose determinant lost degree, a Weierstrass cubic
with zero discriminant, a node at infinity or out of general position); it
never looks at the program's output.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import exact

F = Fraction


@dataclass(frozen=True)
class Case:
    cid: str                 # "<family>-<param>-<index>", unique in the list
    family: str
    argv: tuple
    poly: dict | None = None  # the curve the input defines, when known
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# check-rigid families
# ---------------------------------------------------------------------------

def _nonzero(rng, lo, hi) -> int:
    v = 0
    while v == 0:
        v = rng.randint(lo, hi)
    return v


def random_even(rng, deg):
    """Random polynomial even in x2 with p(0) = 1 (mostly not rigidly convex)."""
    p = {(0, 0): F(1)}
    for a in range(deg + 1):
        for b in range(0, deg + 1 - a, 2):
            if (a, b) != (0, 0):
                p[(a, b)] = F(rng.randint(-3, 3))
    p[(deg, 0)] = F(_nonzero(rng, -3, 3))
    return exact.clean(p), {}


def ellipse_product(rng, deg):
    """Product of deg/2 ellipses 1 + c x1 - a x1^2 - b x2^2 around the origin:
    rigidly convex, with tangencies where the ellipses cross."""
    p = {(0, 0): F(1)}
    for _ in range(deg // 2):
        a, b, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(-2, 2)
        p = exact.mul(p, exact.clean({(0, 0): F(1), (1, 0): F(c),
                                      (2, 0): F(-a), (0, 2): F(-b)}))
    return p, {"rigid": True}


def _symmetric(rng, m, keep=lambda i, j: True):
    A = [[F(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            if keep(i, j):
                A[i][j] = A[j][i] = F(rng.randint(-2, 2))
    return A


def _identity(m):
    return [[F(int(i == j)) for j in range(m)] for i in range(m)]


def even_pencil(rng, m):
    """det(I + x1 A + x2 B) with A block diagonal and B block off-diagonal,
    so the signature matrix diag(I, -I) flips x2: even in x2, rigidly convex."""
    half = m // 2
    while True:
        A = _symmetric(rng, m, lambda i, j: (i < half) == (j < half))
        B = _symmetric(rng, m, lambda i, j: (i < half) != (j < half))
        p = exact.pencil_det(_identity(m), A, B)
        if exact.degree(p) == m:
            return p, {"rigid": True}


def general_pencil(rng, m):
    """det(I + x1 A + x2 B) for unstructured A, B: rigidly convex, with odd
    x2-terms, so the Hermite matrix has sine parts."""
    while True:
        p = exact.pencil_det(_identity(m), _symmetric(rng, m), _symmetric(rng, m))
        if exact.degree(p) == m and any(b % 2 for _a, b in p):
            return p, {"rigid": True}


def random_dense(rng, deg):
    """All monomials up to deg, p(0) in {1, 2, 3}."""
    p = {(a, b): F(rng.randint(-5, 5))
         for a in range(deg + 1) for b in range(deg + 1 - a)}
    p[(0, 0)] = F(rng.randint(1, 3))
    p[(deg, 0)] = F(_nonzero(rng, -5, 5))
    return exact.clean(p), {}


def origin_on_curve(rng, deg):
    """p(x) = g(x - c) - g(-c) with g(y) = 1 - a y1^2 - b y2^2 + higher terms:
    p(0) = 0, and c is a critical point of p with p(c) != 0, so check-rigid
    must recentre instead of answering inconclusive."""
    while True:
        g = {(0, 0): F(1), (2, 0): F(-rng.randint(1, 3)), (0, 2): F(-rng.randint(1, 3))}
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                if a + b >= 3:
                    g[(a, b)] = F(rng.randint(-2, 2))
        g[(deg, 0)] = F(_nonzero(rng, -2, 2))
        g = exact.clean(g)
        c = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1)])
        p = exact.add(exact.shift(g, -c[0], -c[1]),
                      {(0, 0): -exact.evaluate(g, F(-c[0]), F(-c[1]))})
        if exact.evaluate(p, F(c[0]), F(c[1])) != 0 and exact.degree(p) == deg:
            return p, {"recentre": True}


# ---------------------------------------------------------------------------
# find-component family
# ---------------------------------------------------------------------------

def _from_roots(roots, lead=1):
    coeffs = [F(lead)]
    for r in roots:
        coeffs = [(coeffs[k - 1] if k else 0) - r * (coeffs[k] if k < len(coeffs) else 0)
                  for k in range(len(coeffs) + 1)]
    return coeffs


def interlacing(rng, m):
    """q1, q2 of degree m with strictly interlacing integer roots, so
    F(0) = B(q1, q2) is definite; q0 random of degree m."""
    pts = sorted(rng.sample(range(-m - 1, m + 2), 2 * m))
    q1 = _from_roots(pts[0::2])
    q2 = _from_roots(pts[1::2], lead=rng.choice([1, -1, 2, -2]))
    q0 = ([F(rng.randint(1, 4))] + [F(rng.randint(-2, 2)) for _ in range(m - 1)]
          + [F(rng.randint(1, 3))])
    return q0, q1, q2


# ---------------------------------------------------------------------------
# cubics
# ---------------------------------------------------------------------------

def _projective_cubic(rng, a, b):
    """Y^2 Z - X^3 - a X Z^2 - b Z^3 after the substitution (X, Y, Z) =
    M (x1, x2, 1) with a random invertible integer M; a projective change of
    coordinates keeps the curve smooth or singular as it was.  Returns the
    cubic and M."""
    while True:
        M = [[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        if exact.det_rational(M) != 0:
            break
    X, Y, Z = (exact.clean({(1, 0): row[0], (0, 1): row[1], (0, 0): row[2]})
               for row in M)
    p = exact.mul(exact.power(Y, 2), Z)
    p = exact.add(p, exact.scale(exact.power(X, 3), -1))
    p = exact.add(p, exact.scale(exact.mul(X, exact.power(Z, 2)), -a))
    p = exact.add(p, exact.scale(exact.power(Z, 3), -b))
    return p, M


def smooth_cubic(rng, _param):
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if 4 * a**3 + 27 * b**2 != 0:
            return _projective_cubic(rng, a, b)[0], {"cubic": "computed"}


def singular_cubic(rng, _param):
    """Nodal cubic (a = -3k^2, b = 2k^3) whose node (X, Y, Z) = (k, 0, 1)
    lands in the affine plane in general position: its x2 is a simple root of
    Res_x1(dp/dx1, dp/dx2), so no other critical point shares that x2.
    Cusps, and nodes at infinity or out of general position, are left out:
    cubic-repr misclassifies some of them (bench/NOTES.md)."""
    k = rng.randint(1, 2)
    node = (F(k), F(0), F(1))
    while True:
        p, M = _projective_cubic(rng, -3 * k * k, 2 * k**3)
        # M^-1 node by Cramer's rule, up to the common factor det M
        v = [exact.det_rational([[node[r] if c == j else M[r][c] for c in range(3)]
                                 for r in range(3)]) for j in range(3)]
        if v[2] == 0:
            continue
        res = exact.resultant_x1(exact.partial(p, 0), exact.partial(p, 1))
        if exact.root_multiplicity(res, v[1] / v[2]) == 1:
            return p, {"cubic": "singular-cubic"}


# ---------------------------------------------------------------------------
# workload tables: (family, generator, param, count per pass)
# ---------------------------------------------------------------------------

FIXTURE_VERDICT_CURVES = ("cubic-curve", "tv-screen")
FIXTURE_CUBICS = ("cubic-curve", "elliptic-cubic")

TABLES = {
    # check-rigid on even-in-x2 polynomials; the subset-recursion determinant
    # dominates from degree 6 upward.  Degree 8 carries three even
    # determinantal pencils per pass: with one, the pass cost swung with the
    # seed by more than the bounds allow, and more would leave a run room
    # for too few passes.
    "hermite-ladder": [
        ("ladder-random", random_even, 4, 6),
        ("ladder-ellipses", ellipse_product, 4, 6),
        ("ladder-pencil", even_pencil, 4, 6),
        ("ladder-random", random_even, 6, 4),
        ("ladder-ellipses", ellipse_product, 6, 4),
        ("ladder-pencil", even_pencil, 6, 3),
        ("ladder-pencil", even_pencil, 8, 3),
    ],
    # check-rigid on small inputs; the 512-angle eigenvalue scan dominates
    "hermite-scan": [
        ("scan-random", random_dense, 2, 10),
        ("scan-random", random_dense, 3, 8),
        ("scan-random", random_dense, 4, 4),
        ("scan-pencil", general_pencil, 3, 8),
        ("scan-pencil", general_pencil, 4, 4),
        ("scan-pencil", general_pencil, 5, 6),
    ],
    # exact scalar kernels: interior-point search and recentring; degree-5
    # find-component is left out (2-4.5 s per input, too uneven for one
    # input per pass)
    "origin-locate": [
        ("locate-component", interlacing, 3, 12),
        ("locate-component", interlacing, 4, 8),
        ("locate-recentre", origin_on_curve, 3, 12),
        ("locate-recentre", origin_on_curve, 4, 6),
        ("locate-recentre", origin_on_curve, 5, 2),
    ],
    # Hessian homotopy; the shortest calls.  The singular inputs are nodal
    # cubics only (see singular_cubic).
    "cubic-homotopy": [
        ("cubic-smooth", smooth_cubic, 3, 88),
        ("cubic-singular", singular_cubic, 3, 10),
    ],
}

WORKLOADS = tuple(TABLES)


def _fixture(root: Path, name: str) -> dict:
    path = root / "src" / "rigidconvex" / "data" / (name.replace("-", "_") + ".json")
    return json.loads(path.read_text())


def _coeff_list(q) -> str:
    return ",".join(str(v) for v in q)


def build(workload: str, seed: int, root: Path) -> list[Case]:
    """The workload's input list for this seed, in a seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    cases = []
    for family, gen, param, count in TABLES[workload]:
        for k in range(count):
            cid = f"{family}-{param}-{k}"
            if gen is interlacing:
                q0, q1, q2 = gen(rng, param)
                argv = ("find-component", f"--q0={_coeff_list(q0)}",
                        f"--q1={_coeff_list(q1)}", f"--q2={_coeff_list(q2)}", "--json")
                cases.append(Case(cid, family, argv, None,
                                  {"q": (q0, q1, q2), "m": param}))
                continue
            poly, expect = gen(rng, param)
            command = "cubic-repr" if family.startswith("cubic") else "check-rigid"
            argv = (command, "--poly=" + exact.to_expr(poly), "--json")
            cases.append(Case(cid, family, argv, poly, expect))

    # stored fixtures: the verdict curves with p(0) != 0 and the cubics
    from_file = {"hermite-scan": ("scan-fixture", FIXTURE_VERDICT_CURVES),
                 "cubic-homotopy": ("cubic-fixture", FIXTURE_CUBICS)}
    if workload in from_file:
        family, names = from_file[workload]
        for name in names:
            data = _fixture(root, name)
            text = data["poly"]
            if family == "cubic-fixture":
                expect = {"cubic": "computed"}
                command = "cubic-repr"
            else:
                expect = {"verdict": data["expect"]["verdict"]["value"]}
                command = "check-rigid"
            cases.append(Case(f"{family}-{name}", family,
                              (command, "--poly=" + text, "--json"),
                              exact.parse_sum(text), expect))
    rng.shuffle(cases)
    return cases
