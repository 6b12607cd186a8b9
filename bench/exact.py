"""Exact bivariate polynomials over the rationals, independent of rigidconvex.

A polynomial is a dict ``{(a, b): Fraction}`` holding the coefficient of
x1^a x2^b, with no zero values.  The benchmark builds its inputs and checks
the program's outputs with these helpers only, so a defect in the package's
own exact arithmetic cannot vouch for itself.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import permutations


def clean(p: dict) -> dict:
    return {k: Fraction(v) for k, v in p.items() if v != 0}


def add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
    return clean(out)


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a, b), u in p.items():
        for (c, d), v in q.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + u * v
    return clean(out)


def scale(p: dict, c) -> dict:
    return clean({k: v * c for k, v in p.items()})


def power(p: dict, n: int) -> dict:
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = mul(out, p)
    return out


def degree(p: dict) -> int:
    return max((a + b for a, b in p), default=0)


def shift(p: dict, a1, a2) -> dict:
    """p(x1 + a1, x2 + a2)."""
    lin1 = clean({(0, 0): Fraction(a1), (1, 0): Fraction(1)})
    lin2 = clean({(0, 0): Fraction(a2), (0, 1): Fraction(1)})
    out: dict = {}
    for (a, b), v in p.items():
        out = add(out, scale(mul(power(lin1, a), power(lin2, b)), v))
    return out


def partial(p: dict, var: int) -> dict:
    out = {}
    for (a, b), v in p.items():
        e = (a, b)[var]
        if e:
            out[(a - 1, b) if var == 0 else (a, b - 1)] = v * e
    return out


def evaluate(p: dict, x1, x2):
    """Value at a point; Fractions give an exact value, floats a float."""
    return sum(v * x1**a * x2**b for (a, b), v in p.items())


def parse_sum(text: str) -> dict:
    """Parse a sum of monomials such as ``1-x1-4*x1^2+x2^2`` (no brackets)."""
    out: dict = {}
    for sign, term in re.findall(r"([+-]?)([^+-]+)", text.replace(" ", "")):
        coeff, expo = Fraction(-1 if sign == "-" else 1), [0, 0]
        for factor in term.split("*"):
            name, _, exp = factor.partition("^")
            if name in ("x1", "x2"):
                expo[int(name[1]) - 1] += int(exp or 1)
            else:
                coeff *= Fraction(factor)
        out = add(out, {tuple(expo): coeff})
    return out


def to_expr(p: dict) -> str:
    """Expression text in the package's input syntax (x1, x2, ^, p/q)."""
    terms = []
    for (a, b), v in sorted(p.items()):
        factors = [f"({v})" if v.denominator != 1 else str(v)]
        if a:
            factors.append(f"x1^{a}")
        if b:
            factors.append(f"x2^{b}")
        terms.append("*".join(factors))
    return "+".join(terms).replace("+-", "-") if terms else "0"


# ---------------------------------------------------------------------------
# determinants of linear pencils F0 + x1 F1 + x2 F2
# ---------------------------------------------------------------------------

def det_rational(rows) -> Fraction:
    """Determinant of a square rational matrix by Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] / mat[col][col]
            if f:
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return det


def _interpolate(nodes, values) -> list:
    """Ascending coefficients of the polynomial through (nodes, values)."""
    n = len(nodes)
    div = [Fraction(v) for v in values]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            div[i] = (div[i] - div[i - 1]) / (nodes[i] - nodes[i - j])
    coeffs = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        # coeffs <- coeffs * (x - nodes[i]) + div[i]
        shifted = [Fraction(0)] + coeffs[:-1]
        coeffs = [s - nodes[i] * c for s, c in zip(shifted, coeffs)]
        coeffs[0] += div[i]
    return coeffs


def resultant_x1(f: dict, g: dict) -> list:
    """Ascending coefficients, in x2, of the Sylvester resultant of f and g
    with respect to x1, by exact interpolation."""
    df = max((a for a, _b in f), default=0)
    dg = max((a for a, _b in g), default=0)

    def at(u):
        fc = [sum(v * u**b for (a, b), v in f.items() if a == k)
              for k in range(df, -1, -1)]
        gc = [sum(v * u**b for (a, b), v in g.items() if a == k)
              for k in range(dg, -1, -1)]
        return det_rational([[0] * i + fc + [0] * (dg - 1 - i) for i in range(dg)]
                            + [[0] * i + gc + [0] * (df - 1 - i) for i in range(df)])

    nodes = [Fraction(u) for u in range(df * degree(g) + dg * degree(f) + 1)]
    return _interpolate(nodes, [at(u) for u in nodes])


def root_multiplicity(coeffs: list, r) -> int | None:
    """How often (x - r) divides the polynomial with these ascending
    coefficients; None for the zero polynomial."""
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return None
    mult = 0
    while True:
        quotient, acc = [], Fraction(0)
        for x in reversed(c):          # synthetic division by (x - r)
            acc = acc * r + x
            quotient.append(acc)
        if quotient.pop() != 0:
            return mult
        c = quotient[::-1]
        mult += 1


def pencil_det(F0, F1, F2) -> dict:
    """det(F0 + x1 F1 + x2 F2) exactly, by interpolation on a tensor grid."""
    m = len(F0)
    nodes = list(range(m + 1))

    def at(i, j):
        return det_rational([[F0[r][c] + i * F1[r][c] + j * F2[r][c]
                              for c in range(m)] for r in range(m)])

    in_x1 = [_interpolate(nodes, [at(i, j) for i in nodes]) for j in nodes]
    out = {}
    for a in nodes:
        for b, v in enumerate(_interpolate(nodes, [row[a] for row in in_x1])):
            if v:
                out[(a, b)] = v
    return out


_PERMS3 = [(perm, 1 if sum(perm[i] > perm[j] for i in range(3)
                            for j in range(i + 1, 3)) % 2 == 0 else -1)
           for perm in permutations(range(3))]


def det3_pencil(F0, F1, F2) -> dict:
    """det(F0 + x1 F1 + x2 F2) for 3 x 3 rational matrices, by the Leibniz
    formula on linear polynomial entries."""
    entry = [[clean({(0, 0): F0[i][j], (1, 0): F1[i][j], (0, 1): F2[i][j]})
              for j in range(3)] for i in range(3)]
    out: dict = {}
    for perm, sign in _PERMS3:
        term = mul(mul(entry[0][perm[0]], entry[1][perm[1]]), entry[2][perm[2]])
        out = add(out, scale(term, sign))
    return out


def bezout(g: list, h: list, m: int) -> list:
    """m x m Bezout matrix of two ascending coefficient lists: the
    coefficients of (g(u)h(v) - g(v)h(u)) / (u - v)."""
    gc = [Fraction(g[k]) if k < len(g) else Fraction(0) for k in range(m + 1)]
    hc = [Fraction(h[k]) if k < len(h) else Fraction(0) for k in range(m + 1)]
    B = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m + 1):
        for j in range(i):
            w = gc[i] * hc[j] - gc[j] * hc[i]
            for s in range(i - j):
                B[j + s][i - 1 - s] += w
    return B
