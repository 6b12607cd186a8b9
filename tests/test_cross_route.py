"""Two front ends of one circle decision: ``check-rigid`` reads the Hermite
matrix's integer image off p's power sums over Z[T] (``hermite_psd``), and
``psd_on_circle`` reads it off the TrigMatrix ``hermite_matrix`` builds; both
in W = tan^2 theta when p is even in x2, else in T = tan theta.  On the
benchmark's check-rigid inputs both must give one answer, bit for bit but
for the least eigenvalue."""
import importlib
import importlib.util
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from rigidconvex import circlepsd, hermite_matrix, parse_poly, psd_on_circle
from rigidconvex.circlepsd import _GROUPS, GRID, GRID_SIZE, CircleVerdict, hermite_psd
from rigidconvex.hermite import hermite_image
from rigidconvex.polycore import _image_sign

ROOT = Path(__file__).resolve().parents[1]
THETAS = np.linspace(0.0, 2 * np.pi, 29)


def _load_workloads():
    """bench/workloads.py, loaded by path as the package ``bench``, which it
    needs for its relative import of ``exact``."""
    if "bench" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "bench", ROOT / "bench" / "__init__.py",
            submodule_search_locations=[str(ROOT / "bench")])
        bench = importlib.util.module_from_spec(spec)
        sys.modules["bench"] = bench
        spec.loader.exec_module(bench)
    return importlib.import_module("bench.workloads")


def max_abs_coeff(H) -> float:
    """Largest |coefficient|, cosine or sine, over H's entries."""
    return max((abs(float(x)) for row in H.entries for e in row for x in e.c + e.s),
               default=0.0)


def test_power_sum_decision_matches_psd_on_circle_on_workload_inputs(monkeypatch):
    # the same status, shortcut, circle roots and NotPSD witness, bit for bit:
    # both images are in one coordinate and their determinants have the same
    # real roots, so the roots' intervals and the arcs' points are the same.
    # A NotPSD verdict of the scan's first pass has a negative leading minor
    # at a rational point next to its witness, and the least eigenvalue of
    # that pass; any other least eigenvalue is that of the whole domain's grid
    # and the arcs, as one pass over the grid finds it
    exact_path, circle_roots = [], circlepsd._circle_roots

    def spy(image):
        exact_path.append(circle_roots(image))
        return exact_path[-1]
    monkeypatch.setattr(circlepsd, "_circle_roots", spy)
    workloads = _load_workloads()
    cases = [case for workload in ("hermite-scan", "hermite-ladder") for seed in (1, 2, 3, 4)
             for case in workloads.build(workload, seed, ROOT) if case.argv[0] == "check-rigid"]
    assert len(cases) == 296
    disagreements, statuses, forms, firsts = [], set(), set(), 0
    for case in cases:
        p = parse_poly(case.argv[1].removeprefix("--poly="))
        H = hermite_matrix(p)
        want = psd_on_circle(H)
        exact_path.clear()
        got = hermite_psd(p)
        statuses.add(want.status)
        image, eval_thetas = hermite_image(p)
        in_w = image[4][0]
        forms.add(in_w)
        if not exact_path:
            firsts += 1
            if not _first_pass_proof(image, eval_thetas, got):
                disagreements.append((case.cid, case.argv[1], ["first pass"], got))
        elif got.status != CircleVerdict.NOT_PSD and got.min_eig != _grid_minimum(
                image, eval_thetas, exact_path[0]):
            disagreements.append((case.cid, case.argv[1], ["grid minimum"], got))
        wrong = [f for f in ("status", "shortcut", "circle_roots")
                 if getattr(want, f) != getattr(got, f)]
        if want.status == CircleVerdict.NOT_PSD and want.witness_theta != got.witness_theta:
            wrong.append("witness_theta")
        bound = 1e-12 * max(1.0, max_abs_coeff(H))
        if abs(want.min_eig - got.min_eig) > bound:
            wrong.append("min_eig")
        # the scan's matrices themselves, off the grid
        if np.abs(hermite_image(p)[1](THETAS) - H.eval_thetas(THETAS)).max() > bound:
            wrong.append("eval_thetas")
        if wrong:
            disagreements.append((case.cid, case.argv[1], wrong, want, got))
    for item in disagreements:
        print(*item)
    assert disagreements == []
    assert statuses >= {CircleVerdict.PD, CircleVerdict.MARGINAL, CircleVerdict.NOT_PSD}
    assert forms == {True, False}
    assert firsts > 50


def _first_pass_proof(image, eval_thetas, verdict) -> bool:
    """Whether a verdict reached without the circle roots is NotPSD with the
    least eigenvalue of the first pass, every 8th angle of its grid domain, at
    its witness, and either a negative leading minor of H at the rational
    point next to the witness or a quarter grid step on, or (a shortcut) a
    zero diagonal entry H_ii beside a nonzero H_ij, whose 2 x 2 principal
    minor is -H_ij^2 < 0 somewhere."""
    (plan, polys, *_, (even, graded)) = image
    if verdict.shortcut:
        zero = [[not any(polys[k]) for _, k in row] for row in plan]
        if not any(zero[i][i] and not all(row) for i, row in enumerate(zero)):
            return False
    thetas = GRID[:_GROUPS[image[4]][0]:8]
    eigs = np.linalg.eigvalsh(eval_thetas(thetas))[:, 0]
    k = int(np.argmin(eigs))
    sign = _image_sign(image)
    near = [Fraction(math.tan(th / (2 - graded)) ** (1 + even)).limit_denominator(2**20)
            for th in (thetas[k], thetas[k] + np.pi / (2 * GRID_SIZE))]
    return (verdict.status == CircleVerdict.NOT_PSD
            and (verdict.min_eig, verdict.witness_theta) == (eigs[k], thetas[k])
            and (verdict.shortcut or -1 in map(sign, near)))


def _grid_minimum(image, eval_thetas, found) -> float:
    """The least eigenvalue of H over its grid domain, in one pass, and at the
    circle roots and arcs' points ``found`` of the image (``_circle_roots``;
    None where det H = 0)."""
    angles, _, points = found or ([], None, [])
    thetas = [GRID[:_GROUPS[image[4]][0]], angles + [th for _, th in points]]
    return min(float(np.linalg.eigvalsh(eval_thetas(t))[:, 0].min()) for t in thetas if len(t))


def test_w_form_keeps_the_formal_degree():
    # D(W) has formal degree m(m-1)/2 = 6 at m = 4, and theta = pi/2 is a root
    # only where its W^6 coefficient is 0; read against a larger bound (8,
    # say, from the entries' degrees), both PD inputs would turn marginal
    workloads = _load_workloads()
    for seed, cid in ((6, "ladder-pencil-4-2"), (7, "ladder-ellipses-4-3")):
        case = next(c for c in workloads.build("hermite-ladder", seed, ROOT) if c.cid == cid)
        p = parse_poly(case.argv[1].removeprefix("--poly="))
        (plan, polys, n, _, key), _ = hermite_image(p)
        assert key == (True, True) and n == 6
        verdict = hermite_psd(p)
        assert (verdict.status, verdict.circle_roots) == (CircleVerdict.PD, ())
        assert psd_on_circle(hermite_matrix(p)).status == CircleVerdict.PD


def test_both_routes_agree_in_w_at_degree_sixteen():
    # even_pencil at degree 16 (generator seed deg/16), both routes in W and
    # under the 30 s of the runtime gates
    workloads = _load_workloads()
    poly, _ = workloads.even_pencil(random.Random("deg/16"), 16)
    p = parse_poly(workloads.exact.to_expr(poly))
    H = hermite_matrix(p)
    assert hermite_image(p)[0][4] == H._image()[4] == (True, True)
    started = time.perf_counter()
    want = psd_on_circle(H)
    assert time.perf_counter() - started < 30.0
    started = time.perf_counter()
    got = hermite_psd(p)
    assert time.perf_counter() - started < 30.0
    assert got.status == want.status == CircleVerdict.PD
    assert got.circle_roots == want.circle_roots
