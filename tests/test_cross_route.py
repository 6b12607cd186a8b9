"""Two front ends of one circle decision: ``check-rigid`` reads the Hermite
matrix's integer image off p's power sums over Z[T] (``hermite_psd``), and
``psd_on_circle`` reads it off the TrigMatrix ``hermite_matrix`` builds; both
in W = tan^2 theta when p is even in x2, else in T = tan theta.  On the
benchmark's check-rigid inputs both must give one answer, bit for bit but
for the least eigenvalue."""
import importlib
import importlib.util
import random
import sys
import time
from pathlib import Path

import numpy as np

from rigidconvex import hermite_matrix, parse_poly, psd_on_circle
from rigidconvex.circlepsd import CircleVerdict, hermite_psd
from rigidconvex.hermite import hermite_image

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


def test_power_sum_decision_matches_psd_on_circle_on_workload_inputs():
    # the same status, shortcut, circle roots and NotPSD witness, bit for bit:
    # both images are in one coordinate and their determinants have the same
    # real roots, so the roots' intervals and the arcs' points are the same
    workloads = _load_workloads()
    cases = [case for workload in ("hermite-scan", "hermite-ladder") for seed in (1, 2, 3, 4)
             for case in workloads.build(workload, seed, ROOT) if case.argv[0] == "check-rigid"]
    assert len(cases) == 296
    disagreements, statuses, forms = [], set(), set()
    for case in cases:
        p = parse_poly(case.argv[1].removeprefix("--poly="))
        H = hermite_matrix(p)
        want, got = psd_on_circle(H), hermite_psd(p)
        statuses.add(want.status)
        in_w = hermite_image(p)[0][4][0]
        forms.add(in_w)
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
