"""Two front ends of one circle decision: ``check-rigid`` reads the Hermite
matrix's integer image off p's power sums over Z[T] (``hermite_psd``), and
``psd_on_circle`` reads it off the TrigMatrix ``hermite_matrix`` builds.  On
the benchmark's check-rigid inputs both must give one answer."""
import importlib
import importlib.util
import sys
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
    workloads = _load_workloads()
    cases = [case for workload in ("hermite-scan", "hermite-ladder") for seed in (1, 2)
             for case in workloads.build(workload, seed, ROOT) if case.argv[0] == "check-rigid"]
    assert len(cases) == 148
    disagreements, statuses = [], set()
    for case in cases:
        p = parse_poly(case.argv[1].removeprefix("--poly="))
        H = hermite_matrix(p)
        want, got = psd_on_circle(H), hermite_psd(p)
        statuses.add(want.status)
        fields = ("status", "shortcut", "circle_roots")
        if want.status == CircleVerdict.NOT_PSD:
            fields += ("witness_theta",)
        wrong = [f for f in fields if getattr(want, f) != getattr(got, f)]
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
