"""An invariance oracle: the circle verdict does not depend on the coordinates.

For an invertible A, q(x) = p(A x) on the line through 0 in direction v is p
on the line in direction A v, so q and p have the same number of real roots
on corresponding lines (hyperbolicity is invariant under invertible linear
changes of coordinates; L. Garding, J. Math. Mech. 8, 1959).  So the verdict
is the same, and a circle root theta of q maps to the root
arg(A (cos theta, sin theta)) of p, mod pi.  A map that breaks p's evenness in
x2 sends a curve decided in W = tan^2 theta to one decided in T = tan theta,
and theta = 0 and pi/2, where W's domain ends and T is infinite, to other
angles: the two coordinates check each other with no reference code."""
import math

import pytest

from rigidconvex import parse_poly
from rigidconvex.circlepsd import CircleVerdict, hermite_psd
from rigidconvex.hermite import hermite_image
from linear_maps import angle_image, mapped, mod_pi
from test_cross_route import ROOT, _load_workloads

# a shear, a unimodular map, the swap of x1 and x2, a rotation-like map and a scaling
MAPS = (((1, 1), (0, 1)), ((2, 1), (1, 1)), ((0, 1), (1, 0)), ((1, -3), (2, 1)), ((3, 0), (0, 1)))
# mapped circle roots agree within this many radians: each is a float angle of
# the midpoint of a float-width isolating interval, mapped by one atan2
ROOT_TOL = 1e-9


def test_verdict_and_circle_roots_are_invariant_under_linear_maps():
    # the check-rigid inputs of hermite-scan and hermite-ladder at seeds 1-2,
    # each under the five maps: the same status, and for PD and marginal
    # verdicts the same number of circle roots, which map onto p's.  A NotPSD
    # verdict proved at the scan's first pass reports no roots, so its roots
    # are not compared
    workloads = _load_workloads()
    texts = [case.argv[1].removeprefix("--poly=")
             for workload in ("hermite-scan", "hermite-ladder") for seed in (1, 2)
             for case in workloads.build(workload, seed, ROOT) if case.argv[0] == "check-rigid"]
    assert len(texts) == 148
    disagreements, statuses, edges = [], set(), set()
    for text in texts:
        p = parse_poly(text)
        want = hermite_psd(p)
        statuses.add(want.status)
        if hermite_image(p)[0][4]:  # decided in W: roots at its ends, theta = 0 and pi/2
            edges.update(th for th in want.circle_roots if th in (0.0, math.pi / 2))
        for A in MAPS:
            got = hermite_psd(mapped(p, A))
            wrong = []
            if got.status != want.status:
                wrong.append("status")
            elif want.status in (CircleVerdict.PD, CircleVerdict.MARGINAL):
                roots = mod_pi([angle_image(A, th) for th in got.circle_roots])
                if len(got.circle_roots) != len(want.circle_roots):
                    wrong.append("root count")
                elif roots != pytest.approx(mod_pi(want.circle_roots), abs=ROOT_TOL):
                    wrong.append("roots")
            if wrong:
                disagreements.append((text, A, wrong, want, got))
    for item in disagreements:
        print(*item)
    assert disagreements == []
    assert statuses >= {CircleVerdict.PD, CircleVerdict.MARGINAL, CircleVerdict.NOT_PSD}
    assert edges == {0.0, math.pi / 2}
