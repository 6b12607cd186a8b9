"""TrigPoly ring operations for the tests.  TrigPoly itself has none: the
package multiplies Laurent halves through ``laurent_mul`` directly."""
from rigidconvex.polycore import TrigMatrix, TrigPoly, laurent_mul


def tadd(a: TrigPoly, b: TrigPoly) -> TrigPoly:
    n, m = max(len(a.c), len(b.c)), max(len(a.s), len(b.s))
    return TrigPoly([a.cos_coeff(k) + b.cos_coeff(k) for k in range(n)],
                    [a.sin_coeff(k) + b.sin_coeff(k) for k in range(m)])


def tscale(a: TrigPoly, f) -> TrigPoly:
    return TrigPoly([x * f for x in a.c], [x * f for x in a.s])


def tmul(a: TrigPoly, b: TrigPoly) -> TrigPoly:
    return TrigPoly._make(*laurent_mul(a.re, a.im, b.re, b.im), a.den * b.den)


def tpow(a: TrigPoly, n: int) -> TrigPoly:
    out = TrigPoly([1])
    for _ in range(n):
        out = tmul(out, a)
    return out


def teval(a: TrigPoly, theta: float) -> float:
    """Value of a at z = e^{i theta} (always real), as a 1 x 1 TrigMatrix."""
    return float(TrigMatrix([[a]]).eval_thetas([theta])[0, 0, 0])
