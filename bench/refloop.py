"""A fixed reference loop that tells how fast the host runs at the moment.

The reference machine is a share of a host whose CPU speed changes by up to
2 times in stretches of a second to minutes (``NOTES.md``).  ``run.py``
times this loop between calls and scales each measured time by
``REF_SECONDS`` over the loop's time around it: the result is the time the
call takes at the reference speed.  The loop does what the package does
most, big-integer ``Fraction`` arithmetic in pure Python, plus float work.

The cyclic garbage collector is off during the loop: a collection there
would time the program's heap, not the host.  Only ``fractions`` and ``gc``
are imported, so the set-up probe can load this module after
``rigidconvex.cli`` without changing what that import costs.
"""
import gc
from fractions import Fraction
from time import perf_counter

REF_ITERATIONS = 1000
# about the loop's time between calls in a fast stretch of the reference
# machine, so that scaled times read close to unscaled ones there; it only
# sets the scale of the reported times, so it is a constant
REF_SECONDS = 0.003


def _loop():
    total, x = Fraction(0), 1.0
    for i in range(1, REF_ITERATIONS):
        total += Fraction(1, i)
        x = x * 1.0000001 + i
    return total, x


def time_reference() -> float:
    """Seconds one reference loop takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _loop()
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
