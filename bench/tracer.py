"""Per-layer spans recorded from outside the package.

``Tracer.install()`` replaces each function listed in ``LAYERS`` with a
timing wrapper: on its defining module, on every loaded ``rigidconvex``
module that rebound the name through ``from ... import`` (for example
``cli.hermite_matrix``), and, for ``TrigMatrix.det``, on the class.
``uninstall()`` puts the originals back.

A span is ``[name, start, end, parent_index, input_id]``, kept in memory
and written out by the caller.  Size counters are computed from the
arguments and results after the outermost span has closed, so they cost no
span any time.
"""
from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

LAYERS = {
    "cli": ("main",),
    "polycore": ("parse_poly", "TrigMatrix.det", "det_exact", "solve_exact"),
    "hermite": ("line_substitute", "newton_sums", "hermite_matrix"),
    "circlepsd": ("psd_on_circle", "circle_roots_of"),
    "bezout": ("pencil_from_param", "interpolate_det", "verify_pencil_det",
               "rigid_at_origin"),
    "locate": ("resultant_elim_x1", "real_roots_with_multiplicity",
               "critical_points", "boundary_points", "certify_psd_point",
               "find_interior_point"),
    "cubicrepr": ("check_smooth_cubic", "hessian_det", "cubic_representations"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _det_sizes(acc, args, result):
    H = args[0]
    acc["polycore.TrigMatrix.det.m_max"] = max(acc["polycore.TrigMatrix.det.m_max"], H.m)
    acc["polycore.TrigMatrix.det.d_max"] = max(acc["polycore.TrigMatrix.det.d_max"], H.d)
    bits = max((_bits(x) for x in result.c + result.s), default=0)
    acc["polycore.TrigMatrix.det.result_bits_max"] = max(
        acc["polycore.TrigMatrix.det.result_bits_max"], bits)


def _max(key, size):
    def count(acc, args, result):
        acc[key] = max(acc[key], size(args, result))
    return count


def _sum(key, size):
    def count(acc, args, result):
        acc[key] += size(args, result)
    return count


# span name -> function(acc, args, result) updating the size counters
COUNTERS = {
    "polycore.TrigMatrix.det": _det_sizes,
    "polycore.solve_exact": _max("polycore.solve_exact.n_max",
                                 lambda args, res: len(args[0])),
    "locate.resultant_elim_x1": _max("locate.resultant_elim_x1.degree_max",
                                     lambda args, res: res.degree),
    "locate.find_interior_point": _sum("locate.find_interior_point.candidates",
                                       lambda args, res: len(res.candidates)),
    "circlepsd.psd_on_circle": _sum("circlepsd.psd_on_circle.shortcuts",
                                    lambda args, res: int(res.shortcut)),
    "cubicrepr.cubic_representations": _sum("cubicrepr.cubic_representations.reps",
                                            lambda args, res: len(res)),
}

COUNTER_NAMES = (
    "polycore.TrigMatrix.det.m_max", "polycore.TrigMatrix.det.d_max",
    "polycore.TrigMatrix.det.result_bits_max", "polycore.solve_exact.n_max",
    "locate.resultant_elim_x1.degree_max", "locate.find_interior_point.candidates",
    "circlepsd.psd_on_circle.shortcuts", "cubicrepr.cubic_representations.reps",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.input_id: str | None = None
        self.count_sizes = True          # off after the first traced pass
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self._patches: list[tuple] = []

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.input_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counter is not None and self.count_sizes:
                self._pending.append((counter, args, result))
            return result
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "rigidconvex" or key.startswith("rigidconvex.")]
        for mod_name, fns in LAYERS.items():
            home = importlib.import_module(f"rigidconvex.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(name, original))
                    continue
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters ---------------------------------------------------------------
    def flush_counters(self) -> None:
        """Apply the size counters of the call that just finished."""
        for counter, args, result in self._pending:
            counter(self.counters, args, result)
        self._pending.clear()

    # -- summaries --------------------------------------------------------------
    def layer_times(self) -> dict:
        """{name: [calls, self_s, total_s]} over all spans; self time is the
        duration minus the durations of direct children (single-threaded,
        so children never overlap)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for k, (name, start, end, _parent, _input) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += (end - start) - child[k]
            row[2] += end - start
        return out
