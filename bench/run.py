"""Benchmark of the rigidconvex command line: four seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload hermite-ladder --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload is one single-threaded process with BLAS pinned to one thread,
driving a closed loop with one caller: every call is
``rigidconvex.cli.main([..., "--json"])`` in process, with stdout captured and
the report parsed and checked (``checks.py``) outside the timed region.  The
run makes whole passes over the workload's fixed input list
(``workloads.py``), at least two, while another pass would still end within
``--seconds``.

The host's CPU speed changes by up to 2 times from second to second, so
every reported time is scaled to the reference speed: between calls the run
times the fixed loop of ``refloop.py``, and a call's time is multiplied by
``REF_SECONDS`` over the mean of the loop times just before and after it.
An input's latency is the median of its scaled passes.  The unscaled figures
are printed beside the scaled ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with the per-layer wrappers of ``tracer.py``
installed (at least one pass each), reports the per-layer metrics, and
writes the spans to ``bench/out/spans-<workload>-seed<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, and list every failing input.
"""
from __future__ import annotations

import os

# pin BLAS and OpenMP pools before numpy is imported, here and in children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

sys.path.insert(0, str(ROOT))
from bench import checks, workloads  # noqa: E402
from bench.refloop import REF_SECONDS, time_reference  # noqa: E402
from bench.tracer import COUNTER_NAMES, SPAN_NAMES, Tracer  # noqa: E402

SETUP_SAMPLES = 7
MIN_PASSES = 2
# times the import, then the reference loop three times (median) after it
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import rigidconvex.cli; "
                "d = time.perf_counter() - t; sys.path.insert(0, {bench!r}); "
                "import refloop; "
                "print(d, sorted(refloop.time_reference() for _ in range(3))[1])")

# the verdicts and statuses the three subcommands can report
VERDICTS = ("rigidly-convex", "marginal", "not-rigidly-convex", "inconclusive",
            "PD", "PSD", "none", "computed", "singular-cubic", "no-real-solution")

# self-time shares of the traced CLI time; each workload is chosen for one
SHARES = {
    "share.polycore.TrigMatrix.det": ("polycore.TrigMatrix.det",),
    "share.circlepsd.psd_on_circle": ("circlepsd.psd_on_circle",),
    "share.polycore.exact_kernels": ("polycore.det_exact", "polycore.solve_exact"),
    "share.cubicrepr": ("cubicrepr.check_smooth_cubic", "cubicrepr.hessian_det",
                        "cubicrepr.cubic_representations"),
}
FOCUS = {"hermite-ladder": "share.polycore.TrigMatrix.det",
         "hermite-scan": "share.circlepsd.psd_on_circle",
         "origin-locate": "share.polycore.exact_kernels",
         "cubic-homotopy": "share.cubicrepr"}


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds a fresh interpreter spends importing rigidconvex.cli, scaled
    to the reference speed and unscaled; the first probe (which may compile
    bytecode) is discarded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = IMPORT_PROBE.format(bench=str(ROOT / "bench"))
    scaled, raw = [], []
    for k in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, ref = map(float, done.stdout.split())
        if k:
            scaled.append(seconds * REF_SECONDS / ref)
            raw.append(seconds)
    return scaled, raw


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile, at most 90, with at least ten of n samples
    beyond it."""
    return max(0, min(90, math.floor(100 * (n - 10) / n)))


class Runner:
    """Closed loop with one caller over a fixed list of cases."""

    def __init__(self, cli, cases, check):
        self.cli = cli
        self.cases = cases
        self.check = check
        self.attempted = 0
        self.failures: list[tuple] = []
        self.verdict_of: dict[str, str] = {}
        self._checked: dict[tuple, str | None] = {}
        self._ref = time_reference()
        self.refs: list[float] = []

    def call(self, case, tracer=None) -> tuple[float, float]:
        """One timed call; returns its time scaled to the reference speed,
        and unscaled."""
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.input_id = case.cid
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                rc = self.cli.main(list(case.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crashing call is counted, not fatal
                rc = f"raised {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        ref_before, self._ref = self._ref, time_reference()
        self.refs.append(self._ref)
        if tracer is not None:
            tracer.flush_counters()
        self._record(case, rc, out.getvalue(), err.getvalue())
        return elapsed * REF_SECONDS / ((ref_before + self._ref) / 2), elapsed

    def _record(self, case, rc, stdout: str, stderr: str) -> None:
        try:
            report = json.loads(stdout)
        except ValueError:
            report = None
        if isinstance(report, dict):
            report.pop("timing_seconds", None)
            key = (case.cid, rc, json.dumps(report, sort_keys=True))
        else:
            report, key = None, (case.cid, rc, stdout)
        if key not in self._checked:
            if isinstance(rc, str):
                reason = rc
            else:
                reason = self.check(case, rc, report)
                if reason and stderr.strip():
                    reason += f" (stderr: {stderr.strip().splitlines()[-1]})"
            self._checked[key] = reason
        reason = self._checked[key]
        self.attempted += 1
        if reason:
            self.failures.append((case.cid, reason, case.argv))
        elif report is not None:
            self.verdict_of[case.cid] = report.get("verdict", report.get("status"))

    def run(self, budget: float, min_passes: int, tracer=None) -> tuple[dict, dict]:
        """Whole passes, at least ``min_passes``, while another one would
        still end within ``budget`` seconds; returns each case's latencies,
        scaled and unscaled."""
        scaled: dict[str, list[float]] = {case.cid: [] for case in self.cases}
        raw: dict[str, list[float]] = {case.cid: [] for case in self.cases}
        passes = 0
        start = perf_counter()
        while True:
            for case in self.cases:
                t_scaled, t_raw = self.call(case, tracer)
                scaled[case.cid].append(t_scaled)
                raw[case.cid].append(t_raw)
            passes += 1
            if tracer is not None:
                tracer.count_sizes = False   # counters cover exactly one pass
            wall = perf_counter() - start
            if passes >= min_passes and wall + wall / passes > budget:
                return scaled, raw


def per_input(latencies: dict) -> list[float]:
    """Each input's latency: the median of its passes."""
    return [statistics.median(v) for v in latencies.values()]


def mix_rate(latencies: dict) -> float:
    """Calls per second over one pass of the fixed mix."""
    return len(latencies) / sum(per_input(latencies))


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup: list, setup_raw: list, latencies: dict, raw: dict) -> dict:
    """The end-to-end metrics from scaled times; the unscaled ones
    (``setup_raw``, ``raw``) are printed beside them."""
    lat = per_input(latencies)
    n = len(lat)
    q = tail_percentile(n)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "calls_per_s": _metric(mix_rate(latencies), "1/s"),
        "call_p50_ms": _metric(percentile(lat, 50) * 1e3, "ms"),
        "call_p90_ms": _metric(percentile(lat, q) * 1e3, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                               / 1024.0, "MB"),
    }
    lat_raw = per_input(raw)
    unscaled = {"setup_s": statistics.median(setup_raw),
                "calls_per_s": mix_rate(raw),
                "call_p50_ms": percentile(lat_raw, 50) * 1e3,
                "call_p90_ms": percentile(lat_raw, q) * 1e3}
    notes = {"setup_s": f"median of {len(setup)} fresh imports",
             "calls_per_s": f"{n} inputs, median of "
                            f"{len(next(iter(latencies.values())))} passes each",
             "call_p50_ms": f"p50 over n={n} inputs",
             "call_p90_ms": f"p{q} over n={n} inputs, "
                            f"{n - 1 - math.floor((n - 1) * q / 100)} beyond"}
    for name, m in metrics.items():
        note = ""
        if name in notes:
            note = f"  ({notes[name]}; unscaled {unscaled[name]:.6g})"
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    return metrics


def per_layer(tracer, untraced: dict, traced: dict, verdicts: Counter,
              workload: str) -> dict:
    times = tracer.layer_times()
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s, total_s = times[name]
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(self_s, "s")
        metrics[f"{name}.total_s"] = _metric(total_s, "s")
    for name in COUNTER_NAMES:
        metrics[name] = _metric(tracer.counters[name], "count")
    for verdict in VERDICTS:
        metrics[f"cli.verdict.{verdict}"] = _metric(verdicts.get(verdict, 0), "count")
    cli_total = times["cli.main"][2]
    for share, names in SHARES.items():
        part = sum(times[name][1] for name in names)
        metrics[share] = _metric(part / cli_total if cli_total else 0.0, "ratio")
    metrics["trace.untraced_calls_per_s"] = _metric(mix_rate(untraced), "1/s")
    metrics["trace.traced_calls_per_s"] = _metric(mix_rate(traced), "1/s")

    ranked = sorted(SPAN_NAMES, key=lambda nm: -times[nm][1])
    print("layer self-time shares of traced cli.main time:")
    for name in ranked:
        calls, self_s, total_s = times[name]
        if calls:
            print(f"  {name:42s} calls {calls:7d}  self {self_s:9.4f} s "
                  f"({100 * self_s / cli_total:5.1f}%)  total {total_s:9.4f} s")
    for name in COUNTER_NAMES:
        print(f"{name} {tracer.counters[name]} count")
    focus = FOCUS[workload]
    print(f"focus {focus} {metrics[focus]['value']:.4f} ratio")
    u = metrics["trace.untraced_calls_per_s"]["value"]
    t = metrics["trace.traced_calls_per_s"]["value"]
    print(f"tracing overhead: {u:.4g} 1/s untraced vs {t:.4g} 1/s traced "
          f"({100 * (u / t - 1):+.1f}% time added by tracing)")
    return metrics


def write_spans(tracer, workload: str, seed: int) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "input"],
                   "spans": tracer.spans}, handle, separators=(",", ":"))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so each reports its own peak memory
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in workloads.WORKLOADS]
        return max(codes)

    if not (SRC / "rigidconvex" / "cli.py").is_file():
        print(f"error: no rigidconvex sources under {SRC}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rigidconvex.cli as cli

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    cases = workloads.build(args.workload, args.seed, ROOT)
    print(f"inputs per pass {len(cases)}: " + ", ".join(
        f"{fam} {k}" for fam, k in sorted(Counter(c.family for c in cases).items())))
    runner = Runner(cli, cases, checks.check)
    runner.call(cases[0])  # warm-up: lazy numpy and LAPACK set-up

    if args.trace:
        untraced, _ = runner.run(args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = runner.run(args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        print(f"{len(next(iter(untraced.values())))} untraced and "
              f"{len(next(iter(traced.values())))} traced passes; spans written to "
              f"{write_spans(tracer, args.workload, args.seed).relative_to(ROOT)}")
        metrics = per_layer(tracer, untraced, traced,
                            Counter(runner.verdict_of.values()), args.workload)
    else:
        latencies, raw = runner.run(args.seconds, MIN_PASSES)
        metrics = end_to_end(*measure_setup(), latencies, raw)

    q1, q2, q3 = statistics.quantiles(runner.refs, n=4)
    print(f"reference loop {q2 * 1e3:.3f} ms median, quartiles {q1 * 1e3:.3f} and "
          f"{q3 * 1e3:.3f} ms, over {len(runner.refs)} calls "
          f"(times are scaled to {REF_SECONDS * 1e3:g} ms)")
    verdicts = Counter(runner.verdict_of.values())
    print("verdicts per pass: " + ", ".join(
        f"{v} {k}" for v, k in sorted(verdicts.items(), key=str)))
    failed = len(runner.failures)
    print(f"fail_ratio {failed / runner.attempted:.6g} ratio "
          f"({failed} of {runner.attempted} calls)")
    for (cid, reason, argv_), times in Counter(runner.failures).items():
        print(f"FAIL {cid} ({times}x): {reason}; argv {list(argv_)}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
