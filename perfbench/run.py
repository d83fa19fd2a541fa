"""Closed-loop benchmark of rigidlab verdicts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one client that waits for each verdict.  The
client replays whole passes of a deck of queries (see workloads.py) for
about S seconds, checks every verdict against its theory-fixed answer, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced
and given at a fixed host speed (see hostspeed.py).  With --trace 1
the client first runs the same untraced loop, then rebuilds the inputs
and replays the whole deck once under the span tracer; the metrics are
the per-layer ones.  Host facts, the sample counts and the plain
wall-time figures go to the lines before the result; the spans are
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REF_S, Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_STARTS = 9
# Reference kernel runs right before and right after each of those starts.
SETUP_KERNEL_RUNS = 5
# Latency percentiles need this many samples (ten beyond p90).
MIN_PERCENTILE_SAMPLES = 100


def host_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, reference-speed) seconds from spawning a fresh interpreter
    until it has imported rigidlab and built the workload's inputs, one
    start after another.

    The child reports when it is done on the same monotonic clock
    (perf_counter is CLOCK_MONOTONIC on Linux), so neither its teardown
    nor the parent's wait is counted.  Parent and child share one CPU
    while this runs, and the parent runs the reference kernel right
    before and right after each start, so the speed is the one of the
    CPU the child ran on, and no kernel runs alongside the child.
    """
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed)]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    ref = Reference()
    times = []
    try:
        for _ in range(SETUP_STARTS):
            before = ref.burst(SETUP_KERNEL_RUNS)
            start = time.perf_counter()
            child = subprocess.run(cmd, check=True, timeout=120, capture_output=True,
                                   text=True, stdin=subprocess.DEVNULL)
            wall = float(child.stdout.split()[-1]) - start
            after = ref.burst(SETUP_KERNEL_RUNS)
            times.append((wall, wall * ref.mean_speed([*before, *after])))
    finally:
        os.sched_setaffinity(0, allowed)
    return times


class Loop:
    """Closed-loop client state: verdict and query windows on the
    perf_counter clock, and verdict outcomes."""

    def __init__(self):
        self.windows: list[tuple[float, float]] = []
        self.queries: list[tuple[str, float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.span = (0.0, 0.0)

    def run_pass(self, queries, tracer=None, between=None) -> None:
        """Run each query once; call `between()` before each one."""
        for query in queries:
            if between is not None:
                between()
            if tracer is not None:
                tracer.verdict = self.attempted
            begin = time.perf_counter()
            verdicts = query.run(self.errors)
            self.queries.append((query.label, begin, time.perf_counter()))
            for start, end, ok in verdicts:
                self.windows.append((start, end))
                self.attempted += 1
                self.failed += 0 if ok else 1

    def for_seconds(self, deck, seconds: float) -> "Loop":
        """The deck's passes in turn, whole, while another pass of the mean
        length so far still fits in `seconds` (at least one pass)."""
        start = time.perf_counter()
        for passes, queries in enumerate(itertools.cycle(deck), start=1):
            self.run_pass(queries)
            elapsed = time.perf_counter() - start
            if elapsed * (passes + 1) / passes > seconds:
                break
        self.span = (start, time.perf_counter())
        return self


def _wall(start: float, end: float) -> float:
    return end - start


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def latency_windows(loop: Loop) -> list[tuple[float, float]]:
    """Verdict windows, or query windows when the run has too few
    verdicts for a p90 with ten samples beyond it (a battery run: its
    query is one whole `rigidlab verify`)."""
    if len(loop.windows) >= MIN_PERCENTILE_SAMPLES:
        return loop.windows
    return [(start, end) for _, start, end in loop.queries]


def end_to_end(loop: Loop, setup_s: list[float], seconds=_wall) -> dict:
    """End-to-end metrics; `seconds(start, end)` measures a timed window."""
    lat_ms = [seconds(*w) * 1e3 for w in latency_windows(loop)]
    busy_s = sum(seconds(start, end) for _, start, end in loop.queries)
    return {
        "verdicts_per_s": (len(loop.windows) / busy_s, "1/s"),
        "verdict_p50_ms": (quantile(lat_ms, 0.50), "ms"),
        "verdict_p90_ms": (quantile(lat_ms, 0.90), "ms"),
        "setup_s": (statistics.median(setup_s) if setup_s else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _by_query(loop: Loop, seconds) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for label, start, end in loop.queries:
        out.setdefault(label, []).append(seconds(start, end))
    return out


def per_layer(tracer, traced: Loop, untraced: Loop, gc_stats: dict,
              traced_seconds=_wall, untraced_seconds=_wall) -> dict:
    """Per-layer metrics from the spans of the traced phase.
    `traced_seconds(start, end)` and `untraced_seconds(start, end)` give
    the time of a query window in each phase."""
    import workloads

    s = tracer.summary()
    verdict_s = sum(end - start for _, start, end in traced.queries)
    linalg_self = s.self_with_prefix("linalg.", in_verdicts=True)
    tried = s.count_under("admissibility.pin_mismatch_map",
                          "admissibility.check_admissibility", direct=True)
    skipped = s.count_under("admissibility.pin_mismatch_map",
                            "admissibility.check_admissibility", direct=True,
                            raised=True)
    m = {}

    def calls(name):
        m[f"{name}.calls"] = (s.calls.get(name, 0), "count")

    def self_s(name):
        m[f"{name}.self_s"] = (s.self_s.get(name, 0.0), "s")

    for name in ("linalg.rank", "linalg._rref_exact", "linalg.nullspace_rows",
                 "linalg.solve", "linalg.invert"):
        calls(name)
        self_s(name)
    m["linalg.rank.cells"] = (s.work.get("linalg.rank", 0), "count")
    self_s("linalg.Subspace")
    m["linalg.share"] = (_ratio(linalg_self, verdict_s), "frac")
    calls("rigidity.analyze")
    self_s("rigidity.analyze")
    m["rigidity.analyze.ranks_per_call"] = (_ratio(
        s.count_under("linalg.rank", "rigidity.analyze"),
        s.calls.get("rigidity.analyze", 0)), "rank/call")
    self_s("rigidity.rigidity_matrix")
    calls("rigidity.implied_pairs")
    self_s("rigidity.implied_pairs")
    m["rigidity.is_generically_rigid.samples_per_call"] = (_ratio(
        s.count_under("rigidity.analyze", "rigidity.is_generically_rigid", direct=True),
        s.calls.get("rigidity.is_generically_rigid", 0)), "sample/call")
    calls("motions.trivial_motion_space")
    self_s("motions.trivial_motion_space")
    self_s("motions.p_equivalent")
    calls("pins.pin_velocity")
    self_s("pins.pin_velocity")
    m["pins.PinContext.inversions"] = (
        s.count_under("linalg.invert", "pins.PinContext", direct=True), "count")
    for name in ("admissibility.check_admissibility",
                 "admissibility.pin_mismatch_map",
                 "admissibility.classify_admissible"):
        calls(name)
        self_s(name)
    self_s("admissibility.construct_admissible_family")
    m["admissibility.pin_samples.useful_ratio"] = (
        _ratio(tried - skipped, tried), "frac")
    calls("applications.two_extension_report")
    self_s("applications.two_extension_report")
    self_s("affinepoly.affine_poly_dependence")
    calls("affinepoly.quadratic_value")
    self_s("affinepoly.quadratic_value")
    for check in workloads.rl.CHECK_NAMES:
        m[f"verify.{check}.s"] = (s.total_s.get(f"verify.{check}", 0.0), "s")
    m["sampling.random_general_config.attempts_per_call"] = (_ratio(
        s.count_under("sampling.random_config", "sampling.random_general_config",
                      direct=True),
        s.calls.get("sampling.random_general_config", 0)), "attempt/call")
    m["runtime.gc_pause_s"] = (gc_stats["pause_s"], "s")
    m["runtime.gc_collections"] = (gc_stats["collections"], "count")
    # Same queries on both sides: each traced query time against the
    # median untraced time of that query, both at the reference speed.
    on = _by_query(traced, traced_seconds)
    off = _by_query(untraced, untraced_seconds)
    both = [label for label in on if label in off]
    m["trace.overhead_frac"] = (_ratio(
        sum(sum(on[k]) for k in both),
        sum(statistics.median(off[k]) * len(on[k]) for k in both)) - 1.0, "frac")
    return m


class GcWatch:
    """Collections and pause time from gc.callbacks."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def run_traced(workload: str, seed: int, untraced: Loop, untraced_seconds):
    """Rebuild the inputs and replay the whole deck once under the tracer,
    so span counts repeat exactly for a seed.  The reference kernel runs
    between queries only, outside every span."""
    import workloads
    from tracer import Tracer

    traced = Loop()
    ref = Reference()
    # Start from empty generations, so the collection count repeats too.
    gc.collect()
    with GcWatch() as watch, Tracer() as tracer:
        for queries in workloads.build(workload, seed):
            traced.run_pass(queries, tracer, between=ref.sample)
        ref.sample()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.tsv.gz")
    stats = {"pause_s": watch.pause_s, "collections": watch.collections}
    return traced, per_layer(tracer, traced, untraced, stats, ref.scaled,
                             untraced_seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="frameworks | five-point | float | battery")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rigidlab" / "__init__.py").is_file():
        print(f"perfbench: no rigidlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if not Path(workloads.rl.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: rigidlab imported from {workloads.rl.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    facts = host_facts()
    # A traced run reports no setup_s, so it starts no interpreters.
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    deck = workloads.build(args.workload, args.seed)
    with Reference() as ref:
        untraced = Loop().for_seconds(deck, args.seconds)

    runs = [untraced]
    if args.trace:
        traced, metrics = run_traced(args.workload, args.seed, untraced, ref.scaled)
        runs.append(traced)
    else:
        metrics = end_to_end(untraced, [scaled for _, scaled in setup], ref.scaled)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    plain = end_to_end(untraced, [wall for wall, _ in setup])
    speeds = [REF_S / (e - s) for s, e in zip(ref.starts, ref.ends)]

    print(json.dumps({"host": facts}))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "deck_size": sum(map(len, deck)), "verdicts_timed": len(untraced.windows),
        "percentile_samples": len(latency_windows(untraced)),
        "timed_wall_s": _wall(*untraced.span),
        "wall_metrics": {k: v for k, (v, _) in plain.items()},
        "setup_starts_wall_s": [wall for wall, _ in setup],
        "host_speed_quartiles": statistics.quantiles(speeds, n=4),
        "reference_kernel_share": ref.kernel_share(),
        "verdict_error_frac": failed / attempted,
        "expected_failing_checks": sorted(
            {c for queries in deck for q in queries
             for c in getattr(q, "expected_failing", ())}),
        "errors": untraced.errors[:10] + (runs[-1].errors[:10] if args.trace else []),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
