"""Run one workload of the gbent benchmark and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics. --trace 1 is the separate traced
run: it replays the workload as the benchmark's own calls into each module
of src/gbent, with spans around them, and reports per-layer self times,
exact counts, program cache counts and the tracing overhead. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it give the same numbers to a reader, with the
workload's own breakdown. See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from harness import (
    CACHE_NAMES,
    SETUP_REPEATS,
    CacheStats,
    Meter,
    NullTracer,
    Tracer,
    clear_program_caches,
    pin_to_one_cpu,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = {"cli-cold": "cli_cold", "grid-warm": "grid_warm", "roundtrip": "roundtrip"}

# Spans the workloads record, each reported as <name>.s (self seconds) and
# <name>.calls. A workload that never enters a span reports 0 for both.
SPANS = (
    "cyclotomic.context",
    "cyclotomic.norm_sq",
    "cyclotomic.parse_cycint",
    "transform.wht_naive",
    "transform.wht_pary_fast",
    "transform.inverse_wht",
    "transform.wht_composed",
    "transform.spectrum_records",
    "classify.is_gbent",
    "classify.regularity",
    "classify.spectral_form",
    "classify.component_row_table",
    "classify.row_decomp",
    "classify.hadamard_row_criterion",
    "classify.weak_regularity_certificate",
    "gbfunc.load_function",
    "gbfunc.combine",
    "gbfunc.compose",
    "gbfunc.digits",
    "construct.build_maiorana",
    "construct.permute_digits",
    "construct.restrict_digits",
    "cli.main",
    "cli.compare_reference_tables",
)
SELFTEST_SUITES = (
    "root_cycle", "conjugation", "promotion", "gauss_sums", "digit_delta_identity",
    "carry_sum_product", "root_reconstruction", "transform_roundtrip",
    "fast_equals_naive", "composed_equals_naive", "census_3_1", "reference_tables",
)
COUNTS = (
    ("transform.wht_naive.points", "count"),
    ("classify.row_decomp.ok_ratio", "ratio"),
    ("cyclotomic.power_table_ints", "count"),
    ("count.points", "count"),
    ("count.moduli", "count"),
    ("count.phi_sum", "count"),
    ("cli.import_s", "s"),
    ("cli.unattributed.s", "s"),
    ("cli.stdout_bytes", "count"),
)
TRACE = (
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("host.ref_ms", "ms"),
)


def per_layer_names() -> list[tuple[str, str]]:
    out = []
    for name in SPANS:
        out += [(f"{name}.s", "s"), (f"{name}.calls", "count")]
    out += [(f"selftest.{suite}.s", "s") for suite in SELFTEST_SUITES]
    out += list(COUNTS)
    for name in CACHE_NAMES:
        key = name.lstrip("_")
        out += [(f"cache.{key}.hits", "count"), (f"cache.{key}.misses", "count"),
                (f"cache.{key}.hit_ratio", "ratio")]
    return out + list(TRACE)


def untimed(kind, fn):
    return fn()


def attempt(op, tracer, timer=untimed) -> list[str]:
    """Run one operation and its check; an exception counts as a failure."""
    try:
        return op.check(timer(op.kind, lambda: op.run(tracer)))
    except Exception as exc:  # the loop goes on; the failure is counted and shown
        traceback.print_exc()
        return [f"{op.kind}: {type(exc).__name__}: {exc}"]


def report(problems: list[str]) -> None:
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)


def run_end_to_end(wl, seed: int, seconds: float, work: Path):
    meter = Meter()
    for _ in range(SETUP_REPEATS):
        clear_program_caches()
        state = meter.measure("setup", lambda: wl.setup(seed, work))
    ops = wl.ops(state)
    null = NullTracer()
    attempted = failed = 0
    start = time.perf_counter()
    # Whole passes first, so every kind has a sample; then until time is up.
    while attempted < len(ops) or time.perf_counter() - start < seconds:
        problems = attempt(ops[attempted % len(ops)], null, meter.measure)
        report(problems)
        attempted += 1
        failed += bool(problems)
    scaled = meter.scaled()
    setups = scaled.pop("setup")
    per_kind = {kind: statistics.median(times) for kind, times in scaled.items()}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "pass_s": (sum(per_kind.values()), "s"),
    }
    lines = [f"  {kind}: {t:.4f} s median of {len(scaled[kind])}" for kind, t in per_kind.items()]
    lines += [f"  host reference slice: {meter.host_ref_ms():.4f} ms mean"]
    lines += [f"  {name}: {value} {unit}" for name, value, unit in wl.details(state, per_kind)]
    return metrics, attempted, failed, lines


def run_traced(wl, seed: int, seconds: float, work: Path, trace_path: Path):
    from inputs import phi  # imports gbent, so only once src/ is on the path

    tracer, null = Tracer(), NullTracer()
    clear_program_caches()
    tracer.request = "setup"
    state = wl.setup(seed, work, tracer)
    caches = CacheStats()
    ops = wl.replay(state)
    # cli-cold also runs each command's cli.main in-process, next to its replay.
    mains = wl.main_ops(state) if hasattr(wl, "main_ops") else [None] * len(ops)
    meter = Meter()
    attempted = failed = 0
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for i, (op, main) in enumerate(zip(ops, mains)):
            # Alternate which side goes first, so neither gets warmer caches.
            sides = [("untraced", null), ("traced", tracer)]
            if (passes + i) % 2:
                sides.reverse()
            runs = [(op, tr, lambda kind, fn, side=side: meter.measure(f"{side} {kind}", fn))
                    for side, tr in sides]
            if main:
                runs.append((main, tracer, untimed))
            for o, tr, timer in runs:
                if wl.COLD:
                    caches.clear()
                tracer.request = f"{o.kind}#{passes}.{i}"
                problems = attempt(o, tr, timer)
                report(problems)
                attempted += 1
                failed += bool(problems)
        passes += 1
    # Host-scaled seconds of each side, so drift between them does not count.
    side_s = {"untraced": 0.0, "traced": 0.0}
    for kind, times in meter.scaled().items():
        side_s[kind.split(" ")[0]] += sum(times)

    metrics = {name: (0, unit) for name, unit in per_layer_names()}
    if hasattr(wl, "trace_metrics"):
        metrics.update(wl.trace_metrics(state, tracer))
    selfs = tracer.self_times()
    for name in SPANS:
        secs, calls = selfs.get(name, (0.0, 0))
        metrics[f"{name}.s"] = (secs, "s")
        metrics[f"{name}.calls"] = (calls, "count")
    for suite in SELFTEST_SUITES:
        metrics[f"selftest.{suite}.s"] = (selfs.get(f"selftest.{suite}", (0.0, 0))[0], "s")
    counts = tracer.counts
    for name in ("transform.wht_naive.points", "count.points", "cli.stdout_bytes"):
        metrics[name] = (counts.get(name, 0), "count")
    decomposed, tried = counts.get("classify.row_decomp.ok", 0), selfs.get("classify.row_decomp", (0, 0))[1]
    # Base: classify.row_decomp.calls, the points attempted.
    metrics["classify.row_decomp.ok_ratio"] = (decomposed / tried if tried else 0.0, "ratio")
    processes = [p for p in wl.processes(state) if p]
    moduli = sorted({m for p in processes for m in p})
    metrics["count.moduli"] = (len(moduli), "count")
    metrics["count.phi_sum"] = (sum(phi(m) for m in moduli), "count")
    # Power-table ints live per process: the largest process's sum of M * phi(M).
    metrics["cyclotomic.power_table_ints"] = (
        max(sum(m * phi(m) for m in p) for p in processes), "count")
    metrics.update(caches.metrics())
    untraced, traced = side_s["untraced"], side_s["traced"]
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    # Base: trace.untraced_s.
    metrics["trace.overhead_ratio"] = ((traced - untraced) / untraced, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["host.ref_ms"] = (meter.host_ref_ms(), "ms")
    tracer.dump(trace_path)
    lines = [f"  replay passes: {passes}, spans written to {trace_path.relative_to(ROOT)}"]
    return metrics, attempted, failed, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gbent" / "__init__.py").is_file():
        print(f"bench: no gbent package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    wl = importlib.import_module(WORKLOADS[args.workload])

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics, attempted, failed, lines = run_traced(wl, args.seed, args.seconds, work, trace_path)
        else:
            metrics, attempted, failed, lines = run_end_to_end(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} operations attempted, {failed} failed (failed_ratio {failed / attempted:.4f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
