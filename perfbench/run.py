"""torunits benchmark: one seeded workload per run, closed loop, checked against a ledger.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-q --seed 1 --seconds 36 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing; with ``--trace 1`` they are the per-layer ones and the tracing
overhead.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SETUP_REPEATS = 7
# Host speed: the time of one calibration loop on the reference host, and how
# often a pass times the loop between operations.
REFERENCE_CAL_S = 0.006
CAL_EVERY_S = 0.2


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import and generate the inputs, then exit (one set-up sample)",
    )
    return parser.parse_args(argv)


def _calibration_loop() -> float:
    """Wall time of a fixed pure-Python loop of integer, dict and list work."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    row = []
    acc = 1
    for i in range(9000):
        acc = (acc * 48271 + i) % 2147483647
        table[acc & 1023] = table.get(i & 1023, 0) + acc
        row.append(acc >> 7)
    row.sort()
    return time.perf_counter() - t0


class HostSpeed:
    """How fast the host runs Python right now, from a fixed calibration loop.

    On a shared host other tenants slow the machine down by a fifth or more,
    for seconds to minutes at a time, and every timing taken meanwhile
    moves alike.  A pass times the loop before its first operation and
    after its operations, at most every CAL_EVERY_S; `scale` is the factor
    that turns the pass's timings into seconds on the reference host, where
    the loop takes REFERENCE_CAL_S.  The loop runs no torunits code, so no
    change to the program moves it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() >= self._due:
            self.samples.append(_calibration_loop())
            self._due = time.perf_counter() + CAL_EVERY_S

    def scale(self) -> float:
        return REFERENCE_CAL_S / statistics.median(self.samples)


class Run:
    """Counts and checks every operation of one benchmark run."""

    def __init__(self, harness, ledger: dict, workdir: Path):
        self.h = harness
        self.ledger = ledger
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.first_pass: list = []

    def record(self, res) -> None:
        self.attempted += 1
        errors = self.h.check_result(res, self.ledger)
        if errors:
            self.failed += 1
            print(f"FAILED {' '.join(res.op.argv[:5])}: {'; '.join(errors[:3])}", file=sys.stderr)

    def run_pass(self, ops: list) -> tuple[float, float, list]:
        """One cold-cache pass; returns its host-speed scale, peak RSS in MB and results."""
        self.h.reset_caches()
        speed = HostSpeed()
        speed.sample(force=True)
        with self.h.PeakRss() as rss:
            results = []
            for op in ops:
                results.append(self.h.run_op(op, self.workdir))
                speed.sample()
        for res in results:
            self.record(res)
        if not self.first_pass:
            self.first_pass = results
        return speed.scale(), rss.peak_bytes / 2**20, results

    def recheck(self, workload: str) -> None:
        """Same input, same bytes: rerun the cheapest call of the first pass.

        On sweep-q the two cheapest calls also run with one worker instead
        of two, which must not change a byte either.
        """
        ranked = sorted(self.first_pass, key=lambda r: r.op.cost_ms)
        pairs = [(ranked[0], ranked[0].op.argv)]
        if workload == "sweep-q":
            for first in ranked[:2]:
                argv = list(first.op.argv)
                argv[argv.index("--workers") + 1] = "1"
                pairs.append((first, tuple(argv)))
        for first, argv in pairs:
            op = self.h.Op(first.op.kind, argv, first.op.key, first.op.cost_ms)
            res = self.h.run_op(op, self.workdir)
            if not res.errors and res.report != first.report:
                res.errors.append(f"report bytes differ from the first run of {' '.join(first.op.argv[:5])}")
            self.record(res)


def _median_scaled(times, scales: list[float]) -> float:
    """Median over the passes of one timing, each scaled by its pass's host speed."""
    return statistics.median(t * k for t, k in zip(times, scales))


def _measure(args, h, run: Run, ops: list) -> dict:
    setup_speed = HostSpeed()
    setup = _setup_samples(args, setup_speed)
    scales, passes, peaks = [], [], []
    window = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        scale, peak, results = run.run_pass(ops)
        scales.append(scale)
        passes.append(results)
        peaks.append(peak)
        if 2 * time.perf_counter() - t0 - window > args.seconds:
            break  # the next pass would overrun
    run.recheck(args.workload)

    # each operation, and each order a verify call decides, at its median over the passes
    per_op = list(zip(*passes))
    wall = sum(_median_scaled((r.latency_s for r in reps), scales) for reps in per_op)
    cpu = sum(_median_scaled((r.cpu_s for r in reps), scales) for reps in per_op)
    latencies = []
    for reps in per_op:
        if reps[0].op.kind == "verify-q":
            orders = zip(*(r.order_latencies_s for r in reps))
            latencies += [_median_scaled(order, scales) for order in orders]
        else:
            latencies.append(_median_scaled((r.latency_s for r in reps), scales))
    units = sum(h.work_units(r) for r in passes[0] if not r.errors and r.report)

    samples = [t for results in passes for r in results for t in (r.order_latencies_s or [r.latency_s])]
    p90 = h.tail_percentile(samples, 0.9)
    raw_wall = sum(statistics.median(r.latency_s for r in reps) for reps in per_op)
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(ops)} operations, "
        f"{units} {h.WORK_UNIT[args.workload]} per pass; unscaled wall {raw_wall:.3f} s, "
        f"host-speed scale {statistics.median(scales):.3f}; unscaled p90 over {len(samples)} "
        "latency samples "
        + (f"{p90 * 1000:.3f} ms" if p90 is not None else "not reported (fewer than 10 samples beyond it)")
    )
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
        "setup_s": (statistics.median(setup) * setup_speed.scale(), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "work_per_s": (units / wall, "1/s"),
    }


def _setup_samples(args, speed: HostSpeed) -> list[float]:
    """Wall time of fresh interpreters that import torunits and generate this run's inputs."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        speed.sample(force=True)
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child in sleeps of up to 50 ms
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    speed.sample(force=True)
    return samples


def _trace(args, h, run: Run, ops: list) -> dict:
    import tracemalloc

    import tracing

    tracer = tracing.Tracer()
    untraced = traced = 0.0
    per_pass = {"cache_entries": [], "report_bytes": [], "distinct": []}
    window = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        _, _, results = run.run_pass(ops)
        untraced += sum(r.latency_s for r in results)
        start = len(tracer.spans)
        h.reset_caches()
        with tracer.install():
            results = []
            for k, op in enumerate(ops):
                tracer.op_id = i * len(ops) + k
                results.append(h.run_op(op, run.workdir))
        traced += sum(r.latency_s for r in results)
        per_pass["cache_entries"].append(h.numtheory_cache_entries())
        per_pass["report_bytes"].append(sum(len(r.report or b"") for r in results))
        orders = {s.arg0 for s in tracer.spans[start:] if s.name == "helpengine.verify_order"}
        per_pass["distinct"].append(len(orders))
        for res in results:
            run.record(res)
        i += 1
        if 2 * time.perf_counter() - t0 - window > args.seconds:
            break  # the next pair of passes would overrun

    mem = tracing.Tracer(memory=True)
    h.reset_caches()
    tracemalloc.start()
    try:
        with mem.install():
            for op in ops:
                run.record(h.run_op(op, run.workdir))
    finally:
        tracemalloc.stop()
    run.recheck(args.workload)
    tracing.write_spans(tracer.spans, ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl")
    extras = {k: statistics.mean(v) for k, v in per_pass.items()}
    extras["overhead"] = traced / untraced - 1
    return _layer_metrics(tracing, tracer.spans, mem.spans, i, extras)


# per-layer metrics: (name, unit, (quantity, span name)); each value is per traced pass,
# except peak_mb (largest rise in the tracemalloc pass) and the tracing overhead
PER_LAYER = (
    ("helpengine.enumerate_patterns.s", "s", ("s", "helpengine.enumerate_patterns")),
    ("helpengine.enumerate_patterns.calls", "count", ("calls", "helpengine.enumerate_patterns")),
    ("helpengine.enumerate_patterns.patterns", "count", ("items", "helpengine.enumerate_patterns")),
    ("helpengine.enumerate_patterns.peak_mb", "MB", ("peak_mb", "helpengine.enumerate_patterns")),
    ("helpengine.check_case.self_s", "s", ("self_s", "helpengine.check_case")),
    ("helpengine.check_case.calls", "count", ("calls", "helpengine.check_case")),
    ("helpengine.check_case.peak_mb", "MB", ("peak_mb", "helpengine.check_case")),
    ("helpengine.verify_order.self_s", "s", ("self_s", "helpengine.verify_order")),
    ("helpengine.verify_order.calls", "count", ("calls", "helpengine.verify_order")),
    ("helpengine.verify_order.distinct_n", "count", ("distinct", None)),
    ("helpengine.candidate_divisors.s", "s", ("s", "helpengine.candidate_divisors")),
    ("helpengine.candidate_divisors.calls", "count", ("calls", "helpengine.candidate_divisors")),
    ("psl2.admissible_orders.s", "s", ("s", "psl2.admissible_orders")),
    ("psl2.admissible_orders.calls", "count", ("calls", "psl2.admissible_orders")),
    ("cli.main.self_s", "s", ("self_s", "cli.main")),
    ("cli.report_bytes", "bytes", ("report_bytes", None)),
    ("numtheory.cache_entries", "count", ("cache_entries", None)),
    ("realbasis.basis_change_det.s", "s", ("s", "realbasis.basis_change_det")),
    ("realbasis.basis_change_det.calls", "count", ("calls", "realbasis.basis_change_det")),
    ("realbasis.decompose.s", "s", ("s", "realbasis.decompose")),
    ("realbasis.decompose.calls", "count", ("calls", "realbasis.decompose")),
    ("realbasis.basis_coeff.s", "s", ("s", "realbasis.basis_coeff")),
    ("realbasis.basis_coeff.calls", "count", ("calls", "realbasis.basis_coeff")),
    ("cyclotomic.cyclotomic_poly.s", "s", ("s", "cyclotomic.cyclotomic_poly")),
    ("cyclotomic.cyclotomic_poly.calls", "count", ("calls", "cyclotomic.cyclotomic_poly")),
    ("cyclotomic.CycInt.mul.s", "s", ("s", "cyclotomic.CycInt.mul")),
    ("cyclotomic.CycInt.mul.calls", "count", ("calls", "cyclotomic.CycInt.mul")),
    ("divisibility.check_vanishing.s", "s", ("s", "divisibility.check_vanishing")),
    ("divisibility.check_vanishing.calls", "count", ("calls", "divisibility.check_vanishing")),
    ("divisibility.cyclotomic_value_divisible.s", "s", ("s", "divisibility.cyclotomic_value_divisible")),
    ("divisibility.cyclotomic_value_divisible.calls", "count", ("calls", "divisibility.cyclotomic_value_divisible")),
    ("trace.overhead_ratio", "ratio", ("overhead", None)),
)


def _layer_metrics(tracing, spans, mem_spans, passes: int, extras: dict) -> dict:
    self_s = tracing.self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    peak: dict[str, int] = {}
    for s in mem_spans:
        peak[s.name] = max(peak.get(s.name, 0), s.peak_bytes)
    out = {}
    for name, unit, (what, layer) in PER_LAYER:
        mine = by_name.get(layer, [])
        if what == "s":
            value = tracing.inclusive_time(spans, layer) / passes
        elif what == "self_s":
            value = sum(self_s[i] for i in mine) / passes
        elif what == "calls":
            value = len(mine) / passes
        elif what == "items":
            value = sum(spans[i].items for i in mine) / passes
        elif what == "peak_mb":
            value = peak.get(layer, 0) / 2**20
        else:
            value = extras[what]
        out[name] = (value, unit)
    return out


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "torunits" / "__init__.py").is_file():
        print(f"error: no src/torunits under {ROOT}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness as h

    if args.workload not in h.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(h.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ledger = h.load_ledger()
        ops = h.make_pass(args.workload, args.seed, ledger, workdir)
        if args.setup_only:
            return 0
        run = Run(h, ledger, workdir)
        measure = _trace if args.trace else _measure
        metrics = measure(args, h, run, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
