"""Workloads, input generation, the answer ledger and the closed-loop runner.

Every operation is one call of ``torunits.cli.main`` in this process,
made only after the previous one returned.  Its report is read back
and compared field by field with ``ledger.json``, which holds the
answers the seed code gave for every input any workload can draw.

A *pass* is one batch of operations started from cold caches, as a
fresh ``torunits`` invocation starts.  The seed fixes the pass: the
pool of each workload is ranked by its seed-code cost and cut into
strata, and the pass takes one item from every stratum, drawn
antithetically.  So the pass has the same cost profile whatever the
seed, and only which inputs fill it changes.  A run repeats its pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from torunits import cli

LEDGER_PATH = Path(__file__).with_name("ledger.json")
WORKLOADS = ("sweep-q", "case-ledger", "kernels")
# case-ledger: cases heavy on enumeration, plus two seeded n = 7p cases heavy on
# classification, one from the cheaper and one from the dearer half of the primes.
# Every 7p case here takes longer than (75,15), so the median of every pass lies
# between (135,15) and (75,15).
FIXED_CASES = ((75, 15), (135, 15), (45, 15), (35, 7))
SEVEN_P_PRIMES = (23, 29, 31, 37, 41, 47, 53, 59, 61, 67, 71, 73)
# kernels: per pass, seeded vanishing-criterion instances and cyclotomic-value checks
NT_CHECKS_PER_PASS = 40
LEMMA_CHECKS_PER_PASS = 24

# patterns of an n = 7p case with d = 7: the tail of the sweep
SEVEN_P_PATTERNS = 40320
# sweep-q: every pass runs this q, whose one order is n = 217 = 7 * 31 with d = 7.
# The other q with an n = 7p order stay out of the draw: each costs as much as
# the rest of a pass, so how many of them a seed drew would set the pass cost.
SWEEP_Q_TAIL = "433"

# strata: a pass draws one item from every stratum; where the pool's costs are
# wide, it is drawn again until its seed-code cost is this close to the average
BALANCE_TOLERANCE = 0.02
SWEEP_Q_STRATA = 21
BASIS_STRATA = 14


@dataclass(frozen=True)
class Op:
    """One closed-loop call: the argv given to cli.main and what the ledger expects."""

    kind: str  # verify-q | case | basis | nt-check | lemma-phi
    argv: tuple[str, ...]
    key: str  # ledger key of the input
    cost_ms: float  # seed-code cost, used only to pick the cheapest ops for re-checks


@dataclass
class OpResult:
    op: Op
    latency_s: float
    cpu_s: float  # this process plus the pool workers that ended during the call
    report: bytes | None
    order_latencies_s: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def results(self) -> list[dict]:
        return json.loads(self.report)["results"] if self.report else []


def load_ledger() -> dict:
    return json.loads(LEDGER_PATH.read_text(encoding="utf-8"))


# -- seeded input generation ---------------------------------------------


def strata(items: list, weight, count: int) -> list[list]:
    """Cut items, ranked by weight, into `count` consecutive groups of near-equal size."""
    ranked = sorted(items, key=lambda it: (weight(it), repr(it)))
    size = len(ranked)
    return [ranked[i * size // count : (i + 1) * size // count] for i in range(count)]


def stratified_pick(groups: list[list], rng: random.Random) -> list:
    """One item from every group, drawn antithetically.

    Groups come ranked from cheap to dear.  Neighbouring groups are paired
    from the dear end down: rank r in the cheaper group comes with rank
    size-1-r in the dearer one, so the cost deviations of the two cancel.
    In a pair of unequal groups the extra item of the larger one is never
    drawn.  With an odd number of groups the cheapest has no partner and
    gives a random item.
    """
    picked = []
    start = len(groups) % 2
    if start:
        picked.append(rng.choice(groups[0]))
    for a in range(start, len(groups), 2):
        low, high = groups[a], groups[a + 1]
        r = rng.randrange(min(len(low), len(high)))
        picked += [low[r], high[len(high) - 1 - r]]
    return picked


def balanced_pick(groups: list[list], rng: random.Random, weight, accept=lambda picked: True) -> list:
    """stratified_pick, drawn again until the picks weigh what a draw weighs on average.

    Pairing only cancels deviations of similar size; the dearest groups are
    wide, so their draws alone can move a pass by a tenth.  Redrawing until
    the total seed-code cost is within BALANCE_TOLERANCE of the sum of the
    group means, and `accept` holds, removes that: every seed's pass then
    costs the same, and only which inputs fill it changes.
    """
    target = sum(statistics.mean(weight(x) for x in g) for g in groups)
    for _ in range(100_000):
        picked = stratified_pick(groups, rng)
        if abs(sum(map(weight, picked)) - target) <= BALANCE_TOLERANCE * target and accept(picked):
            return picked
    raise RuntimeError("no balanced draw found; widen BALANCE_TOLERANCE")


def _out(workdir: Path) -> list[str]:
    return ["--output", str(workdir / "report.json")]


def make_pass(workload: str, seed: int, ledger: dict, workdir: Path) -> list[Op]:
    """The seeded operations of one pass; writes any instance files into workdir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-q":
        pool = ledger["sweep_q"]
        cost = {q: sum(ledger["orders"][str(n)]["seed_ms"] for n in ns) for q, ns in pool.items()}
        rest = [q for q, ns in pool.items() if not any(_is_tail(ledger, n) for n in ns)]
        groups = strata(rest, cost.__getitem__, SWEEP_Q_STRATA)
        # every pass decides as many orders as a pass does on average
        orders = round(sum(statistics.mean(len(pool[q]) for q in g) for g in groups))
        picked = balanced_pick(
            groups, rng, cost.__getitem__, lambda qs: sum(len(pool[q]) for q in qs) == orders
        )
        picked.append(SWEEP_Q_TAIL)
        rng.shuffle(picked)
        return [
            Op("verify-q", ("verify", "--q", q, "--workers", "2", *_out(workdir)), q, cost[q])
            for q in picked
        ]
    if workload == "case-ledger":
        cases = ledger["cases"]
        seven_p = [f"{7 * p},7" for p in SEVEN_P_PRIMES]
        # ranked by basis length 3(p - 1), which sets the classification cost
        drawn = stratified_pick(strata(seven_p, lambda k: cases[k]["basis_len"], 2), rng)
        keys = [f"{n},{d}" for n, d in FIXED_CASES] + drawn
        rng.shuffle(keys)
        return [_case_op(k, cases[k]["seed_ms"], workdir) for k in keys]
    if workload == "kernels":
        return _kernel_pass(rng, ledger, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _is_tail(ledger: dict, n: int) -> bool:
    """Whether order n has an n = 7p case with d = 7, which examines SEVEN_P_PATTERNS."""
    return any(
        ledger["cases"][f"{n},{d}"]["tuples_examined"] >= SEVEN_P_PATTERNS
        for d in ledger["orders"][str(n)]["ds"]
    )


def _case_op(key: str, cost_ms: float, workdir: Path) -> Op:
    n, d = key.split(",")
    return Op("case", ("case", "--n", n, "--d", d, "--workers", "1", *_out(workdir)), key, cost_ms)


def _numbers(key: str) -> tuple[int, ...]:
    return tuple(int(x) for x in key.split(","))


def _kernel_pass(rng: random.Random, ledger: dict, workdir: Path) -> list[Op]:
    from torunits.divisibility import recipe_instance

    basis = ledger["basis"]
    groups = strata(list(basis), lambda n: basis[n]["seed_ms"], BASIS_STRATA)
    ops = [
        Op("basis", ("basis", "--n", n, *_out(workdir)), n, basis[n]["seed_ms"])
        for n in balanced_pick(groups, rng, lambda n: basis[n]["seed_ms"])
    ]
    # nt-check and lemma-phi inputs are ranked by their numbers, n first: the
    # cost of a check grows with n
    nt_groups = strata(list(ledger["nt_check"]), _numbers, NT_CHECKS_PER_PASS)
    for j, key in enumerate(stratified_pick(nt_groups, rng)):
        n, d = _numbers(key)
        inst = recipe_instance(n, d, rng)
        path = workdir / f"inst-{j}.txt"
        path.write_text(f"{n} {d}\n" + "".join(f"{c}\n" for c in inst.coeffs))
        ops.append(Op("nt-check", ("nt-check", "--input", str(path), *_out(workdir)), key, 1.0))
    lemma_groups = strata(list(ledger["lemma_phi"]), _numbers, LEMMA_CHECKS_PER_PASS)
    for key in stratified_pick(lemma_groups, rng):
        n, p, m = key.split(",")
        ops.append(
            Op("lemma-phi", ("lemma-phi", "--n", n, "--p", p, "--m", m, *_out(workdir)), key, 1.0)
        )
    rng.shuffle(ops)
    return ops


# -- running one operation -------------------------------------------------


def cpu_seconds() -> float:
    """CPU seconds of this process and of its finished child processes."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total



class _OrderClock(io.StringIO):
    """Captures the human summary and stamps each "order n=..." line as it is printed.

    `verify` prints that line as soon as one order is decided, so the gaps
    between stamps are the per-order latencies a user sees.
    """

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        if s.startswith("order n="):
            self.stamps.append(time.perf_counter())
        return super().write(s)


def run_op(op: Op, workdir: Path) -> OpResult:
    """Call cli.main once, closed loop, and read back its report."""
    report_path = workdir / "report.json"
    report_path.unlink(missing_ok=True)
    clock = _OrderClock()
    stderr = io.StringIO()
    errors = []
    code = None
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(clock), contextlib.redirect_stderr(stderr):
            code = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception as exc:  # a raised exception is a failed operation, not a crash
        errors.append(f"raised {type(exc).__name__}: {exc}")
    latency = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    if code not in (0, None):
        errors.append(f"exit code {code}: {stderr.getvalue().strip()[-200:]}")
    report = report_path.read_bytes() if report_path.exists() else None
    result = OpResult(op, latency, cpu, report, errors=errors)
    if op.kind == "verify-q":
        result.order_latencies_s = [b - a for a, b in zip([start] + clock.stamps, clock.stamps)]
    return result


# -- the answer ledger -----------------------------------------------------


def case_entry(case: dict) -> dict:
    """The ledger fields of one case certificate in a report."""
    witnesses = case["near_miss_witnesses"]
    first = witnesses[0] if witnesses else None
    return {
        "verdict": case["verdict"],
        "tuples_examined": case["tuples_examined"],
        "near_misses": case["pruning_stats"]["near_misses"],
        "first_witness": (
            None
            if first is None
            else {k: first[k] for k in ("pattern", "basis_index", "deviation")}
        ),
        "basis_len": len(case["basis_indices"]),
    }


def order_entry(order: dict) -> dict:
    return {"conclusion": order["conclusion"], "ds": [c["d"] for c in order["cases"]]}


def _diff(where: str, want: dict, got: dict) -> list[str]:
    return [
        f"{where}: {k} is {got.get(k)!r}, ledger says {want[k]!r}"
        for k in sorted(want)
        if k != "seed_ms" and got.get(k) != want[k]
    ]


def check_result(res: OpResult, ledger: dict) -> list[str]:
    """Every way the operation's outcome differs from the ledger; empty when correct."""
    op = res.op
    errors = list(res.errors)
    if errors:
        return errors
    if res.report is None:
        return ["no report written"]
    try:
        results = res.results
    except (ValueError, KeyError) as exc:
        return [f"unreadable report: {exc}"]
    where = f"{op.kind} {op.key}"
    if op.kind == "verify-q":
        want_ns = ledger["sweep_q"][op.key]
        got_ns = [r.get("n") for r in results]
        if got_ns != want_ns:
            return [f"{where}: orders {got_ns}, ledger says {want_ns}"]
        if len(res.order_latencies_s) != len(want_ns):
            errors.append(f"{where}: summary lists {len(res.order_latencies_s)} orders")
        for r in results:
            n = r["n"]
            errors += _diff(f"{where} order {n}", ledger["orders"][str(n)], order_entry(r))
            for case in r["cases"]:
                key = f"{n},{case['d']}"
                errors += _diff(f"{where} case {key}", ledger["cases"][key], case_entry(case))
        return errors
    if len(results) != 1:
        return [f"{where}: {len(results)} results, expected 1"]
    (got,) = results
    if op.kind == "case":
        return _diff(where, ledger["cases"][op.key], case_entry(got))
    if op.kind == "basis":
        want = ledger["basis"][op.key]
        got = {
            "determinant": got["determinant"],
            "formula_matches_oracle": got["formula_matches_oracle"],
            "basis_len": len(got["basis_indices"]),
        }
        return _diff(where, want, got)
    if op.kind == "nt-check":
        n, d = (int(x) for x in op.key.split(","))
        if (got["n"], got["d"]) != (n, d):
            return [f"{where}: report is for ({got['n']}, {got['d']})"]
        return _diff(where, ledger["nt_check"][op.key], got)
    if op.kind == "lemma-phi":
        return _diff(where, ledger["lemma_phi"][op.key], got)
    return [f"unknown operation kind {op.kind}"]


def work_units(res: OpResult) -> int:
    """Orders decided on verify, patterns examined on case, one per kernel check."""
    if res.op.kind == "verify-q":
        return len(res.results)
    if res.op.kind == "case":
        return res.results[0]["tuples_examined"]
    return 1


WORK_UNIT = {
    "sweep-q": "orders",
    "case-ledger": "patterns",
    "kernels": "checks",
}


# -- resident memory -----------------------------------------------------------


class PeakRss:
    """Largest resident set of this process plus its live child processes (pool workers).

    While the block runs, a thread adds up /proc/<pid>/statm of the process
    and of every child listed under /proc/self/task/*/children, every
    `interval` seconds.
    """

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)

    @staticmethod
    def _rss_bytes(pid: str) -> int:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    def sample(self) -> None:
        pids = ["self"]
        for task in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{task}/children") as fh:
                    pids += fh.read().split()
            except FileNotFoundError:
                pass  # the thread ended
        total = 0
        for pid in pids:
            try:
                total += self._rss_bytes(pid)
            except (FileNotFoundError, ProcessLookupError):
                pass  # the child ended between listing and reading
        self.peak_bytes = max(self.peak_bytes, total)

    def _watch(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "PeakRss":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


# -- cold caches -------------------------------------------------------------


def reset_caches() -> None:
    """Empty every functools cache and every module-level *_CACHE dict of torunits.

    Each pass then starts from the state of a fresh invocation.
    """
    for name, module in list(sys.modules.items()):
        if name != "torunits" and not name.startswith("torunits."):
            continue
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif isinstance(value, dict) and attr.upper().endswith("_CACHE"):
                value.clear()


def numtheory_cache_entries() -> int:
    """Sum of cache_info().currsize over the public functools caches of numtheory."""
    from torunits import numtheory

    return sum(
        value.cache_info().currsize
        for attr, value in vars(numtheory).items()
        if not attr.startswith("_") and callable(getattr(value, "cache_info", None))
    )


# -- statistics ---------------------------------------------------------------


def tail_percentile(samples: list[float], q: float, min_beyond: int = 10) -> float | None:
    """The nearest-rank q-quantile, or None unless at least min_beyond samples lie above it."""
    ranked = sorted(samples)
    rank = -(-len(ranked) * q // 1)  # ceil(q * len)
    if rank < 1 or len(ranked) - rank < min_beyond:
        return None
    return ranked[int(rank) - 1]
