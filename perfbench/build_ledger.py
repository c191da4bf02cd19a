"""Rebuild perfbench/ledger.json: the answers and costs of every input a workload can draw.

Run from the repository root:  python3 perfbench/build_ledger.py

Each input goes through ``torunits.cli.main`` from cold caches, with one
worker.  The ledger keeps what the report says (verdicts, pattern
counts, near misses, first witnesses, determinants) and, for orders,
cases and bases, the median wall time of TIMING_REPEATS calls as
``seed_ms``, which the workload generator uses only to rank inputs into
strata.  Building it takes about ten minutes.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from torunits.divisibility import recipe_instance  # noqa: E402
from torunits.numtheory import divisors  # noqa: E402
from torunits.psl2 import admissible_orders, is_prime_power  # noqa: E402

SWEEP_Q_MAX = 1024
NT_INSTANCES_PER_PAIR = 3
# one cold call is at the mercy of a shared host's speed; the median of three is not
TIMING_REPEATS = 3


def _run(argv: list[str], workdir: Path) -> harness.OpResult:
    harness.reset_caches()
    op = harness.Op("build", (*argv, "--output", str(workdir / "report.json")), "", 0.0)
    res = harness.run_op(op, workdir)
    if res.errors:
        raise SystemExit(f"{argv}: {res.errors}")
    return res


def _timed(argv: list[str], workdir: Path) -> tuple[harness.OpResult, float]:
    """The call's result and its median wall time in ms over TIMING_REPEATS cold calls."""
    runs = [_run(argv, workdir) for _ in range(TIMING_REPEATS)]
    if any(res.report != runs[0].report for res in runs):
        raise SystemExit(f"{argv}: reports differ between identical calls")
    return runs[0], round(statistics.median(res.latency_s for res in runs) * 1000, 3)


def build(workdir: Path) -> dict:
    sweep_q = {}
    for q in range(4, SWEEP_Q_MAX + 1):
        if is_prime_power(q) and admissible_orders(q):
            sweep_q[str(q)] = list(admissible_orders(q))

    orders, cases = {}, {}
    jobs = sorted({n for ns in sweep_q.values() for n in ns})
    for i, n in enumerate(jobs):
        res, ms = _timed(["verify", "--n", str(n), "--workers", "1"], workdir)
        (order,) = res.results
        orders[str(n)] = {**harness.order_entry(order), "seed_ms": ms}
        for case in order["cases"]:
            cases[f"{n},{case['d']}"] = harness.case_entry(case)
        print(f"[{i + 1}/{len(jobs)}] order {n}: {ms} ms", file=sys.stderr)

    case_keys = [(n, d) for n, d in harness.FIXED_CASES]
    case_keys += [(7 * p, 7) for p in harness.SEVEN_P_PRIMES]
    for n, d in case_keys:
        res, ms = _timed(["case", "--n", str(n), "--d", str(d), "--workers", "1"], workdir)
        cases[f"{n},{d}"] = {**harness.case_entry(res.results[0]), "seed_ms": ms}
        print(f"case {n},{d}: {ms} ms", file=sys.stderr)

    basis = {}
    for n in range(3, 106, 2):
        res, ms = _timed(["basis", "--n", str(n)], workdir)
        (got,) = res.results
        basis[str(n)] = {
            "determinant": got["determinant"],
            "formula_matches_oracle": got["formula_matches_oracle"],
            "basis_len": len(got["basis_indices"]),
            "seed_ms": ms,
        }

    # Recipe instances satisfy the hypotheses by construction and the criterion
    # then forces the conclusion, so the answer depends on (n, d) alone; a few
    # instances per pair confirm it on the seed code.
    rng = random.Random(0)
    nt_check = {}
    for n in range(3, 106, 2):
        for d in divisors(n)[1:]:
            seen = set()
            for _ in range(NT_INSTANCES_PER_PAIR):
                inst = recipe_instance(n, d, rng)
                path = workdir / "instance.txt"
                path.write_text(f"{n} {d}\n" + "".join(f"{c}\n" for c in inst.coeffs))
                (got,) = _run(["nt-check", "--input", str(path)], workdir).results
                seen.add((got["hypotheses_hold"], got["conclusion_holds"]))
            if len(seen) != 1:
                raise SystemExit(f"nt-check ({n}, {d}): verdicts differ between instances: {seen}")
            ((hyp, concl),) = seen
            nt_check[f"{n},{d}"] = {"hypotheses_hold": hyp, "conclusion_holds": concl}

    lemma_phi = {}
    for n in range(1, 46):
        for p in (2, 3, 5, 7):
            for m in (1, 2):
                argv = ["lemma-phi", "--n", str(n), "--p", str(p), "--m", str(m)]
                (got,) = _run(argv, workdir).results
                lemma_phi[f"{n},{p},{m}"] = {"divisible": got["divisible"]}

    return {
        "sweep_q": sweep_q,
        "orders": orders,
        "cases": cases,
        "basis": basis,
        "nt_check": nt_check,
        "lemma_phi": lemma_phi,
    }


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        ledger = build(Path(tmp))
    harness.LEDGER_PATH.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {harness.LEDGER_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
