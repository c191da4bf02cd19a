"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import copy
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

LEDGER = harness.load_ledger()


def _inputs(workload: str, seed: int, workdir: Path) -> list:
    ops = harness.make_pass(workload, seed, LEDGER, workdir)
    argvs = [tuple(a.replace(str(workdir), "<dir>") for a in op.argv) for op in ops]
    files = sorted((f.name, f.read_text()) for f in workdir.iterdir())
    return [argvs, files]


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_seed_fixes_the_inputs(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _inputs(workload, 3, dirs[0])
    assert first == _inputs(workload, 3, dirs[1])
    assert first != _inputs(workload, 4, dirs[2])


@pytest.mark.parametrize("seed", [5, 6])
def test_a_sweep_pass_draws_one_q_per_stratum_plus_the_tail(seed, tmp_path):
    keys = [op.key for op in harness.make_pass("sweep-q", seed, LEDGER, tmp_path)]
    assert len(keys) == len(set(keys)) == harness.SWEEP_Q_STRATA + 1
    tails = [q for q in keys if any(harness._is_tail(LEDGER, n) for n in LEDGER["sweep_q"][q])]
    assert tails == [harness.SWEEP_Q_TAIL]
    # balanced: every seed's pass decides the same number of orders
    assert sum(len(LEDGER["sweep_q"][q]) for q in keys) == 48


def test_antithetic_draw_pairs_opposite_ranks():
    groups = [[0, 1], [10, 11, 12], [20, 21, 22]]
    for seed in range(20):
        alone, low, high = harness.stratified_pick(groups, harness.random.Random(seed))
        assert alone in groups[0]
        assert low + high == 32


def test_self_time_on_a_hand_made_span_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b", 6.0, 7.0, 3, 0),  # recursive call, inside its parent
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0])
    assert tracing.inclusive_time(spans, "b") == pytest.approx(4.0)
    assert tracing.inclusive_time(spans, "a") == pytest.approx(3.0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert harness.tail_percentile([float(i) for i in range(99)], 0.9) is None
    assert harness.tail_percentile([float(i) for i in range(1, 101)], 0.9) == 90.0


def _cheap_sweep_op(workdir: Path) -> harness.Op:
    ops = harness.make_pass("sweep-q", 1, LEDGER, workdir)
    return min(ops, key=lambda op: op.cost_ms)


def test_ledger_matches_the_program(tmp_path):
    bench = run.Run(harness, LEDGER, tmp_path)
    bench.run_pass([_cheap_sweep_op(tmp_path)])
    assert (bench.attempted, bench.failed) == (1, 0)


def test_a_corrupted_ledger_entry_counts_as_failed(tmp_path):
    op = _cheap_sweep_op(tmp_path)
    n = str(LEDGER["sweep_q"][op.key][0])
    ledger = copy.deepcopy(LEDGER)
    ledger["orders"][n]["conclusion"] = "inconclusive"
    bench = run.Run(harness, ledger, tmp_path)
    bench.run_pass([op])
    assert (bench.attempted, bench.failed) == (1, 1)


def test_tracing_restores_the_original_functions(tmp_path):
    from torunits import cli, helpengine
    from torunits.cyclotomic import CycInt

    before = (cli.check_case, helpengine.check_case, CycInt.__mul__)
    tracer = tracing.Tracer()
    with tracer.install():
        assert cli.check_case is helpengine.check_case
        assert cli.check_case is not before[0]
        harness.run_op(_cheap_sweep_op(tmp_path), tmp_path)
    assert (cli.check_case, helpengine.check_case, CycInt.__mul__) == before
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "psl2.admissible_orders", "helpengine.verify_order"} <= names


def test_rejected_arguments_count_as_failed(tmp_path):
    op = harness.Op("case", ("case", "--n", "15", "--d", "3", "--no-such-flag"), "15,3", 1.0)
    res = harness.run_op(op, tmp_path)
    assert res.errors and "exit code 2" in res.errors[0]
