"""Time cold check_case(n, d) on two source trees, alternating fresh processes.

    python tools/case_ab.py A_SRC B_SRC [--cases 119,7 75,15 ...] [--rounds 5] [--calls 3]

A_SRC and B_SRC are directories that hold the torunits package, such as the
src directories of two checkouts.  Each round starts one fresh Python
process per tree, and the tree that goes first alternates from round to
round.  A process times check_case(n, d) for each named case `calls`
times, emptying every cache of torunits before each call, and keeps the
fastest.  The script then prints, per case, each side's median over the
rounds in milliseconds and the ratio B/A.  Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = """
import json, sys, time
from torunits import helpengine

def empty_caches():
    for name, module in list(sys.modules.items()):
        if name == "torunits" or name.startswith("torunits."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

cases, calls = json.loads(sys.argv[1]), int(sys.argv[2])
best = []
for n, d in cases:
    times = []
    for _ in range(calls):
        empty_caches()
        t0 = time.perf_counter()
        helpengine.check_case(n, d)
        times.append(time.perf_counter() - t0)
    best.append(min(times))
print(json.dumps({"module": helpengine.__file__, "best_s": best}))
"""


def _case(text: str) -> tuple[int, int]:
    n, d = text.split(",")
    return int(n), int(d)


def time_tree(src: Path, cases: list[tuple[int, int]], calls: int) -> list[float]:
    """The fastest of `calls` cold check_case calls per case, in one fresh process on src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, json.dumps(cases), str(calls)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(out.stdout)
    if not Path(result["module"]).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"{src}: torunits was imported from {result['module']}")
    return result["best_s"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="source tree A")
    parser.add_argument("b", type=Path, help="source tree B")
    parser.add_argument("--cases", nargs="+", type=_case, default=[(119, 7), (75, 15)])
    parser.add_argument("--rounds", type=int, default=5, help="processes per tree")
    parser.add_argument("--calls", type=int, default=3, help="timed calls per case and process")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.calls < 1:
        parser.error("--rounds and --calls must be at least 1")
    trees = (args.a, args.b)
    runs: tuple[list[list[float]], list[list[float]]] = ([], [])
    for r in range(args.rounds):
        for side in (0, 1) if r % 2 == 0 else (1, 0):
            runs[side].append(time_tree(trees[side], args.cases, args.calls))
    print(f"{'case':>12} {'A ms':>9} {'B ms':>9} {'B/A':>6}")
    for i, (n, d) in enumerate(args.cases):
        a, b = (1000 * statistics.median(run[i] for run in side) for side in runs)
        print(f"{f'({n}, {d})':>12} {a:9.2f} {b:9.2f} {b / a:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
