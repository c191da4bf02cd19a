"""Command-line surface: batch verification runs with JSON certificates.

Every subcommand prints a short human summary to stdout and writes a
machine-readable JSON report (`explore-eps` first prints the size of its
search to stderr).  Reports are byte-stable: they contain
the run parameters (seed included, output path excluded) and the
results in canonical order, so identical inputs give identical bytes.
Each subcommand accepts only the flags it reads, plus `--output` and
`--seed`; any other flag exits 2.  The verifier runs in one process:
`verify` and `case` still accept `--workers`, which must be at least 1
but has no effect.

Exit codes: 0 when every check passed / every case was eliminated,
1 when a survivor or a property violation was found, 2 on invalid
input or a report that cannot be written, 3 on an internal error (a
failed invariant, or a basis determinant whose Chebyshev row does not
recompose or whose Bareiss division is inexact; no report is written).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from torunits import __version__
from torunits.cyclotomic import real_trace
from torunits.divisibility import PowerSums, check_vanishing, cyclotomic_value_divisible
from torunits.helpengine import (
    CaseInapplicableError,
    InvariantViolationError,
    check_case,
    verify_order,
)
from torunits.numtheory import class_reps, euler_phi
from torunits.psl2 import admissible_orders, group_profile
from torunits.realbasis import (
    DecompositionError,
    basis_change_det,
    basis_indices,
    decompose_combination,
    recompose,
)

SCHEMA_VERSION = 1

_FLAGS = {
    "q": (int, "prime power defining PSL(2,q)"),
    "n": (int, "unit order"),
    "d": (int, "candidate divisor of n"),
    "p": (int, "prime for the cyclotomic-value check"),
    "m": (int, "exponent / character index"),
    "input": (str, "instance file"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="torunits",
        description="Certify rational conjugacy of odd-order torsion units in ZPSL(2,q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for flag in flags:
            type_, flag_help = _FLAGS[flag]
            sp.add_argument(f"--{flag}", type=type_, help=flag_help)
        sp.add_argument("--output", help="report file (default: report.json)")
        sp.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
        if name in ("verify", "case"):
            sp.add_argument(
                "--workers", type=int, default=1, help="no effect: runs in one process (>= 1)"
            )
        if name == "case":
            sp.add_argument(
                "--list-survivors",
                action="store_true",
                help="print surviving patterns in the human summary",
            )
    return parser


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [f"--{x}" for x in names if getattr(args, x) is None]
    if missing:
        raise ValueError(f"{args.command} requires {', '.join(missing)}")


def _write_report(path: Path, args: argparse.Namespace, results: list[dict], ok: bool) -> None:
    # the output location never influences report content
    flags = _COMMANDS[args.command][2]
    params = {f: getattr(args, f) for f in flags if getattr(args, f) is not None}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": args.command,
        "parameters": {**params, "seed": args.seed},
        "ok": ok,
        "results": results,
    }
    # write a sibling file, then rename it over the report, so a failed
    # write never leaves a truncated report behind
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        tmp.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _cmd_verify(args: argparse.Namespace) -> tuple[list[dict], bool]:
    if args.n is None and args.q is None:
        raise ValueError("verify requires --q or --n")
    if args.n is not None:
        orders = [args.n]
    else:
        orders = list(admissible_orders(args.q))
    results = []
    ok = True
    for n in orders:
        verdict = verify_order(n, q=args.q)
        results.append(verdict.to_json_dict())
        ok = ok and verdict.conclusion == "verified"
        print(f"order n={n}" + (f" (q={args.q})" if args.q else "") + f": {verdict.conclusion}")
        for cert in verdict.cases:
            print(
                f"  case d={cert.d}: {cert.verdict} "
                f"({cert.tuples_examined} patterns, {cert.pruning_stats['near_misses']} near misses)"
            )
    if not orders:
        print(f"q={args.q}: no admissible orders; nothing to verify")
    return results, ok


def _cmd_case(args: argparse.Namespace) -> tuple[list[dict], bool]:
    _require(args, "n", "d")
    cert = check_case(args.n, args.d)
    print(
        f"case n={args.n} d={args.d}: {cert.verdict} "
        f"({cert.tuples_examined} patterns, {cert.pruning_stats['near_misses']} near misses, "
        f"{cert.pruning_stats['survivors']} survivors)"
    )
    if args.list_survivors and cert.survivors:
        for s in cert.survivors:
            print(f"  survivor: {list(s)}")
    return [cert.to_json_dict()], cert.verdict == "eliminated"


def _cmd_lemma_phi(args: argparse.Namespace) -> tuple[list[dict], bool]:
    _require(args, "n", "p", "m")
    ok = cyclotomic_value_divisible(args.n, args.p, args.m)
    print(
        f"cyclotomic value at n={args.n}, p={args.p}, m={args.m}: "
        + ("divisible" if ok else "NOT divisible")
    )
    return [{"n": args.n, "p": args.p, "m": args.m, "divisible": ok}], ok


def _cmd_nt_check(args: argparse.Namespace) -> tuple[list[dict], bool]:
    _require(args, "input")
    inst = _read_instance(args.input)
    verdict = check_vanishing(inst)
    violation = verdict.hypotheses_hold and not verdict.conclusion_holds
    print(
        f"instance n={inst.n} d={inst.d}: hypotheses "
        f"{'hold' if verdict.hypotheses_hold else 'do not hold'}, conclusion "
        f"{'holds' if verdict.conclusion_holds else 'does not hold'}"
    )
    result = {
        "n": inst.n,
        "d": inst.d,
        "hypotheses_hold": verdict.hypotheses_hold,
        "conclusion_holds": verdict.conclusion_holds,
    }
    return [result], not violation


def _read_instance(path: str) -> PowerSums:
    """Instance file: first line "n d", then n lines with A_0..A_{n-1}."""
    try:
        lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    except OSError as exc:
        raise ValueError(f"cannot read instance file {path}: {exc}") from exc
    if not lines:
        raise ValueError(f"instance file {path} is empty")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"instance file {path}: first line must be 'n d'")
    n, d = (int(x) for x in head)
    body = lines[1:]
    if len(body) != n:
        raise ValueError(f"instance file {path}: expected {n} coefficient lines, got {len(body)}")
    return PowerSums(n, tuple(int(x) for x in body), d)


def _cmd_basis(args: argparse.Namespace) -> tuple[list[dict], bool]:
    _require(args, "n")
    n = args.n
    idx = basis_indices(n)
    det = basis_change_det(n)
    size_ok = len(idx) == euler_phi(n) // 2
    det_ok = det in (1, -1)
    # det +-1 makes the basis independent: a row that recomposes to its trace is its coordinates
    formula_ok = all(
        (recompose(decompose_combination(n, {i: 1})) - real_trace(n, i)).is_zero()
        for i in class_reps(n)
    )
    ok = size_ok and det_ok and formula_ok
    print(f"basis for n={n}: {len(idx)} indices {list(idx)}")
    print(
        f"  size {'ok' if size_ok else 'WRONG'}, determinant {det} "
        f"{'ok' if det_ok else 'WRONG'}, closed formula "
        f"{'recomposes every real trace' if formula_ok else 'DISAGREES with the real traces'}"
    )
    result = {
        "n": n,
        "basis_indices": list(idx),
        "determinant": det,
        "formula_matches_oracle": formula_ok,
    }
    return [result], ok


def _cmd_orders(args: argparse.Namespace) -> tuple[list[dict], bool]:
    _require(args, "q")
    profile = group_profile(args.q)
    adm = admissible_orders(args.q)
    print(
        f"PSL(2,{profile.q}): order {profile.order}, element orders {list(profile.element_orders)}"
    )
    print(f"  orders requiring case analysis: {list(adm) or 'none'}")
    result = {
        "q": profile.q,
        "t": profile.t,
        "f": profile.f,
        "group_order": profile.order,
        "element_orders": list(profile.element_orders),
        "admissible_orders": list(adm),
    }
    return [result], True


def _cmd_explore_eps(args: argparse.Namespace) -> tuple[list[dict], bool]:
    from torunits.augment import explore_augmentations, explore_size

    _require(args, "n")
    m_max = args.m if args.m is not None else 3
    # the search is exponential in n, so say how big it is before it starts
    print(
        f"searching {explore_size(args.n)} augmentation vectors for order n={args.n}",
        file=sys.stderr,
    )
    found = explore_augmentations(args.n, m_max=m_max)
    print(
        f"order n={args.n}, characters up to degree {1 + 2 * m_max}: "
        f"{len(found)} augmentation vector(s) pass the multiplicity filter"
    )
    for av in found:
        nonzero = {x: v for x, v in av.eps.items() if v}
        print(f"  {nonzero}")
    results = [
        {"n": args.n, "m_max": m_max, "solutions": [dict(av.eps) for av in found]}
    ]
    return results, True


# command -> (handler, help, the flags it reads in report order); every
# command also takes --output and --seed, and verify and case --workers
_COMMANDS = {
    "verify": (_cmd_verify, "verify all admissible orders for q, or one order n", ("q", "n")),
    "case": (_cmd_case, "examine a single case (n, d)", ("n", "d")),
    "lemma-phi": (
        _cmd_lemma_phi,
        "check that the (n*p^m)-th cyclotomic value at zeta_n is divisible by p",
        ("n", "p", "m"),
    ),
    "nt-check": (_cmd_nt_check, "run the vanishing criterion on an instance file", ("input",)),
    "basis": (_cmd_basis, "verify the distinguished real-basis properties for one n", ("n",)),
    "orders": (_cmd_orders, "print the group profile and admissible orders for q", ("q",)),
    "explore-eps": (
        _cmd_explore_eps,
        "exploratory search over small augmentation vectors",
        ("n", "m"),
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"need at least 1 worker, got {args.workers}")
        results, ok = _COMMANDS[args.command][0](args)
    except (ValueError, CaseInapplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolationError, DecompositionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    path = Path(args.output or "report.json")
    try:
        _write_report(path, args, results, ok)
    except OSError as exc:
        print(f"error: cannot write report {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(f"report written to {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
