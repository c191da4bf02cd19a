"""Command-line surface: batch verification runs with JSON certificates.

Every subcommand prints a short human summary to stdout and writes a
machine-readable JSON report.  Reports are byte-stable: they contain
the run parameters (seed included, output path excluded) and the
results in canonical order, so identical inputs give identical bytes.
The verifier runs in one process; `--workers` is still accepted and
must be at least 1, but it has no effect.

Exit codes: 0 when every check passed / every case was eliminated,
1 when a survivor or a property violation was found, 2 on invalid
input or a report that cannot be written, 3 on an internal error (a
failed invariant or exact solve; no report is written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from torunits import __version__
from torunits.cyclotomic import real_trace
from torunits.divisibility import PowerSums, check_vanishing, cyclotomic_value_divisible
from torunits.helpengine import (
    CaseInapplicableError,
    InvariantViolationError,
    check_case,
    explore_augmentations,
    verify_order,
)
from torunits.numtheory import euler_phi
from torunits.psl2 import admissible_orders, group_profile
from torunits.realbasis import (
    DecompositionError,
    basis_change_det,
    basis_coeff,
    basis_indices,
    decompose,
    recompose,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters for one invocation."""

    command: str
    q: int | None = None
    n: int | None = None
    d: int | None = None
    p: int | None = None
    m: int | None = None
    input: str | None = None
    output: str | None = None
    seed: int = 0
    list_survivors: bool = False

    def report_parameters(self) -> dict:
        # the output location never influences report content
        params: dict[str, Any] = {}
        for key in ("q", "n", "d", "p", "m", "input"):
            value = getattr(self, key)
            if value is not None:
                params[key] = value
        params["seed"] = self.seed
        return params


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torunits",
        description="Certify rational conjugacy of odd-order torsion units in ZPSL(2,q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--q", type=int, help="prime power defining PSL(2,q)")
        sp.add_argument("--n", type=int, help="unit order")
        sp.add_argument("--d", type=int, help="candidate divisor of n")
        sp.add_argument("--p", type=int, help="prime for the cyclotomic-value check")
        sp.add_argument("--m", type=int, help="exponent / character index")
        sp.add_argument("--input", help="instance file")
        sp.add_argument("--output", help="report file (default: report.json)")
        sp.add_argument(
            "--workers", type=int, default=1, help="no effect: runs in one process (>= 1)"
        )
        sp.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
        sp.add_argument(
            "--list-survivors",
            action="store_true",
            help="print surviving patterns in the human summary",
        )
        return sp

    add("verify", "verify all admissible orders for q, or one order n")
    add("case", "examine a single case (n, d)")
    add("lemma-phi", "check that the (n*p^m)-th cyclotomic value at zeta_n is divisible by p")
    add("nt-check", "run the vanishing criterion on an instance file")
    add("basis", "verify the distinguished real-basis properties for one n")
    add("orders", "print the group profile and admissible orders for q")
    add("explore-eps", "exploratory search over small augmentation vectors")
    return parser


def _require(config: RunConfig, *names: str) -> None:
    missing = [f"--{x}" for x in names if getattr(config, x) is None]
    if missing:
        raise ValueError(f"{config.command} requires {', '.join(missing)}")


def _write_report(path: Path, config: RunConfig, results: list[dict], ok: bool) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": config.command,
        "parameters": config.report_parameters(),
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


def _cmd_verify(config: RunConfig) -> tuple[list[dict], bool]:
    if config.n is None and config.q is None:
        raise ValueError("verify requires --q or --n")
    if config.n is not None:
        orders = [config.n]
    else:
        orders = list(admissible_orders(config.q))
    results = []
    ok = True
    for n in orders:
        verdict = verify_order(n, q=config.q)
        results.append(verdict.to_json_dict())
        ok = ok and verdict.conclusion == "verified"
        print(f"order n={n}" + (f" (q={config.q})" if config.q else "") + f": {verdict.conclusion}")
        for cert in verdict.cases:
            print(
                f"  case d={cert.d}: {cert.verdict} "
                f"({cert.tuples_examined} patterns, {cert.pruning_stats['near_misses']} near misses)"
            )
    if not orders:
        print(f"q={config.q}: no admissible orders; nothing to verify")
    return results, ok


def _cmd_case(config: RunConfig) -> tuple[list[dict], bool]:
    _require(config, "n", "d")
    cert = check_case(config.n, config.d)
    print(
        f"case n={config.n} d={config.d}: {cert.verdict} "
        f"({cert.tuples_examined} patterns, {cert.pruning_stats['near_misses']} near misses, "
        f"{cert.pruning_stats['survivors']} survivors)"
    )
    if config.list_survivors and cert.survivors:
        for s in cert.survivors:
            print(f"  survivor: {list(s)}")
    return [cert.to_json_dict()], cert.verdict == "eliminated"


def _cmd_lemma_phi(config: RunConfig) -> tuple[list[dict], bool]:
    _require(config, "n", "p", "m")
    ok = cyclotomic_value_divisible(config.n, config.p, config.m)
    print(
        f"cyclotomic value at n={config.n}, p={config.p}, m={config.m}: "
        + ("divisible" if ok else "NOT divisible")
    )
    return [{"n": config.n, "p": config.p, "m": config.m, "divisible": ok}], ok


def _cmd_nt_check(config: RunConfig) -> tuple[list[dict], bool]:
    _require(config, "input")
    inst = _read_instance(config.input)
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


def _cmd_basis(config: RunConfig) -> tuple[list[dict], bool]:
    _require(config, "n")
    n = config.n
    idx = basis_indices(n)
    det = basis_change_det(n)
    size_ok = len(idx) == euler_phi(n) // 2
    det_ok = det in (1, -1)
    formula_ok = True
    for i in range(n):
        target = real_trace(n, i)
        oracle = decompose(target)
        for b in idx:
            if oracle[b] != basis_coeff(n, b, i):
                formula_ok = False
        if recompose(oracle) != target:
            formula_ok = False
    ok = size_ok and det_ok and formula_ok
    print(f"basis for n={n}: {len(idx)} indices {list(idx)}")
    print(
        f"  size {'ok' if size_ok else 'WRONG'}, determinant {det} "
        f"{'ok' if det_ok else 'WRONG'}, closed formula "
        f"{'matches the solver' if formula_ok else 'DISAGREES with the solver'}"
    )
    result = {
        "n": n,
        "basis_indices": list(idx),
        "determinant": det,
        "formula_matches_oracle": formula_ok,
    }
    return [result], ok


def _cmd_orders(config: RunConfig) -> tuple[list[dict], bool]:
    _require(config, "q")
    profile = group_profile(config.q)
    adm = admissible_orders(config.q)
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


def _cmd_explore_eps(config: RunConfig) -> tuple[list[dict], bool]:
    _require(config, "n")
    m_max = config.m if config.m is not None else 3
    found = explore_augmentations(config.n, m_max=m_max)
    print(
        f"order n={config.n}, characters up to degree {1 + 2 * m_max}: "
        f"{len(found)} augmentation vector(s) pass the multiplicity filter"
    )
    for av in found:
        nonzero = {x: v for x, v in av.eps.items() if v}
        print(f"  {nonzero}")
    results = [
        {"n": config.n, "m_max": m_max, "solutions": [dict(av.eps) for av in found]}
    ]
    return results, True


_DISPATCH = {
    "verify": _cmd_verify,
    "case": _cmd_case,
    "lemma-phi": _cmd_lemma_phi,
    "nt-check": _cmd_nt_check,
    "basis": _cmd_basis,
    "orders": _cmd_orders,
    "explore-eps": _cmd_explore_eps,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        command=args.command,
        q=args.q,
        n=args.n,
        d=args.d,
        p=args.p,
        m=args.m,
        input=args.input,
        output=args.output,
        seed=args.seed,
        list_survivors=args.list_survivors,
    )
    try:
        if args.workers < 1:
            raise ValueError(f"need at least 1 worker, got {args.workers}")
        results, ok = _DISPATCH[config.command](config)
    except (ValueError, CaseInapplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolationError, DecompositionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    path = Path(config.output or "report.json")
    try:
        _write_report(path, config, results, ok)
    except OSError as exc:
        print(f"error: cannot write report {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(f"report written to {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
