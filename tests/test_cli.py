import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from torunits.cli import main
from torunits.cyclotomic import cyclotomic_poly
from torunits.helpengine import InvariantViolationError
from torunits.realbasis import DecompositionError

DATA = Path(__file__).parent / "data"


def _source_tree_env():
    # a subprocess environment that imports this torunits, not an installed one
    import torunits

    src = os.path.dirname(os.path.dirname(torunits.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def test_verify_q16(tmp_path, capsys):
    code, payload = run_cli(["verify", "--q", "16"], tmp_path)
    assert code == 0
    assert payload["ok"] is True
    assert payload["command"] == "verify"
    (result,) = payload["results"]
    assert result["n"] == 15 and result["conclusion"] == "verified"
    assert [c["d"] for c in result["cases"]] == [3, 5]
    assert "verified" in capsys.readouterr().out


def test_case_eliminated(tmp_path):
    code, payload = run_cli(["case", "--n", "45", "--d", "15"], tmp_path)
    assert code == 0
    (result,) = payload["results"]
    assert result["verdict"] == "eliminated"
    assert result["survivors"] == []


def test_case_invalid_divisor(tmp_path, capsys):
    code = main(["case", "--n", "45", "--d", "2", "--output", str(tmp_path / "x.json")])
    assert code == 2
    assert not (tmp_path / "x.json").exists()
    assert "error" in capsys.readouterr().err


def test_case_dropped_divisor_is_invalid(tmp_path, capsys):
    code = main(["case", "--n", "45", "--d", "9", "--output", str(tmp_path / "x.json")])
    assert code == 2
    assert "excluded a priori" in capsys.readouterr().err


def test_lemma_phi(tmp_path):
    code, payload = run_cli(["lemma-phi", "--n", "45", "--p", "7", "--m", "2"], tmp_path)
    assert code == 0
    assert payload["results"][0]["divisible"] is True


def test_lemma_phi_missing_flag(tmp_path, capsys):
    code = main(["lemma-phi", "--n", "45", "--output", str(tmp_path / "x.json")])
    assert code == 2
    assert "--p" in capsys.readouterr().err


def test_nt_check_file(tmp_path):
    n, d = 15, 15
    f = cyclotomic_poly(3) * cyclotomic_poly(5)
    A = [0] * n
    for j, c in enumerate(f.coeffs):
        A[j % n] += c
    inst = tmp_path / "inst.txt"
    inst.write_text(f"{n} {d}\n" + "\n".join(str(a) for a in A) + "\n")
    code, payload = run_cli(["nt-check", "--input", str(inst)], tmp_path)
    assert code == 0
    (result,) = payload["results"]
    assert result["hypotheses_hold"] and result["conclusion_holds"]


def test_nt_check_hypotheses_fail_is_not_a_violation(tmp_path):
    n, d = 15, 15
    A = [0] * n
    A[1] = 1
    inst = tmp_path / "inst.txt"
    inst.write_text(f"{n} {d}\n" + "\n".join(str(a) for a in A) + "\n")
    code, payload = run_cli(["nt-check", "--input", str(inst)], tmp_path)
    assert code == 0
    assert payload["results"][0]["hypotheses_hold"] is False


def test_nt_check_bad_file(tmp_path, capsys):
    inst = tmp_path / "bad.txt"
    inst.write_text("15 15\n1\n2\n")
    code = main(["nt-check", "--input", str(inst), "--output", str(tmp_path / "x.json")])
    assert code == 2
    assert "expected 15 coefficient lines" in capsys.readouterr().err


def test_basis_command(tmp_path):
    code, payload = run_cli(["basis", "--n", "15"], tmp_path)
    assert code == 0
    (result,) = payload["results"]
    assert result["basis_indices"] == [1, 2, 4, 7]
    assert result["determinant"] in (1, -1)
    assert result["formula_matches_oracle"] is True


def test_basis_reports_match_fixture(tmp_path):
    # report bytes of basis --n N, recorded in tests/data/basis_reports.json
    digests = json.loads((DATA / "basis_reports.json").read_text())
    assert sorted(map(int, digests)) == [3, 15, 45, 63, 97, 101, 103, 105, 121, 165, 255]
    out = tmp_path / "report.json"
    for n, want in digests.items():
        assert main(["basis", "--n", n, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, n


def test_orders_command(tmp_path):
    code, payload = run_cli(["orders", "--q", "127"], tmp_path)
    assert code == 0
    (result,) = payload["results"]
    assert result["admissible_orders"] == [21, 63]
    assert result["group_order"] == 126 * 127 * 128 // 2


def test_explore_eps_command(tmp_path):
    code, payload = run_cli(["explore-eps", "--n", "15", "--m", "2"], tmp_path)
    assert code == 0
    (result,) = payload["results"]
    solutions = result["solutions"]
    assert {"0": 0} != solutions  # sanity: list of dicts
    assert any(sol.get("1") == 1 and sum(sol.values()) == 1 for sol in solutions)


def test_explore_eps_announces_its_search_size(tmp_path, capsys):
    from itertools import product

    from torunits.augment import explore_size

    for n in range(3, 20, 2):
        want = sum(1 for v in product((-1, 0, 1), repeat=n // 2) if sum(v) == 1)
        assert explore_size(n) == want, n
    code, _ = run_cli(["explore-eps", "--n", "15", "--m", "1"], tmp_path)
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == "searching 357 augmentation vectors for order n=15\n"
    assert "357" not in captured.out
    # an invalid order is rejected before any search size is announced
    assert run_cli(["explore-eps", "--n", "16"], tmp_path)[0] == 2
    assert capsys.readouterr().err == "error: need an odd order >= 3, got 16\n"


def test_workers_flag_changes_nothing(tmp_path):
    for argv in (["case", "--n", "45", "--d", "15"], ["verify", "--q", "31"]):
        code1, p1 = run_cli(argv + ["--workers", "1"], tmp_path, "w1.json")
        code4, p4 = run_cli(argv + ["--workers", "4"], tmp_path, "w4.json")
        assert code1 == code4 == 0
        assert (tmp_path / "w1.json").read_bytes() == (tmp_path / "w4.json").read_bytes()
        assert "workers" not in json.dumps(p1)


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "torunits", "orders", "--q", "16", "--output", str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PSL(2,16)" in proc.stdout


def test_seed_is_recorded(tmp_path):
    _, payload = run_cli(["case", "--n", "15", "--d", "3", "--seed", "7"], tmp_path)
    assert payload["parameters"]["seed"] == 7


@pytest.mark.parametrize("argv", [["verify"], ["basis"], ["orders"]])
def test_missing_required_flags(argv, tmp_path, capsys):
    code = main(argv + ["--output", str(tmp_path / "x.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error")


@pytest.mark.parametrize(
    "argv",
    [
        ["case", "--n", "45", "--d", "15", "--q", "7"],
        ["basis", "--n", "15", "--workers", "2"],
        ["verify", "--q", "16", "--list-survivors"],
    ],
)
def test_command_rejects_flags_it_does_not_read(argv, tmp_path, capsys):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_invalid(workers, tmp_path, capsys):
    out = tmp_path / "x.json"
    code = main(["case", "--n", "15", "--d", "3", "--workers", workers, "--output", str(out)])
    assert code == 2
    assert not out.exists()
    assert "at least 1 worker" in capsys.readouterr().err
    # q = 7 has no admissible order, so no case would ever check the count
    code = main(["verify", "--q", "7", "--workers", workers, "--output", str(out)])
    assert code == 2
    assert not out.exists()
    assert "at least 1 worker" in capsys.readouterr().err


@pytest.mark.parametrize("error", [InvariantViolationError, DecompositionError])
def test_internal_error_has_its_own_exit_code(error, monkeypatch, tmp_path, capsys):
    from torunits import cli

    def broken(*args, **kwargs):
        raise error("deviation exceeds bound")

    monkeypatch.setattr(cli, "check_case", broken)
    out = tmp_path / "x.json"
    code = main(["case", "--n", "15", "--d", "3", "--output", str(out)])
    assert code == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("internal error: deviation exceeds bound")


def test_wrong_basis_change_row_is_an_internal_error(monkeypatch, tmp_path, capsys):
    from torunits import realbasis

    honest = realbasis._chebyshev_rows

    def tampered(n):
        rows = honest(n)
        rows[-1][-1] -= 1
        return rows

    monkeypatch.setattr(realbasis, "_chebyshev_rows", tampered)
    out = tmp_path / "x.json"
    code = main(["basis", "--n", "15", "--output", str(out)])
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("internal error: the Chebyshev row of basis element 7 over n=15")


def test_wrong_closed_form_row_fails_the_basis_check(monkeypatch, tmp_path, capsys):
    from torunits import realbasis

    # bump one coordinate of class 7's row; the determinant does not read the rows
    rows = realbasis.trace_coordinates(15)
    (k, v), *rest = rows[7]
    monkeypatch.setitem(rows, 7, ((k, v + 1), *rest))
    code, payload = run_cli(["basis", "--n", "15"], tmp_path)
    assert code == 1
    assert payload["ok"] is False
    (result,) = payload["results"]
    assert result["determinant"] in (1, -1)
    assert result["formula_matches_oracle"] is False
    assert "DISAGREES" in capsys.readouterr().out


def test_bound_violation_is_an_internal_error(monkeypatch, tmp_path, capsys):
    from torunits import helpengine
    from torunits.realbasis import trace_coordinates

    # inflate the row of class 7, which the pattern (6, 7, 7) of (15, 3) uses
    # twice and the identity classes 1, 2, 3 do not use
    rows = {**trace_coordinates(15), 7: ((0, 100),)}
    monkeypatch.setattr(helpengine, "trace_coordinates", lambda n: rows)
    with pytest.raises(InvariantViolationError, match="exceeds bound") as info:
        helpengine.check_case(15, 3)
    # the message names a real offending pattern, rebuilt from the search path
    named = re.search(r"on pattern (\([^)]*\))", str(info.value))
    pattern = ast.literal_eval(named.group(1))
    assert 7 in pattern
    assert pattern in set(helpengine.enumerate_patterns(15, 3))
    out = tmp_path / "x.json"
    code = main(["case", "--n", "15", "--d", "3", "--output", str(out)])
    assert code == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("internal error: deviation")


def test_failed_report_write_leaves_no_partial_file(monkeypatch, tmp_path, capsys):
    from pathlib import Path

    out = tmp_path / "report.json"
    out.write_text("previous report\n")
    write_text = Path.write_text

    def write_half_then_fail(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as m:
        m.setattr(Path, "write_text", write_half_then_fail)
        code = main(["case", "--n", "15", "--d", "3", "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write report {out}: No space left on device\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert out.read_text() == "previous report\n"

    # a missing directory and a directory in place of the file: exit 2, not 1
    (tmp_path / "dir").mkdir()
    for target, reason in (
        (tmp_path / "missing" / "r.json", "No such file or directory"),
        (tmp_path / "dir", "Is a directory"),
    ):
        code = main(["case", "--n", "15", "--d", "3", "--output", str(target)])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write report {target}: {reason}\n"
    # a directory path with an empty name
    monkeypatch.chdir(tmp_path / "dir")
    assert main(["case", "--n", "15", "--d", "3", "--output", "."]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write report .: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "report.json"]
    assert not any((tmp_path / "dir").iterdir())


def test_cli_does_not_load_the_oracles():
    # the oracles, the augmentation tools, rationals and the float routines
    # stay off the command-line path
    env = _source_tree_env()
    off_path = {"torunits.oracles", "torunits.augment", "fractions", "cmath"}
    code = f"import sys, torunits.cli; print(sorted({off_path!r} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_calls_in_one_process_match_calls_run_alone(tmp_path):
    # the parser is built once per process; a rejected flag must leave
    # nothing behind that changes a later call's report, stdout or exit code
    calls = [
        ["basis", "--n", "15", "--workers", "2"],
        ["basis", "--n", "15"],
        ["case", "--n", "15", "--d", "3"],
    ]
    runner = """
import contextlib, io, json, sys
from pathlib import Path
from torunits.cli import main
out = []
for k, argv in enumerate(json.loads(sys.argv[1])):
    report = Path(sys.argv[2]) / f"r{k}.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv + ["--output", str(report)])
        except SystemExit as exc:
            code = exc.code
    text = report.read_text() if report.exists() else None
    out.append([code, text, stdout.getvalue().replace(str(report), "REPORT"), stderr.getvalue()])
print(json.dumps(out))
"""

    def run(argvs, workdir):
        workdir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", runner, json.dumps(argvs), str(workdir)],
            capture_output=True,
            text=True,
            env=_source_tree_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    together = run(calls, tmp_path / "together")
    alone = [run([argv], tmp_path / f"alone{k}")[0] for k, argv in enumerate(calls)]
    assert together == alone
    assert [code for code, *_ in together] == [2, 0, 0]
    assert together[0][1] is None and "unrecognized arguments" in together[0][3]
