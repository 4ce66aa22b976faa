import json
import pathlib
import time

import pytest

from nclfun.cli import main
from nclfun.covering import parse_instance

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

TRIVIAL_DIGEST = \
    "c0a288f484cd6a15fdb8edacbb18a2e8a8c109d88aac3cb5e1b71cc7a221af3b"

ONE_POINT_INSTANCE = """\
format = covering-instance-v1
q = 5
ell = 3
m = 2
group.order = 1
group.table = [[0]]
group.action = [0]
group.action_order = 1
points = [[1, 0, 1]]
sheaf.rank = 1
sheaf.h_images = [[[1]]]
sheaf.gamma = [[1]]
"""


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------

def test_euler_golden_geometric_series(tmp_path, capsys):
    inst = tmp_path / "one_point.inst"
    inst.write_text(ONE_POINT_INSTANCE)
    code, out, _ = _run(capsys, [
        "lfun", "euler", "--fixture", str(inst), "--precision", "4"])
    assert code == 0
    assert "1 + T + T^2 + T^3" in out
    assert out.startswith("ok ")


def test_check_json_lines_golden(capsys):
    code, out, err = _run(capsys, [
        "lfun", "check", "--fixture", str(FIXTURES / "trivial.inst"),
        "--precision", "6", "--format", "json-lines"])
    assert code == 0
    assert "pointwise cyclic model" in err
    rec = json.loads(out.strip())
    assert list(rec) == ["command", "digest", "check", "left", "right",
                         "verdict", "time_ms"]
    del rec["time_ms"]
    assert rec == {
        "command": "lfun.check",
        "digest": TRIVIAL_DIGEST,
        "check": "euler-vs-trace",
        "left": "1 + T + 2*T^2 + 3*T^3 + 4*T^4 + 5*T^5",
        "right": "1 + T + 2*T^2 + 3*T^3 + 4*T^4 + 5*T^5",
        "verdict": "pass",
    }


def test_records_go_to_stdout_diagnostics_to_stderr(capsys):
    code, out, err = _run(capsys, [
        "suite", "run", "--seed", "1", "--count", "3",
        "--precision", "12", "--format", "json-lines"])
    assert code == 0
    assert "suite: 3 cases" in err
    for line in out.strip().splitlines():
        json.loads(line)


def test_imc_verify_worked_example(capsys):
    code, out, _ = _run(capsys, [
        "imc", "verify", "--phi", "[[4]]", "--ell", "3", "--m", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "6 + Y" in lines[0]
    assert "limit vanishes: True" in lines[1]


def test_imc_limit_and_fitting(capsys):
    code, out, _ = _run(capsys, [
        "imc", "limit", "--phi", "[[4]]", "--ell", "3", "--m", "2"])
    assert code == 0
    assert "stable from n = 1" in out
    assert "size 9" in out
    code, out, _ = _run(capsys, [
        "imc", "fitting", "--phi", "[[4]]", "--ell", "3", "--m", "2"])
    assert code == 0
    assert "6 + Y" in out


def test_kconnect_exit_codes(capsys):
    code, out, _ = _run(capsys, [
        "kconnect", "d", "--alpha", "[[[1,5]]]", "--ell", "3", "--m", "2"])
    assert code == 0
    assert "1 + 5*T" in out
    # determinant falls out of S: semantic refusal, not an input error
    code, _, err = _run(capsys, [
        "kconnect", "d", "--alpha", "[[[3]]]", "--ell", "3", "--m", "2"])
    assert code == 1
    assert "NotSQuasiIso" in err
    code, _, err = _run(capsys, [
        "kconnect", "verify", "--alpha", "[[[1,1]]]", "--ell", "3"])
    assert code == 2
    assert "needs --alpha and --beta" in err


def test_input_error_exits_two(capsys):
    code, _, err = _run(capsys, [
        "lfun", "euler", "--fixture", "no/such/file.inst"])
    assert code == 2
    assert "input error" in err
    code, _, err = _run(capsys, [
        "lfun", "trace", "--fixture", str(FIXTURES / "trivial.inst")])
    assert code == 2
    assert "no cohomology" in err
    code, _, err = _run(capsys, [
        "imc", "verify", "--phi", "[[4]", "--ell", "3"])
    assert code == 2


def test_ncl_evaluate_names_available_reps(capsys):
    code, _, err = _run(capsys, [
        "ncl", "evaluate", "--fixture", str(FIXTURES / "trivial.inst"),
        "--rep", "nope"])
    assert code == 2
    assert "chi" in err and "triv" in err
    code, out, _ = _run(capsys, [
        "ncl", "evaluate", "--fixture", str(FIXTURES / "trivial.inst"),
        "--rep", "chi", "--precision", "8"])
    assert code == 0
    assert "evaluate[chi]" in out


def test_ncl_verify_small_fixture_all_pass(capsys):
    code, out, _ = _run(capsys, [
        "ncl", "verify", "--fixture", str(FIXTURES / "z2xgamma.inst"),
        "--precision", "10"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("pass") for line in lines)
    checks = {line.split()[2] for line in lines}
    assert any(c.startswith("interpolation") for c in checks)
    assert any(c.startswith("artin") for c in checks)
    assert any(c.startswith("quotient") for c in checks)


# Wall-clock budget for all ncl commands on one fixture: 10 s for ec_f5
# and 5 s for the others, which measured about 2 s and under 0.5 s on
# 2 vCPUs (CPython 3.11).  ec_f5 runs at precision 7, the most its
# points (through degree 6) support.
NCL_BUDGET_S = {"ec_f5": 10.0}
NCL_PRECISION = {"ec_f5": ["--precision", "7"]}


@pytest.mark.parametrize(
    "name", ["trivial", "z2xgamma", "z3_semidirect", "s3_gamma", "ec_f5"])
def test_ncl_commands_finish_within_budget(capsys, name):
    path = str(FIXTURES / f"{name}.inst")
    reps = sorted(parse_instance(pathlib.Path(path).read_text()).reps)
    extra = ["--fixture", path, "--format", "json-lines"] \
        + NCL_PRECISION.get(name, [])
    t0 = time.perf_counter()
    code, out, _ = _run(capsys, ["ncl", "compute"] + extra)
    assert code == 0
    assert json.loads(out)["verdict"] == "ok"
    for rep in reps:
        code, out, _ = _run(capsys, ["ncl", "evaluate", "--rep", rep] + extra)
        assert code == 0, rep
        assert json.loads(out)["verdict"] == "ok"
    code, out, _ = _run(capsys, ["ncl", "verify"] + extra)
    elapsed = time.perf_counter() - t0
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records and all(r["verdict"] == "pass" for r in records), records
    assert elapsed < NCL_BUDGET_S.get(name, 5.0), elapsed
