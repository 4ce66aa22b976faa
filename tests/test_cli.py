import json
import pathlib
import time

import pytest

from nclfun import cli
from nclfun.cli import main
from nclfun.coeffring import CoeffRing
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


def _non_normal_instance():
    """s3_gamma with the trivial action, its one-dimensional reps, and
    the non-normal subgroup {e, (12)} with c = 1 in place of A3."""
    lines = []
    for line in (FIXTURES / "s3_gamma.inst").read_text().splitlines():
        key = line.split(" = ")[0]
        if key.startswith("rep.std2"):
            continue
        line = {
            "group.action": "group.action = [0, 1, 2, 3, 4, 5]",
            "group.action_order": "group.action_order = 1",
            "subgroup.a3.h_members": "subgroup.a3.h_members = [0, 3]",
        }.get(key, line)
        lines.append(line)
    return "\n".join(lines) + "\n"


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


def test_kconnect_verify_refuses_phi_beside_alpha_and_beta(capsys):
    """--phi and --alpha/--beta select two different checks; given
    together, neither is silently dropped."""
    code, out, err = _run(capsys, [
        "kconnect", "verify", "--ell", "3", "--m", "2", "--phi", "[[4]]",
        "--alpha", "[[[1,5]]]", "--beta", "garbage"])
    assert code == 2
    assert out == ""
    assert all(flag in err for flag in ("--phi", "--alpha", "--beta"))


def test_kconnect_verify_refuses_alpha_and_beta_of_two_sizes(capsys):
    """beta alpha needs one size: a 1 x 1 alpha against a 2 x 2 beta is
    unusable input, not a refused computation."""
    code, out, err = _run(capsys, [
        "kconnect", "verify", "--ell", "3", "--m", "2",
        "--alpha", "[[[1]]]", "--beta", "[[[1],[0]],[[0],[1]]]"])
    assert code == 2
    assert out == ""
    assert "--alpha is 1 x 1" in err and "--beta is 2 x 2" in err


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


@pytest.mark.parametrize("argv", [
    ["imc", "verify", "--phi", "[[1.5]]"],
    ["imc", "verify", "--phi", "[[None]]"],
    ["imc", "verify", "--phi", "[[[1,2,3]]]"],
    ["imc", "verify", "--phi", "[[[1.5,2]]]"],
    ["imc", "verify", "--phi", "[[['1',2]]]"],
    ["kconnect", "d", "--alpha", "[[[[1,2,3]]]]"],
    ["imc", "limit", "--phi", "[[1,"],
    ["imc", "limit", "--phi", "{[1]: 2}"],
    ["kconnect", "d", "--alpha", "[[[1]]"],
])
def test_malformed_inline_entries_are_input_errors(capsys, argv):
    """A literal that does not decode, or an entry that is not an int
    or a list of at most D ints, is unusable input: exit 2, nothing on
    stdout, the flag named."""
    code, out, err = _run(capsys, argv + [
        "--ell", "3", "--m", "2", "--minpoly", "[1,0,1]"])
    assert code == 2
    assert out == ""
    assert argv[2] in err


@pytest.mark.parametrize("argv, flag", [
    (["--phi", "[[True]]"], "--phi"),
    (["--minpoly", "[1,0,1]", "--phi", "[[[True,0]]]"], "--phi"),
    (["--minpoly", "[True, 0, 1]", "--phi", "[[1]]"], "--minpoly"),
])
def test_inline_booleans_are_input_errors(capsys, argv, flag):
    """True is an int to Python but no integer input: exit 2, nothing
    on stdout, the flag named."""
    code, out, err = _run(capsys, [
        "imc", "verify", "--ell", "3", "--m", "2"] + argv)
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("minpoly", ["{[1]}", "[1,"])
def test_unparsable_minpoly_names_the_flag(capsys, minpoly):
    code, out, err = _run(capsys, [
        "imc", "limit", "--ell", "3", "--minpoly", minpoly, "--phi", "[[1]]"])
    assert code == 2
    assert out == ""
    assert "--minpoly" in err


@pytest.mark.parametrize("bad", ["5", "[[1], 1]", "[1, [0], 1]"])
def test_minpoly_that_is_no_list_of_ints_is_an_input_error(
        tmp_path, capsys, bad):
    """omega.minpoly and --minpoly go through one check: a value that
    decodes but is not a list of ints exits 2, naming the key or the
    flag, with no traceback."""
    path = tmp_path / "minpoly.inst"
    path.write_text(ONE_POINT_INSTANCE.replace(
        "m = 2\n", f"m = 2\nomega.minpoly = {bad}\n"))
    code, out, err = _run(capsys, [
        "lfun", "euler", "--fixture", str(path), "--precision", "4"])
    assert (code, out) == (2, "")
    assert "omega.minpoly: expected a list of integer coefficients" in err
    code, out, err = _run(capsys, [
        "imc", "limit", "--ell", "3", "--minpoly", bad, "--phi", "[[1]]"])
    assert (code, out) == (2, "")
    assert "--minpoly: expected a list of integer coefficients" in err


# each literal as a ring element over Z/9 and over Z/9[x]/(x^2 + 1),
# or None where it is refused
ELEMENT_TABLE = [
    ("4", (4,), (4, 0)),
    ("-1", (8,), (8, 0)),
    ("[4]", (4,), (4, 0)),
    ("[4, 1]", None, (4, 1)),
    ("[4, 1, 0]", None, None),
    ("[]", (0,), (0, 0)),
    ("true", None, None),
    ("[true]", None, None),
]


@pytest.mark.parametrize("minpoly", [None, [1, 0, 1]],
                         ids=["Z/9", "Z/9[x]/(x^2+1)"])
@pytest.mark.parametrize("literal, over_z9, over_quadratic", ELEMENT_TABLE,
                         ids=[row[0] for row in ELEMENT_TABLE])
def test_fixtures_and_flags_read_one_element_grammar(
        tmp_path, capsys, minpoly, literal, over_z9, over_quadratic):
    """A ring element is an int, or a list of at most D ints,
    zero-padded, and a bool is none.  The same literal in a fixture's
    sheaf.gamma and in --phi gives the same element, or both exit 2,
    naming the key and the flag.  The literal sits above the diagonal of
    a unitriangular matrix, so every element makes a valid sheaf."""
    expect = over_z9 if minpoly is None else over_quadratic
    matrix = f"[[1, {literal}], [0, 1]]"
    text = ONE_POINT_INSTANCE.replace(
        "sheaf.rank = 1\nsheaf.h_images = [[[1]]]\nsheaf.gamma = [[1]]",
        f"sheaf.rank = 2\nsheaf.h_images = [[[1, 0], [0, 1]]]\n"
        f"sheaf.gamma = {matrix}")
    flags = ["--ell", "3", "--m", "2", "--phi", matrix]
    if minpoly is not None:
        text = text.replace("m = 2\n", f"m = 2\nomega.minpoly = {minpoly}\n")
        flags += ["--minpoly", str(minpoly)]
    path = tmp_path / "element.inst"
    path.write_text(text)
    fixture_run = _run(capsys, [
        "lfun", "euler", "--fixture", str(path), "--precision", "3"])
    flag_run = _run(capsys, ["imc", "limit"] + flags)
    if expect is None:
        assert fixture_run[:2] == (2, "") and "sheaf.gamma" in fixture_run[2]
        assert flag_run[:2] == (2, "") and "--phi" in flag_run[2]
        return
    assert fixture_run[0] == flag_run[0] == 0
    ring = CoeffRing(3, 2, minpoly)
    assert parse_instance(text).sheaf.rep.gamma[0][1] == expect
    assert cli._omega_matrix(ring, matrix, "--phi")[0][1] == expect


def test_a_fault_inside_the_ring_is_no_input_error(monkeypatch):
    """Only InvariantViolation from CoeffRing is bad input; anything
    else it raises is a program fault and is not read as exit 2."""
    def broken(*args):
        raise ValueError("fault")

    monkeypatch.setattr(cli, "CoeffRing", broken)
    with pytest.raises(ValueError, match="fault"):
        main(["imc", "limit", "--ell", "3", "--minpoly", "[1, 0, 1]",
              "--phi", "[[1]]"])


def test_imc_verify_precision_below_the_floor_is_an_input_error(capsys):
    """The floor 2 (s m + s) is 12 for a 2 x 2 Phi at m = 2."""
    argv = ["imc", "verify", "--ell", "3", "--m", "2",
            "--phi", "[[4, 3], [0, 1]]", "--precision"]
    code, out, err = _run(capsys, argv + ["11"])
    assert code == 2
    assert out == ""
    assert "--precision 11" in err and "floor 12" in err
    code, out, _ = _run(capsys, argv + ["12"])
    assert code == 0
    assert out.startswith("pass imc.verify mc-commutative")


def test_kconnect_verify_phi_precision_below_the_floor_is_an_input_error(
        capsys):
    """kconnect verify --phi compares the same Fitting ideal as imc
    verify, so it refuses below the same floor, 12 for this Phi."""
    argv = ["kconnect", "verify", "--ell", "3", "--m", "2",
            "--phi", "[[4, 3], [0, 1]]", "--precision"]
    code, out, err = _run(capsys, argv + ["1"])
    assert code == 2
    assert out == ""
    assert "--precision 1" in err and "floor 12" in err
    code, out, _ = _run(capsys, argv + ["12"])
    assert code == 0
    assert out.startswith("pass kconnect.verify d-fitting-consistency")


def test_undecodable_fixture_names_the_path(tmp_path, capsys):
    inst = tmp_path / "binary.inst"
    inst.write_bytes(b"\xff" + ONE_POINT_INSTANCE.encode())
    code, out, err = _run(capsys, ["lfun", "euler", "--fixture", str(inst)])
    assert code == 2
    assert out == ""
    assert f"input error: fixture {inst}: 'utf-8' codec" in err


def test_fixture_boolean_is_an_input_error(tmp_path, capsys):
    inst = tmp_path / "bool.inst"
    inst.write_text(ONE_POINT_INSTANCE.replace(
        "sheaf.gamma = [[1]]", "sheaf.gamma = [[True]]"))
    code, out, err = _run(capsys, [
        "lfun", "euler", "--fixture", str(inst), "--precision", "4"])
    assert code == 2
    assert out == ""
    assert "sheaf.gamma" in err


def test_precision_beyond_complete_points_is_refused(capsys):
    # ec_f5 lists every closed point through degree 6, which supports
    # series mod T^7 and no further: a higher precision is an input
    # error that names the key, never a false fail
    ec = str(FIXTURES / "ec_f5.inst")
    for argv in (["lfun", "check", "--fixture", ec],
                 ["lfun", "euler", "--fixture", ec, "--precision", "8"],
                 ["ncl", "verify", "--fixture", ec, "--precision", "32"]):
        code, out, err = _run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert "points.complete_through = 6" in err
    code, out, _ = _run(capsys, [
        "lfun", "check", "--fixture", ec, "--precision", "7"])
    assert code == 0
    assert out.startswith("pass lfun.check")


@pytest.mark.parametrize("command, line, bad", [
    ("ncl verify", "subgroup.gsq.h_members = [0, 1]", "[0, 7]"),
    ("ncl verify", "subgroup.gsq.h_members = [0, 1]", "[0, -1]"),
    ("lfun euler", "group.table = [[0, 1], [1, 0]]", "[[0, 1], 1]"),
    ("lfun euler", "group.order = 2", "3"),
    ("ncl verify", "group.action_order = 1", "3"),
])
def test_malformed_group_data_exits_2_naming_the_key(
        tmp_path, capsys, command, line, bad):
    key = line.split(" = ")[0]
    inst = tmp_path / "bad.inst"
    inst.write_text((FIXTURES / "z2xgamma.inst").read_text().replace(
        line, f"{key} = {bad}"))
    code, out, err = _run(capsys, command.split() + ["--fixture", str(inst)])
    assert code == 2
    assert out == ""
    assert key in err


@pytest.mark.parametrize("argv", [
    ["imc", "limit", "--ell", "3", "--m", "2", "--phi", "[[4]]"],
    ["imc", "fitting", "--ell", "3", "--m", "2", "--phi", "[[4]]"],
    ["kconnect", "d", "--ell", "3", "--m", "2", "--alpha", "[[[1,5]]]"],
    ["ncl", "compute", "--fixture", str(FIXTURES / "trivial.inst")],
], ids=["imc limit", "imc fitting", "kconnect d", "ncl compute"])
def test_precision_is_refused_where_nothing_reads_it(capsys, argv):
    code, out, _ = _run(capsys, argv)
    assert code == 0 and out
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--precision", "8"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --precision 8" in captured.err


@pytest.mark.parametrize("argv", [
    ["kconnect", "verify", "--ell", "3", "--m", "2", "--phi", "[[4]]",
     "--precision", "0"],
    ["imc", "verify", "--ell", "3", "--m", "2", "--phi", "[[4]]",
     "--precision", "-5"],
    ["lfun", "euler", "--fixture", str(FIXTURES / "trivial.inst"),
     "--precision", "0"],
    ["suite", "run", "--count", "-1"],
    ["suite", "run", "--count", "0"],
], ids=["kconnect verify precision 0", "imc verify precision -5",
        "lfun euler precision 0", "suite run count -1",
        "suite run count 0"])
def test_precision_and_count_below_one_are_input_errors(capsys, argv):
    flag = argv[-2]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"argument {flag}: must be an integer of at least 1, "
            f"not '{argv[-1]}'") in captured.err


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


# z2xgamma stated over Z/9[x]/(x^2 + 1), with every entry a coefficient
# list, plus the character ext: h -> -1, gamma -> x
Z2XGAMMA_GAUSS = """\
format = covering-instance-v1
q = 5
ell = 3
m = 2
omega.minpoly = [1, 0, 1]
group.order = 2
group.table = [[0, 1], [1, 0]]
group.action = [0, 1]
group.action_order = 1
points = [[1, 0, 1], [1, 1, 1], [2, 1, 2], [3, 0, 3]]
sheaf.rank = 1
sheaf.h_images = [[[[1, 0]]], [[[1, 0]]]]
sheaf.gamma = [[[1, 0]]]
rep.ext.rank = 1
rep.ext.h_images = [[[[1, 0]]], [[[8, 0]]]]
rep.ext.gamma = [[[0, 1]]]
rep.sign.rank = 1
rep.sign.h_images = [[[[1, 0]]], [[[8, 0]]]]
rep.sign.gamma = [[[1, 0]]]
rep.signtw.rank = 1
rep.signtw.h_images = [[[[1, 0]]], [[[8, 0]]]]
rep.signtw.gamma = [[[2, 0]]]
rep.triv.rank = 1
rep.triv.h_images = [[[[1, 0]]], [[[1, 0]]]]
rep.triv.gamma = [[[1, 0]]]
subgroup.gsq.h_members = [0, 1]
subgroup.gsq.c = 2
subgroup.hsub.h_members = [0]
subgroup.hsub.c = 1
"""


def test_ncl_verify_over_one_quadratic_ring(tmp_path, capsys):
    """An instance over an extension ring carries its degree-1 data as
    coefficient lists: the shared checks read as on z2xgamma, and the
    character ext, with gamma -> x, is checked too."""
    inst = tmp_path / "gauss.inst"
    inst.write_text(Z2XGAMMA_GAUSS)

    def records(path):
        code, out, _ = _run(capsys, [
            "ncl", "verify", "--fixture", str(path), "--precision", "8",
            "--format", "json-lines"])
        assert code == 0
        return {r["check"]: (r["verdict"], r["left"], r["right"])
                for r in map(json.loads, out.splitlines())}

    gauss = records(inst)
    base = records(FIXTURES / "z2xgamma.inst")
    assert {c: v for c, v in gauss.items() if "[ext]" not in c} == base
    assert all(v[0] == "pass" for v in gauss.values())
    assert gauss["interpolation[ext]"][1] == \
        "1 + (8*x)*T^3 + T^4 + 8*T^6 + (8*x)*T^7"


def test_ncl_verify_skips_the_quotient_by_a_non_normal_subgroup(
        tmp_path, capsys):
    inst = tmp_path / "non_normal.inst"
    inst.write_text(_non_normal_instance())
    code, out, err = _run(capsys, ["ncl", "verify", "--fixture", str(inst)])
    assert code == 0
    assert "subgroup a3 is not normal; quotient check skipped" in err
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("pass") for line in lines)
    assert not any("quotient[" in line for line in lines)


# Wall-clock budget for all ncl commands on one fixture: 10 s for ec_f5
# and 5 s for the others, which measured about 2 s and under 0.5 s on
# 2 vCPUs (CPython 3.11).  ec_f5's evaluate and verify run at precision
# 7, the most its points (through degree 6) support; compute takes no
# precision.
NCL_BUDGET_S = {"ec_f5": 10.0}
NCL_PRECISION = {"ec_f5": ["--precision", "7"]}


@pytest.mark.parametrize(
    "name", ["trivial", "z2xgamma", "z3_semidirect", "s3_gamma", "ec_f5"])
def test_ncl_commands_finish_within_budget(capsys, name):
    path = str(FIXTURES / f"{name}.inst")
    reps = sorted(parse_instance(pathlib.Path(path).read_text()).reps)
    extra = ["--fixture", path, "--format", "json-lines"]
    t0 = time.perf_counter()
    code, out, _ = _run(capsys, ["ncl", "compute"] + extra)
    extra += NCL_PRECISION.get(name, [])
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
