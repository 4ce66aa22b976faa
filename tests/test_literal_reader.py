"""The one reader of instance values and inline literals,
covering.parse_literal, against the ast.literal_eval reader it
replaced (tests/literal_oracle.py): equal values on the grammar both
accept, a named refusal of the forms only the old one took, and no
literal_eval call left on the way from a fixture to its points."""

import ast
import pathlib
import random
import re

import pytest

from literal_oracle import literal_oracle
from nclfun.cli import main
from nclfun.covering import Point, parse_instance, parse_literal
from nclfun.errors import ParseError

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
NAMES = ("trivial", "z2xgamma", "z3_semidirect", "s3_gamma", "ec_f5")
# every form here is a literal that ast.literal_eval reads as an int,
# and none is JSON
NON_JSON = ("0x10", "1_000", "+5", "- 5", "00", "(5)", "[1, 2,]")
SPACES = ("", " ", "  ", "\t")


def _value_lines(name):
    """(key, raw) of every value line of a fixture but its format tag."""
    for line in (FIXTURES / f"{name}.inst").read_text().splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key != "format":
                yield key, raw


def _nested(rng, depth):
    """A seeded value and its text, spaced and signed at random."""
    def pad():
        return rng.choice(SPACES)

    if depth == 0 or rng.random() < 0.3:
        v = rng.choice((0, 1, rng.randrange(10 ** 6),
                        2 ** 100 + rng.randrange(9)))
        if rng.random() < 0.5:
            v = -v
            return v, f"-{-v}" if v else "-0"
        return v, str(v)
    items = [_nested(rng, depth - 1) for _ in range(rng.randrange(4))]
    text = ",".join(f"{pad()}{t}{pad()}" for _, t in items)
    return [v for v, _ in items], f"[{pad()}{text}{pad()}]"


def test_fixture_values_decode_as_under_the_old_reader():
    count = 0
    for name in NAMES:
        for key, raw in _value_lines(name):
            assert parse_literal(raw, key) == literal_oracle(raw), (name, key)
            count += 1
    assert count > 60


def test_seeded_nested_lists_decode_as_under_the_old_reader():
    rng = random.Random(2501)
    for _ in range(400):
        value, text = _nested(rng, rng.randrange(1, 6))
        text = f"{rng.choice(SPACES)}{text}{rng.choice(SPACES)}"
        assert parse_literal(text, "v") == literal_oracle(text) == value, text


@pytest.mark.parametrize("form", NON_JSON)
def test_non_json_forms_are_refused_by_key(form):
    """The old reader took each form; the new one refuses it, naming
    the line and the key."""
    literal_oracle(form)
    text = (FIXTURES / "trivial.inst").read_text()
    for line, key in (("q = 5", "q"), ("sheaf.gamma = [[1]]", "sheaf.gamma")):
        value = form if key == "q" else f"[[{form}]]"
        bad = text.replace(line, f"{key} = {value}")
        lineno = bad.splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(ParseError, match=(
                rf"^line {lineno}: {re.escape(key)}: only integers and "
                rf"bracket lists allowed; cannot parse value")):
            parse_instance(bad)


@pytest.mark.parametrize("form", NON_JSON)
def test_non_json_inline_forms_are_input_errors(capsys, form):
    code = main(["imc", "verify", "--ell", "3", "--m", "2",
                 "--phi", f"[[{form}]]"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "--phi" in err and "cannot parse value" in err


def test_fixtures_parse_without_literal_eval(monkeypatch):
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("literal_eval was called")

    monkeypatch.setattr(ast, "literal_eval", refuse)
    for name in NAMES:
        parse_instance((FIXTURES / f"{name}.inst").read_text())
    assert calls == []


def test_repeated_triples_share_one_point():
    raw = dict(_value_lines("ec_f5"))["points"]
    inst = parse_instance((FIXTURES / "ec_f5.inst").read_text())
    points = inst.covering.points
    assert len(points) == 3362
    assert len({id(p) for p in points}) == 6
    assert list(points) == [Point(*t) for t in literal_oracle(raw)]


@pytest.mark.parametrize("points, index", [
    ("[[1, [0], 1]]", 0),
    ("[[1, 0, 1], [[1], 0, 1]]", 1),
    ("[[1, 0, 1], [1, 0]]", 1),
    ("[[1, 0, 1], 5]", 1),
])
def test_malformed_triples_are_named_before_they_are_hashed(points, index):
    text = (FIXTURES / "trivial.inst").read_text().replace(
        "points = [[1, 0, 1], [2, 0, 2], [3, 0, 3]]", f"points = {points}")
    with pytest.raises(ParseError, match=(
            rf"^points\[{index}\]: expected a \[degree, h, gamma_exp\] "
            rf"triple$")):
        parse_instance(text)


def _deep(depth):
    return "[" * depth + "1" + "]" * depth


def test_deep_nesting_is_refused_by_name():
    """Nesting 5 000 deep, past what the JSON decoder recurses through,
    is refused as a ParseError naming the key, as literal_eval refused
    it past 200 levels, and not raised as RecursionError."""
    text = (FIXTURES / "trivial.inst").read_text().replace(
        "sheaf.gamma = [[1]]", f"sheaf.gamma = {_deep(5000)}")
    with pytest.raises(ParseError, match=(
            r"^line 13: sheaf\.gamma: only integers and bracket lists")):
        parse_instance(text)
    with pytest.raises(ParseError, match=r"^--phi: only integers"):
        parse_literal(_deep(5000), "--phi")


def test_deep_nesting_in_a_fixture_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.inst"
    path.write_text((FIXTURES / "trivial.inst").read_text().replace(
        "sheaf.gamma = [[1]]", f"sheaf.gamma = {_deep(5000)}"))
    code = main(["lfun", "euler", "--fixture", str(path), "--precision", "3"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "sheaf.gamma: only integers and bracket lists" in err


def _parse_from_below(frames, raw):
    """parse_literal(raw) called with frames more frames on the stack."""
    if frames:
        return _parse_from_below(frames - 1, raw)
    return parse_literal(raw, "--phi")


def test_nesting_is_bounded_at_200_for_every_caller():
    """200 levels parse and 201 are refused, as under literal_eval,
    whether the call sits at the top of the stack or 100 frames down;
    900 levels, which the JSON decoder would take from the top, are
    refused from both.  JSON whitespace between brackets does not
    count as a level."""
    assert parse_literal(_deep(200), "--phi") == literal_oracle(_deep(200))
    spaced = _deep(300).replace("[", "[\r\n\t ")
    with pytest.raises(ParseError, match=r"^--phi: only integers"):
        parse_literal(spaced, "--phi")
    wide = f"[{_deep(199)}, {_deep(199)}]"       # 399 brackets, 200 deep
    assert parse_literal(wide.replace("[", "[\r\n\t "), "--phi") == (
        literal_oracle(wide))
    with pytest.raises(ValueError):
        literal_oracle(_deep(201))
    for frames in (0, 100):
        assert _parse_from_below(frames, _deep(200)) == literal_oracle(
            _deep(200))
        for depth in (201, 900):
            with pytest.raises(ParseError, match=r"^--phi: only integers"):
                _parse_from_below(frames, _deep(depth))


def test_refusal_quotes_a_bounded_prefix():
    """One bad entry in ec_f5's 37 KB points line is refused with a
    short message: the line, the key and the first 60 characters."""
    text = (FIXTURES / "ec_f5.inst").read_text()
    raw = dict(_value_lines("ec_f5"))["points"]
    bad = "[[+1" + raw[len("[[1"):]
    assert len(bad) > 30000
    with pytest.raises(ParseError, match=(
            r"^line \d+: points: only integers and bracket lists allowed; "
            r"cannot parse value '\[\[\+1, ")) as exc:
        parse_instance(text.replace(raw, bad))
    assert len(str(exc.value)) < 200
    assert str(exc.value).endswith(f"{bad[:60]!r}...")
