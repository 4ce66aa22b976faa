"""Seeded mutations of the group fixtures and of inline matrix
literals, run through the CLI.

Each fixture mutant is a fixture's text with one edit: a line deleted, a
digit changed or negated, a `[` dropped, or an entry appended to a list.
Every fixture command must end with exit 0, 1 or 2 and no uncaught
exception.  An exit 1 must come with a `fail` record or with a refusal
that names an error class of nclfun.errors.  A mutant that parses never
gets a `fail`: these fixtures store no cohomology, so every check the
commands run on one is a theorem about its points.

Each inline mutant edits one --phi, --alpha, --beta or --minpoly literal
the same way, with a line deletion replaced by inserting `[]` or `[0]`.
The imc and kconnect checks are theorems for any well-formed input, so
no mutant may get a `fail` at all: it is accepted, refused with a named
error class (exit 1), or an input error (exit 2).
"""

import pathlib
import random
import re

from nclfun import errors
from nclfun.cli import main
from nclfun.covering import parse_instance
from nclfun.errors import NclError

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GROUP_FIXTURES = ("trivial", "z2xgamma", "z3_semidirect", "s3_gamma")
COMMANDS = (["lfun", "euler", "--precision", "4"],
            ["lfun", "trace", "--precision", "4"],
            ["lfun", "check", "--precision", "4"],
            ["ncl", "compute"],
            ["ncl", "verify", "--precision", "4"])
# about 1 s on 2 vCPUs (CPython 3.11)
MUTANTS = 48
FIXTURE_EDITS = ("delete", "digit", "negate", "bracket", "append")
INLINE_EDITS = ("insert", "digit", "negate", "bracket", "append")
# (command, literal flags) over Z/9, or over Z/9[x]/(x^2 + 1) when
# --minpoly is among the flags; each run mutates one literal
INLINE_CASES = [
    (["imc", sub], {"--phi": "[[4, 3], [0, 1]]"})
    for sub in ("limit", "fitting", "verify")
] + [
    (["imc", sub],
     {"--minpoly": "[1, 0, 1]", "--phi": "[[[1, 3], 0], [3, [0, 1]]]"})
    for sub in ("limit", "fitting", "verify")
] + [
    (["kconnect", "d"], {"--alpha": "[[[1, 5], [3]], [[0], [1, 1]]]"}),
    (["kconnect", "d"],
     {"--minpoly": "[1, 0, 1]", "--alpha": "[[[[1, 1], 3]]]"}),
    (["kconnect", "verify"],
     {"--alpha": "[[[1, 5], [3]], [[0], [1, 1]]]",
      "--beta": "[[[1], [0, 3]], [[2], [4, 1]]]"}),
    (["kconnect", "verify"],
     {"--minpoly": "[1, 0, 1]", "--phi": "[[[0, 1], 3], [1, 4]]"}),
]
# about 0.5 s on 2 vCPUs (CPython 3.11)
INLINE_MUTANTS = 150


def _mutate(rng, text, edits):
    kind = rng.choice(edits)
    if kind == "insert":
        i = rng.choice([m.end() for m in re.finditer(r"\[", text)])
        return f"{text[:i]}{rng.choice(('[]', '[0]'))}, {text[i:]}"
    if kind == "delete":
        lines = text.splitlines(keepends=True)
        del lines[rng.randrange(len(lines))]
        return "".join(lines)
    if kind == "bracket":
        i = rng.choice([m.start() for m in re.finditer(r"\[", text)])
        return text[:i] + text[i + 1:]
    if kind == "append":
        i = rng.choice([m.start() for m in re.finditer(r"\]", text)])
        return f"{text[:i]}, {rng.randrange(10)}{text[i:]}"
    number = rng.choice(list(re.finditer(r"\d+", text)))
    if kind == "negate":
        i = number.start()
        return text[:i] + "-" + text[i:]
    i = rng.randrange(number.start(), number.end())
    return text[:i] + str(rng.randrange(10)) + text[i + 1:]


def _parses(text):
    try:
        parse_instance(text)
    except NclError:
        return False
    return True


def test_mutated_fixtures_exit_cleanly_and_never_fail(tmp_path, capsys):
    rng = random.Random(20)
    texts = {name: (FIXTURES / f"{name}.inst").read_text()
             for name in GROUP_FIXTURES}
    path = tmp_path / "mutant.inst"
    codes = set()
    for _ in range(MUTANTS):
        text = _mutate(rng, texts[rng.choice(GROUP_FIXTURES)],
                       FIXTURE_EDITS)
        path.write_text(text)
        parses = _parses(text)
        for command in COMMANDS:
            code = main(command + ["--fixture", str(path)])
            out, err = capsys.readouterr()
            where = (command, text)
            assert code in (0, 1, 2), where
            fails = [line for line in out.splitlines()
                     if line.startswith("fail")]
            if code == 1 and not fails:
                refused = re.search(r"computation refused: (\w+):", err)
                assert refused and refused.group(1) in errors.__all__, where
            assert not (parses and fails), where
            codes.add(code)
    # the seed reaches both accepted and refused mutants
    assert {0, 2} <= codes


def test_mutated_inline_literals_exit_cleanly_and_never_fail(capsys):
    rng = random.Random(21)
    codes = set()
    for _ in range(INLINE_MUTANTS):
        command, flags = rng.choice(INLINE_CASES)
        flags = dict(flags)
        flag = rng.choice(sorted(flags))
        flags[flag] = _mutate(rng, flags[flag], INLINE_EDITS)
        argv = command + ["--ell", "3", "--m", "2"]
        for item in flags.items():
            argv += item
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 1:
            refused = re.search(r"computation refused: (\w+):", err)
            assert refused and refused.group(1) in errors.__all__, argv
        assert not any(line.startswith("fail")
                       for line in out.splitlines()), argv
        codes.add(code)
    # the seed reaches both accepted and refused mutants
    assert {0, 2} <= codes
