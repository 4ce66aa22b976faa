"""Every ring element the package builds is in its one form: a tuple of
D ints, each in [0, M), for the ring (Z/M)[x]/(f) of degree D.

Only the parse boundaries turn ints into ring elements, so the
constructors of polynomials, series, crossed elements, representations
and cohomology take reduced tuples as they are.  This runs the commands
that reach all of them and checks every element each one receives.
"""

import pathlib

import pytest

from nclfun.cli import main
from nclfun.coeffring import Poly, Series
from nclfun.covering import CohomologySpec, CoveringSpec
from nclfun.groupalg import CrossedLaurent, OpenSubgroup, Rep

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GROUP_FIXTURES = ("trivial", "z2xgamma", "z3_semidirect", "s3_gamma")


def _is_reduced(ring, c):
    return (type(c) is tuple and len(c) == ring.deg
            and all(type(t) is int and 0 <= t < ring.modulus for t in c))


def _check_elements(ring, elems, where):
    for c in elems:
        assert _is_reduced(ring, c), f"{where} got {c!r} over {ring!r}"


def _check_matrix(ring, mat, where):
    for row in mat:
        _check_elements(ring, row, where)


def _poly(ring, coeffs):
    _check_elements(ring, coeffs, "Poly")


def _series(ring, prec, coeffs):
    _check_elements(ring, coeffs, "Series")


def _crossed(ring, group, terms=None):
    for a, vec in (terms or {}).items():
        assert type(a) is int, f"CrossedLaurent got exponent {a!r}"
        _check_elements(ring, vec, "CrossedLaurent")


def _rep(ring, group, h_images, gamma, check=True):
    for mat in h_images:
        _check_matrix(ring, mat, "Rep.h_images")
    _check_matrix(ring, gamma, "Rep.gamma")


def _cohomology(ring, degrees, matrices):
    assert all(type(d) is int for d in degrees), degrees
    for mat in matrices:
        _check_matrix(ring, mat, "CohomologySpec")


def _covering(q, ring, group, points, complete_through=None):
    assert type(q) is int, f"CoveringSpec got q = {q!r}"


def _subgroup(group, h_members, c):
    assert type(c) is int, f"OpenSubgroup got c = {c!r}"


CHECKS = {Poly: _poly, Series: _series, CrossedLaurent: _crossed,
          Rep: _rep, CohomologySpec: _cohomology, CoveringSpec: _covering,
          OpenSubgroup: _subgroup}


def test_constructors_receive_only_reduced_tuples(monkeypatch, capsys):
    calls = dict.fromkeys(CHECKS, 0)

    def wrap(cls, check, init):
        def __init__(self, *args, **kwargs):
            # a generator argument would be used up by the check
            args = [list(a) if hasattr(a, "__next__") else a for a in args]
            check(*args, **kwargs)
            calls[cls] += 1
            init(self, *args, **kwargs)
        return __init__

    for cls, check in CHECKS.items():
        monkeypatch.setattr(cls, "__init__", wrap(cls, check, cls.__init__))
    for name in GROUP_FIXTURES:
        path = str(FIXTURES / f"{name}.inst")
        for command in (["lfun", "check"], ["ncl", "verify"]):
            assert main(command + ["--fixture", path]) == 0, (name, command)
    assert main(["suite", "run", "--seed", "7", "--count", "9"]) == 0
    capsys.readouterr()
    assert all(calls.values()), calls
