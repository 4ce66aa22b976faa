"""Each two-route check takes its determinants from two algorithms.

poly_det eliminates fraction free (Bareiss) on packed integers, and
Berkowitz runs over Omega for the characteristic element and the Euler
local factors.  A fault planted in one routine at a time, the constant
term of every determinant of size 2 or more moved by 1, must make
euler-vs-trace, interpolation and mc-commutative each fail or refuse:
a check whose two sides read the same routine would still pass.

Twist, and d_connecting against the Fitting minors, run one routine on
both sides by design and are not in the battery.
"""

import pathlib

import pytest

import nclfun.coeffring as coeffring_mod
import nclfun.limits as limits_mod
from nclfun.coeffring import CoeffRing
from nclfun.covering import parse_instance
from nclfun.errors import NclError
from nclfun.groupalg import tensor_rep
from nclfun.lfun import (
    cohomology_from_points,
    compare_series,
    euler_product,
    trace_formula_L,
)
from nclfun.limits import mc_precision_floor, verify_mc_commutative
from nclfun.linalg import berkowitz_charpoly
from nclfun.ncl import verify_interpolation

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
PREC = 12


def _load(name):
    return parse_instance((FIXTURES / f"{name}.inst").read_text())


def _mc(ring, rows):
    Phi = [[ring.int_embed(a) if isinstance(a, int) else ring.element(a)
            for a in row] for row in rows]
    out = verify_mc_commutative(ring, Phi, mc_precision_floor(ring, len(Phi)))
    return out["ok"]


def _euler_vs_trace(inst, rep_name):
    # s3_gamma's sheaf is rank 1; tensored with std2 its local factors
    # are 2 x 2, so Berkowitz runs at size 2 on the Euler side too
    cov = inst.covering
    rho = tensor_rep(inst.sheaf.rep, inst.reps[rep_name])
    left = euler_product(cov, rho, PREC)
    right = trace_formula_L(cohomology_from_points(cov, rho), PREC)
    return compare_series(left, right).equal


def _interpolation(inst, rep_name):
    return verify_interpolation(inst.covering, inst.sheaf,
                                inst.reps[rep_name], PREC)["ok"]


def _battery():
    """(name, thunk) of each check; a thunk returns whether it passed."""
    s3 = _load("s3_gamma")
    gauss9 = CoeffRing(3, 2, [1, 0, 1])
    return [
        # characteristic element 1 + 8Y + Y^2, a unit: the ideals agree
        # whatever the determinant, only the element comparison can see it
        ("mc[[2,5],[7,1]] over Z/9",
         lambda: _mc(CoeffRing(3, 2), [[2, 5], [7, 1]])),
        ("mc over Z/9[x]/(x^2+1)",
         lambda: _mc(gauss9, [[(1, 1), (2, 0), (0, 1)],
                              [(0, 1), (2, 2), (1, 0)],
                              [(1, 0), (0, 2), (0, 0)]])),
        ("euler-vs-trace s3_gamma x std2",
         lambda: _euler_vs_trace(s3, "std2")),
        ("interpolation s3_gamma std2",
         lambda: _interpolation(s3, "std2")),
        ("interpolation s3_gamma std2tw",
         lambda: _interpolation(s3, "std2tw")),
    ]


def _verdict(thunk):
    try:
        return "pass" if thunk() else "fail"
    except NclError as exc:
        return f"refused ({type(exc).__name__})"


def _bareiss_plus_one(monkeypatch):
    real = coeffring_mod._bareiss_det

    def perturbed(a):
        return real(a) + (len(a) >= 2)

    monkeypatch.setattr(coeffring_mod, "_bareiss_det", perturbed)


def _berkowitz_plus_one(monkeypatch):
    def perturbed(ops, mat):
        cp = berkowitz_charpoly(ops, mat)
        if len(mat) >= 2:
            # c0 + 1, through the one sum every ops object has
            cp[0] = ops.dot((cp[0], ops.one), (ops.one, ops.one))
        return cp

    # every module that calls Berkowitz over Omega
    for mod in (coeffring_mod, limits_mod):
        monkeypatch.setattr(mod, "berkowitz_charpoly", perturbed)


def test_battery_passes_unperturbed():
    verdicts = {name: _verdict(thunk) for name, thunk in _battery()}
    assert set(verdicts.values()) == {"pass"}, verdicts


@pytest.mark.parametrize("perturb", [_bareiss_plus_one, _berkowitz_plus_one],
                         ids=["bareiss", "berkowitz"])
def test_a_fault_in_one_determinant_routine_is_seen(monkeypatch, perturb):
    battery = _battery()
    perturb(monkeypatch)
    verdicts = {name: _verdict(thunk) for name, thunk in battery}
    assert "pass" not in verdicts.values(), verdicts
