import pathlib

import pytest

import ec_oracle
from nclfun.coeffring import CoeffRing
from nclfun.covering import (
    CohomologySpec,
    CoveringSpec,
    Instance,
    Point,
    SheafSpec,
    parse_instance,
    render_instance,
)
from nclfun.errors import NotASubgroup, ParseError
from nclfun.groupalg import OpenSubgroup, Rep, trivial_rep
from nclfun.lfun import (
    cohomology_from_points,
    compare_series,
    euler_product,
    trace_formula_L,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _load(name):
    text = (FIXTURES / f"{name}.inst").read_text()
    return text, parse_instance(text)


# ---------------------------------------------------------------------------

def test_all_fixtures_parse_and_rerender_byte_identical():
    for name in ("trivial", "z2xgamma", "z3_semidirect", "s3_gamma", "ec_f5"):
        text, inst = _load(name)
        assert render_instance(inst) == text, name


def test_points_complete_through_key():
    text, inst = _load("ec_f5")
    assert inst.covering.complete_through == 6
    assert _load("trivial")[1].covering.complete_through is None
    assert "complete_through" not in render_instance(_load("trivial")[1])
    for bad in ("0", "[6]", "-1"):
        with pytest.raises(ParseError):
            parse_instance(text.replace("points.complete_through = 6",
                                        f"points.complete_through = {bad}"))


def test_trivial_fixture_shape():
    _, inst = _load("trivial")
    assert inst.covering.group.order == 1
    assert inst.covering.q == 5 and inst.covering.ring.ell == 3
    assert sorted(inst.reps) == ["chi", "triv"]
    assert inst.subgroups["gsq"].c == 2
    assert inst.cohomology is None


def test_z2xgamma_has_the_degree_two_twisted_point():
    _, inst = _load("z2xgamma")
    assert (2, 1) in {(p.degree, p.h) for p in inst.covering.points}
    assert sorted(inst.reps) == ["sign", "signtw", "triv"]


def test_z3_semidirect_lives_at_ell_two():
    _, inst = _load("z3_semidirect")
    cov = inst.covering
    assert cov.ring.ell == 2 and cov.ring.m == 3
    assert cov.group.action == (0, 2, 1)
    assert cov.group.action_order == 2
    rho2 = inst.reps["rho2"]
    assert rho2.dim == 2
    # gamma swaps the two eigenlines, matching the inversion action
    ring = rho2.ring
    assert rho2.gamma == ((ring.zero, ring.one), (ring.one, ring.zero))


def test_s3_fixture_subgroups():
    _, inst = _load("s3_gamma")
    assert set(inst.subgroups) == {"a3", "gcube"}
    assert inst.subgroups["a3"].h_members == (0, 1, 2)
    assert inst.subgroups["gcube"].c == 3
    # the span of a single transposition is not alpha-stable
    with pytest.raises(NotASubgroup):
        OpenSubgroup(inst.covering.group, [0, 3], 1)


def test_fixture_dual_route_spot_checks():
    for name in ("trivial", "z2xgamma", "s3_gamma"):
        _, inst = _load(name)
        cov = inst.covering
        left = euler_product(cov, inst.sheaf.rep, 10)
        right = trace_formula_L(cohomology_from_points(cov, inst.sheaf.rep), 10)
        assert compare_series(left, right).equal, name


def test_ec_fixture_regenerates_from_brute_force():
    """The committed file must be exactly what the counting oracle
    produces, cohomology matrices included."""
    text, _ = _load("ec_f5")
    Z9 = CoeffRing(3, 2)
    from nclfun.groupalg import GroupData
    g1 = GroupData([[0]], [0])
    counts = ec_oracle.closed_point_counts(6)
    pts = [Point(d, 0, d) for d in sorted(counts) for _ in range(counts[d])]
    cov = CoveringSpec(5, Z9, g1, pts, complete_through=6)
    coh = CohomologySpec(
        Z9, [0, 1, 2],
        [[[Z9.one]],
         [[Z9.zero, Z9.int_embed(-5)], [Z9.one, Z9.int_embed(2)]],
         [[Z9.int_embed(5)]]])
    reps = {
        "triv": trivial_rep(Z9, g1),
        "chi2": Rep(Z9, g1, [[[Z9.one]]], [[Z9.int_embed(2)]]),
    }
    inst = Instance(cov, SheafSpec(trivial_rep(Z9, g1)), reps, {}, coh)
    assert render_instance(inst) == text


def test_ec_closed_point_counts_frozen():
    assert ec_oracle.closed_point_counts(6) == {
        1: 4, 2: 14, 3: 48, 4: 152, 5: 608, 6: 2536}
