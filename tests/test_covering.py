import pathlib

import pytest

from nclfun.cli import main
from nclfun.covering import (
    CohomologySpec,
    CoveringSpec,
    Point,
    instance_digest,
    parse_instance,
    push_covering_quotient,
    render_instance,
    subcover_points,
)
from nclfun.coeffring import CoeffRing
from nclfun.errors import (
    InvalidGroup,
    InvariantViolation,
    NotASubgroup,
    ParseError,
)
from nclfun.groupalg import (
    GroupData,
    OpenSubgroup,
    subgroup_group_data,
    trivial_rep,
)
from nclfun.ncl import verify_artin_induction

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

GOOD = """\
# a small covering instance used by the parser tests
format = covering-instance-v1
q = 5
ell = 3
m = 2

group.order = 2
group.table = [[0, 1], [1, 0]]
group.action = [0, 1]
group.action_order = 1
points = [[1, 0, 1], [1, 1, 1], [2, 1, 2]]
sheaf.rank = 1
sheaf.h_images = [[[1]], [[1]]]
sheaf.gamma = [[1]]
rep.sign = ...
subgroup.whole.h_members = [0, 1]
subgroup.whole.c = 3
subgroup.gammaonly.h_members = [0]
subgroup.gammaonly.c = 1
"""

GOOD = GOOD.replace(
    "rep.sign = ...",
    "rep.sign.rank = 1\n"
    "rep.sign.h_images = [[[1]], [[-1]]]\n"
    "rep.sign.gamma = [[1]]",
)


def test_parse_good_instance():
    inst = parse_instance(GOOD)
    cov = inst.covering
    assert cov.q == 5 and cov.ring.ell == 3 and cov.ring.m == 2
    assert cov.group.order == 2
    assert [p.degree for p in cov.points] == [1, 1, 2]
    assert inst.sheaf.rep.dim == 1
    assert set(inst.reps) == {"sign"}
    assert inst.reps["sign"].h_images[1] == (((8,),),)
    assert set(inst.subgroups) == {"whole", "gammaonly"}
    assert inst.subgroups["whole"].index == 3
    assert inst.subgroups["gammaonly"].index == 2
    assert inst.cohomology is None


def test_render_is_canonical_and_stable():
    inst = parse_instance(GOOD)
    text = render_instance(inst)
    assert "#" not in text
    assert text.index("subgroup.gammaonly") < text.index("subgroup.whole")
    inst2 = parse_instance(text)
    assert render_instance(inst2) == text
    assert instance_digest(inst) == instance_digest(inst2)
    assert len(instance_digest(inst)) == 64
    # negative residues were reduced
    assert "[[-1]]" not in text and "[[8]]" in text


def test_parse_admissibility_rejection():
    bad = GOOD.replace("[2, 1, 2]", "[2, 1, 1]")
    with pytest.raises(ParseError, match="admissibility"):
        parse_instance(bad)


def test_parse_error_catalogue():
    with pytest.raises(ParseError, match="missing required key 'q'"):
        parse_instance(GOOD.replace("q = 5\n", ""))
    with pytest.raises(ParseError, match="duplicate"):
        parse_instance(GOOD + "q = 5\n")
    with pytest.raises(ParseError, match="unknown key"):
        parse_instance(GOOD + "flavour = 3\n")
    with pytest.raises(ParseError, match="cannot parse"):
        parse_instance(GOOD.replace("q = 5", "q = five"))
    with pytest.raises(ParseError, match="expected 'key = value'"):
        parse_instance(GOOD + "just some words\n")
    with pytest.raises(ParseError, match="matrix"):
        parse_instance(GOOD.replace("sheaf.gamma = [[1]]",
                                    "sheaf.gamma = [[1, 0]]"))
    with pytest.raises(ParseError, match="format"):
        parse_instance("format = covering-instance-v2\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_instance(GOOD.replace("[1, 0, 1]", "[1, 7, 1]"))
    with pytest.raises(ParseError,
                       match=r"subgroup\.whole\.c must be positive"):
        parse_instance(GOOD.replace("subgroup.whole.c = 3",
                                    "subgroup.whole.c = 0"))
    for bad in ("5", "[[1], 1]"):
        with pytest.raises(ParseError,
                           match=r"omega\.minpoly: expected a list of int"):
            parse_instance(GOOD.replace(
                "m = 2\n", f"m = 2\nomega.minpoly = {bad}\n"))


@pytest.mark.parametrize("line, bad", [
    ("sheaf.gamma = [[1]]", "sheaf.gamma = [[True]]"),
    ("q = 5", "q = True"),
    ("rep.sign.h_images = [[[1]], [[-1]]]",
     "rep.sign.h_images = [[[1]], [[False]]]"),
], ids=["sheaf.gamma", "q", "rep.sign.h_images"])
def test_booleans_are_not_integers(line, bad):
    """bool is a subclass of int, but a boolean value is refused, and
    the message names its key."""
    key = bad.split(" = ")[0]
    with pytest.raises(ParseError,
                       match=f"{key}: only integers and bracket lists"):
        parse_instance(GOOD.replace(line, bad))


def test_semantic_errors_keep_their_types():
    with pytest.raises(InvalidGroup):
        parse_instance(GOOD.replace("group.table = [[0, 1], [1, 0]]",
                                    "group.table = [[0, 1], [1, 1]]"))
    with pytest.raises(NotASubgroup):
        parse_instance(GOOD.replace(
            "subgroup.gammaonly.h_members = [0]",
            "subgroup.gammaonly.h_members = [1]"))
    with pytest.raises(InvariantViolation):
        parse_instance(GOOD.replace("q = 5", "q = 6"))   # 3 divides 6


@pytest.mark.parametrize("members, reason", [
    ("[0, 7]", "member h7 out of range"),
    ("[0, -1]", "member h-1 out of range"),
    ("[0, [1]]", "members must be integers"),
])
def test_bad_subgroup_members_are_refused_by_key(members, reason):
    """A member index outside H, past the order or negative, or a member
    that is no integer, is refused, and the message names its key."""
    with pytest.raises(NotASubgroup,
                       match=rf"subgroup\.whole\.h_members: {reason}"):
        parse_instance(GOOD.replace("subgroup.whole.h_members = [0, 1]",
                                    f"subgroup.whole.h_members = {members}"))


@pytest.mark.parametrize("key, bad", [
    ("group.table", "[[0, 1], 1]"),
    ("group.table", "[[0, [1]], [1, 0]]"),
    ("group.action", "1"),
    ("group.order", "[2]"),
    ("group.action_order", "[1]"),
])
def test_group_fields_of_the_wrong_shape_are_refused(key, bad):
    line = next(x for x in GOOD.splitlines() if x.startswith(key + " "))
    with pytest.raises(InvalidGroup, match=rf"{key} must be"):
        parse_instance(GOOD.replace(line, f"{key} = {bad}"))


C3_INVERSION = """\
group.order = 3
group.table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
group.action = [0, 2, 1]
group.action_order = 2
"""


def _with_group(group_text):
    """GOOD with its four group lines replaced by group_text; the rest
    of GOOD does not fit a group of another order, but the group lines
    are checked first."""
    lines = [x for x in GOOD.splitlines(keepends=True)
             if not x.startswith("group.")]
    at = next(i for i, x in enumerate(lines) if x.startswith("points ="))
    return "".join(lines[:at]) + group_text + "".join(lines[at:])


def test_stated_group_order_is_checked_against_the_table():
    with pytest.raises(InvalidGroup) as exc:
        parse_instance(GOOD.replace("group.order = 2", "group.order = 3"))
    assert str(exc.value) == ("group.order 3 disagrees with the table of "
                              "order 2")
    with pytest.raises(InvalidGroup, match="group.order 0 disagrees"):
        parse_instance(GOOD.replace("group.order = 2", "group.order = 0"))


def test_action_order_messages_are_exact():
    """A stated action order that is not a multiple of the true order,
    and a proper multiple of it, each get their own message, naming
    the key."""
    with pytest.raises(InvalidGroup) as exc:
        parse_instance(_with_group(C3_INVERSION.replace(
            "action_order = 2", "action_order = 3")))
    assert str(exc.value) == ("group.action_order: action does not have "
                              "order 3")
    with pytest.raises(InvalidGroup) as exc:
        parse_instance(_with_group(C3_INVERSION.replace(
            "action_order = 2", "action_order = 4")))
    assert str(exc.value) == ("group.action_order 4 is not exact; true "
                              "order is 2")


def test_cohomology_degrees_must_be_integers():
    text = GOOD + ("cohomology.degrees = [[0], 1]\n"
                   "cohomology.matrices = [[[1]], [[2]]]\n")
    with pytest.raises(ParseError,
                       match="cohomology.degrees must be a list of integers"):
        parse_instance(text)
    inst = parse_instance(text.replace("[[0], 1]", "[0, 1]"))
    assert inst.cohomology.degrees == (0, 1)


def test_point_invariants():
    with pytest.raises(InvariantViolation):
        Point(0, 0, 0)
    with pytest.raises(InvariantViolation):
        Point(2, 0, 1)
    p = Point(3, 1, 3)
    assert p.frobenius().a == 3


@pytest.mark.parametrize("text, key", [
    (GOOD + "rep.tw.rank = 1\n"
            "rep.tw.minpoly = [1, 0, 1]\n"
            "rep.tw.h_images = [[[[1, 0]]], [[[1, 0]]]]\n"
            "rep.tw.gamma = [[[0, 1]]]\n", "rep.tw.minpoly"),
    (GOOD.replace("sheaf.rank = 1\n",
                  "sheaf.rank = 1\nsheaf.minpoly = [1, 0, 1]\n"),
     "sheaf.minpoly"),
], ids=["rep", "sheaf"])
def test_per_rep_ring_keys_are_refused(tmp_path, capsys, text, key):
    """Every matrix of an instance is over the ring omega.minpoly
    names: a ring key of the sheaf or of a rep is refused by name
    before its entries are parsed, and through the CLI with exit 2."""
    with pytest.raises(ParseError, match=f"{key}: .*omega.minpoly"):
        parse_instance(text)
    path = tmp_path / "ring.inst"
    path.write_text(text)
    assert main(["lfun", "euler", "--fixture", str(path),
                 "--precision", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert key in err


def _s3_group():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)]

    def comp(p, q):
        return tuple(p[q[i]] for i in range(3))

    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[comp(p, q)] for q in perms] for p in perms]
    action = [idx[comp(comp(perms[1], p), perms[2])] for p in perms]
    return GroupData(table, action)


def test_subcover_through_gamma_index():
    # trivial H, index 2 in the gamma direction: degree-1 points become
    # inert, degree-2 points split
    gd = GroupData([[0]], [0])
    ring = CoeffRing(3, 2)
    cov = CoveringSpec(5, ring, gd, [Point(1, 0, 1), Point(2, 0, 2)])
    U = OpenSubgroup(gd, [0], 2)
    sub, loc = subcover_points(cov, U)
    assert sub.q == 25
    assert [p.degree for p in sub.points] == [1, 1, 1]
    assert loc == [0]


def test_subcover_s3_worked_case():
    gd = _s3_group()
    ring = CoeffRing(3, 2)
    U = OpenSubgroup(gd, [0, 1, 2], 1)
    # a transposition Frobenius merges the two cosets: one inert point
    cov = CoveringSpec(7, ring, gd, [Point(1, 3, 1)])
    sub, _ = subcover_points(cov, U)
    assert [(p.degree, p.h) for p in sub.points] == [(2, 1)]
    # a 3-cycle Frobenius fixes both cosets: two split points, with
    # local Frobenius parts (123) and the identity
    cov2 = CoveringSpec(7, ring, gd, [Point(1, 1, 1)])
    sub2, _ = subcover_points(cov2, U)
    assert [(p.degree, p.h) for p in sub2.points] == [(1, 1), (1, 0)]


def test_subcover_mass_formula():
    gd = _s3_group()
    ring = CoeffRing(3, 2)
    pts = [Point(1, 4, 1), Point(2, 1, 2), Point(3, 5, 3), Point(1, 0, 1)]
    cov = CoveringSpec(7, ring, gd, pts)
    for members, c in [([0, 1, 2], 1), ([0, 1, 2], 3), ([0], 1),
                       ([0, 3], 3), (list(range(6)), 3)]:
        U = OpenSubgroup(gd, members, c)
        sub, _ = subcover_points(cov, U)
        out = list(sub.points)
        for pt in pts:
            share = 0
            take = []
            while out and share < U.index * pt.degree:
                p = out.pop(0)
                take.append(p)
                share += p.degree * c
            assert share == U.index * pt.degree, (members, c, pt)
        assert not out


def test_push_covering_quotient():
    gd = _s3_group()
    ring = CoeffRing(3, 2)
    cov = CoveringSpec(7, ring, gd,
                       [Point(1, 1, 1), Point(2, 4, 2)])
    pushed, proj = push_covering_quotient(cov, [0, 1, 2])
    assert pushed.group.order == 2
    assert [(p.degree, p.h) for p in pushed.points] == [(1, 0), (2, 1)]


def test_subcoverings_and_quotients_keep_complete_through():
    """A point of local degree e over F_(q^c) lies over base points of
    degree at most c*e, so a covering complete through N gives
    subcoverings complete through N // c, None below 1; a quotient keeps
    the points and N.  On ec_f5 (N = 6) that is 3 at c = 2, and 3 is
    tight: no point of local degree 4 is listed, since one would need
    base degree 8.  The artin check at precision 7 reads the
    subcoverings at precision 4 and 3 and passes."""
    inst = parse_instance((FIXTURES / "ec_f5.inst").read_text())
    cov = inst.covering
    assert cov.complete_through == 6
    for c, expect in ((1, 6), (2, 3), (3, 2), (6, 1), (7, None)):
        sub, _ = subcover_points(cov, OpenSubgroup(cov.group, [0], c))
        assert sub.complete_through == expect, c
    sub, _ = subcover_points(cov, OpenSubgroup(cov.group, [0], 2))
    degrees = {p.degree for p in sub.points}
    assert 3 in degrees and 4 not in degrees
    for c in (2, 3):
        U = OpenSubgroup(cov.group, [0], c)
        sub_gd, _ = subgroup_group_data(U)
        out = verify_artin_induction(cov, inst.sheaf, U,
                                     trivial_rep(cov.ring, sub_gd), 7)
        assert out["ok"], c
    pushed, _ = push_covering_quotient(cov, [0])
    assert pushed.complete_through == 6
    unstated = CoveringSpec(cov.q, cov.ring, cov.group, cov.points[:3])
    sub, _ = subcover_points(unstated, OpenSubgroup(cov.group, [0], 2))
    assert sub.complete_through is None
    assert push_covering_quotient(unstated, [0])[0].complete_through is None


def test_cohomology_spec_validation():
    ring = CoeffRing(3, 2)
    CohomologySpec(ring, [0, 1], [[[(1,)]], [[(2,)]]])
    with pytest.raises(InvariantViolation):
        CohomologySpec(ring, [0, 0], [[[(1,)]], [[(2,)]]])
    with pytest.raises(InvariantViolation):
        CohomologySpec(ring, [1, 0], [[[(1,)]], [[(2,)]]])
    with pytest.raises(InvariantViolation):
        CohomologySpec(ring, [0], [[[(1,), (2,)]]])


def test_parse_cohomology_section():
    text = GOOD + (
        "cohomology.degrees = [0, 1]\n"
        "cohomology.matrices = [[[1]], [[0, 7], [1, 2]]]\n"
    )
    inst = parse_instance(text)
    assert inst.cohomology.degrees == (0, 1)
    assert inst.cohomology.matrices[1] == (((0,), (7,)), ((1,), (2,)))
    out = render_instance(inst)
    assert "cohomology.degrees = [0, 1]" in out
    assert parse_instance(out).cohomology.matrices == inst.cohomology.matrices
