import copy
import pathlib
import random

import pytest

from nclfun import ncl
from nclfun.coeffring import (
    CoeffRing,
    Poly,
    RationalFunction,
    Series,
    is_in_P,
    mat_mul_omega,
    poly_det,
)
from nclfun.covering import (
    CoveringSpec,
    Point,
    SheafSpec,
    parse_instance,
    push_covering_quotient,
)
from nclfun.errors import (
    ConventionOverflow,
    InvariantViolation,
    NotSQuasiIso,
    SingularEvaluation,
    WrongGroup,
)
from nclfun.groupalg import (
    CrossedLaurent,
    GElement,
    GroupData,
    OpenSubgroup,
    Rep,
    quotient_by_normal,
    tensor_rep,
    trivial_rep,
)
from nclfun.lfun import cohomology_from_points, euler_product
from nclfun.ncl import (
    K1Class,
    ncl_evaluate,
    ncl_from_cohomology,
    ncl_from_points,
    ncl_push_quotient,
    ncl_twist,
    theta_matrix,
    verify_artin_induction,
    verify_interpolation,
    verify_quotient,
    verify_twist,
)
from nclfun.randcases import random_instance

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

Z9 = CoeffRing(3, 2)


def _cyclic(n, action=None):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    if action is None:
        action = list(range(n))
    return GroupData(table, action)


_S3_PERMS = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)]


def _s3():
    def comp(p, q):
        return tuple(p[q[i]] for i in range(3))

    idx = {p: i for i, p in enumerate(_S3_PERMS)}
    table = [[idx[comp(p, q)] for q in _S3_PERMS] for p in _S3_PERMS]
    c, cinv = _S3_PERMS[1], _S3_PERMS[2]
    action = [idx[comp(comp(c, p), cinv)] for p in _S3_PERMS]
    return GroupData(table, action)


def _s3_sign(gd):
    one = [[Z9.one]]
    neg = [[Z9.int_embed(-1)]]
    return Rep(Z9, gd, [one, one, one, neg, neg, neg], one)


def _s3_std2(gd):
    C = [[Z9.int_embed(-1), Z9.int_embed(-1)],
         [Z9.int_embed(1), Z9.int_embed(0)]]
    Tm = [[Z9.int_embed(0), Z9.int_embed(1)], [Z9.int_embed(1), Z9.int_embed(0)]]
    I2 = [[Z9.one, Z9.zero], [Z9.zero, Z9.one]]
    CC = mat_mul_omega(Z9, C, C)
    imgs = [I2, C, CC, Tm, mat_mul_omega(Z9, C, Tm), mat_mul_omega(Z9, Tm, C)]
    return Rep(Z9, gd, imgs, C)


def _char_rep(ring, group, zeta_int, gamma_int):
    n = group.order
    zeta = ring.int_embed(zeta_int)
    images = []
    acc = ring.one
    for _ in range(n):
        images.append([[acc]])
        acc = ring.mul(acc, zeta)
    return Rep(ring, group, images, [[ring.int_embed(gamma_int)]])


def _cov(group, points, q=5):
    return CoveringSpec(q, Z9, group, points)


# --- construction and evaluation basics


def test_single_point_class_evaluates_to_geometric_series():
    g = _cyclic(1)
    cov = _cov(g, [Point(1, 0, 1)])
    k1 = ncl_from_points(cov, SheafSpec(trivial_rep(Z9, g)))
    rf = ncl_evaluate(k1, trivial_rep(Z9, g))
    assert rf == RationalFunction(Poly.one(Z9), Poly.from_ints(Z9, [1, -1]))


def test_class_factor_count_matches_points():
    g = _cyclic(2)
    cov = _cov(g, [Point(1, 0, 1), Point(2, 1, 2), Point(1, 1, 1)])
    k1 = ncl_from_points(cov, SheafSpec(_char_rep(Z9, g, -1, 1)))
    assert len(k1.factors) == 3
    assert all(e == -1 for _, e in k1.factors)


def test_k1_rejects_non_invertible_factor():
    g = _cyclic(2)
    e0 = CrossedLaurent.monomial(Z9, g, GElement(0, 0))
    h1 = CrossedLaurent.monomial(Z9, g, GElement(1, 0))
    with pytest.raises(NotSQuasiIso):
        K1Class(Z9, g, [([[e0 - h1]], -1)])


def test_k1_rejects_bad_exponent_and_shape():
    g = _cyclic(1)
    e0 = CrossedLaurent.one(Z9, g)
    with pytest.raises(InvariantViolation):
        K1Class(Z9, g, [([[e0]], 2)])
    with pytest.raises(InvariantViolation):
        K1Class(Z9, g, [([[e0, e0]], -1)])


def test_singular_evaluation_raises():
    g = _cyclic(2)
    e0 = CrossedLaurent.monomial(Z9, g, GElement(0, 0))
    h1 = CrossedLaurent.monomial(Z9, g, GElement(1, 0))
    # augmentation collapses e + h to 2, a unit, so construction passes
    k1 = K1Class(Z9, g, [([[e0 + h1]], -1)])
    sign = _char_rep(Z9, g, -1, 1)
    with pytest.raises(SingularEvaluation):
        ncl_evaluate(k1, sign)
    # as a numerator factor the zero determinant is fine
    k2 = K1Class(Z9, g, [([[e0 + h1]], 1)])
    assert ncl_evaluate(k2, sign).num.is_zero()


def _rational_mul(a, b):
    return RationalFunction(a.num * b.num, a.den * b.den)


def test_product_and_inverse_of_classes():
    g = _cyclic(1)
    cov = _cov(g, [Point(1, 0, 1), Point(2, 0, 2)])
    k1 = ncl_from_points(cov, SheafSpec(trivial_rep(Z9, g)))
    rho = _char_rep(Z9, g, 1, 2)
    prod = k1 * k1.inverse()
    rf = ncl_evaluate(prod, rho)
    one = RationalFunction(Poly.one(Z9), Poly.one(Z9))
    assert rf == one
    assert _rational_mul(ncl_evaluate(k1, rho),
                         ncl_evaluate(k1.inverse(), rho)) == one


# --- cohomology route


def test_cohomology_route_requires_trivial_finite_layer():
    g = _cyclic(2)
    cov = _cov(g, [Point(1, 0, 1)])
    coh = cohomology_from_points(_cov(_cyclic(1), [Point(1, 0, 1)]),
                                 trivial_rep(Z9, _cyclic(1)))
    with pytest.raises(WrongGroup):
        ncl_from_cohomology(cov, coh)


def test_cohomology_and_point_classes_evaluate_equal():
    g = _cyclic(1)
    rng = random.Random(5)
    for _ in range(6):
        pts = []
        for _ in range(rng.randrange(1, 4)):
            d = rng.randrange(1, 4)
            pts.append(Point(d, 0, d))
        cov = _cov(g, pts)
        sheaf = SheafSpec(_char_rep(Z9, g, 1, rng.choice([1, 2, 4, 5, 7, 8])))
        coh = cohomology_from_points(cov, sheaf.rep)
        ka = ncl_from_points(cov, sheaf)
        kb = ncl_from_cohomology(cov, coh)
        for u in (1, 2, 8):
            rho = _char_rep(Z9, g, 1, u)
            assert ncl_evaluate(ka, rho) == ncl_evaluate(kb, rho)


def test_cohomology_sign_convention_odd_degrees_in_numerator():
    from nclfun.covering import CohomologySpec
    g = _cyclic(1)
    cov = _cov(g, [Point(1, 0, 1)])
    coh = CohomologySpec(Z9, [0, 1], [[[Z9.int_embed(2)]], [[Z9.int_embed(5)]]])
    k1 = ncl_from_cohomology(cov, coh)
    rf = ncl_evaluate(k1, trivial_rep(Z9, g))
    assert rf.num == Poly.from_ints(Z9, [1, -5])
    assert rf.den == Poly.from_ints(Z9, [1, -2])


# --- interpolation, twist, quotient, induction drivers


def test_interpolation_c2_sign():
    g = _cyclic(2)
    cov = _cov(g, [Point(1, 1, 1), Point(1, 0, 1), Point(2, 1, 2)])
    sheaf = SheafSpec(_char_rep(Z9, g, -1, 1))
    for rho in (trivial_rep(Z9, g), _char_rep(Z9, g, -1, 2)):
        out = verify_interpolation(cov, sheaf, rho, 20)
        assert out["ok"], out


def test_interpolation_s3_two_dim():
    gd = _s3()
    cov = _cov(gd, [Point(1, 0, 1), Point(1, 3, 1), Point(2, 1, 2)])
    sheaf = SheafSpec(_s3_sign(gd))
    out = verify_interpolation(cov, sheaf, _s3_std2(gd), 16)
    assert out["ok"], out


def test_twist_coherence():
    g = _cyclic(2)
    cov = _cov(g, [Point(1, 1, 1), Point(2, 0, 2)])
    sheaf = SheafSpec(_char_rep(Z9, g, -1, 1))
    twist = _char_rep(Z9, g, 1, 2)
    for rho in (trivial_rep(Z9, g), _char_rep(Z9, g, -1, 4)):
        out = verify_twist(cov, sheaf, twist, rho, 16)
        assert out["ok"], out


def test_quotient_push_s3_to_c2():
    gd = _s3()
    cov = _cov(gd, [Point(1, 3, 1), Point(1, 1, 1), Point(2, 4, 2)])
    sheaf = SheafSpec(_s3_sign(gd))
    cov_q, proj = push_covering_quotient(cov, [0, 1, 2])
    assert cov_q.group.order == 2 and proj == [0, 0, 0, 1, 1, 1]
    k1_q = ncl_push_quotient(ncl_from_points(cov, sheaf), cov_q.group, proj)
    # the sign character descends to the character -1 of S3 / A3
    rho_q = _char_rep(Z9, cov_q.group, -1, 1)
    assert k1_q == ncl_from_points(cov_q, SheafSpec(rho_q))
    out = verify_quotient(cov, sheaf, [0, 1, 2], rho_q, 16)
    assert out["ok"] and out["factors_match"], out


def test_quotient_rejects_non_factoring_sheaf(monkeypatch):
    def refuse(cov, members):
        raise AssertionError("covering pushed before the sheaf was checked")

    gd = _s3()
    cov = _cov(gd, [Point(1, 3, 1)])
    rho_q = trivial_rep(Z9, quotient_by_normal(gd, [0, 1, 2])[0])
    monkeypatch.setattr(ncl, "push_covering_quotient", refuse)
    with pytest.raises(InvariantViolation,
                       match="sheaf does not factor through the quotient"):
        verify_quotient(cov, SheafSpec(_s3_std2(gd)), [0, 1, 2], rho_q, 8)


def test_quotient_push_respects_products():
    gd = _s3()
    cov = _cov(gd, [Point(1, 3, 1), Point(1, 1, 1), Point(2, 4, 2)])
    k1 = ncl_from_points(cov, SheafSpec(_s3_sign(gd)))
    k2 = ncl_from_points(_cov(gd, [Point(1, 4, 1), Point(3, 2, 3)]),
                         SheafSpec(trivial_rep(Z9, gd)))
    qd, proj = quotient_by_normal(gd, [0, 1, 2])
    unit = ncl_push_quotient(k1 * k1.inverse(), qd, proj)
    assert ncl_evaluate(unit, trivial_rep(Z9, qd)) == \
        RationalFunction(Poly.one(Z9), Poly.one(Z9))
    assert ncl_push_quotient(k1 * k2, qd, proj) == \
        ncl_push_quotient(k1, qd, proj) * ncl_push_quotient(k2, qd, proj)


def test_verify_quotient_pushes_once_and_builds_the_class_once(monkeypatch):
    push, build = ncl.push_covering_quotient, ncl.ncl_from_points
    pushed, built = [], []

    def counting_push(cov, members):
        pushed.append(push(cov, members))
        return pushed[-1]

    def counting_build(cov, sheaf):
        built.append((cov, sheaf))
        return build(cov, sheaf)

    monkeypatch.setattr(ncl, "push_covering_quotient", counting_push)
    monkeypatch.setattr(ncl, "ncl_from_points", counting_build)
    checks = 0
    for name in ("z2xgamma", "z3_semidirect", "s3_gamma"):
        inst = parse_instance((FIXTURES / f"{name}.inst").read_text())
        cov, sheaf = inst.covering, inst.sheaf
        for U in inst.subgroups.values():
            if U.c != 1 or len(U.h_members) == cov.group.order:
                continue
            qd, _ = quotient_by_normal(cov.group, U.h_members)
            pushed.clear()
            built.clear()
            out = verify_quotient(cov, sheaf, U.h_members,
                                  trivial_rep(cov.ring, qd), 8)
            assert out["ok"] and out["factors_match"], (name, out)
            assert len(pushed) == 1, name
            assert len(built) == 2, name
            assert built[0][0] is cov and built[0][1] is sheaf
            assert built[1][0] is pushed[0][0]
            checks += 1
    assert checks == 3


def test_artin_induction_gamma_index_two():
    g = _cyclic(1)
    U = OpenSubgroup(g, [0], 2)
    cov = _cov(g, [Point(1, 0, 1), Point(2, 0, 2), Point(3, 0, 3)])
    sheaf = SheafSpec(trivial_rep(Z9, g))
    from nclfun.groupalg import subgroup_group_data
    sub_gd, _ = subgroup_group_data(U)
    out = verify_artin_induction(cov, sheaf, U, trivial_rep(Z9, sub_gd), 16)
    assert out["ok"], out


def test_artin_induction_s3_a3():
    gd = _s3()
    U = OpenSubgroup(gd, [0, 1, 2], 1)
    cov = _cov(gd, [Point(1, 3, 1), Point(2, 1, 2), Point(1, 0, 1)])
    sheaf = SheafSpec(_s3_sign(gd))
    from nclfun.groupalg import subgroup_group_data
    sub_gd, _ = subgroup_group_data(U)
    rho_sub = _char_rep(Z9, sub_gd, 4, 1)  # 4 is a cube root of 1 mod 9
    out = verify_artin_induction(cov, sheaf, U, rho_sub, 14)
    assert out["ok"], out


def test_evaluate_rejects_wrong_group_rep():
    g = _cyclic(1)
    cov = _cov(g, [Point(1, 0, 1)])
    k1 = ncl_from_points(cov, SheafSpec(trivial_rep(Z9, g)))
    with pytest.raises(InvariantViolation):
        ncl_evaluate(k1, trivial_rep(Z9, _cyclic(2)))


# --- grouped class paths against their per-factor and per-point loops


def _evaluate_per_factor(k1, rho):
    """One determinant per listed factor, multiplied in order."""
    ring = rho.ring
    num = den = Poly.one(ring)
    for mat, exp in k1.factors:
        det = poly_det(theta_matrix(mat, rho), ring)
        if exp == 1:
            num = num * det
        else:
            if not is_in_P(det):
                raise SingularEvaluation("singular denominator")
            den = den * det
    return num, den


def _class_per_point(cov, sheaf):
    """One crossed matrix built per listed point."""
    rep, gd = sheaf.rep, cov.group
    ring = rep.ring
    factors = []
    for pt in cov.points:
        sig = pt.frobenius()
        ginv = gd.g_inv(sig)
        A = rep.of(sig)
        mat = []
        for i in range(rep.dim):
            row = []
            for j in range(rep.dim):
                e = CrossedLaurent.monomial(ring, gd, ginv, A[i][j])
                row.append(CrossedLaurent.one(ring, gd) - e if i == j else -e)
            mat.append(row)
        factors.append((mat, -1))
    return K1Class(ring, gd, factors)


def _k1_rendering(k1):
    return repr([(exp, [[sorted(x.terms.items()) for x in row]
                        for row in mat])
                 for mat, exp in k1.factors])


def _assert_grouped_evaluation(k1, rho):
    rf = ncl_evaluate(k1, rho)
    assert (rf.num, rf.den) == _evaluate_per_factor(k1, rho)


def test_grouped_evaluation_matches_per_factor_with_mixed_exponents():
    g = _cyclic(2)
    cov = _cov(g, [Point(1, 1, 1), Point(2, 0, 2), Point(1, 1, 1),
                   Point(3, 1, 3), Point(1, 1, 1), Point(2, 0, 2)])
    k1 = ncl_from_points(cov, SheafSpec(_char_rep(Z9, g, -1, 2)))
    for k in (k1, k1 * k1 * k1.inverse(), k1.inverse() * k1 * k1.inverse()):
        for rho in (trivial_rep(Z9, g), _char_rep(Z9, g, -1, 4)):
            _assert_grouped_evaluation(k, rho)
    gd = _s3()
    cov = _cov(gd, [Point(1, 3, 1), Point(2, 1, 2), Point(1, 3, 1),
                    Point(1, 0, 1), Point(2, 1, 2), Point(1, 3, 1)])
    k1 = ncl_from_points(cov, SheafSpec(_s3_sign(gd)))
    _assert_grouped_evaluation(k1 * k1 * k1.inverse(), _s3_std2(gd))


def test_grouped_evaluation_on_s3_gamma_two_dim_reps():
    inst = parse_instance((FIXTURES / "s3_gamma.inst").read_text())
    pts = inst.covering.points
    cov = CoveringSpec(inst.covering.q, inst.covering.ring,
                       inst.covering.group, pts + pts[:2] + pts[:1])
    k1 = ncl_from_points(cov, inst.sheaf)
    assert len(k1.factors) == len(pts) + 3
    for name in ("std2", "std2tw"):
        rho = inst.reps[name]
        assert rho.dim == 2
        _assert_grouped_evaluation(k1 * k1 * k1.inverse(), rho)


def test_k1_check_rejects_repeated_bad_factor():
    g = _cyclic(2)
    e0 = CrossedLaurent.monomial(Z9, g, GElement(0, 0))
    h1 = CrossedLaurent.monomial(Z9, g, GElement(1, 0))
    good = [[e0 + h1]]
    bad = [[e0 - h1]]
    for factors in ([(bad, -1), (bad, -1)],
                    [(good, -1), (good, 1), (bad, -1)],
                    [(good, -1), (bad, 1), (good, -1), (bad, -1)]):
        with pytest.raises(NotSQuasiIso):
            K1Class(Z9, g, factors)
    assert len(K1Class(Z9, g, [(good, -1)] * 3).factors) == 3


def test_singular_evaluation_raises_for_repeated_denominator():
    g = _cyclic(2)
    e0 = CrossedLaurent.monomial(Z9, g, GElement(0, 0))
    h1 = CrossedLaurent.monomial(Z9, g, GElement(1, 0))
    sign = _char_rep(Z9, g, -1, 1)
    with pytest.raises(SingularEvaluation):
        ncl_evaluate(K1Class(Z9, g, [([[e0 + h1]], -1)] * 3), sign)
    k2 = K1Class(Z9, g, [([[e0 + h1]], 1)] * 2 + [([[e0 + h1]], -1)])
    with pytest.raises(SingularEvaluation):
        ncl_evaluate(k2, sign)
    assert ncl_evaluate(K1Class(Z9, g, [([[e0 + h1]], 1)] * 3),
                        sign).num.is_zero()


def test_class_from_points_on_ec_f5_matches_per_point_build():
    inst = parse_instance((FIXTURES / "ec_f5.inst").read_text())
    k1 = ncl_from_points(inst.covering, inst.sheaf)
    assert len(k1.factors) == 3362
    ref = _class_per_point(inst.covering, inst.sheaf)
    assert _k1_rendering(k1) == _k1_rendering(ref)
    assert k1 == ref


# --- memoised class construction and evaluation


def _deep_copied(k1):
    """The factors of k1 as fresh matrix objects, one per factor, over
    the same ring and group objects."""
    keep = {id(k1.ring): k1.ring, id(k1.group): k1.group}
    return [(copy.deepcopy(mat, dict(keep)), exp) for mat, exp in k1.factors]


def test_shared_and_copied_factors_give_equal_classes(monkeypatch):
    gd = _s3()
    cov = _cov(gd, [Point(1, 3, 1), Point(2, 1, 2), Point(1, 3, 1),
                    Point(1, 0, 1), Point(2, 1, 2), Point(1, 3, 1)])
    shared = ncl_from_points(cov, SheafSpec(_s3_sign(gd)))
    assert len({id(mat) for mat, _ in shared.factors}) == 3
    copied = K1Class(Z9, gd, _deep_copied(shared))
    # six fresh objects, interned to the three distinct matrices
    assert len({id(mat) for mat, _ in copied.factors}) == 3
    assert copied.factors == shared.factors
    assert copied == shared
    for rho in (_s3_sign(gd), _s3_std2(gd)):
        assert ncl_evaluate(copied, rho) == ncl_evaluate(shared, rho)
        assert ncl_evaluate(copied, rho, 9) == ncl_evaluate(shared, rho, 9)
    # evaluation takes one determinant per distinct (matrix, exponent):
    # in the mixed class each matrix comes with -1 and with +1
    mixed = shared * shared * shared.inverse()
    dets = []
    det = ncl.poly_det

    def counted(mat, ring):
        dets.append(mat)
        return det(mat, ring)

    monkeypatch.setattr(ncl, "poly_det", counted)
    for k1, distinct in ((copied, 3), (mixed, 6)):
        for prec in (None, 9):
            dets.clear()
            ncl_evaluate(k1, _s3_std2(gd), prec)
            assert len(dets) == distinct


def test_k1_validates_every_factor_object():
    g = _cyclic(2)
    e0 = CrossedLaurent.monomial(Z9, g, GElement(0, 0))
    h1 = CrossedLaurent.monomial(Z9, g, GElement(1, 0))
    good = [[e0 + h1]]
    bad_entry = [[Z9.one]]
    other_group = [[CrossedLaurent.one(Z9, _cyclic(3))]]
    for bad in (bad_entry, other_group):
        with pytest.raises(InvariantViolation):
            K1Class(Z9, g, [(bad, -1)] * 3)
        with pytest.raises(InvariantViolation):
            K1Class(Z9, g, [(good, -1)] * 2 + [(bad, -1)] * 2, check=False)
    # fresh objects from a generator: a freed good matrix must not lend
    # its id to the bad one that follows
    with pytest.raises(InvariantViolation):
        K1Class(Z9, g, (([[e0 + h1]] if k < 8 else [[e0 + h1, e0]], -1)
                        for k in range(9)))


def test_k1_checks_each_distinct_matrix_once(monkeypatch):
    g = _cyclic(2)
    e0 = CrossedLaurent.monomial(Z9, g, GElement(0, 0))
    h1 = CrossedLaurent.monomial(Z9, g, GElement(1, 0))
    checked = []
    collapse = ncl._augmentation_poly_matrix

    def counted(ring, mat):
        checked.append(mat)
        return collapse(ring, mat)

    monkeypatch.setattr(ncl, "_augmentation_poly_matrix", counted)
    good = [[e0 + h1]]
    bad = [[e0 - h1]]
    factors = [(good, -1)] * 3 + [(copy.deepcopy(good), 1) for _ in range(3)]
    K1Class(Z9, g, factors)
    assert len(checked) == 1
    checked.clear()
    factors += [(bad, -1)] * 2 + [(copy.deepcopy(bad), -1) for _ in range(2)]
    with pytest.raises(NotSQuasiIso):
        K1Class(Z9, g, factors)
    assert len(checked) == 2


def test_k1_refuses_a_surviving_positive_gamma_power():
    g = _cyclic(2)
    e0 = CrossedLaurent.one(Z9, g)
    gamma = CrossedLaurent.monomial(Z9, g, GElement(0, 1))
    h_gamma = CrossedLaurent.monomial(Z9, g, GElement(1, 1))
    with pytest.raises(ConventionOverflow):
        K1Class(Z9, g, [([[e0 + gamma]], -1)])
    # the gamma^1 coefficients sum to zero under H -> 1: the entry
    # collapses to 1
    assert len(K1Class(Z9, g, [([[e0 + gamma - h_gamma]], -1)]).factors) == 1


# --- evaluation mod T^prec


def test_truncated_evaluation_equals_exact_expansion():
    rng = random.Random(67)
    degrees = set()
    for _ in range(14):
        cov, sheaf = random_instance(rng, rng.choice((3, 5)), max_h=6,
                                     max_points=5, max_degree=3, max_rank=2)
        ring = cov.ring
        degrees.add(ring.deg)
        k1 = ncl_from_points(cov, sheaf)
        for k in (k1, k1 * k1 * k1.inverse()):
            for rho in (trivial_rep(ring, cov.group), sheaf.rep):
                exact = ncl_evaluate(k, rho)
                for prec in (1, 6, 20):
                    got = ncl_evaluate(k, rho, prec)
                    assert isinstance(got, Series)
                    assert got == exact.expand(prec), (ring, prec)
    assert degrees == {1, 2}


def test_singular_evaluation_raises_with_precision():
    g = _cyclic(2)
    e0 = CrossedLaurent.monomial(Z9, g, GElement(0, 0))
    h1 = CrossedLaurent.monomial(Z9, g, GElement(1, 0))
    sign = _char_rep(Z9, g, -1, 1)
    for prec in (1, 8):
        with pytest.raises(SingularEvaluation):
            ncl_evaluate(K1Class(Z9, g, [([[e0 + h1]], -1)] * 3), sign, prec)
    assert ncl_evaluate(K1Class(Z9, g, [([[e0 + h1]], 1)]), sign, 8) == \
        Series(Z9, 8, [])


def test_verify_drivers_never_expand_exact_evaluations(monkeypatch):
    def refuse(self, prec):
        raise AssertionError("exact evaluation expanded")

    monkeypatch.setattr(RationalFunction, "expand", refuse)
    gd = _s3()
    cov = _cov(gd, [Point(1, 3, 1), Point(1, 1, 1), Point(2, 4, 2)])
    sheaf = SheafSpec(_s3_sign(gd))
    assert verify_interpolation(cov, sheaf, _s3_std2(gd), 12)["ok"]
    assert verify_twist(cov, sheaf, _s3_sign(gd), _s3_std2(gd), 12)["ok"]
    qd, _ = quotient_by_normal(gd, [0, 1, 2])
    rho_q = _char_rep(Z9, qd, -1, 1)
    assert verify_quotient(cov, sheaf, [0, 1, 2], rho_q, 12)["ok"]
