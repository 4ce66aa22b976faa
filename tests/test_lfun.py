import pathlib
import random

import pytest

from nclfun.coeffring import (
    CoeffRing,
    Poly,
    PolyOps,
    Series,
    det_one_minus_scaled,
    mat_identity_omega,
    mat_inverse_omega,
    render_poly_terms,
    series_invert,
)
from nclfun.covering import CohomologySpec, CoveringSpec, Point, parse_instance
from nclfun.errors import InvariantViolation
from nclfun.groupalg import GroupData, Rep, trivial_rep
from nclfun.lfun import (
    cohomology_from_points,
    compare_series,
    det_one_minus_matrix,
    euler_product,
    series_spread,
    trace_formula_L,
    trace_formula_rational,
)
from nclfun.linalg import berkowitz_charpoly

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

Z9 = CoeffRing(3, 2)
Z8 = CoeffRing(2, 3)
GAUSS9 = CoeffRing(3, 2, [1, 0, 1])          # x^2 + 1, irreducible mod 3
SPLIT3 = CoeffRing(3, 1, [2, 0, 1])          # x^2 + 2 = (x+1)(x+2) mod 3
CUBIC = CoeffRing(5, 2, [2, 0, 0, 1])


def _cyclic(n, action=None, e=1):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    if action is None:
        action = list(range(n))
    return GroupData(n, table, action, e)


def _cov(group, points, q=5, ell=3, m=2, ring=Z9):
    return CoveringSpec(q, ell, m, ring, group, points)


def _char_rep(ring, group, zeta, gamma):
    n = group.order
    images = []
    acc = ring.one
    for _ in range(n):
        images.append([[acc]])
        acc = ring.mul(acc, zeta)
    return Rep(ring, group, 1, images, [[ring.int_embed(gamma)]])


# --- golden expansions


def test_single_rational_point_geometric_series():
    g = _cyclic(1)
    cov = _cov(g, [Point(1, 0, 1)])
    s = euler_product(cov, trivial_rep(Z9, g), 4)
    assert render_poly_terms(Z9, s.coeffs) == "1 + T + T^2 + T^3"


def test_sign_character_alternating_series():
    g = _cyclic(2)
    rho = _char_rep(Z9, g, Z9.int_embed(-1), 1)
    cov = _cov(g, [Point(1, 1, 1)])
    s = euler_product(cov, rho, 6)
    # 1/(1+T)
    assert list(s.coeffs) == [Z9.int_embed(v) for v in [1, -1, 1, -1, 1, -1]]


def test_degree_two_point_only_even_coefficients():
    g = _cyclic(1)
    cov = _cov(g, [Point(2, 0, 2)])
    s = euler_product(cov, trivial_rep(Z9, g), 7)
    assert [Z9.is_zero(c) for c in s.coeffs] == [
        False, True, False, True, False, True, False]


def test_euler_rejects_rep_on_wrong_group():
    with pytest.raises(InvariantViolation):
        euler_product(_cov(_cyclic(2), [Point(1, 0, 1)]),
                      trivial_rep(Z9, _cyclic(3)), 4)


# --- grouped Euler product against the per-point loop


def _euler_per_point(cov, rho, prec):
    """The ungrouped product: one inverted local factor per listed point."""
    ring = rho.ring
    acc = Series.one(ring, prec)
    for pt in cov.points:
        factor = det_one_minus_scaled(ring, rho.of(pt.frobenius()), pt.degree)
        acc = acc * series_invert(factor.truncate(prec))
    return acc


def _rand_elt(rng, ring):
    return ring.element([rng.randrange(ring.modulus) for _ in range(ring.deg)])


def _repeated_covering(rng, ring):
    """A covering of C1 or C2 whose five distinct points repeat with the
    multiplicities 1, 2, 3, 7 and 8, shuffled together, and a rep whose
    gamma has random entries of the ring."""
    n = rng.choice([1, 2])
    dim = rng.choice([1, 2])
    while True:
        gamma = [[_rand_elt(rng, ring) for _ in range(dim)]
                 for _ in range(dim)]
        if mat_inverse_omega(ring, gamma) is not None:
            break
    ident = mat_identity_omega(ring, dim)
    minus = [[ring.neg(c) for c in row] for row in ident]
    rho = Rep(ring, _cyclic(n), dim, [ident, minus][:n], gamma)
    distinct = rng.sample([(d, h) for d in range(1, 7) for h in range(n)], 5)
    pts = []
    for (d, h), mult in zip(distinct, (1, 2, 3, 7, 8)):
        pts += [Point(d, h, d)] * mult
    rng.shuffle(pts)
    cov = CoveringSpec(7, ring.ell, ring.m, ring, _cyclic(n), pts)
    return cov, rho


def test_grouped_euler_product_matches_per_point_loop():
    rng = random.Random(41)
    rings = [Z9, Z8, GAUSS9, SPLIT3, CUBIC]
    for prec in range(1, 33):
        for ring in (rings[prec % 5], rings[(prec + 2) % 5]):
            cov, rho = _repeated_covering(rng, ring)
            assert euler_product(cov, rho, prec) == \
                _euler_per_point(cov, rho, prec), (prec, ring)


def test_grouped_euler_product_matches_per_point_loop_on_ec_f5():
    inst = parse_instance((FIXTURES / "ec_f5.inst").read_text())
    cov, rho = inst.covering, inst.sheaf.rep
    assert len(cov.points) == 3362 and len(set(cov.points)) == 6
    assert euler_product(cov, rho, 32) == _euler_per_point(cov, rho, 32)


# --- determinant helpers


def _det_via_full_berkowitz(ring, Phi):
    n = len(Phi)
    ops = PolyOps(ring)
    mat = [[Poly(ring, [ring.zero, ring.neg(Phi[i][j])])
            for j in range(n)] for i in range(n)]
    for i in range(n):
        mat[i][i] = mat[i][i] + Poly.one(ring)
    coeffs = berkowitz_charpoly(ops, mat)
    sign = 1 if n % 2 == 0 else -1
    det = coeffs[0]
    return det if sign == 1 else -det


def test_det_one_minus_matrix_matches_unsplit_determinant():
    rng = random.Random(20)
    for _ in range(12):
        n = rng.randrange(1, 5)
        Phi = [[Z9.int_embed(rng.randrange(9))
                for _ in range(n)] for _ in range(n)]
        assert det_one_minus_matrix(Z9, Phi) == _det_via_full_berkowitz(Z9, Phi)


def test_det_one_minus_matrix_multiplies_over_direct_sums():
    rng = random.Random(21)
    A = [[Z9.int_embed(rng.randrange(9)) for _ in range(2)] for _ in range(2)]
    B = [[Z9.int_embed(rng.randrange(9)) for _ in range(3)] for _ in range(3)]
    big = [[Z9.zero] * 5 for _ in range(5)]
    for i in range(2):
        for j in range(2):
            big[i][j] = A[i][j]
    for i in range(3):
        for j in range(3):
            big[2 + i][2 + j] = B[i][j]
    lhs = det_one_minus_matrix(Z9, big)
    assert lhs == det_one_minus_matrix(Z9, A) * det_one_minus_matrix(Z9, B)


def test_empty_matrix_det_is_one():
    assert det_one_minus_matrix(Z9, []) == Poly.one(Z9)


# --- cohomology from points


def test_cyclic_block_det_identity():
    # one block per point: det(I - T*B) must equal det(I - T^d A)
    g = _cyclic(4)
    C = [[Z9.int_embed(0), Z9.int_embed(-1)], [Z9.int_embed(1), Z9.int_embed(0)]]
    images = [[[Z9.one, Z9.zero], [Z9.zero, Z9.one]]]
    from nclfun.linalg import mat_identity
    acc = [[Z9.one, Z9.zero], [Z9.zero, Z9.one]]
    from nclfun.coeffring import mat_mul_omega
    for _ in range(3):
        acc = mat_mul_omega(Z9, acc, C)
        images.append([row[:] for row in acc])
    rho = Rep(Z9, g, 2, images, [[Z9.one, Z9.zero], [Z9.zero, Z9.one]])
    for d in (1, 2, 3):
        cov = _cov(g, [Point(d, 1, d)])
        coh = cohomology_from_points(cov, rho)
        assert len(coh.matrices[0]) == 2 * d
        lhs = det_one_minus_matrix(Z9, [list(r) for r in coh.matrices[0]])
        rhs = det_one_minus_scaled(Z9, rho.of(Point(d, 1, d).frobenius()), d)
        assert lhs == rhs


def test_trace_equals_euler_on_hand_instances():
    g2 = _cyclic(2)
    sign = _char_rep(Z9, g2, Z9.int_embed(-1), 1)
    cases = [
        (_cov(_cyclic(1), [Point(1, 0, 1), Point(2, 0, 2)]),
         trivial_rep(Z9, _cyclic(1))),
        (_cov(g2, [Point(1, 1, 1), Point(1, 0, 1), Point(3, 1, 3)]), sign),
    ]
    for cov, rho in cases:
        coh = cohomology_from_points(cov, rho)
        left = trace_formula_L(coh, 24)
        right = euler_product(cov, rho, 24)
        cmp = compare_series(left, right)
        assert cmp.equal, cmp


def test_trace_equals_euler_randomized():
    rng = random.Random(77)
    for trial in range(15):
        n = rng.choice([1, 2, 3, 6])
        g = _cyclic(n)
        zeta = Z9.int_embed(pow(2, 6 // n, 9))  # 2 has order 6 mod 9
        gamma = rng.choice([1, 2, 4, 5, 7, 8])
        rho = _char_rep(Z9, g, zeta, gamma)
        pts = []
        for _ in range(rng.randrange(1, 5)):
            d = rng.randrange(1, 4)
            pts.append(Point(d, rng.randrange(n), d))
        cov = _cov(g, pts)
        left = trace_formula_L(cohomology_from_points(cov, rho), 16)
        right = euler_product(cov, rho, 16)
        assert compare_series(left, right).equal, (trial, n, gamma)


# --- alternating product shape


def test_trace_formula_alternates_degrees():
    Phi0 = [[Z9.int_embed(2)]]
    Phi1 = [[Z9.int_embed(0), Z9.int_embed(-5)],
            [Z9.int_embed(1), Z9.int_embed(2)]]
    Phi2 = [[Z9.int_embed(5)]]
    coh = CohomologySpec(Z9, [0, 1, 2], [Phi0, Phi1, Phi2])
    rf = trace_formula_rational(coh)
    assert rf.num == det_one_minus_matrix(Z9, Phi1)
    assert rf.den == det_one_minus_matrix(Z9, Phi0) * det_one_minus_matrix(Z9, Phi2)


# --- comparison and spreading utilities


def test_compare_series_reports_first_mismatch():
    a = Series.from_ints(Z9, 4, [1, 2, 3, 4])
    b = Series.from_ints(Z9, 5, [1, 2, 5, 4, 0])
    cmp = compare_series(a, b)
    assert cmp == (False, 4, 2)
    assert compare_series(a, Series.from_ints(Z9, 3, [1, 2, 3])).equal


def test_compare_series_ring_mismatch():
    with pytest.raises(InvariantViolation):
        compare_series(Series.from_ints(Z9, 1, [1]),
                       Series.from_ints(CoeffRing(2, 3), 1, [1]))


def test_series_spread_geometric():
    ones = Series.from_ints(Z9, 5, [1] * 5)
    sp = series_spread(ones, 2, 9)
    assert list(sp.coeffs) == [Z9.int_embed(v) for v in [1, 0, 1, 0, 1, 0, 1, 0, 1]]
    with pytest.raises(InvariantViolation):
        series_spread(ones, 3, 16)
    assert list(series_spread(ones, 1, 5).coeffs) == list(ones.coeffs)
