"""Acceptance battery.

Each test here is one headline guarantee, run end to end on seeded
data, with its own pass line printed at the end.  Budgets that matter
are asserted; everything is exact arithmetic, so there are no numeric
tolerances anywhere, only literal equality of coefficients."""

import pathlib
import random
import time

import ec_oracle
from nclfun.coeffring import CoeffRing, Poly, is_in_P, is_in_S
from nclfun.covering import CoveringSpec, Point, parse_instance
from nclfun.groupalg import GroupData, Rep, subgroup_group_data, trivial_rep
from nclfun.lfun import (
    cohomology_from_points,
    compare_series,
    euler_product,
    trace_formula_L,
)
from nclfun.limits import (
    coker_tower,
    kernel_chain_report,
    verify_mc_commutative,
)
from nclfun.ncl import (
    verify_artin_induction,
    verify_quotient,
    verify_twist,
)
from nclfun.randcases import (
    random_instance,
    random_phi,
    random_poly,
    random_ring,
    random_s_poly_matrix,
)
from nclfun.relk import (
    block_reduction_check,
    verify_d_exactness,
    verify_d_multiplicative,
)
from series_oracle import eq_up_to_unit
from test_coeffring import scale

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GROUP_FIXTURES = ("trivial", "z2xgamma", "z3_semidirect", "s3_gamma")


def _load(name):
    return parse_instance((FIXTURES / f"{name}.inst").read_text())


# degree-2 coefficient rings: x^2 + 1 is irreducible mod 3, and
# x^2 - 1 = (x - 1)(x + 1) splits Omega into two copies of Z/9
GAUSS9 = CoeffRing(3, 2, (1, 0, 1))
SPLIT9 = CoeffRing(3, 2, (8, 0, 1))


def _mc_cases():
    """The shared suite for the limit criteria: 50 matrices over Z/l^m,
    then 10 over each degree-2 ring with entries anywhere in Omega."""
    rng = random.Random(77001)
    cases = []
    for _ in range(50):
        ring = CoeffRing(rng.choice((3, 5)), rng.randrange(1, 4))
        cases.append((ring, random_phi(rng, ring, 4)))
    rng = random.Random(77002)
    for ring in (GAUSS9, SPLIT9):
        for _ in range(10):
            s = rng.randrange(1, 5)
            cases.append((ring, [[ring.element(
                [rng.randrange(ring.modulus) for _ in range(ring.deg)])
                for _ in range(s)] for _ in range(s)]))
    return cases


# ---------------------------------------------------------------------------

def test_criterion_1():
    """Euler product equals the trace route on random coverings."""
    t0 = time.time()
    rng = random.Random(20260822)
    done = 0
    for _ in range(20):
        ell = rng.choice((3, 5))
        cov, sheaf = random_instance(rng, ell, max_h=12, max_points=6,
                                    max_degree=4, max_rank=3, max_m=2)
        left = euler_product(cov, sheaf.rep, 32)
        right = trace_formula_L(cohomology_from_points(cov, sheaf.rep), 32)
        cmp = compare_series(left, right)
        assert cmp.equal, (ell, cov, cmp.first_diff)
        done += 1
    elapsed = time.time() - t0
    assert done >= 20
    assert elapsed < 10.0, elapsed
    print(f"criterion 1: PASS - {done} random coverings agree to T^31 "
          f"in {elapsed:.2f}s")


def test_criterion_2():
    """Elliptic curve point counts, recounted from scratch, match the
    cohomology route."""
    t0 = time.time()
    counts = ec_oracle.closed_point_counts(6)
    inst = _load("ec_f5")
    stored = {}
    for p in inst.covering.points:
        stored[p.degree] = stored.get(p.degree, 0) + 1
    assert stored == counts
    Z9 = inst.covering.ring
    g1 = inst.covering.group
    fresh_pts = [Point(d, 0, d) for d in sorted(counts)
                 for _ in range(counts[d])]
    fresh_cov = CoveringSpec(5, Z9, g1, fresh_pts)
    left = euler_product(fresh_cov, trivial_rep(Z9, g1), 7)
    right = trace_formula_L(inst.cohomology, 7)
    cmp = compare_series(left, right)
    assert cmp.equal, cmp.first_diff
    elapsed = time.time() - t0
    assert elapsed < 5.0, elapsed
    print(f"criterion 2: PASS - y^2 = x^3 + x over F_5 recounted "
          f"through degree 6, both routes agree in {elapsed:.2f}s")


def test_criterion_3():
    """Class evaluation interpolates the twisted L-functions on every
    stored representation of every group fixture."""
    from nclfun.ncl import verify_interpolation
    t0 = time.time()
    checked = 0
    for name in GROUP_FIXTURES:
        inst = _load(name)
        for rep_name in sorted(inst.reps):
            out = verify_interpolation(inst.covering, inst.sheaf,
                                       inst.reps[rep_name], 32)
            assert out["ok"], (name, rep_name, out)
            checked += 1
    elapsed = time.time() - t0
    assert checked == 12
    assert elapsed < 30.0, elapsed
    print(f"criterion 3: PASS - {checked} fixture/rep evaluations "
          f"interpolate to T^31 in {elapsed:.2f}s")


def test_criterion_4():
    """Fitting ideal of the limit module equals the characteristic
    ideal, on 70 seeded matrices (20 over degree-2 rings) and the worked
    unit-certificate case."""
    cases = _mc_cases()
    assert sum(ring.deg == 2 for ring, _ in cases) == 20
    for ring, Phi in cases:
        out = verify_mc_commutative(ring, Phi, prec=32)
        assert out["ok"], (ring, Phi, out)
        assert out["ideals_equal"] and out["bridge_exact"]

    Z9 = CoeffRing(3, 2)
    out = verify_mc_commutative(Z9, [[Z9.int_embed(4)]], prec=32)
    assert out["ok"] and out["right"] == "6 + Y"
    # the T-side determinant and the connecting generator differ by the
    # exact unit 2: both present the same class
    det_side = Poly.from_ints(Z9, [1, -4])
    gen_side = Poly.from_ints(Z9, [-7, 1])
    assert scale(det_side, Z9.int_embed(2)) == gen_side
    assert eq_up_to_unit(det_side, gen_side)
    print(f"criterion 4: PASS - main identity holds on {len(cases)} "
          "seeded matrices plus the worked unit certificate")


def test_criterion_5():
    """Kernel towers stabilize with certified vanishing limits on the
    same 70 matrices, and the cokernel towers never drop."""
    cases = _mc_cases()
    for ring, Phi in cases:
        tower = coker_tower(ring, Phi)
        sizes = [layer.coker_size for layer in tower.layers]
        assert all(a <= b for a, b in zip(sizes, sizes[1:])), (ring, sizes)
        chain = kernel_chain_report(ring, Phi, tower=tower)
        assert chain.trace_is_mult_by_ell, (ring, Phi)
        assert chain.vanishing_certified, (ring, Phi)
        assert chain.stable_from == tower.stable_from
    print(f"criterion 5: PASS - {len(cases)} kernel chains stabilize "
          "with vanishing certified; trace transitions act by ell")


def test_criterion_6():
    """Coherence of twisting and quotient pushes on the fixtures, plus
    induction from their open subgroups."""
    twist_checks = quot_checks = artin_checks = 0
    for name in GROUP_FIXTURES:
        inst = _load(name)
        cov, sheaf = inst.covering, inst.sheaf
        for rep_name in sorted(inst.reps):
            rho = inst.reps[rep_name]
            out = verify_twist(cov, sheaf, rho,
                               trivial_rep(rho.ring, cov.group), 32)
            assert out["ok"], (name, rep_name, out)
            twist_checks += 1
        for sub_name in sorted(inst.subgroups):
            U = inst.subgroups[sub_name]
            index = U.c * (cov.group.order // len(U.h_members))
            assert index <= 4, (name, sub_name)
            if U.c == 1 and len(U.h_members) < cov.group.order:
                from nclfun.groupalg import quotient_by_normal
                qd, _ = quotient_by_normal(cov.group, U.h_members)
                out = verify_quotient(cov, sheaf, U.h_members,
                                      trivial_rep(cov.ring, qd), 32)
                assert out["ok"] and out["factors_match"], (name, sub_name)
                quot_checks += 1
            sub_gd, _ = subgroup_group_data(U)
            subreps = [trivial_rep(cov.ring, sub_gd)]
            if name == "s3_gamma" and sub_name == "a3":
                ring = cov.ring
                imgs = [[[ring.int_embed(v)]] for v in (1, 4, 7)]
                subreps.append(Rep(ring, sub_gd, imgs, [[ring.one]]))
            if name == "z2xgamma" and sub_name == "gsq":
                ring = cov.ring
                ident = [[ring.one, ring.zero], [ring.zero, ring.one]]
                comp = [[ring.zero, ring.int_embed(-1)],
                        [ring.one, ring.one]]
                subreps.append(Rep(ring, sub_gd, [ident] * sub_gd.order,
                                   comp))
            for rho_sub in subreps:
                out = verify_artin_induction(cov, sheaf, U, rho_sub, 32)
                assert out["ok"], (name, sub_name, rho_sub.dim, out)
                artin_checks += 1
    assert twist_checks == 12 and quot_checks == 3 and artin_checks == 9
    print(f"criterion 6: PASS - {twist_checks} twists and {quot_checks} "
          f"quotients cohere; {artin_checks} inductions match at T^31")


def test_criterion_7():
    """The connecting map respects products and block triangles, and
    the big cyclic blocks reduce to their companions."""
    Z9 = CoeffRing(3, 2)
    rng = random.Random(88123)
    for _ in range(100):
        size = rng.randrange(1, 5)
        alpha = _square_s(rng, Z9, size)
        beta = _square_s(rng, Z9, size)
        out = verify_d_multiplicative(Z9, alpha, beta, prec=24)
        assert out["ok"], (alpha, beta, out)
    for _ in range(50):
        n, k = rng.randrange(1, 3), rng.randrange(1, 3)
        alpha = _square_s(rng, Z9, n)
        gamma = _square_s(rng, Z9, k)
        off = [[random_poly(rng, Z9, 2) for _ in range(k)]
               for _ in range(n)]
        out = verify_d_exactness(Z9, alpha, gamma, off, prec=24)
        assert out["ok"], (alpha, gamma, out)
    pinned = block_reduction_check(Z9, [[Poly.from_ints(Z9, [0, 4])]], 2)
    assert pinned["ok"] and pinned["left"] == pinned["right"] == "1 + 5*T"
    for b in (2, 3, 4, 5):
        deg = 1 if b >= 4 else 2
        A = [[random_poly(rng, Z9, deg) for _ in range(2)]
             for _ in range(2)]
        out = block_reduction_check(Z9, A, b)
        assert out["ok"], (b, out)
    # degree-2 rings with m = 2: irreducible, split with the trivial
    # lift, and split with a non-trivial one (x + 7)(x + 5)
    rng = random.Random(88124)
    for ring in (GAUSS9, SPLIT9, CoeffRing(3, 2, (8, 3, 1))):
        for _ in range(10):
            size = rng.randrange(1, 5)
            alpha = _square_s(rng, ring, size)
            beta = _square_s(rng, ring, size)
            out = verify_d_multiplicative(ring, alpha, beta, prec=24)
            assert out["ok"], (ring, alpha, beta, out)
        for _ in range(5):
            n, k = rng.randrange(1, 3), rng.randrange(1, 3)
            alpha = _square_s(rng, ring, n)
            gamma = _square_s(rng, ring, k)
            off = [[random_poly(rng, ring, 2) for _ in range(k)]
                   for _ in range(n)]
            out = verify_d_exactness(ring, alpha, gamma, off, prec=24)
            assert out["ok"], (ring, alpha, gamma, out)
    print("criterion 7: PASS - 100 multiplicative pairs and 50 triangles "
          "exact over Z/9, 30 and 15 over three degree-2 rings; cyclic "
          "reductions hold up to 5 blocks")


def _square_s(rng, ring, size):
    from nclfun.coeffring import poly_det
    while True:
        mat = [[random_poly(rng, ring, 2) for _ in range(size)]
               for _ in range(size)]
        if is_in_S(poly_det(mat, ring)):
            return mat


def test_criterion_8():
    """Unit constant term always certifies membership in S."""
    rng = random.Random(424242)
    positives = 0
    for _ in range(500):
        ring = random_ring(rng)
        p = random_poly(rng, ring, 6)
        if is_in_P(p):
            positives += 1
            assert is_in_S(p), (ring, p.coeffs)
    assert positives > 50, positives
    print(f"criterion 8: PASS - {positives} of 500 random polynomials "
          "had unit constant term; every one certified in S")
