import random
import time

import pytest

from nclfun.coeffring import (
    CoeffRing,
    Poly,
    PolyOps,
    is_in_S,
    poly_det,
    render_poly_terms,
)
from nclfun.errors import InvariantViolation, NotSQuasiIso
from nclfun.limits import (
    IdealClass,
    fitting_ideal,
    ideal_classes_equal,
    iwasawa_transform,
    limit_module,
    ngens,
)
from nclfun.linalg import block_matrix, mat_identity
from nclfun.randcases import random_poly
from nclfun.relk import (
    block_reduction_check,
    d_connecting,
    poly_mat_mul,
    verify_d_exactness,
    verify_d_fitting_consistency,
    verify_d_multiplicative,
)

Z9 = CoeffRing(3, 2)
Z25 = CoeffRing(5, 2)
SPLIT3 = CoeffRing(3, 2, minpoly=[2, 0, 1])


def _p(ring, *ints):
    return Poly.from_ints(ring, list(ints))


def _rand_poly(rng, ring, deg):
    return Poly.from_ints(
        ring, [rng.randrange(ring.modulus) for _ in range(deg + 1)])


def _rand_s_matrix(rng, ring, size, deg):
    """Random polynomial matrix, resampled until the determinant is in S."""
    while True:
        mat = [[_rand_poly(rng, ring, deg) for _ in range(size)]
               for _ in range(size)]
        if is_in_S(poly_det(mat, ring)):
            return mat


# ---------------------------------------------------------------------------
# the connecting map itself
# ---------------------------------------------------------------------------

def test_d_connecting_single_entry():
    cls = d_connecting(Z9, [[_p(Z9, 1, -4)]])
    assert len(cls.num_gens) == 1
    assert cls.num_gens[0] == _p(Z9, 1, 5)


def test_d_connecting_rejects_determinant_outside_s():
    with pytest.raises(NotSQuasiIso):
        d_connecting(Z9, [[_p(Z9, 3)]])
    with pytest.raises(NotSQuasiIso):
        d_connecting(Z9, [[_p(Z9, 0, 3, 6)]])
    # one entry bad but the determinant fine is allowed
    cls = d_connecting(Z9, [[_p(Z9, 3), _p(Z9, 1)],
                            [_p(Z9, 1), _p(Z9, 0)]])
    assert cls.num_gens[0] == _p(Z9, 8)


def test_d_connecting_input_validation():
    with pytest.raises(InvariantViolation):
        d_connecting(Z9, [[_p(Z9, 1), _p(Z9, 0)]])
    with pytest.raises(InvariantViolation):
        d_connecting(Z9, [[_p(Z25, 1)]])


def test_torsion_class_product_concatenates_generator_products():
    a = d_connecting(Z9, [[_p(Z9, 1, 1)]])
    b = d_connecting(Z9, [[_p(Z9, 2)]])
    ab = a * b
    assert ab.num_gens == (_p(Z9, 1, 1) * _p(Z9, 2),)
    assert ideal_classes_equal(ab, ab, 16)


def test_poly_mat_mul_identity():
    one = Poly.one(Z9)
    zero = Poly.zero(Z9)
    ident = [[one, zero], [zero, one]]
    mat = [[_p(Z9, 1, 2), _p(Z9, 0, 1)], [_p(Z9, 4), _p(Z9, 7, 0, 1)]]
    assert poly_mat_mul(Z9, ident, mat) == mat
    assert poly_mat_mul(Z9, mat, ident) == mat


# ---------------------------------------------------------------------------
# multiplicativity and exactness
# ---------------------------------------------------------------------------

def test_d_multiplicative_hand_pair():
    alpha = [[_p(Z9, 1, 5)]]
    beta = [[_p(Z9, 2, 0, 1)]]
    out = verify_d_multiplicative(Z9, alpha, beta, prec=16)
    assert out["ok"]
    assert out["classes_equal"]
    assert out["det_exact"]
    assert out["check"] == "d-multiplicative"


def test_d_multiplicative_takes_each_determinant_once(monkeypatch):
    """det(beta alpha), det(beta) and det(alpha): three poly_det calls,
    and the exact comparison still catches a wrong product."""
    import nclfun.relk as relk_mod
    calls = []

    def counting_poly_det(*args):
        calls.append(args)
        return poly_det(*args)

    monkeypatch.setattr(relk_mod, "poly_det", counting_poly_det)
    rng = random.Random(4027)
    for ring in (Z9, SPLIT3):
        for size in (1, 2, 3):
            alpha = _rand_s_matrix(rng, ring, size, 2)
            beta = _rand_s_matrix(rng, ring, size, 2)
            calls.clear()
            out = verify_d_multiplicative(ring, alpha, beta, prec=24)
            assert out["ok"] and out["det_exact"]
            assert len(calls) == 3
    monkeypatch.setattr(relk_mod, "poly_mat_mul",
                        lambda ring, A, B: [list(r) for r in A])
    out = verify_d_multiplicative(Z9, [[_p(Z9, 1, 3)]], [[_p(Z9, 2, 1)]], 16)
    assert not out["det_exact"] and not out["ok"]


def test_d_multiplicative_size_mismatch():
    with pytest.raises(InvariantViolation):
        verify_d_multiplicative(
            Z9, [[_p(Z9, 1)]],
            [[_p(Z9, 1), _p(Z9, 0)], [_p(Z9, 0), _p(Z9, 1)]], 8)


def test_d_multiplicative_random():
    rng = random.Random(4021)
    for ring in (Z9, Z25, SPLIT3):
        for _ in range(12):
            size = rng.randrange(1, 4)
            alpha = _rand_s_matrix(rng, ring, size, 2)
            beta = _rand_s_matrix(rng, ring, size, 2)
            out = verify_d_multiplicative(ring, alpha, beta, prec=24)
            assert out["ok"], (ring, alpha, beta)


def test_d_multiplicative_size_four_budget():
    """Size-4 S-matrices over a degree-2 ring with m = 2 and a split one
    with m = 1 take well under a quarter second each at T^24."""
    def s_matrix(rng, ring):
        # entries anywhere in Omega, not only its integers
        while True:
            mat = [[random_poly(rng, ring, 2) for _ in range(4)]
                   for _ in range(4)]
            if is_in_S(poly_det(mat, ring)):
                return mat

    rng = random.Random(4242)
    for ring in (CoeffRing(3, 2, (1, 0, 1)), CoeffRing(5, 1, (4, 0, 1))):
        for _ in range(3):
            alpha = s_matrix(rng, ring)
            beta = s_matrix(rng, ring)
            t0 = time.perf_counter()
            out = verify_d_multiplicative(ring, alpha, beta, prec=24)
            elapsed = time.perf_counter() - t0
            assert out["ok"], (ring, alpha, beta)
            assert elapsed < 0.25, (ring, elapsed)


def test_d_exactness_hand_triangle():
    alpha = [[_p(Z9, 1, 5)]]
    gamma = [[_p(Z9, 2, 1)]]
    off = [[_p(Z9, 0, 0, 7)]]
    out = verify_d_exactness(Z9, alpha, gamma, off, prec=16)
    assert out["ok"]
    assert out["check"] == "d-exactness"


def test_d_exactness_off_block_shape_guard():
    with pytest.raises(InvariantViolation):
        verify_d_exactness(Z9, [[_p(Z9, 1)]], [[_p(Z9, 1)]],
                           [[_p(Z9, 0), _p(Z9, 0)]], 8)


def test_d_exactness_random_mixed_block_sizes():
    rng = random.Random(909)
    for _ in range(15):
        ring = rng.choice((Z9, Z25))
        n = rng.randrange(1, 3)
        k = rng.randrange(1, 3)
        alpha = _rand_s_matrix(rng, ring, n, 2)
        gamma = _rand_s_matrix(rng, ring, k, 2)
        off = [[_rand_poly(rng, ring, 2) for _ in range(k)] for _ in range(n)]
        out = verify_d_exactness(ring, alpha, gamma, off, prec=24)
        assert out["ok"], (ring, n, k)


# ---------------------------------------------------------------------------
# block reduction
# ---------------------------------------------------------------------------

def test_block_reduction_pinned_two_blocks():
    # [[1, -A], [-1, 1]] must land on diag(1, 1 - A) with A = 4T
    out = block_reduction_check(Z9, [[_p(Z9, 0, 4)]], 2)
    assert out["ok"]
    assert out["diagonal_exact"]
    assert out["left"] == out["right"] == str(_p(Z9, 1, 5))


def test_block_reduction_single_block_degenerates():
    out = block_reduction_check(Z9, [[_p(Z9, 0, 2)]], 1)
    assert out["ok"]
    assert out["right"] == str(_p(Z9, 1, 7))


def test_block_reduction_wider_blocks():
    A = [[_p(Z9, 2, 1), _p(Z9, 0, 1)],
         [_p(Z9, 1), _p(Z9, 5, 2)]]
    for b in (2, 3):
        out = block_reduction_check(Z9, A, b)
        assert out["ok"], b
        assert out["left"] == out["right"]


def test_block_reduction_random_degree_capped():
    rng = random.Random(3355)
    for _ in range(10):
        ring = rng.choice((Z9, Z25, SPLIT3))
        b = rng.randrange(2, 6)
        n = rng.randrange(1, 3)
        deg = 1 if b >= 4 else 2
        A = [[_rand_poly(rng, ring, deg) for _ in range(n)] for _ in range(n)]
        out = block_reduction_check(ring, A, b)
        assert out["ok"], (ring, b, n)


def test_block_reduction_rejects_bad_block_count():
    with pytest.raises(InvariantViolation):
        block_reduction_check(Z9, [[_p(Z9, 1)]], 0)


# ---------------------------------------------------------------------------
# bridge to the Iwasawa side
# ---------------------------------------------------------------------------

def test_d_fitting_consistency_worked_unit():
    out = verify_d_fitting_consistency(Z9, [[Z9.int_embed(4)]], prec=24)
    assert out["ok"]
    assert out["left"] == "6 + Y"


def test_d_fitting_consistency_random_small():
    rng = random.Random(6161)
    for ring in (Z9, Z25, SPLIT3):
        for _ in range(4):
            s = rng.randrange(1, 3)
            Phi = [[ring.int_embed(rng.randrange(ring.modulus))
                    for _ in range(s)] for _ in range(s)]
            out = verify_d_fitting_consistency(ring, Phi, prec=24)
            assert out["ok"], (ring, Phi)


# ---------------------------------------------------------------------------
# the verifiers against their hand-placed block builds
# ---------------------------------------------------------------------------

GAUSS9 = CoeffRing(3, 2, minpoly=[1, 0, 1])
ORACLE_RINGS = (Z9, GAUSS9, SPLIT3)


def _exactness_oracle(ring, alpha, gamma, off, prec):
    """verify_d_exactness with beta placed row by row."""
    n, k = len(alpha), len(gamma)
    zero = Poly.zero(ring)
    beta = []
    for i in range(n):
        beta.append(list(alpha[i]) + list(off[i]))
    for i in range(k):
        beta.append([zero] * n + list(gamma[i]))
    left = d_connecting(ring, beta)
    right = d_connecting(ring, alpha) * d_connecting(ring, gamma)
    ok = ideal_classes_equal(left, right, prec)
    return {
        "check": "d-exactness",
        "ok": ok,
        "left": str(left.num_gens[0]),
        "right": " * ".join(str(g) for g in right.num_gens),
    }


def _fitting_consistency_oracle(ring, Phi, prec):
    """verify_d_fitting_consistency with I - T Phi built by Poly sums."""
    s = len(Phi)
    one = Poly.one(ring)
    mat = []
    for i in range(s):
        row = []
        for j in range(s):
            p = Poly(ring, [ring.zero, ring.neg(Phi[i][j])])
            if i == j:
                p = p + one
            row.append(p)
        mat.append(row)
    cls = d_connecting(ring, mat)
    bridged = IdealClass(
        ring, [iwasawa_transform(ring, g, s) for g in cls.num_gens])
    fit = fitting_ideal(limit_module(ring, Phi))
    ok = ideal_classes_equal(bridged, fit, prec)
    return {
        "check": "d-fitting-consistency",
        "ok": ok,
        "left": render_poly_terms(ring, bridged.num_gens[0].coeffs, var="Y"),
        "right": "Fitt with " + ngens(len(fit.num_gens)),
    }


def _block_reduction_oracle(ring, A, b):
    """block_reduction_check with every block entry placed by index."""
    n = len(A)
    ops = PolyOps(ring)
    one, zero = ops.one, ops.zero

    def blk_zero():
        return [[zero] * n for _ in range(n)]

    def blk_ident():
        return mat_identity(ops, n)

    E = [[blk_zero() for _ in range(b)] for _ in range(b)]
    for i in range(b):
        E[i][i] = blk_ident()
    for i in range(1, b):
        sub = E[i][i - 1]
        for t in range(n):
            sub[t][t] = -one
    corner = E[0][b - 1]
    for i in range(n):
        for j in range(n):
            corner[i][j] = corner[i][j] + -A[i][j]

    det_before = poly_det(block_matrix(E), ring)

    for i in range(1, b):
        for bj in range(b):
            blk = E[i][bj]
            prev = E[i - 1][bj]
            E[i][bj] = [[blk[t][u] + prev[t][u] for u in range(n)]
                        for t in range(n)]
    for j in range(b - 1):
        for bi in range(b):
            contrib = poly_mat_mul(ring, E[bi][j], A)
            blk = E[bi][b - 1]
            E[bi][b - 1] = [[blk[t][u] + contrib[t][u] for u in range(n)]
                            for t in range(n)]

    want_last = blk_ident()
    for i in range(n):
        for j in range(n):
            want_last[i][j] = want_last[i][j] + -A[i][j]
    diagonal_ok = True
    for bi in range(b):
        for bj in range(b):
            want = (want_last if bi == bj == b - 1
                    else blk_ident() if bi == bj else blk_zero())
            if E[bi][bj] != want:
                diagonal_ok = False
    det_after = poly_det(block_matrix(E), ring)
    det_small = poly_det(want_last, ring)
    ok = diagonal_ok and det_before == det_after == det_small
    return {
        "check": "block-reduction",
        "ok": ok,
        "diagonal_exact": diagonal_ok,
        "left": str(det_before),
        "right": str(det_small),
    }


def _rand_poly_matrix(rng, ring, rows, cols):
    return [[random_poly(rng, ring, 2) for _ in range(cols)]
            for _ in range(rows)]


def _rand_s_poly_matrix(rng, ring, size):
    while True:
        mat = _rand_poly_matrix(rng, ring, size, size)
        if is_in_S(poly_det(mat, ring)):
            return mat


def test_block_reduction_matches_the_hand_placed_oracle():
    """Full result dicts, on seeded A of sizes 1 and 2 with entries of
    degree <= 2, for b = 1..6."""
    rng = random.Random(1414)
    for ring in ORACLE_RINGS:
        for b in range(1, 7):
            for n in (1, 2):
                A = _rand_poly_matrix(rng, ring, n, n)
                got = block_reduction_check(ring, A, b)
                assert got == _block_reduction_oracle(ring, A, b), (ring, b)
                assert got["ok"]


def test_d_exactness_matches_the_hand_placed_oracle():
    """Full result dicts for every pair of block sizes (n, k) in
    {1, 2, 3}^2, entries of degree <= 2."""
    rng = random.Random(1415)
    for ring in ORACLE_RINGS:
        for n in range(1, 4):
            for k in range(1, 4):
                alpha = _rand_s_poly_matrix(rng, ring, n)
                gamma = _rand_s_poly_matrix(rng, ring, k)
                off = _rand_poly_matrix(rng, ring, n, k)
                got = verify_d_exactness(ring, alpha, gamma, off, 30)
                assert got == _exactness_oracle(
                    ring, alpha, gamma, off, 30), (ring, n, k)
                assert got["ok"]


def test_d_fitting_consistency_matches_the_hand_placed_oracle():
    """Full result dicts on random Phi of sizes 1-4, zero entries
    included."""
    rng = random.Random(1416)
    for ring in ORACLE_RINGS:
        for s in range(1, 5):
            for _ in range(2):
                Phi = [[ring.element([rng.randrange(ring.modulus)
                                      if rng.random() < 0.7 else 0
                                      for _ in range(ring.deg)])
                        for _ in range(s)] for _ in range(s)]
                got = verify_d_fitting_consistency(ring, Phi, 24)
                assert got == _fitting_consistency_oracle(
                    ring, Phi, 24), (ring, Phi)
                assert got["ok"]
