import itertools
import random
from functools import partial
from math import gcd
from operator import mul

import pytest

from nclfun.coeffring import (
    CoeffRing,
    Poly,
    PolyOps,
    Series,
    mat_inverse_omega,
    poly_det,
)
from nclfun.groupalg import GroupData, Rep
from nclfun.linalg import (
    ZMod,
    berkowitz_charpoly,
    block_matrix,
    howell_form,
    in_span,
    left_kernel,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_vec,
    power,
    reduce_vector,
    span_size,
    split_components,
    unit_lifting_gcd,
)
from series_oracle import (
    PolyRingOps,
    berkowitz_packed_poly_det,
    det_from_charpoly,
    solve_left,
)

MODULI = [5, 8, 9, 27, 125]

Z9 = CoeffRing(3, 2)
Z27 = CoeffRing(3, 3)
GAUSS9 = CoeffRing(3, 2, [1, 0, 1])          # x^2 + 1, irreducible mod 3
SPLIT5 = CoeffRing(5, 1, [4, 0, 1])          # x^2 + 4 = (x - 1)(x + 1) mod 5
# Z/M for every modulus above, then the two degree-2 rings
RINGS = [CoeffRing(2, 3), CoeffRing(5, 1), Z9, Z27, CoeffRing(5, 3),
         GAUSS9, SPLIT5]


def _rand_rows(rng, r, n, M):
    return [[rng.randrange(M) for _ in range(n)] for _ in range(r)]


def _mixed_generators(rng, rows, M):
    # a different generating set of the same span: shuffled rows plus
    # random combinations, with some rows replaced by unit multiples
    out = [row[:] for row in rows]
    rng.shuffle(out)
    for _ in range(4):
        i, j = rng.randrange(len(out)), rng.randrange(len(out))
        c = rng.randrange(M)
        out[i] = [(a + c * b) % M for a, b in zip(out[i], out[j])]
    for _ in range(2):
        i = rng.randrange(len(out))
        u = rng.choice([u for u in range(1, M) if xgcd(u, M)[0] == 1])
        out[i] = [(u * a) % M for a in out[i]]
    out.append([0] * len(rows[0]))
    out.extend(rows)
    return out


# --- the pairwise Howell elimination that the least-valuation pivot
# replaced, kept as an oracle with its extended gcd


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = gcd(a, b) = x*a + y*b.

    Inputs are expected nonnegative; then g >= 0.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def pairwise_howell(rows, ncols, M):
    """Howell form with the first row nonzero at each column as the
    pivot: every further row nonzero there is combined with it by the
    det-1 transform [[x, y], [-b/g, a/g]] of xgcd(a, b) = (g, x, y),
    which rewrites both rows."""
    work = []
    for r in rows:
        rr = [x % M for x in r]
        assert len(rr) == ncols
        if any(rr):
            work.append(rr)
    basis = []
    for c in range(ncols):
        pivot = None
        rest = []
        for r in work:
            if r[c]:
                if pivot is None:
                    pivot = r
                else:
                    a_, b_ = pivot[c], r[c]
                    g, xx, yy = xgcd(a_, b_)
                    tail = list(zip(pivot[c:], r[c:]))
                    new_r = [((a_ // g) * v - (b_ // g) * u) % M
                             for u, v in tail]
                    pivot = r[:c] + [(xx * u + yy * v) % M for u, v in tail]
                    if any(new_r):
                        rest.append(r[:c] + new_r)
            else:
                rest.append(r)
        work = rest
        if pivot is not None:
            u = unit_lifting_gcd(pivot[c], M)
            if u != 1:
                pivot[c:] = [(u * v) % M for v in pivot[c:]]
            basis.append(pivot)
            ann = M // gcd(pivot[c], M)
            if ann > 1:
                ann_row = [(ann * v) % M for v in pivot[c:]]
                if any(ann_row):
                    work.append(pivot[:c] + ann_row)
    pivots = [row.index(next(filter(None, row))) for row in basis]
    for i, c in enumerate(pivots):
        row = basis[i]
        for k in range(i):
            above = basis[k]
            q = above[c] // row[c]
            if q:
                above[c:] = [(u - q * v) % M
                             for u, v in zip(above[c:], row[c:])]
    return basis


def test_xgcd_bezout():
    rng = random.Random(11)
    for _ in range(200):
        a, b = rng.randrange(500), rng.randrange(500)
        g, x, y = xgcd(a, b)
        assert g == x * a + y * b
        assert a % max(g, 1) == 0 and b % max(g, 1) == 0


def test_howell_is_canonical_for_the_span():
    rng = random.Random(23)
    for M in MODULI:
        for _ in range(30):
            r, n = rng.randrange(1, 5), rng.randrange(1, 6)
            rows = _rand_rows(rng, r, n, M)
            H = howell_form(rows, n, M)
            H2 = howell_form(_mixed_generators(rng, rows, M), n, M)
            assert H == H2
            for row in rows:
                assert in_span(row, H, M)


def test_howell_pivots_are_prime_powers():
    rng = random.Random(5)
    for M in [9, 8, 125]:
        for _ in range(20):
            rows = _rand_rows(rng, 4, 5, M)
            H = howell_form(rows, 5, M)
            prev = -1
            for row in H:
                c = next(i for i, v in enumerate(row) if v)
                assert c > prev
                prev = c
                p = row[c]
                assert M % p == 0, "pivot must divide the modulus"
                for above in H:
                    if above is row:
                        break
                    assert above[c] < p


def _brute_span(rows, n, M):
    seen = {tuple([0] * n)}
    frontier = [tuple([0] * n)]
    while frontier:
        v = frontier.pop()
        for row in rows:
            w = tuple((a + b) % M for a, b in zip(v, row))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def test_span_size_matches_enumeration():
    rng = random.Random(7)
    for M in [8, 9]:
        for _ in range(10):
            rows = _rand_rows(rng, 3, 3, M)
            H = howell_form(rows, 3, M)
            assert span_size(H, M) == len(_brute_span(rows, 3, M))


def test_membership_agrees_with_enumeration():
    rng = random.Random(31)
    M = 9
    rows = _rand_rows(rng, 2, 3, M)
    H = howell_form(rows, 3, M)
    S = _brute_span(rows, 3, M)
    for v in itertools.product(range(M), repeat=3):
        assert in_span(list(v), H, M) == (v in S)


def test_reduce_vector_subtracts_a_span_element():
    # v - residual lies in the span of the basis
    rng = random.Random(61)
    for M in MODULI:
        for _ in range(20):
            n = rng.randrange(1, 7)
            H = howell_form(_rand_rows(rng, rng.randrange(1, 5), n, M), n, M)
            for _ in range(5):
                v = [rng.randrange(M) for _ in range(n)]
                res = reduce_vector(v, H, M)
                assert in_span([a - r for a, r in zip(v, res)], H, M)


def test_left_kernel_complete_and_sound():
    rng = random.Random(43)
    for M in [8, 9]:
        for _ in range(15):
            r, n = 3, rng.randrange(1, 4)
            A = _rand_rows(rng, r, n, M)
            K = left_kernel(A, M)
            for row in K:
                assert all(s % M == 0 for s in
                           [sum(row[i] * A[i][j] for i in range(r))
                            for j in range(n)])
            # completeness by enumeration
            for v in itertools.product(range(M), repeat=r):
                is_ker = all(sum(v[i] * A[i][j] for i in range(r)) % M == 0
                             for j in range(n))
                assert in_span(list(v), K, M) == is_ker


def test_solve_left_roundtrip_and_failure():
    rng = random.Random(59)
    for M in MODULI:
        for _ in range(25):
            r, n = rng.randrange(1, 4), rng.randrange(1, 4)
            A = _rand_rows(rng, r, n, M)
            x0 = [rng.randrange(M) for _ in range(r)]
            b = [sum(x0[i] * A[i][j] for i in range(r)) % M for j in range(n)]
            x = solve_left(A, b, M)
            assert x is not None
            got = [sum(x[i] * A[i][j] for i in range(r)) % M for j in range(n)]
            assert got == b
    # a target outside the row span must be reported as unsolvable
    M = 9
    A = [[3, 0], [0, 3]]
    assert solve_left(A, [1, 0], M) is None


def _rand_elem(rng, ring):
    return ring.element([rng.randrange(ring.modulus) for _ in range(ring.deg)])


def _rand_mat(rng, ring, n):
    return [[_rand_elem(rng, ring) for _ in range(n)] for _ in range(n)]


def _rand_unit(rng, ring):
    while True:
        a = _rand_elem(rng, ring)
        if ring.is_unit(a):
            return a


def _rand_invertible(rng, ring, n):
    # unit diagonal lower triangular times upper triangular with a unit
    # diagonal: invertible by construction
    L = [[_rand_elem(rng, ring) if i > j else (ring.one if i == j else ring.zero)
          for j in range(n)] for i in range(n)]
    U = [[_rand_elem(rng, ring) if i < j else
          (_rand_unit(rng, ring) if i == j else ring.zero)
          for j in range(n)] for i in range(n)]
    return mat_mul(ring, L, U)


def test_mat_inverse():
    rng = random.Random(61)
    for ring in (Z27, GAUSS9, SPLIT5):
        for _ in range(20):
            n = rng.randrange(1, 4)
            A = _rand_invertible(rng, ring, n)
            X = mat_inverse_omega(ring, A)
            assert X is not None
            assert mat_mul(ring, A, X) == mat_identity(ring, n)
            assert mat_mul(ring, X, A) == mat_identity(ring, n)
    assert mat_inverse_omega(Z9, [[(3,)]]) is None
    assert mat_inverse_omega(GAUSS9, [[(3, 0)]]) is None
    assert mat_inverse_omega(SPLIT5, [[(4, 1)]]) is None     # x - 1


def _cofactor_det(ring, A):
    n = len(A)
    if n == 0:
        return ring.one
    if n == 1:
        return A[0][0]
    total = ring.zero
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        term = ring.mul(A[0][j], _cofactor_det(ring, minor))
        total = ring.sub(total, term) if j % 2 else ring.add(total, term)
    return total


def _polymul(ring, p, q):
    out = [ring.zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = ring.add(out[i + j], ring.mul(a, b))
    return out


def test_berkowitz_det_matches_cofactor():
    rng = random.Random(71)
    for ring in RINGS:
        for n in range(4):
            for _ in range(12):
                A = _rand_mat(rng, ring, n)
                cp = berkowitz_charpoly(ring, A)
                assert len(cp) == n + 1
                assert cp[-1] == ring.one
                assert det_from_charpoly(ring, cp) == _cofactor_det(ring, A)


def test_berkowitz_on_diagonal_and_companion():
    rng = random.Random(73)
    for ring in (Z27, GAUSS9, SPLIT5):
        zero = ring.zero
        for _ in range(10):
            d = [_rand_elem(rng, ring) for _ in range(4)]
            A = [[d[i] if i == j else zero for j in range(4)]
                 for i in range(4)]
            expect = [ring.one]
            for di in d:
                expect = _polymul(ring, expect, [ring.neg(di), ring.one])
            assert berkowitz_charpoly(ring, A) == expect
        # companion matrix of a random monic cubic
        p = [_rand_elem(rng, ring) for _ in range(3)] + [ring.one]
        C = [[zero, zero, ring.neg(p[0])],
             [ring.one, zero, ring.neg(p[1])],
             [zero, ring.one, ring.neg(p[2])]]
        assert berkowitz_charpoly(ring, C) == p


def test_charpoly_reversal_evaluates_correctly():
    rng = random.Random(79)
    for ring in (CoeffRing(5, 3), GAUSS9, SPLIT5):
        for _ in range(15):
            n = rng.randrange(1, 4)
            A = _rand_mat(rng, ring, n)
            rev = berkowitz_charpoly(ring, A)[::-1]
            assert rev[0] == ring.one
            for y in [ring.zero, ring.one, _rand_elem(rng, ring)]:
                lhs, yk = ring.zero, ring.one
                for c in rev:
                    lhs = ring.add(lhs, ring.mul(c, yk))
                    yk = ring.mul(yk, y)
                B = [[ring.sub(ring.one if i == j else ring.zero,
                               ring.mul(y, A[i][j])) for j in range(n)]
                     for i in range(n)]
                assert lhs == _cofactor_det(ring, B)


def test_split_components_recovers_blocks():
    # indices 0 and 2 hold one block, index 1 the other
    A = [[Z9.zero] * 3 for _ in range(3)]
    A[0][0], A[0][2], A[2][0], A[2][2] = (Z9.int_embed(c) for c in (2, 1, 0, 4))
    A[1][1] = Z9.int_embed(5)
    comps = split_components(3, lambda i, j: not Z9.is_zero(A[i][j]))
    assert comps == [[0, 2], [1]]
    det_whole = _cofactor_det(Z9, A)
    det_split = Z9.one
    for comp in comps:
        sub = [[A[i][j] for j in comp] for i in comp]
        det_split = Z9.mul(det_split, _cofactor_det(Z9, sub))
    assert det_whole == det_split


def _transpose(A):
    return [list(col) for col in zip(*A)]


def test_mat_pow_and_transpose():
    A = [[Z9.int_embed(c) for c in row] for row in ([1, 2], [0, 1])]
    assert mat_pow(Z9, A, 0) == mat_identity(Z9, 2)
    assert mat_pow(Z9, A, 3) == [[(1,), (6,)], [(0,), (1,)]]
    # (A B)^t == B^t A^t over a commutative ring, also for non-square
    # factors and for a factor with no columns
    rng = random.Random(83)
    for ring in (Z9, GAUSS9, SPLIT5):
        A = [[_rand_elem(rng, ring) for _ in range(3)] for _ in range(2)]
        B = [[_rand_elem(rng, ring) for _ in range(4)] for _ in range(3)]
        AB = mat_mul(ring, A, B)
        assert [len(r) for r in AB] == [4, 4]
        assert _transpose(AB) == mat_mul(ring, _transpose(B), _transpose(A))
        assert mat_vec(ring, A, [row[0] for row in B]) == [r[0] for r in AB]
        assert mat_mul(ring, A, [[] for _ in range(3)]) == [[], []]


def _poly_mat(rng, n):
    return [[Poly.from_ints(Z9, [rng.randrange(9) for _ in range(2)])
             for _ in range(n)] for _ in range(n)]


def test_mat_pow_equals_repeated_product():
    rng = random.Random(89)
    cases = [(ring, _rand_mat(rng, ring, 3)) for ring in (Z9, GAUSS9, SPLIT5)]
    cases.append((PolyOps(Z9), _poly_mat(rng, 2)))
    for ops, A in cases:
        acc = mat_identity(ops, len(A))
        for e in range(10):
            assert mat_pow(ops, A, e) == acc
            acc = mat_mul(ops, acc, A)
    # Rep.gamma_pow is the same power, of gamma_inv() for negative a
    trivial = GroupData([[0]], [0])
    for ring in (Z9, GAUSS9, SPLIT5):
        gamma = _rand_invertible(rng, ring, 3)
        rho = Rep(ring, trivial, [mat_identity(ring, 3)], gamma)
        for a in range(-4, 7):
            factor = gamma if a >= 0 else rho.gamma_inv()
            want = mat_identity(ring, 3)
            for _ in range(abs(a)):
                want = mat_mul(ring, want, factor)
            assert rho.gamma_pow(a) == want


# --- the add/mul loops the fused dot replaced, kept as oracles


def _oracle_mat_vec(ops, A, v):
    out = []
    for row in A:
        acc = ops.zero
        for a, b in zip(row, v):
            acc = ops.add(acc, ops.mul(a, b))
        out.append(acc)
    return out


def _oracle_mat_mul(ops, A, B):
    cols = list(zip(*B))
    return [_oracle_mat_vec(ops, cols, row) for row in A]


def _oracle_mat_pow(ops, A, e):
    out = mat_identity(ops, len(A))
    for _ in range(e):
        out = _oracle_mat_mul(ops, out, A)
    return out


def _oracle_berkowitz(ops, mat):
    n = len(mat)
    if n == 0:
        return [ops.one]
    vec = [ops.one, ops.neg(mat[n - 1][n - 1])]
    for k in range(n - 2, -1, -1):
        s = n - k - 1
        R = [mat[k][k + 1 + j] for j in range(s)]
        C = [mat[k + 1 + i][k] for i in range(s)]
        A1 = [[mat[k + 1 + i][k + 1 + j] for j in range(s)] for i in range(s)]
        col = [ops.one, ops.neg(mat[k][k])]
        w = C
        for _ in range(s):
            col.append(ops.neg(_oracle_mat_vec(ops, [R], w)[0]))
            w = _oracle_mat_vec(ops, A1, w)
        new = []
        for i in range(s + 2):
            acc = ops.zero
            for j in range(s + 1):
                if 0 <= i - j < len(col):
                    acc = ops.add(acc, ops.mul(col[i - j], vec[j]))
            new.append(acc)
        vec = new
    vec.reverse()
    return vec


# Z/9, Z/27, an inert and a split quadratic ring over Z/9, and a cubic
# ring over Z/4
DOT_RINGS = [Z9, Z27, GAUSS9, CoeffRing(3, 2, [8, 3, 1]),
             CoeffRing(2, 2, [1, 1, 0, 1])]


def _rand_poly_mat(rng, ring, n, max_len):
    return [[Poly(ring, [_rand_elem(rng, ring)
                         for _ in range(rng.randrange(max_len + 1))])
             for _ in range(n)] for _ in range(n)]


def _dot_cases(rng):
    """(ops, ell, draw) for every ring of DOT_RINGS, where draw(n) is a
    random n x n matrix: over the ring itself, and over Omega[T] with
    0-2 and with up to 5 coefficients per entry."""
    for ring in DOT_RINGS:
        yield ring, ring.ell, lambda n, ring=ring: _rand_mat(rng, ring, n)
        for max_len in (2, 5):
            yield PolyRingOps(ring), ring.ell, (
                lambda n, ring=ring, k=max_len:
                _rand_poly_mat(rng, ring, n, k))


def test_matrix_layer_matches_add_mul_oracles():
    rng = random.Random(97)
    for ops, ell, draw in _dot_cases(rng):
        for n in range(5):
            A, B = draw(n), draw(n)
            v = [row[0] for row in B]
            assert mat_vec(ops, A, v) == _oracle_mat_vec(ops, A, v)
            assert mat_mul(ops, A, B) == _oracle_mat_mul(ops, A, B)
            for e in (0, 1, 2, ell, ell ** 2 - 1):
                assert mat_pow(ops, A, e) == _oracle_mat_pow(ops, A, e)
            assert berkowitz_charpoly(ops, A) == _oracle_berkowitz(ops, A)


# the packed determinant's rings: DOT_RINGS, a prime field and a cubic
# ring over Z/25
PACKED_RINGS = DOT_RINGS + [CoeffRing(5, 1), CoeffRing(5, 2, [2, 0, 0, 1])]


def _top_poly(ring, length, constant=False):
    """A Poly of `length` coefficients, each M - 1 in every coordinate
    (in the first coordinate only if constant)."""
    top = ring.modulus - 1
    c = (top,) + (0 if constant else top,) * (ring.deg - 1)
    return Poly(ring, [c] * length)


def _packed_det_cases(rng, ring):
    """Square Poly matrices of sizes 0-6: random entries of up to 2, 5
    and 12 coefficients, entries with every coefficient M - 1, zero
    rows, and block-diagonal matrices under a random permutation."""
    for n in range(7):
        for max_len in (2, 5, 12):
            for _ in range(3 if max_len < 12 else 1):
                yield _rand_poly_mat(rng, ring, n, max_len)
        if n == 0:
            continue
        yield [[_top_poly(ring, rng.randrange(1, 6)) for _ in range(n)]
               for _ in range(n)]
        # a diagonal of constant M - 1 reaches the coefficient bound
        zero = Poly.zero(ring)
        yield [[_top_poly(ring, 1, constant=True) if i == j else zero
                for j in range(n)] for i in range(n)]
        yield [[_top_poly(ring, rng.randrange(1, 4)) if i == j else zero
                for j in range(n)] for i in range(n)]
        A = _rand_poly_mat(rng, ring, n, 4)
        A[rng.randrange(n)] = [zero] * n
        yield A
        cut = rng.randrange(n + 1)
        perm = list(range(n))
        rng.shuffle(perm)
        B = _rand_poly_mat(rng, ring, n, 12)
        yield [[B[perm[i]][perm[j]]
                if (perm[i] < cut) == (perm[j] < cut) else zero
                for j in range(n)] for i in range(n)]


def test_poly_det_matches_berkowitz_oracle(monkeypatch):
    """poly_det against Berkowitz over Omega[T]; it computes in the
    integers, so it runs with the Omega[T] product disabled."""
    import nclfun.coeffring as coeffring_mod
    rng = random.Random(101)
    cases, lengths = [], set()
    for ring in PACKED_RINGS:
        ops = PolyRingOps(ring)
        for A in _packed_det_cases(rng, ring):
            lengths.update(len(p.coeffs) for row in A for p in row)
            cases.append((ring, A, det_from_charpoly(
                ops, _oracle_berkowitz(ops, A))))
    assert min(lengths) == 0 and max(lengths) >= 12

    def no_poly_dot(*args):
        raise AssertionError("poly_det reached the Omega[T] product")

    monkeypatch.setattr(coeffring_mod, "_poly_dot", no_poly_dot)
    for ring, A, want in cases:
        assert poly_det(A, ring) == want, (ring, A)


# the rings of the elimination oracle: Z/9, Z/27, Z/5 and three
# degree-2 rings, one of them split mod l
BAREISS_RINGS = [Z9, Z27, CoeffRing(5, 1), GAUSS9, CoeffRing(3, 1, [2, 0, 1]),
                 CoeffRing(5, 2, [2, 0, 1])]


def _bareiss_cases(rng, ring):
    """Square Poly matrices of sizes 0-12 with entries of T-degree 0-3
    (and zeros): random ones, ones whose leading minors vanish so that
    elimination must swap rows at every step in turn, the last one
    included, singular ones, block-diagonal ones under a permutation,
    and I minus the cyclic block matrix of block_reduction_check."""
    zero = Poly.zero(ring)

    def draw(n, nonzero=1.0):
        return [[Poly(ring, [_rand_elem(rng, ring)
                             for _ in range(rng.randrange(5))])
                 if rng.random() < nonzero else zero
                 for _ in range(n)] for _ in range(n)]

    def minus(M):
        return [[-p for p in row] for row in M]

    for n in range(13):
        # past size 8 the degree-2 rings take a sparser draw, to keep
        # the oracle's packed integers small
        yield draw(n, 1.0 if n <= 8 or ring.deg == 1 else 0.5)
    for n in range(2, 9):
        for k in range(n - 1):
            # column k is zero in rows 0..k: the leading (k + 1)-minor
            # vanishes, so step k finds a zero pivot
            A = draw(n)
            for i in range(k + 1):
                A[i][k] = zero
            A[rng.randrange(k + 1, n)][k] = Poly(ring, [ring.one, ring.one])
            yield A
        A = draw(n)
        A[rng.randrange(1, n)] = list(A[0])
        yield A
        A = draw(n)
        A[rng.randrange(n)] = [zero] * n
        yield A
        A = draw(n)
        j = rng.randrange(n)
        for row in A:
            row[j] = zero
        yield A
        cut = rng.randrange(1, n)
        perm = list(range(n))
        rng.shuffle(perm)
        B = draw(n)
        yield [[B[perm[i]][perm[j]]
                if (perm[i] < cut) == (perm[j] < cut) else zero
                for j in range(n)] for i in range(n)]
    ops = PolyOps(ring)
    for n, b in ((1, 2), (2, 3), (3, 4), (2, 6)):
        ident = mat_identity(ops, n)
        grid = [[ident if i == j else minus(ident) if i == j + 1 else
                 [[zero] * n for _ in range(n)]
                 for j in range(b)] for i in range(b)]
        grid[0][b - 1] = minus(draw(n))
        yield block_matrix(grid)


def test_poly_det_matches_packed_berkowitz_oracle():
    """poly_det's elimination against Berkowitz on the same packed
    integers, poly_det as it was before fraction-free elimination."""
    rng = random.Random(107)
    for ring in BAREISS_RINGS:
        for A in _bareiss_cases(rng, ring):
            assert poly_det(A, ring) == berkowitz_packed_poly_det(A, ring), (
                ring, A)


def test_mat_pow_returns_a_new_matrix():
    rng = random.Random(103)
    for ops, A in ((Z9, _rand_mat(rng, Z9, 3)),
                   (PolyOps(GAUSS9), _rand_poly_mat(rng, GAUSS9, 2, 3))):
        B = mat_pow(ops, A, 1)
        assert B == A
        assert B is not A
        assert all(rb is not ra for rb, ra in zip(B, A))
        B[0][0] = ops.one if A[0][0] != ops.one else ops.zero
        assert B[0][0] != A[0][0]


# --- the least-valuation Howell form against the pairwise oracle

HOWELL_MODULI = [2, 4, 8, 9, 27, 5, 25, 125, 49]


def _prime_of(M):
    return next(p for p in range(2, M + 1) if M % p == 0)


def _howell_cases(rng, M):
    """0-10 random rows of widths 0-8, and from each draw: its rows
    times p (zero mod p), rows sharing a valuation at one column (unit
    multiples of one power of p there), and duplicated rows."""
    p = _prime_of(M)
    units = [u for u in range(1, M) if u % p]
    for _ in range(80):
        r, n = rng.randrange(11), rng.randrange(9)
        rows = _rand_rows(rng, r, n, M)
        yield rows, n
        if not r:
            continue
        yield [[p * a % M for a in row] for row in rows], n
        if n:
            c = rng.randrange(n)
            pv = p ** rng.randrange(M.bit_length())
            yield [row[:c] + [pv * rng.choice(units) % M] + row[c + 1:]
                   for row in rows], n
        yield rows + [rows[0][:], rows[-1][:]] + rows[:2], n


def test_howell_matches_pairwise_oracle():
    rng = random.Random(107)
    shapes = set()
    for M in HOWELL_MODULI:
        for rows, n in _howell_cases(rng, M):
            shapes.add((len(rows), n))
            got = howell_form(rows, n, M)
            assert got == pairwise_howell(rows, n, M), (M, rows)
            assert all(type(v) is int for row in got for v in row)
    assert {r for r, _ in shapes} >= set(range(11))
    assert {n for _, n in shapes} == set(range(9))


def _two_form_left_kernel(A, M):
    """left_kernel by the pairwise oracle: the kernel rows cut from the
    form of [A | I], then their own Howell form."""
    r = len(A)
    n = len(A[0]) if r else 0
    aug = [list(A[i]) + [int(j == i) for j in range(r)] for i in range(r)]
    ker = [row[n:] for row in pairwise_howell(aug, n + r, M)
           if not any(row[:n])]
    return pairwise_howell(ker, r, M)


def test_left_kernel_is_one_howell_form():
    """The kernel rows cut from one Howell form are a Howell form, and
    the kernel a second form of them would give."""
    rng = random.Random(109)
    for M in (4, 8, 9, 25, 27):
        cases = [[], [[] for _ in range(3)]]
        for _ in range(40):
            r, n = rng.randrange(1, 6), rng.randrange(5)
            A = _rand_rows(rng, r, n, M)
            if rng.randrange(3) == 0:
                A[rng.randrange(r)] = [0] * n
            cases.append(A)
        for A in cases:
            K = left_kernel(A, M)
            assert howell_form(K, len(A), M) == K
            assert K == _two_form_left_kernel(A, M), (M, A)


# --- ZMod products on packed rows against one dot per entry


def _oracle_zmod_mul(A, B, M):
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) % M for col in cols] for row in A]


def _slot_bytes(k, M):
    """Bytes of the packed slot for B with k rows over Z/M, None when
    the bound k (M - 1)^2 needs more than 64 bits."""
    bits = (k * (M - 1) ** 2).bit_length()
    return next((s for s in (1, 2, 4, 8) if bits <= 8 * s), None)


def test_packed_zmod_product_matches_per_entry_dots():
    rng = random.Random(113)
    # random entries in every shape up to 3 x 4 times 4 x 5, empty ones
    # included
    for M in (2, 5, 9, 27, 125):
        zm = ZMod(M)
        for r, k, n in itertools.product(range(4), range(5), range(6)):
            A, B = _rand_rows(rng, r, k, M), _rand_rows(rng, k, n, M)
            assert mat_mul(zm, A, B) == _oracle_zmod_mul(A, B, M)
        assert mat_mul(zm, [[], []], []) == [[], []]
        assert mat_mul(zm, [[1], [2]], [[]]) == [[], []]
        assert mat_mul(zm, [], [[1, 2]]) == []
    # all-(M - 1) entries reach the bound k (M - 1)^2 of a slot; the
    # moduli and row counts put it at either edge of every slot width
    widths = set()
    for M in (2, 5, 17, 27, 243, 256, 2 ** 16, 3 ** 10, 2 ** 32,
              3 ** 20, 3 ** 41):
        zm = ZMod(M)
        for k in (1, 2, 3, 15, 16, 17, 255, 256, 257):
            widths.add(_slot_bytes(k, M))
            for r, n in ((1, 1), (3, 5), (2, 8)):
                A = [[M - 1] * k for _ in range(r)]
                B = [[M - 1] * n for _ in range(k)]
                assert mat_mul(zm, A, B) == _oracle_zmod_mul(A, B, M), (M, k)
            A, B = _rand_rows(rng, 3, k, M), _rand_rows(rng, k, 4, M)
            assert mat_mul(zm, A, B) == _oracle_zmod_mul(A, B, M), (M, k)
    assert widths == {1, 2, 4, 8, None}
    # the exact edges: 2^64 - 2^33 + 1 fills 8 bytes, 2^65 needs more
    assert _slot_bytes(1, 2 ** 32) == 8 and _slot_bytes(2, 2 ** 32) is None


def test_mat_pow_over_zmod_matches_repeated_products():
    rng = random.Random(127)
    for M in (3, 8, 25, 3 ** 41):
        zm = ZMod(M)
        for n in range(5):
            A = _rand_rows(rng, n, n, M)
            acc = mat_identity(zm, n)
            for e in range(6):
                assert mat_pow(zm, A, e) == acc
                acc = _oracle_zmod_mul(acc, A, M)


def _counting(product, calls):
    """product, recording for each call whether it squared one object."""
    def counted(a, b):
        calls.append(a is b)
        return product(a, b)
    return counted


def test_power_matches_repeated_products_and_counts_its_products():
    """power(x, e, mul) equals x mul x mul ... mul x (e factors) for
    e = 1..17 on ring elements, Poly, Series, ZMod matrices and Omega
    matrices, with bit_length(e) - 1 squarings and popcount(e) - 1 other
    products; e = 0 is refused."""
    rng = random.Random(131)
    cases = [
        (GAUSS9.mul, _rand_elem(rng, GAUSS9)),
        (SPLIT5.mul, _rand_elem(rng, SPLIT5)),
        (Z27.mul, _rand_elem(rng, Z27)),
        (mul, Poly(GAUSS9, [_rand_elem(rng, GAUSS9) for _ in range(3)])),
        (mul, Series(SPLIT5, 7, [_rand_elem(rng, SPLIT5) for _ in range(7)])),
        (partial(mat_mul, ZMod(25)), _rand_rows(rng, 3, 3, 25)),
        (partial(mat_mul, GAUSS9), _rand_mat(rng, GAUSS9, 2)),
    ]
    for product, x in cases:
        want = x
        for e in range(1, 18):
            calls = []
            assert power(x, e, _counting(product, calls)) == want, e
            assert calls.count(True) == e.bit_length() - 1
            assert calls.count(False) == bin(e).count("1") - 1
            want = product(want, x)
        with pytest.raises(ValueError):
            power(x, 0, product)


# --- block matrices against index arithmetic


def test_block_matrix_places_blocks_by_offsets():
    """Entry (R_i + r, C_j + c) of block_matrix(grid) is entry (r, c) of
    block (i, j), R_i and C_j the heights and widths of the blocks
    before it, on seeded grids of unequal block sizes, 1 x 1 included;
    rows given as tuples come out as lists."""
    rng = random.Random(139)
    grids = [[[[[5]]]], [[((1, 2), (3, 4))]]]
    for _ in range(40):
        heights = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 4))]
        widths = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 4))]
        grids.append([[[[rng.randrange(100) for _ in range(w)]
                        for _ in range(h)] for w in widths]
                      for h in heights])
    for grid in grids:
        heights = [len(blocks[0]) for blocks in grid]
        widths = [len(block[0]) for block in grid[0]]
        out = block_matrix(grid)
        assert len(out) == sum(heights)
        assert all(type(row) is list and len(row) == sum(widths)
                   for row in out)
        for i, h in enumerate(heights):
            for j, w in enumerate(widths):
                r0, c0 = sum(heights[:i]), sum(widths[:j])
                for r in range(h):
                    for c in range(w):
                        assert out[r0 + r][c0 + c] == grid[i][j][r][c]


# --- one Howell form per inverse


def _solve_left_omega(ring, A, b):
    """One Omega solution x of x A == b, or None: row i of A gives D
    flat rows (its multiples by x^u), and the solution coefficients
    against them are the coordinates of x_i."""
    sol = solve_left(ring.omega_rows_to_int_rows(A), ring.flatten_vec(b),
                     ring.modulus)
    return None if sol is None else ring.unflatten_vec(sol)


def _per_column_inverse(ring, A):
    """mat_inverse_omega as it was: column j of the inverse solves
    A x = e_j, one Omega solve and one Howell form per column."""
    n = len(A)
    At = [list(col) for col in zip(*A)]
    ident = mat_identity(ring, n)
    cols = []
    for e in ident:
        x = _solve_left_omega(ring, At, e)
        if x is None:
            return None
        cols.append(x)
    X = [list(row) for row in zip(*cols)]
    return X if mat_mul(ring, X, A) == ident else None


def test_mat_inverse_takes_one_howell_form(monkeypatch):
    import nclfun.coeffring as coeffring_mod
    rng = random.Random(131)
    cases = []
    for ring in (Z9, Z27, GAUSS9, SPLIT5, CoeffRing(5, 2, [2, 0, 0, 1])):
        for n in range(5):
            cases.append((ring, _rand_invertible(rng, ring, n)))
            cases.append((ring, _rand_mat(rng, ring, n)))
            if n:
                A = _rand_invertible(rng, ring, n)
                i = rng.randrange(n)
                A[i] = [ring.mul(ring.int_embed(ring.ell), a) for a in A[i]]
                cases.append((ring, A))
    want = [_per_column_inverse(ring, A) for ring, A in cases]
    assert any(w is None for w in want) and any(w for w in want)
    calls = []

    def counting(rows, ncols, M):
        calls.append(ncols)
        return howell_form(rows, ncols, M)

    monkeypatch.setattr(coeffring_mod, "howell_form", counting)
    for (ring, A), w in zip(cases, want):
        del calls[:]
        assert mat_inverse_omega(ring, A) == w, (ring, A)
        assert calls == [2 * len(A) * ring.deg]
