import itertools
import random

from nclfun.coeffring import CoeffRing, Poly, PolyOps, mat_inverse_omega
from nclfun.groupalg import GroupData, Rep
from nclfun.linalg import (
    berkowitz_charpoly,
    charpoly_reversal,
    det_from_charpoly,
    howell_form,
    in_span,
    left_kernel,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_vec,
    solve_left,
    span_size,
    split_components,
    xgcd,
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
            rev = charpoly_reversal(berkowitz_charpoly(ring, A))
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
    trivial = GroupData(1, [[0]], [0], 1)
    for ring in (Z9, GAUSS9, SPLIT5):
        gamma = _rand_invertible(rng, ring, 3)
        rho = Rep(ring, trivial, 3, [mat_identity(ring, 3)], gamma)
        for a in range(-4, 7):
            factor = gamma if a >= 0 else rho.gamma_inv()
            want = mat_identity(ring, 3)
            for _ in range(abs(a)):
                want = mat_mul(ring, want, factor)
            assert rho.gamma_pow(a) == want
