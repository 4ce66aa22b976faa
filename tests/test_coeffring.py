import random

import pytest

from nclfun.coeffring import (
    CoeffRing,
    Poly,
    PolyOps,
    RationalFunction,
    Series,
    _KRONECKER_MIN_LEN,
    _fl_divmod,
    _fl_mod,
    _fl_trim,
    _pack,
    _poly_dot,
    det_one_minus_scaled,
    is_in_P,
    is_in_S,
    mat_inverse_omega,
    mat_mul_omega,
    mat_identity_omega,
    poly_det,
    render_element,
    series_invert,
)
from nclfun.errors import InvariantViolation, NonUnitConstantTerm
from nclfun.linalg import berkowitz_charpoly
from series_oracle import (
    PolyRingOps,
    det_from_charpoly,
    eq_up_to_unit,
    fl_derivative,
    fl_gcd,
    recurrence_series_invert,
    schoolbook_series_mul,
)

Z9 = CoeffRing(3, 2)
Z8 = CoeffRing(2, 3)
GAUSS9 = CoeffRing(3, 2, [1, 0, 1])          # x^2 + 1, irreducible mod 3
SPLIT3 = CoeffRing(3, 1, [2, 0, 1])          # x^2 + 2 = (x+1)(x+2) mod 3
CUBIC = CoeffRing(5, 2, [2, 0, 0, 1])


def series_from_ints(ring, prec, ints):
    return Series(ring, prec, [ring.int_embed(n) for n in ints])
# the rings of the dot-product oracles: Z/9, Z/27, an inert and a split
# quadratic ring over Z/9, and a cubic ring over Z/4
DOT_RINGS = [Z9, CoeffRing(3, 3), GAUSS9, CoeffRing(3, 2, [8, 3, 1]),
             CoeffRing(2, 2, [1, 1, 0, 1])]
# the rings of the series oracles: Z/5, Z/9, Z/27, Z/9[x]/(x^2+1),
# the split Z/5[x]/(x^2+4), Z/8[x]/(x^2+x+1) and Z/4[x]/(x^3+x+1)
SERIES_RINGS = [CoeffRing(5, 1), Z9, CoeffRing(3, 3), GAUSS9,
                CoeffRing(5, 1, [4, 0, 1]), CoeffRing(2, 3, [1, 1, 1]),
                CoeffRing(2, 2, [1, 1, 0, 1])]


def _rand_elem(rng, ring):
    return ring.element([rng.randrange(ring.modulus)
                         for _ in range(ring.deg)])


def gen(ring):
    """The class of x in Omega; over a degree-1 ring, the constant
    -minpoly[0] that x reduces to."""
    if ring.deg == 1:
        return ring.element([-ring.minpoly[0]])
    return ring.element([0, 1] + [0] * (ring.deg - 2))


def scale(p, c):
    """The polynomial c p, one ring product per coefficient."""
    return Poly(p.ring, [p.ring.mul(c, a) for a in p.coeffs])


def test_ring_validation():
    with pytest.raises(InvariantViolation):
        CoeffRing(4, 2)
    with pytest.raises(InvariantViolation):
        CoeffRing(3, 0)
    with pytest.raises(InvariantViolation):
        CoeffRing(3, 2, [0, 0, 1])            # x^2, not square free mod 3
    with pytest.raises(InvariantViolation):
        CoeffRing(3, 2, [1, 1, 1])            # (x+2)^2 mod 3
    with pytest.raises(InvariantViolation):
        CoeffRing(3, 2, [1, 2])               # not monic


def _monic(ell, deg):
    """Every monic polynomial of degree deg over F_l, ascending."""
    if deg == 0:
        return [[1]]
    return [[c] + tail for tail in _monic(ell, deg - 1) for c in range(ell)]


def test_square_free_check_matches_gcd_oracle():
    """CoeffRing refuses f exactly when gcd(f, f') != 1 over F_l, on every
    monic f of degree 1-4 over F_2, F_3, F_5 and 1-3 over F_7."""
    checked = refused = 0
    for ell, top in ((2, 4), (3, 4), (5, 4), (7, 3)):
        for deg in range(1, top + 1):
            for f in _monic(ell, deg):
                square_free = fl_gcd(f, fl_derivative(f, ell), ell) == (1,)
                try:
                    CoeffRing(ell, 1, f)
                except InvariantViolation as exc:
                    assert not square_free, f
                    assert str(exc) == ("minimal polynomial is not square "
                                        "free modulo the prime")
                    refused += 1
                else:
                    assert square_free, f
                checked += 1
    assert checked == 1329
    assert 0 < refused < checked


def test_ring_axioms_random():
    rng = random.Random(101)
    for ring in [Z9, Z8, GAUSS9, SPLIT3, CoeffRing(5, 3)]:
        for _ in range(40):
            a, b, c = (_rand_elem(rng, ring) for _ in range(3))
            assert ring.mul(a, b) == ring.mul(b, a)
            assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
            assert ring.mul(a, ring.add(b, c)) == \
                ring.add(ring.mul(a, b), ring.mul(a, c))
            assert ring.mul(a, ring.one) == a
            assert ring.add(a, ring.neg(a)) == ring.zero


def test_gauss_ring_inverse_of_x():
    x = gen(GAUSS9)
    assert GAUSS9.mul(x, x) == GAUSS9.int_embed(-1)
    # 1/x = -x since x * (-x) = -x^2 = 1
    assert GAUSS9.inv(x) == GAUSS9.neg(x) == (0, 8)


def test_unit_inverse_roundtrip():
    rng = random.Random(103)
    for ring in [Z9, Z8, GAUSS9, SPLIT3, CoeffRing(5, 2, [2, 0, 0, 1])]:
        units = 0
        for _ in range(60):
            a = _rand_elem(rng, ring)
            if ring.is_unit(a):
                units += 1
                assert ring.mul(a, ring.inv(a)) == ring.one
        assert units > 10


def test_unit_count_z9():
    assert sum(Z9.is_unit((k,)) for k in range(9)) == 6


def _fl_mul(a, b, ell):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = (out[i + j] + u * v) % ell
    return _fl_trim(out)


def _fl_sub(a, b, ell):
    n = max(len(a), len(b))
    return _fl_trim(((a[i] if i < len(a) else 0)
                     - (b[i] if i < len(b) else 0)) % ell
                    for i in range(n))


def _fbar(ring):
    """The minimal polynomial mod l."""
    return _fl_trim(c % ring.ell for c in ring.minpoly)


def _is_unit_uncached(ring, a):
    """CoeffRing.is_unit as it was, without a memo: a gcd against the
    minimal polynomial mod l."""
    if ring.deg == 1:
        return a[0] % ring.ell != 0
    abar = tuple(c % ring.ell for c in a)
    return fl_gcd(abar, _fbar(ring), ring.ell) == (1,)


def _inv_uncached(ring, a):
    """CoeffRing.inv as it was, without a memo: extended Euclid mod l,
    lifted by Newton steps."""
    ell = ring.ell
    if ring.deg == 1:
        b = (pow(a[0] % ell, -1, ell),)
    else:
        r0, r1 = _fbar(ring), _fl_trim(c % ell for c in a)
        s0, s1 = (), (1,)
        while r1:
            quo, rem = _fl_divmod(r0, r1, ell)
            r0, r1 = r1, rem
            s0, s1 = s1, _fl_sub(s0, _fl_mul(quo, s1, ell), ell)
        lead_inv = pow(r0[-1], -1, ell)
        s0 = tuple(c * lead_inv % ell for c in s0)
        b = tuple((s0[i] if i < len(s0) else 0) for i in range(ring.deg))
    b = ring.element(b)
    for _ in range(ring.m.bit_length() + 2):
        ab = ring.mul(a, b)
        if ab == ring.one:
            return b
        b = ring.mul(b, ring.sub(ring.int_embed(2), ab))
    raise AssertionError("no convergence")


def _project_uncached(ring, a, g):
    r = _fl_mod(tuple(c % ring.ell for c in a), g, ring.ell)
    return tuple((r[i] if i < len(r) else 0) for i in range(len(g) - 1))


def _all_elements(ring):
    M, D = ring.modulus, ring.deg
    return [tuple((k // M ** t) % M for t in range(D))
            for k in range(M ** D)]


def test_unit_memo_matches_uncached_code():
    """is_unit, inv and project_component, asked twice, on a fresh ring
    and on an equal one that shares its memo, answer as the uncached
    code on every element; inv of a non-unit raises every time and
    leaves nothing behind.  The rings are inert and split quadratic
    ones with m = 1 and 2, a cubic one with residue degrees 1 and 2, and
    Z/2[x]/(x^2 + x), whose unit group is {1}."""
    for args in ((3, 2, [1, 0, 1]), (5, 1, [1, 1, 1]), (3, 1, [2, 0, 1]),
                 (3, 2, [2, 0, 1]), (5, 1, [2, 0, 0, 1]), (2, 1, [0, 1, 1])):
        first, second = CoeffRing(*args), CoeffRing(*args)
        assert first._inverses is second._inverses
        assert first._projections is second._projections
        units = 0
        for a in _all_elements(first):
            for ring in (first, second, first):
                unit = ring.is_unit(a)
                assert unit == _is_unit_uncached(ring, a), (args, a)
                for g in ring.components:
                    assert ring.project_component(a, g) == _project_uncached(
                        ring, a, g)
                if unit:
                    assert ring.inv(a) == _inv_uncached(ring, a), (args, a)
                    assert ring.mul(a, ring.inv(a)) == ring.one
                else:
                    for _ in range(2):
                        with pytest.raises(InvariantViolation):
                            ring.inv(a)
            units += unit
        assert len(first._inverses) == units
        assert 0 < units < first.modulus ** first.deg
    assert CoeffRing(3, 2)._inverses is not GAUSS9._inverses


def test_split_ring_components():
    assert SPLIT3.components == [(1, 1), (2, 1)]
    # x - 1 dies in the component where x maps to 1
    a = SPLIT3.element([-1, 1])
    assert SPLIT3.project_component(a, (2, 1)) == (0,)
    assert SPLIT3.project_component(a, (1, 1)) == (1,)
    assert not SPLIT3.is_unit(a)


def test_series_invert_frozen():
    s = series_from_ints(Z9, 6, [1, 3])
    t = series_invert(s)
    assert t.coeffs == tuple((c,) for c in [1, 6, 0, 0, 0, 0])
    assert (s * t).coeffs[0] == (1,)
    assert all(c == (0,) for c in (s * t).coeffs[1:])


def test_series_invert_needs_unit():
    with pytest.raises(NonUnitConstantTerm):
        series_invert(series_from_ints(Z9, 4, [3, 1]))


def test_series_invert_random_roundtrip():
    rng = random.Random(107)
    for ring in [Z9, Z8, GAUSS9]:
        for _ in range(20):
            coeffs = [_rand_elem(rng, ring) for _ in range(8)]
            if not ring.is_unit(coeffs[0]):
                coeffs[0] = ring.one
            s = Series(ring, 8, coeffs)
            t = series_invert(s)
            assert (s * t) == Series.one(ring, 8)


def _rand_series(rng, ring, prec, support, style="random"):
    """A series of precision prec whose coefficients past the first
    `support` are zero: random, with about a third of them zero, or
    with every coordinate at M - 1."""
    top = ring.element([ring.modulus - 1] * ring.deg)
    cs = []
    for k in range(min(support, prec)):
        if style == "full":
            cs.append(top)
        elif style == "sparse" and rng.randrange(3) == 0:
            cs.append(ring.zero)
        else:
            cs.append(_rand_elem(rng, ring))
    return Series(ring, prec, cs)


def test_series_mul_matches_schoolbook():
    rng = random.Random(149)
    K = _KRONECKER_MIN_LEN
    for ring in SERIES_RINGS:
        cases = [(1, 1, 1, 1), (1, 5, 1, 5), (5, 1, 5, 1)]
        # supports on both sides of the Kronecker cutoff, at equal and
        # at mixed precisions
        for la in (K - 2, K - 1, K, K + 1, 2 * K + 3):
            for lb in (K - 1, K, 3 * K):
                cases.append((la, lb, la, lb))
                cases.append((la + 3, lb, la, lb))
                cases.append((la, lb + 5, la, lb))
        # sparse short factors, as det(I - T^d A) truncated, against dense
        # series of every length up to 4K
        for n in range(1, 4 * K + 1):
            short = rng.randint(1, 4)
            cases.append((n, n, short, n))
            cases.append((n, rng.randint(1, 4 * K), n, short))
        for k, (pa, pb, sa, sb) in enumerate(cases):
            style = ("random", "sparse", "full")[k % 3]
            a = _rand_series(rng, ring, pa, sa, style)
            b = _rand_series(rng, ring, pb, sb, rng.choice(["random", style]))
            assert a * b == schoolbook_series_mul(a, b), (ring, pa, pb, sa, sb)
            zero = Series(ring, pb, [])
            assert a * zero == schoolbook_series_mul(a, zero)
        # an operand exactly 1 on either side or both, at equal and mixed
        # precisions, and one that is 1 only once cut to the smaller
        for pa, pb in ((1, 1), (1, 6), (6, 6), (4, K + 1), (3 * K, K)):
            a = _rand_series(rng, ring, pa, pa)
            b = _rand_series(rng, ring, pb, pb, "sparse")
            one_a, one_b = Series.one(ring, pa), Series.one(ring, pb)
            for x, y in ((one_a, b), (a, one_b), (one_a, one_b),
                         (one_b, a), (b, one_a)):
                assert x * y == schoolbook_series_mul(x, y), (ring, pa, pb)
            late = Series(ring, pb + 2, [ring.one] + [ring.zero] * pb
                          + [_rand_elem(rng, ring)])
            assert late * a == schoolbook_series_mul(late, a)
            assert a * late == schoolbook_series_mul(a, late)


def test_series_mul_cut_drops_high_products():
    # T^3 * T^3 vanishes mod T^5; (1 + 3T)(1 + 6T) = 1 + 18 T^2 = 1 mod 9
    t3 = series_from_ints(Z9, 5, [0, 0, 0, 1])
    assert t3 * t3 == Series(Z9, 5, [])
    a = series_from_ints(Z9, 3, [1, 3])
    assert a * series_from_ints(Z9, 8, [1, 6]) == Series.one(Z9, 3)


def test_series_invert_matches_recurrence():
    rng = random.Random(151)
    K = _KRONECKER_MIN_LEN
    for ring in SERIES_RINGS:
        for prec in list(range(1, 2 * K + 2)) + [32]:
            for style in ("random", "sparse", "full"):
                for support in (1, 2, rng.randint(1, 4), prec):
                    s = _rand_series(rng, ring, prec, support, style)
                    if not ring.is_unit(s.coeffs[0]):
                        s = Series(ring, prec, (ring.one,) + s.coeffs[1:])
                    t = series_invert(s)
                    assert t == recurrence_series_invert(s), (ring, prec)
        # a spread local factor det(I - T^3 A), only every third
        # coefficient nonzero
        A = [[_rand_elem(rng, ring) for _ in range(2)] for _ in range(2)]
        f = det_one_minus_scaled(ring, A, 3).truncate(32)
        assert series_invert(f) == recurrence_series_invert(f)


def test_series_precision_rules():
    a = series_from_ints(Z9, 5, [1, 1])
    b = series_from_ints(Z9, 3, [1, 8])
    assert (a * b).prec == 3
    assert (a * b).coeffs == ((1,), (0,), (8,))


def test_poly_degree_and_zero():
    assert Poly.zero(Z9).degree == -1
    assert Poly.from_ints(Z9, [0, 0, 9]).degree == -1
    assert Poly.from_ints(Z9, [5, 0, 3]).degree == 2
    p = Poly.from_ints(Z9, [1, 2])
    q = Poly.from_ints(Z9, [1, 7])
    assert (p + q).coeffs == ((2,),)          # 2 + 9T collapses


def _schoolbook_mul(p, q):
    """The quadratic product loop, as the reference for Poly.__mul__."""
    R = p.ring
    if p.is_zero() or q.is_zero():
        return Poly.zero(R)
    out = [R.zero] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = R.add(out[i + j], R.mul(a, b))
    return Poly(R, out)


def _rand_poly(rng, ring, n, style):
    """A polynomial with exactly n coefficients: random, with about a
    third of the inner ones zero, or with every coordinate at M - 1, which
    fills the widest Kronecker slot."""
    top = ring.element([ring.modulus - 1] * ring.deg)
    cs = []
    for k in range(n):
        if style == "full":
            c = top
        elif style == "sparse" and 0 < k < n - 1 and rng.randrange(3) == 0:
            c = ring.zero
        else:
            c = _rand_elem(rng, ring)
        cs.append(c)
    if ring.is_zero(cs[-1]):
        cs[-1] = ring.one
    return Poly(ring, cs)


def test_poly_mul_matches_schoolbook():
    rng = random.Random(131)
    for ring in [Z9, Z8, CoeffRing(5, 3), GAUSS9, SPLIT3, CUBIC]:
        pairs = [(1, 1), (2, 3), (3, 2), (3, 3), (2, 40), (40, 3)]
        for la in range(1, 41):
            pairs += [(la, rng.randrange(1, 41)), (la, 41 - la)]
        for k, (la, lb) in enumerate(pairs):
            style = ("random", "sparse", "full")[k % 3]
            p = _rand_poly(rng, ring, la, style)
            q = _rand_poly(rng, ring, lb, rng.choice(["random", style]))
            assert p * q == _schoolbook_mul(p, q), (ring, la, lb, style)
            assert (p * Poly.zero(ring)).is_zero()
            assert (Poly.zero(ring) * q).is_zero()


def test_poly_mul_leading_coefficients_cancel():
    three_t = Poly.from_ints(Z9, [0, 3])
    assert three_t * three_t == Poly.zero(Z9)
    threes = Poly.from_ints(Z9, [3, 6, 0, 3])
    assert threes * Poly.from_ints(Z9, [3, 3, 3]) == Poly.zero(Z9)
    p = Poly.from_ints(Z9, [1, 2, 3])
    q = Poly.from_ints(Z9, [4, 5, 3])
    assert p * q == _schoolbook_mul(p, q)
    assert (p * q).degree == 3                 # 3 * 3 = 0 drops T^4
    g = Poly(GAUSS9, [GAUSS9.one, GAUSS9.zero, GAUSS9.element([3, 3])])
    h = Poly(GAUSS9, [GAUSS9.one, GAUSS9.one, GAUSS9.element([3, 6])])
    assert g * h == _schoolbook_mul(g, h)
    assert (g * h).degree == 3


def test_products_trim_like_the_constructor():
    """Products, PolyOps.dot and poly_det build their Poly without the
    constructor's checks; a top coefficient that a zero divisor kills
    still drops off, exactly as Poly() drops it."""
    three_t = Poly.from_ints(Z9, [0, 3])
    raw = _poly_dot(Z9, (three_t.coeffs,), (three_t.coeffs,))
    assert len(raw) == 3 and not any(map(any, raw))
    assert three_t * three_t == Poly(Z9, raw)
    assert (three_t * three_t).coeffs == ()
    p, q = Poly.from_ints(Z9, [1, 3]), Poly.from_ints(Z9, [2, 3])
    assert (p * q).coeffs == Poly(Z9, _poly_dot(
        Z9, (p.coeffs,), (q.coeffs,))).coeffs == (Z9.int_embed(2),)
    xs, ys = [three_t, p], [three_t, q]
    assert PolyOps(Z9).dot(xs, ys) == Poly(Z9, _poly_dot(
        Z9, [a.coeffs for a in xs], [b.coeffs for b in ys]))
    assert poly_det([[three_t, Poly.zero(Z9)],
                     [Poly.zero(Z9), three_t]], Z9).coeffs == ()
    rng = random.Random(151)
    for ring in DOT_RINGS:
        # top coefficients ell^(m-1) and ell, whose product is zero, on
        # both sides of the Kronecker cutoff
        tops = (ring.int_embed(ring.ell ** (ring.m - 1)),
                ring.int_embed(ring.ell))
        for _ in range(20):
            a, b = (Poly(ring, _rand_poly(rng, ring, rng.randrange(1, 12),
                                          "random").coeffs + (top,))
                    for top in tops)
            got = a * b
            assert got.degree < a.degree + b.degree
            assert got.coeffs == Poly(ring, _poly_dot(
                ring, (a.coeffs,), (b.coeffs,))).coeffs


def test_poly_dot_cut_matches_polyops_products():
    """_poly_dot with n is the sum of PolyRingOps products cut to its
    first n coefficients, over degree-1 and degree-2 rings, for operands
    on both sides of the Kronecker cutoff and cuts through, at and past
    the end of the full sum."""
    rng = random.Random(157)
    K = _KRONECKER_MIN_LEN
    for ring in (Z9, CoeffRing(5, 1), GAUSS9, CoeffRing(5, 1, [4, 0, 1]),
                 CoeffRing(2, 3, [1, 1, 1])):
        ops = PolyRingOps(ring)
        for la, lb in ((0, 3), (1, 1), (1, 4), (3, K - 1), (K - 1, K),
                       (K, K + 4), (1, K + 4), (2 * K, 3 * K)):
            for count in (1, 2, 3):
                xs = [_rand_poly(rng, ring, la, rng.choice(
                    ["random", "sparse", "full"])) if la else Poly.zero(ring)
                      for _ in range(count)]
                ys = [_rand_poly(rng, ring, lb, "random")
                      for _ in range(count)]
                full = _fold_dot(ops, xs, ys)
                assert all(a * b == _schoolbook_mul(a, b)
                           for a, b in zip(xs, ys))
                top = la + lb - 1
                for n in sorted({1, 2, K - 1, K, top - 1, top, top + 3}):
                    if n < 1:
                        continue
                    got = _poly_dot(ring, [a.coeffs for a in xs],
                                    [b.coeffs for b in ys], n)
                    assert len(got) <= n, (ring, la, lb, n)
                    assert Poly(ring, got) == Poly(ring, full.coeffs[:n]), (
                        ring, la, lb, count, n)


def _string_pack(coeffs, D, slots, w):
    """The packing of _pack through one joined binary string: the
    reference for the shifts and halves of _pack."""
    if not coeffs:
        return 0
    fmt = f"0{w}b"
    pad = (0,) * (slots - D)
    return int("".join([format(u, fmt) for c in reversed(coeffs)
                        for u in pad + c[::-1]]), 2)


def test_pack_matches_string_packing():
    rng = random.Random(149)
    for ring in DOT_RINGS + [CUBIC]:
        D, M = ring.deg, ring.modulus
        top = ring.element([M - 1] * D)
        for slots, w in ((D, (M - 1).bit_length()),
                         (2 * D - 1, 2 * M.bit_length() + 3),
                         (3 * D + 1, 41)):
            for n in list(range(41)) + [2000]:
                for style in ("random", "full"):
                    cs = tuple(top if style == "full" else
                               _rand_elem(rng, ring) for _ in range(n))
                    assert _pack(cs, D, slots, w) == _string_pack(
                        cs, D, slots, w), (ring, slots, w, n, style)


def test_is_in_P():
    assert is_in_P(Poly.from_ints(Z9, [1, 5]))
    assert not is_in_P(Poly.from_ints(Z9, [3, 1]))
    assert not is_in_P(Poly.from_ints(Z9, [0, 1]))


def test_is_in_S():
    assert is_in_S(Poly.from_ints(Z9, [0, 1]))        # T survives mod 3
    assert is_in_S(Poly.from_ints(Z9, [-7, 1]))
    assert not is_in_S(Poly.from_ints(Z9, [3, 6]))    # dies mod 3
    assert not is_in_S(Poly.zero(Z9))
    # (x - 1) T vanishes in one residue component of the split ring
    p = Poly(SPLIT3, [SPLIT3.zero, SPLIT3.element([-1, 1])])
    assert not is_in_S(p)
    # (x - 1) T + 1 is visible in both components
    q = Poly(SPLIT3, [SPLIT3.one, SPLIT3.element([-1, 1])])
    assert is_in_S(q)


def test_eq_up_to_unit_frozen_pair():
    a = Poly.from_ints(Z9, [-7, 1])
    b = Poly.from_ints(Z9, [1, -4])
    assert eq_up_to_unit(a, b, 8)
    assert eq_up_to_unit(b, a, 8)
    # the witness is the constant 2: 2 * (1 - 4T) = 2 + T = T - 7 mod 9
    assert scale(b, Z9.int_embed(2)) == a


def test_eq_up_to_unit_rejects():
    assert not eq_up_to_unit(Poly.from_ints(Z9, [0, 1]),
                             Poly.from_ints(Z9, [1, 1]), 8)
    assert not eq_up_to_unit(Poly.from_ints(Z9, [0, 3]),
                             Poly.from_ints(Z9, [0, 1]), 8)
    assert eq_up_to_unit(Poly.from_ints(Z9, [0, 2]),
                         Poly.from_ints(Z9, [0, 1]), 8)


def test_eq_up_to_unit_random_witnessed():
    rng = random.Random(109)
    for ring in [Z9, GAUSS9]:
        for _ in range(15):
            b = Poly(ring, [_rand_elem(rng, ring) for _ in range(3)])
            u = Series(ring, 12, [_rand_elem(rng, ring) for _ in range(12)])
            if not ring.is_unit(u.coeffs[0]):
                u = Series(ring, 12, (ring.one,) + u.coeffs[1:])
            a = u * b.truncate(12)
            assert eq_up_to_unit(a, b, 12)


def _cofactor_poly_det(mat, ring):
    n = len(mat)
    if n == 0:
        return Poly.one(ring)
    if n == 1:
        return mat[0][0]
    total = Poly.zero(ring)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _cofactor_poly_det(minor, ring)
        total = total + (-term if j % 2 else term)
    return total


def test_poly_det_matches_cofactor():
    rng = random.Random(113)
    for ring in [Z9, GAUSS9]:
        for n in [1, 2, 3]:
            for _ in range(6):
                mat = [[Poly(ring, [_rand_elem(rng, ring)
                                    for _ in range(rng.randrange(1, 3))])
                        for _ in range(n)] for _ in range(n)]
                assert poly_det(mat, ring) == _cofactor_poly_det(mat, ring)


def test_det_one_minus_scaled_frozen_curve_factor():
    # companion matrix of x^2 - 2x + 5, the frozen curve count data
    ring = Z9
    A = [[ring.int_embed(0), ring.int_embed(-5)],
         [ring.int_embed(1), ring.int_embed(2)]]
    assert det_one_minus_scaled(ring, A, 1) == Poly.from_ints(ring, [1, -2, 5])
    spread = det_one_minus_scaled(ring, A, 3)
    assert spread == Poly.from_ints(ring, [1, 0, 0, -2, 0, 0, 5])


def _omega_det(ring, A):
    return det_from_charpoly(ring, berkowitz_charpoly(ring, A))


def test_omega_matrix_inverse():
    rng = random.Random(127)
    for ring in [Z9, GAUSS9]:
        # invertible by construction: compose elementary row additions
        for _ in range(10):
            n = rng.randrange(1, 4)
            A = mat_identity_omega(ring, n)
            for _ in range(6):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = _rand_elem(rng, ring)
                    for k in range(n):
                        A[i][k] = ring.add(A[i][k], ring.mul(c, A[j][k]))
            X = mat_inverse_omega(ring, A)
            assert X is not None
            assert mat_mul_omega(ring, A, X) == mat_identity_omega(ring, n)
            assert ring.is_unit(_omega_det(ring, A))
    assert mat_inverse_omega(Z9, [[(3,)]]) is None


def test_rational_function_equality_and_expand():
    one = Poly.one(Z9)
    num = Poly.from_ints(Z9, [1, 0, -1])
    den = Poly.from_ints(Z9, [1, -1])
    r = RationalFunction(num, den)
    assert r == RationalFunction(Poly.from_ints(Z9, [1, 1]), one)
    assert r.expand(5) == series_from_ints(Z9, 5, [1, 1])
    geom = RationalFunction(one, Poly.from_ints(Z9, [1, -1]))
    assert geom.expand(4) == series_from_ints(Z9, 4, [1, 1, 1, 1])
    with pytest.raises(InvariantViolation):
        RationalFunction(one, Poly.from_ints(Z9, [0, 1]))
    with pytest.raises(TypeError):
        hash(r)


def test_rendering():
    assert str(Poly.from_ints(Z9, [1, 1, 1, 1])) == "1 + T + T^2 + T^3"
    assert str(Poly.from_ints(Z9, [0, 2, 0, 1])) == "2*T + T^3"
    assert str(Poly.zero(Z9)) == "0"
    assert render_element(GAUSS9, (1, 2)) == "(1+2*x)"
    assert render_element(GAUSS9, (0, 1)) == "(x)"
    assert render_element(GAUSS9, (5, 0)) == "5"
    p = Poly(GAUSS9, [GAUSS9.zero, GAUSS9.element([1, 1])])
    assert str(p) == "(1+x)*T"
    assert str(series_from_ints(Z9, 4, [1, 1, 1, 1])) == "1 + T + T^2 + T^3"


def test_flattened_span_respects_x_multiples():
    # the integer row span of a flattened Omega row contains x * row
    ring = GAUSS9
    row = [ring.element([2, 5]), ring.element([0, 1])]
    rows = ring.omega_rows_to_int_rows([row])
    from nclfun.linalg import howell_form, in_span
    H = howell_form(rows, 4, ring.modulus)
    shifted = ring.flatten_vec([ring.mul(gen(ring), a) for a in row])
    assert in_span(shifted, H, ring.modulus)


def test_flat_rows_take_deg_minus_one_shifts(monkeypatch):
    """Each Omega row gives its D flat rows with D - 1 shifts by x per
    element, none after the last row, and the rows are x^u times it."""
    rng = random.Random(139)
    shift = CoeffRing._shift_reduce
    for ring in (Z9, GAUSS9, CUBIC):
        calls = []

        def counting(self, a):
            calls.append(a)
            return shift(self, a)

        rows = [[_rand_elem(rng, ring) for _ in range(rng.randrange(1, 4))]
                for _ in range(rng.randrange(1, 5))]
        with monkeypatch.context() as patch:
            patch.setattr(CoeffRing, "_shift_reduce", counting)
            flat = ring.omega_rows_to_int_rows(rows)
        assert len(calls) == sum(map(len, rows)) * (ring.deg - 1)
        x = gen(ring)
        want = []
        for row in rows:
            for u in range(ring.deg):
                want.append(ring.flatten_vec(row))
                row = [ring.mul(x, a) for a in row]
        assert flat == want


def _fold_dot(ops, xs, ys):
    """The sum of products by add and mul, one pair at a time: the
    reference for the fused dot."""
    acc = ops.zero
    for a, b in zip(xs, ys):
        acc = ops.add(acc, ops.mul(a, b))
    return acc


def test_ring_dot_matches_add_mul_fold():
    rng = random.Random(137)
    for ring in DOT_RINGS:
        top = ring.element([ring.modulus - 1] * ring.deg)
        for n in range(8):
            for style in ("random", "full", "zeros"):
                if style == "full":
                    xs, ys = [top] * n, [top] * n
                else:
                    xs = [_rand_elem(rng, ring) for _ in range(n)]
                    ys = [_rand_elem(rng, ring) for _ in range(n)]
                if style == "zeros" and n:
                    xs[rng.randrange(n)] = ring.zero
                assert ring.dot(xs, ys) == _fold_dot(ring, xs, ys)
        # the shorter side decides the length, as zip does
        xs = [_rand_elem(rng, ring) for _ in range(4)]
        assert ring.dot(xs, xs[:2]) == _fold_dot(ring, xs[:2], xs[:2])
        assert ring.dot([], []) == ring.zero


def test_poly_dot_matches_add_mul_fold():
    rng = random.Random(139)
    for ring in DOT_RINGS:
        ops = PolyRingOps(ring)
        # entries of 1-2 coefficients, entries on the schoolbook side of
        # the Kronecker cutoff, entries past it, and the two mixed
        for n in range(1, 6):
            K = _KRONECKER_MIN_LEN
            for lengths in ((1, 2), (3, K - 1), (K, K + 4), (1, K + 4)):
                xs = [_rand_poly(rng, ring, rng.randint(*lengths),
                                 rng.choice(["random", "sparse", "full"]))
                      for _ in range(n)]
                ys = [_rand_poly(rng, ring, rng.randint(*lengths), "random")
                      for _ in range(n)]
                if n > 1:
                    xs[rng.randrange(n)] = Poly.zero(ring)
                assert ops.dot(xs, ys) == _fold_dot(ops, xs, ys)
        # a sum that cancels to zero, and one that cancels its top term
        p = _rand_poly(rng, ring, 4, "random")
        q = _rand_poly(rng, ring, 2, "random")
        assert ops.dot([p, -p], [q, q]) == Poly.zero(ring)
        t = Poly(ring, [ring.zero, ring.one])
        assert ops.dot([p, -p], [q, q + t]) == _fold_dot(
            ops, [p, -p], [q, q + t])
        assert ops.dot([], []) == Poly.zero(ring)
