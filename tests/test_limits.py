import random
import time
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest

from nclfun.coeffring import (
    CoeffRing,
    Poly,
    det_one_minus_scaled,
    mat_inverse_omega,
    mat_mul_omega,
    mat_pow_omega,
    poly_det,
)
from nclfun.errors import InvariantViolation, PrecisionMismatch
from nclfun.linalg import (
    ZMod,
    berkowitz_charpoly,
    howell_form,
    in_span,
    left_kernel,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_vec,
    reduce_vector,
    span_size,
)
from nclfun.limits import (
    GUARD,
    GammaModule,
    IdealClass,
    TowerLayer,
    _power_index,
    _truncate_form,
    char_element,
    coker_tower,
    fitting_ideal,
    ideal_canonical_form,
    ideal_classes_equal,
    iwasawa_transform,
    kernel_chain_report,
    limit_module,
    verify_mc_commutative,
)
from series_oracle import eq_up_to_unit
from test_coeffring import gen, scale
from test_linalg import pairwise_howell

Z9 = CoeffRing(3, 2)
Z25 = CoeffRing(5, 2)
GAUSS9 = CoeffRing(3, 2, [1, 0, 1])
SPLIT3 = CoeffRing(3, 1, [2, 0, 1])


def _mat(ring, ints):
    return [[ring.int_embed(v) for v in row] for row in ints]


def _hand_module(ring, rank, relations, gamma, gamma_inv):
    """A GammaModule built by hand, with the Howell form of its
    flattened relations as basis."""
    basis = howell_form(ring.omega_rows_to_int_rows(relations),
                        rank * ring.deg, ring.modulus)
    return GammaModule(ring, ring.flat_map(gamma), ring.flat_map(gamma_inv),
                       basis)


def _rand_elt(ring, rng):
    return ring.element([rng.randrange(ring.modulus)
                         for _ in range(ring.deg)])


def _rand_mat(ring, rng, s):
    return [[_rand_elt(ring, rng) for _ in range(s)] for _ in range(s)]


# --- GammaModule


def test_gamma_module_validation():
    with pytest.raises(InvariantViolation):
        GammaModule(Z9, Z9.flat_map(_mat(Z9, [[1, 0], [0, 1]])),
                    Z9.flat_map(_mat(Z9, [[1, 0], [0, 1]])), [[1]])
    with pytest.raises(InvariantViolation):
        _hand_module(Z9, 1, [], _mat(Z9, [[2]]), _mat(Z9, [[2]]))
    # swap action does not preserve the span of e1
    with pytest.raises(InvariantViolation):
        _hand_module(Z9, 2, [(Z9.one, Z9.zero)],
                     _mat(Z9, [[0, 1], [1, 0]]), _mat(Z9, [[0, 1], [1, 0]]))


def test_gamma_inverse_only_needed_modulo_relations():
    # 2*2 = 4 is not 1 in Z/9, but it is 1 modulo the relation 3
    mod = _hand_module(Z9, 1, [(Z9.int_embed(3),)],
                       _mat(Z9, [[2]]), _mat(Z9, [[2]]))
    assert mod.size() == 3


def test_gamma_module_size():
    assert _hand_module(Z9, 1, [(Z9.int_embed(3),)], _mat(Z9, [[1]]),
                        _mat(Z9, [[1]])).size() == 3
    assert _hand_module(Z9, 2, [], _mat(Z9, [[1, 0], [0, 1]]),
                        _mat(Z9, [[1, 0], [0, 1]])).size() == 81


# --- coker tower


def _image_rows(ring, A):
    """Howell canonical rows for the column span of A, flattened."""
    cols = [[A[i][j] for i in range(len(A))] for j in range(len(A))]
    flat = ring.omega_rows_to_int_rows(cols)
    return howell_form(flat, len(A) * ring.deg, ring.modulus)


def _coker_tower_oracle(ring, Phi, n_max=48):
    """coker_tower as it was before the tower ran on flat maps: powers,
    repeat keys and I - P over Omega, one _image_rows per level.
    Returns the fields of TowerReport in order, with the powers as
    Omega matrices."""
    s = len(Phi)
    ell = ring.ell
    ident = mat_identity(ring, s)
    powers = []
    seen = {}
    P = [list(r) for r in Phi]
    repeat_at = period = None
    n = 0
    while n <= n_max:
        key = tuple(tuple(r) for r in P)
        if key in seen:
            repeat_at = seen[key]
            period = n - seen[key]
            break
        seen[key] = n
        powers.append(key)
        P = mat_pow(ring, P, ell)
        n += 1
    assert repeat_at is not None
    width = s * ring.deg
    layers = []
    prev = None
    for Pn in powers:
        A = [[ring.sub(ident[i][j], Pn[i][j]) for j in range(s)]
             for i in range(s)]
        rows = _image_rows(ring, A)
        if prev is not None:
            for r in rows:
                assert in_span(list(r), prev, ring.modulus)
        csize = ring.modulus ** width // span_size(rows, ring.modulus)
        layers.append(TowerLayer(rows, csize))
        prev = rows
    limit_rows = layers[repeat_at].image_rows
    stable_from = next(n for n, lay in enumerate(layers)
                       if lay.image_rows == limit_rows)
    return layers, stable_from, repeat_at, period, powers


def test_tower_of_four_over_z9():
    t = coker_tower(Z9, _mat(Z9, [[4]]))
    assert [lay.coker_size for lay in t.layers] == [3, 9]
    assert t.stable_from == 1
    assert t.repeat_at == 1 and t.period == 1


def test_tower_identity_matrix_stabilizes_at_zero():
    t = coker_tower(Z9, _mat(Z9, [[1]]))
    assert t.stable_from == 0
    assert t.layers[0].coker_size == 9


def test_tower_layers_certified_beyond_computed_range():
    # recompute images at a few levels past the certificate by hand
    Phi = _mat(Z9, [[4, 1], [0, 7]])
    t = coker_tower(Z9, Phi)
    stable_rows = t.layers[t.stable_from].image_rows
    ident = _mat(Z9, [[1, 0], [0, 1]])
    for n in range(t.stable_from, t.stable_from + 3):
        P = mat_pow_omega(Z9, Phi, 3 ** n)
        A = [[Z9.sub(ident[i][j], P[i][j]) for j in range(2)]
             for i in range(2)]
        assert _image_rows(Z9, A) == stable_rows


def test_tower_coker_sizes_never_decrease():
    rng = random.Random(31)
    for ring in (Z9, Z25, SPLIT3):
        for _ in range(8):
            s = rng.randrange(1, 4)
            t = coker_tower(ring, _rand_mat(ring, rng, s))
            sizes = [lay.coker_size for lay in t.layers]
            assert sizes == sorted(sizes)


# --- limit module


def test_limit_module_of_four_frozen():
    mod = limit_module(Z9, _mat(Z9, [[4]]))
    assert mod.relations == ()
    assert mod.gamma_inv == ((Z9.int_embed(7),),)
    assert mod.size() == 9


def test_limit_module_split_ring_relations():
    x = gen(SPLIT3)
    Phi = [[x]]
    mod = limit_module(SPLIT3, Phi)
    assert mod.relations == ((SPLIT3.element([1, 2]),),)
    assert mod.size() == 3


def test_limit_module_gamma_power_is_identity_on_quotient():
    rng = random.Random(8)
    for _ in range(6):
        s = rng.randrange(1, 4)
        Phi = _rand_mat(Z9, rng, s)
        t = coker_tower(Z9, Phi)
        mod = limit_module(Z9, Phi, tower=t)
        # gamma * gamma_inv fixes every basis vector mod relations, which
        # the module's check tested on flat maps; spot check gamma
        # followed by gamma_inv
        v = [Z9.int_embed(rng.randrange(9)) for _ in range(s)]
        w = mat_vec(Z9, mod.gamma_inv, mat_vec(Z9, mod.gamma, v))
        from nclfun.linalg import howell_form, in_span
        flat = Z9.omega_rows_to_int_rows(mod.relations)
        basis = howell_form(flat, s * Z9.deg, 9)
        diff = [Z9.sub(a, b) for a, b in zip(v, w)]
        assert in_span(Z9.flatten_vec(diff), basis, 9)


def _limit_cases(rng):
    for ring, Phi in _tower_cases(rng):
        yield ring, Phi
    for ring in (Z9, CoeffRing(3, 3), GAUSS9, SPLIT3, CUBIC25):
        for s in range(1, 5):
            yield ring, _structured_phi(ring, rng, s)


def test_limit_module_reuses_the_tower_basis(monkeypatch):
    """limit_module takes no Howell form of its own, and the same module
    built by hand computes the same basis and size."""
    import nclfun.limits as limits_mod
    rng = random.Random(71)
    for ring, Phi in _limit_cases(rng):
        t = coker_tower(ring, Phi)
        with monkeypatch.context() as patch:
            patch.setattr(limits_mod, "howell_form", None)
            mod = limit_module(ring, Phi, tower=t)
            size = mod.size()
        assert mod.basis is t.layers[t.stable_from].image_rows
        hand = _hand_module(ring, mod.rank, mod.relations, mod.gamma,
                            mod.gamma_inv)
        assert hand.basis == mod.basis
        assert size == hand.size() == t.layers[t.stable_from].coker_size
        assert mod.gamma_inv == tuple(map(tuple, mat_pow(
            ring, Phi, ring.ell ** t.stable_from - 1)))


def test_limit_module_states_each_fact_once():
    """A module's relations are its basis rows and its gamma is the map
    the tower flattened: nothing it holds is given twice."""
    rng = random.Random(79)
    for ring, Phi in _tower_cases(rng):
        t = coker_tower(ring, Phi)
        mod = limit_module(ring, Phi, tower=t)
        assert [ring.flatten_vec(r) for r in mod.relations] == mod.basis
        assert ring.flat_map(mod.gamma) == [list(r) for r in t.powers[0]]
        assert mod.rank == len(Phi)
    # Z/9 modulo 3 is Z/3, whose Fitting ideal is (3, Y), not (Y)
    one = Z9.flat_map(_mat(Z9, [[1]]))
    mod = GammaModule(Z9, one, one, howell_form([[3]], 1, 9))
    assert mod.relations == (((3,),),)
    assert mod.size() == 3
    y = Poly.from_ints(Z9, [0, 1])
    assert ideal_classes_equal(
        fitting_ideal(mod), IdealClass(Z9, [Poly.from_ints(Z9, [3]), y]), 6)
    # a basis row of the wrong width, and flat maps of two sizes or of
    # a width the degree does not divide
    ident = GAUSS9.flat_map(mat_identity(GAUSS9, 2))
    with pytest.raises(InvariantViolation):
        GammaModule(GAUSS9, ident, ident, [[1, 0, 0]])
    with pytest.raises(InvariantViolation):
        GammaModule(GAUSS9, ident, ident[:2], [])
    with pytest.raises(InvariantViolation):
        GammaModule(GAUSS9, [[1, 0, 0]] * 3, [[1, 0, 0]] * 3, [])


def _off_by_one_power(ops, A, e):
    return mat_pow(ops, A, e + 1)


def test_limit_module_refuses_a_wrong_gamma_inverse(monkeypatch):
    """With the stored gamma_inv power off by one, gamma gamma_inv is
    gamma on the quotient: limit_module raises wherever gamma does not
    act as the identity there."""
    import nclfun.limits as limits_mod
    rng = random.Random(73)
    raised = 0
    for ring, Phi in _limit_cases(rng):
        t = coker_tower(ring, Phi)
        with monkeypatch.context() as patch:
            patch.setattr(limits_mod, "mat_pow", _off_by_one_power)
            try:
                mod = limit_module(ring, Phi, tower=t)
            except InvariantViolation as exc:
                assert "gamma_inv" in str(exc)
                raised += 1
                continue
        # only a gamma trivial on the quotient survives the mutation
        one = limit_module(ring, Phi, tower=t)
        for rel in mod.relations:
            assert in_span(ring.flatten_vec(rel), one.basis, ring.modulus)
        for e in mat_identity(ring, mod.rank):
            diff = [ring.sub(a, b) for a, b in zip(mat_vec(ring, one.gamma, e), e)]
            assert in_span(ring.flatten_vec(diff), one.basis, ring.modulus)
    assert raised >= 20, raised
    # [[4]] over Z/9: gamma_inv is 4^2 = 7, and 4^4 = 4 fails
    t = coker_tower(Z9, _mat(Z9, [[4]]))
    with monkeypatch.context() as patch:
        patch.setattr(limits_mod, "mat_pow", _off_by_one_power)
        with pytest.raises(InvariantViolation, match="gamma_inv"):
            limit_module(Z9, _mat(Z9, [[4]]), tower=t)


def test_limit_module_refuses_a_dropped_relation():
    """A tower whose stable layer lost one relation row makes
    limit_module raise, on every case with a relation to drop."""
    rng = random.Random(79)
    dropped = 0
    for ring, Phi in _limit_cases(rng):
        t = coker_tower(ring, Phi)
        n0 = t.stable_from
        rows = t.layers[n0].image_rows
        for k in range(len(rows)):
            layer = t.layers[n0]._replace(image_rows=rows[:k] + rows[k + 1:])
            layers = t.layers[:n0] + [layer] + t.layers[n0 + 1:]
            with pytest.raises(InvariantViolation):
                limit_module(ring, Phi, tower=t._replace(layers=layers))
            dropped += 1
    assert dropped >= 30, dropped


def test_limit_module_refuses_relations_gamma_moves():
    """[[1, 1], [0, 1]] over Z/9 is the identity at its stable level 2,
    so the span of e2 holds the defect of gamma_inv, but gamma moves e2
    to e1 + e2."""
    Phi = _mat(Z9, [[1, 1], [0, 1]])
    t = coker_tower(Z9, Phi)
    assert t.stable_from == 2 and t.layers[2].image_rows == []
    layers = list(t.layers)
    layers[2] = layers[2]._replace(image_rows=[[0, 1]])
    with pytest.raises(InvariantViolation, match="preserve"):
        limit_module(Z9, Phi, tower=t._replace(layers=layers))


def test_limit_module_runs_without_omega_products(monkeypatch):
    """limit_module and fitting_ideal take no Poly product and no dot
    over Omega; char_element and iwasawa_transform take no Poly
    product."""
    rng = random.Random(83)

    def forbidden(*args):
        raise AssertionError("Omega product on the Y side")

    cases = list(_limit_cases(rng))
    towers = [coker_tower(ring, Phi) for ring, Phi in cases]
    fs = [det_one_minus_scaled(ring, Phi, 1) for ring, Phi in cases]
    with monkeypatch.context() as patch:
        patch.setattr(Poly, "__mul__", forbidden)
        patch.setattr(CoeffRing, "dot", forbidden)
        fits = [fitting_ideal(limit_module(ring, Phi, tower=t))
                for (ring, Phi), t in zip(cases, towers)]
    with monkeypatch.context() as patch:
        patch.setattr(Poly, "__mul__", forbidden)
        chars = [char_element(ring, Phi) for ring, Phi in cases]
        bridged = [iwasawa_transform(ring, f, len(Phi))
                   for (ring, Phi), f in zip(cases, fs)]
    assert bridged == chars
    assert sum(len(fit.num_gens) for fit in fits) >= len(cases)


# --- kernel chain


def test_kernel_chain_of_four_frozen():
    rep = kernel_chain_report(Z9, _mat(Z9, [[4]]))
    assert [lay.size for lay in rep.layers[:2]] == [3, 9]
    assert rep.stable_from == 1
    assert rep.trace_is_mult_by_ell
    assert rep.vanishing_certified


def test_kernel_chain_randomized_certificates():
    rng = random.Random(47)
    for ring in (Z9, Z25, GAUSS9):
        for _ in range(6):
            s = rng.randrange(1, 4)
            rep = kernel_chain_report(ring, _rand_mat(ring, rng, s))
            assert rep.trace_is_mult_by_ell
            assert rep.vanishing_certified
            sizes = [lay.size for lay in rep.layers]
            assert sizes == sorted(sizes)


def _kernel_chain_oracle(ring, Phi, stable_from):
    """kernel_chain_report as it was before the tower kept its powers:
    every Phi^(ell^n) by mat_pow, each level's map matrix by one mat_vec
    per flat unit vector, and the trace sums from the identity."""
    s, ell, M = len(Phi), ring.ell, ring.modulus
    width = s * ring.deg
    ident = mat_identity(ring, s)
    n_top = stable_from + ring.m + 1
    pows = [mat_pow(ring, Phi, ell ** n) for n in range(n_top + 1)]
    sizes, kernels = [], []
    for P in pows:
        A = [[ring.sub(ident[i][j], P[i][j]) for j in range(s)]
             for i in range(s)]
        mat = []
        for u in range(width):
            basis = [0] * width
            basis[u] = 1
            img = mat_vec(ring, A, ring.unflatten_vec(basis))
            mat.append(ring.flatten_vec(img))
        rows = howell_form(left_kernel(mat, M), width, M)
        kernels.append(rows)
        sizes.append(span_size(rows, M))
    traces = []
    for n in range(n_top):
        V = acc = ident
        for _ in range(ell - 1):
            acc = mat_mul(ring, acc, pows[n])
            V = [[ring.add(V[i][j], acc[i][j]) for j in range(s)]
                 for i in range(s)]
        traces.append(V)
        for r in kernels[n + 1]:
            img = mat_vec(ring, V, ring.unflatten_vec(list(r)))
            assert in_span(ring.flatten_vec(img), kernels[n], M)
    ell_c = ring.int_embed(ell)
    mult_ok = all(
        mat_vec(ring, traces[stable_from], v) == [ring.mul(ell_c, a)
                                                  for a in v]
        for v in (ring.unflatten_vec(list(r)) for r in kernels[stable_from]))
    comp = ident
    for n in range(stable_from, stable_from + ring.m):
        comp = mat_mul(ring, traces[n], comp)
    vanished = all(
        all(map(ring.is_zero, mat_vec(ring, comp, ring.unflatten_vec(list(r)))))
        for r in kernels[stable_from])
    return kernels, sizes, mult_ok, vanished


def _tower_cases(rng):
    """(ring, Phi): [[x]] over Z/9[x]/(x^2+1), whose powers x^(3^n)
    alternate between x and -x, then seeded matrices of sizes 1-3."""
    yield GAUSS9, [[gen(GAUSS9)]]
    for ring in (Z9, Z25, GAUSS9, SPLIT3, CoeffRing(3, 3)):
        for _ in range(5):
            yield ring, _rand_mat(ring, rng, rng.randrange(1, 4))


# Z/25[x]/(x^3 + 2): degree 3, irreducible mod 5, m = 2
CUBIC25 = CoeffRing(5, 2, (2, 0, 0, 1))


def test_flat_map_algebra():
    """The flat map T sends products to products in reverse order,
    differences to differences, I to I and inverses to inverses, and
    the Omega matrix reads back off it."""
    rng = random.Random(61)
    invertible = 0
    for ring in (Z9, Z25, GAUSS9, SPLIT3, CoeffRing(3, 3), CUBIC25):
        zm = ZMod(ring.modulus)
        for s in range(1, 5):
            A, B = _rand_mat(ring, rng, s), _rand_mat(ring, rng, s)
            TA, TB = ring.flat_map(A), ring.flat_map(B)
            assert ring.flat_map(mat_mul(ring, A, B)) == mat_mul(zm, TB, TA)
            diff = [[ring.sub(a, b) for a, b in zip(ra, rb)]
                    for ra, rb in zip(A, B)]
            assert ring.flat_map(diff) == [
                [(a - b) % ring.modulus for a, b in zip(ra, rb)]
                for ra, rb in zip(TA, TB)]
            assert ring.flat_map(mat_identity(ring, s)) == mat_identity(
                zm, s * ring.deg)
            assert ring.omega_matrix(TA) == tuple(map(tuple, A))
            v = [_rand_elt(ring, rng) for _ in range(s)]
            assert mat_mul(zm, [ring.flatten_vec(v)], TA) == [
                ring.flatten_vec(mat_vec(ring, A, v))]
            X = mat_inverse_omega(ring, A)
            if X is not None:
                invertible += 1
                assert mat_mul(zm, ring.flat_map(X), TA) == mat_identity(
                    zm, s * ring.deg)
    assert invertible >= 12, invertible


def test_tower_matches_omega_oracle():
    """Every TowerReport field equals the Omega-side tower's, with the
    powers read back as Omega matrices."""
    rng = random.Random(67)
    cases = list(_tower_cases(rng)) + [
        (CUBIC25, _rand_mat(CUBIC25, rng, rng.randrange(1, 4)))
        for _ in range(5)]
    for ring, Phi in cases:
        t = coker_tower(ring, Phi)
        want = _coker_tower_oracle(ring, Phi)
        assert tuple(t)[:-1] == want[:-1], (ring, Phi)
        assert [ring.omega_matrix(F) for F in t.powers] == want[-1]


def test_tower_power_lookup_equals_mat_pow():
    rng = random.Random(53)
    periods = []
    for ring, Phi in _tower_cases(rng):
        t = coker_tower(ring, Phi)
        periods.append((t.repeat_at, t.period))
        assert len(t.powers) == t.repeat_at + t.period
        for n in range(t.repeat_at + 3 * t.period + 1):
            want = mat_pow(ring, Phi, ring.ell ** n)
            got = ring.omega_matrix(t.powers[_power_index(t, n)])
            assert [list(r) for r in got] == want
    assert periods[0] == (0, 2)
    assert sum(1 for _, period in periods if period == 1) >= 10


def test_kernel_chain_reads_the_tower_powers(monkeypatch):
    """No mat_pow, one kernel per distinct stored power, and no dot
    over Omega: the chain runs on the tower's flat maps over Z/M."""
    import nclfun.limits as limits_mod
    rng = random.Random(59)
    calls, kernel_calls = [], []

    def no_omega_dot(*args):
        raise AssertionError("kernel chain took a dot over Omega")

    def counting_mat_pow(*args):
        calls.append(args)
        return mat_pow(*args)

    def counting_left_kernel(*args):
        kernel_calls.append(args)
        return left_kernel(*args)

    monkeypatch.setattr(limits_mod, "mat_pow", counting_mat_pow)
    monkeypatch.setattr(limits_mod, "left_kernel", counting_left_kernel)
    repeated = 0
    for ring, Phi in _tower_cases(rng):
        t = coker_tower(ring, Phi)
        calls.clear()
        kernel_calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(CoeffRing, "dot", no_omega_dot)
            rep = kernel_chain_report(ring, Phi, tower=t)
            assert calls == []
            distinct = {_power_index(t, n) for n in range(len(rep.layers))}
            assert len(kernel_calls) == len(distinct)
            assert kernel_chain_report(ring, Phi) == rep
        repeated += len(rep.layers) - len(distinct)
        kernels, sizes, mult_ok, vanished = _kernel_chain_oracle(
            ring, Phi, t.stable_from)
        assert [lay.kernel_rows for lay in rep.layers] == kernels
        assert [lay.size for lay in rep.layers] == sizes
        assert (rep.trace_is_mult_by_ell, rep.vanishing_certified) == (
            mult_ok, vanished)
    assert repeated > 0


def _trace_loop(zm, F, ell):
    """The sum of F^k over k < ell, one power after the other from the
    identity."""
    M = zm.modulus
    acc = S = mat_identity(zm, len(F))
    for _ in range(ell - 1):
        acc = mat_mul(zm, acc, F)
        S = [[(a + b) % M for a, b in zip(s, t)] for s, t in zip(S, acc)]
    return S


def _count_trace_products(monkeypatch):
    """The list that each mat_mul of limits appends to."""
    import nclfun.limits as limits_mod
    calls = []

    def counting(*args):
        calls.append(args)
        return mat_mul(*args)

    monkeypatch.setattr(limits_mod, "mat_mul", counting)
    return calls


def test_trace_sum_takes_ell_minus_2_products_at_3_and_5(monkeypatch):
    """At ell = 3 and 5, the primes the benchmark's imc cases use, a
    trace sum takes ell - 2 products, 1 and 3, as the plain loop did."""
    from nclfun.limits import _trace_sum
    calls = _count_trace_products(monkeypatch)
    rng = random.Random(83)
    for ring in (Z9, Z25, GAUSS9, SPLIT3, CoeffRing(5, 1)):
        zm = ZMod(ring.modulus)
        for s in (1, 2, 3):
            F = ring.flat_map(_rand_mat(ring, rng, s))
            calls.clear()
            S = _trace_sum(zm, F, ring.ell)
            assert len(calls) == ring.ell - 2
            assert S == _trace_loop(zm, F, ring.ell)


@pytest.mark.parametrize("ell", [7, 11, 101, 10007])
def test_kernel_chain_by_doubling_matches_the_loop(monkeypatch, ell):
    """Over Z/ell and Z/ell^2 every trace sum of the tower equals the
    loop's, and so does the whole report."""
    import nclfun.limits as limits_mod
    from nclfun.limits import _trace_sum
    rng = random.Random(ell)
    for m in (1, 2):
        ring = CoeffRing(ell, m)
        zm = ZMod(ring.modulus)
        for Phi in (_mat(ring, [[2, 1], [1, 1]]), _rand_mat(ring, rng, 2),
                    _rand_mat(ring, rng, 3)):
            tower = coker_tower(ring, Phi)
            for F in tower.powers:
                assert _trace_sum(zm, F, ell) == _trace_loop(zm, F, ell)
            rep = kernel_chain_report(ring, Phi, tower=tower)
            with monkeypatch.context() as patch:
                patch.setattr(limits_mod, "_trace_sum", _trace_loop)
                assert kernel_chain_report(ring, Phi, tower=tower) == rep


def test_trace_sum_at_a_large_ell_takes_products_by_the_bit(monkeypatch):
    """At ell = 1 000 003 a trace sum takes at most 4 products per bit
    of ell, where the loop took 1 000 001; (I - F) S = I - F^ell checks
    the sum."""
    from nclfun.limits import _one_minus, _trace_sum
    ell = 1000003
    ring = CoeffRing(ell, 1)
    zm, M = ZMod(ell), ell
    rng = random.Random(89)
    for Phi in (_mat(ring, [[2, 1], [1, 1]]), _rand_mat(ring, rng, 3)):
        tower = coker_tower(ring, Phi)
        calls = _count_trace_products(monkeypatch)
        for F in tower.powers:
            calls.clear()
            S = _trace_sum(zm, F, ell)
            assert len(calls) <= 4 * ell.bit_length()
            lhs = mat_mul(zm, _one_minus(F, M), S)
            assert lhs == _one_minus(mat_pow(zm, F, ell), M)
        monkeypatch.undo()
        rep = kernel_chain_report(ring, Phi, tower=tower)
        assert rep.trace_is_mult_by_ell and rep.vanishing_certified


def test_tower_howell_forms_match_pairwise_oracle():
    """The Howell forms of the tower and its kernels, [I - F | I] for
    every stored flat power F, are the pairwise oracle's rows."""
    import nclfun.limits as limits_mod
    rng = random.Random(73)
    for ring, Phi in _tower_cases(rng):
        t = coker_tower(ring, Phi)
        M = ring.modulus
        for F in t.powers:
            aug = [row + [int(i == j) for j in range(len(F))]
                   for i, row in enumerate(limits_mod._one_minus(F, M))]
            width = 2 * len(F)
            assert howell_form(aug, width, M) == pairwise_howell(
                aug, width, M), (ring, Phi)


def test_zmod_products_get_reduced_entries(monkeypatch):
    """Every ZMod product of a verify_mc_commutative and kernel chain
    run over Z/9[x]/(x^2 + 1) has its entries in [0, M), as ZMod
    promises and the packed rows need."""
    import nclfun.linalg as linalg_mod
    packed = linalg_mod._packed_mat_mul
    seen = []

    def checking(A, B, M):
        seen.append(M)
        for row in list(A) + list(B):
            assert all(type(a) is int and 0 <= a < M for a in row)
        return packed(A, B, M)

    monkeypatch.setattr(linalg_mod, "_packed_mat_mul", checking)
    rng = random.Random(79)
    for s in (2, 3):
        Phi = _structured_phi(GAUSS9, rng, s)
        out = verify_mc_commutative(GAUSS9, Phi, prec=2 * (s * 2 + s))
        assert out["ok"]
        rep = kernel_chain_report(GAUSS9, Phi)
        assert rep.trace_is_mult_by_ell and rep.vanishing_certified
    assert len(seen) > 20 and set(seen) == {9}


# --- ideals


def _y(ring):
    return Poly(ring, [ring.zero, ring.one])


def test_ideal_canonical_form_unit_times_generator():
    f = Poly.from_ints(Z9, [3, 1])
    g = scale(f, Z9.int_embed(2))
    assert ideal_canonical_form(Z9, [f], 12) == ideal_canonical_form(Z9, [g], 12)


def test_ideal_canonical_form_separates_proper_ideals():
    y = _y(Z9)
    a = ideal_canonical_form(Z9, [Poly.from_ints(Z9, [3]), y], 10)
    b = ideal_canonical_form(Z9, [y], 10)
    assert a != b
    assert ideal_canonical_form(Z9, [y * y], 10) != b


def test_ideal_canonical_form_x_closure():
    # x is a unit of the Gaussian ring, so (x) is everything
    x = Poly(GAUSS9, [gen(GAUSS9)])
    one = Poly.one(GAUSS9)
    assert (ideal_canonical_form(GAUSS9, [x], 8)
            == ideal_canonical_form(GAUSS9, [one], 8))


def test_ideal_canonical_form_generator_order_irrelevant():
    rng = random.Random(13)
    polys = [Poly.from_ints(Z9, [rng.randrange(9) for _ in range(4)])
             for _ in range(3)]
    shuffled = polys[::-1]
    assert (ideal_canonical_form(Z9, polys, 10)
            == ideal_canonical_form(Z9, shuffled, 10))


def _howell_ideal_form(ring, gens, prec):
    """Reference for ideal_canonical_form: one Howell form over Z/M of
    the rows x^u T^j g for every generator g, 0 <= u < D, 0 <= j < prec,
    the whole ideal of Omega[[T]]/T^prec, with no cut at a certified
    power of T.  Equal ideals give equal row lists."""
    D = ring.deg
    width = prec * D
    rows = []
    for flat in ring.omega_rows_to_int_rows(
            [[g.coeff(k) for k in range(prec)] for g in gens]):
        lead = next((k for k, v in enumerate(flat) if v), width)
        for j in range(prec - lead // D):
            rows.append([0] * (j * D) + flat[:width - j * D])
    return howell_form(rows, width, ring.modulus)


def _closure_loop_form(ring, gens, prec):
    """Reference for _howell_ideal_form: Howell form of the plain
    generators, closed under T- and x-shifts by a fixed-point loop."""
    D = ring.deg
    width = prec * D
    M = ring.modulus

    def flatten_poly(p):
        out = []
        for k in range(prec):
            out.extend(ring.flatten_vec([p.coeff(k)]))
        return out

    def t_shift(flat):
        return [0] * D + flat[:-D]

    def x_shift(flat):
        out = []
        for k in range(prec):
            out.extend(ring.x_shift_int_row(flat[k * D:(k + 1) * D]))
        return out

    basis = howell_form([flatten_poly(p) for p in gens], width, M)
    queue = list(basis)
    while queue:
        fresh = []
        for r in queue:
            for cand in (t_shift(list(r)), x_shift(list(r))):
                if any(reduce_vector(cand, basis, M)):
                    fresh.append(cand)
        if not fresh:
            break
        basis = howell_form([list(r) for r in basis] + fresh, width, M)
        queue = fresh
    return basis


def _rand_gens(ring, rng):
    gens = []
    for _ in range(rng.randrange(1, 4)):
        coeffs = [_rand_elt(ring, rng) for _ in range(rng.randrange(1, 6))]
        if rng.random() < 0.5:
            while ring.is_unit(coeffs[0]):
                coeffs[0] = _rand_elt(ring, rng)
        gens.append(Poly(ring, coeffs))
    if rng.random() < 0.2:
        gens.append(Poly.zero(ring))
    if rng.random() < 0.3:
        gens.append(rng.choice(gens))
    rng.shuffle(gens)
    return gens


def test_ideal_canonical_form_matches_closure_loop():
    rings = (Z9, CoeffRing(3, 3), CoeffRing(5, 1), GAUSS9,
             CoeffRing(5, 1, (4, 0, 1)))
    rng = random.Random(2481)
    for case in range(200):
        ring = rings[case % len(rings)]
        prec = 1 + case % 12
        gens = _rand_gens(ring, rng)
        assert (_howell_ideal_form(ring, gens, prec)
                == _closure_loop_form(ring, gens, prec)), (ring, gens, prec)


# Z/l^m; degree-2 rings over Z/9 and Z/25, irreducible mod l or split
# into factors with trivial or non-trivial lifts (x^2 + 3x + 8 =
# (x + 7)(x + 5) over Z/9, x^2 + 4 = (x + 11)(x + 14) over Z/25), the
# same over Z/3, and Z/8[x]/(x^2 + x + 1); degree 3 over Z/4 and Z/9,
# irreducible, with two factors and with three (x^3 + 3x^2 + 8x =
# x (x + 7)(x + 5) over Z/9)
IDEAL_RINGS = (
    Z9, CoeffRing(3, 3), CoeffRing(5, 1), Z25,
    GAUSS9, CoeffRing(3, 2, (8, 0, 1)), CoeffRing(3, 2, (8, 3, 1)),
    CoeffRing(5, 2, (4, 0, 1)), CoeffRing(3, 1, (1, 0, 1)), SPLIT3,
    CoeffRing(2, 3, (1, 1, 1)), CoeffRing(2, 2, (1, 1, 0, 1)),
    CoeffRing(3, 2, (1, 2, 0, 1)), CoeffRing(3, 2, (3, 1, 0, 1)),
    CoeffRing(3, 2, (0, 8, 3, 1)),
)


def _rand_ideal_gen(ring, rng):
    """A polynomial led by a random power of T, with coefficients
    divisible by random powers of ell, so that proper ideals of every
    shape come up."""
    coeffs = [ring.zero] * rng.randrange(4)
    for _ in range(rng.randrange(1, 5)):
        scale = ring.ell ** rng.randrange(ring.m + 1)
        coeffs.append(ring.element([scale * rng.randrange(ring.modulus)
                                    for _ in range(ring.deg)]))
    return Poly(ring, coeffs)


def _rand_series_unit(ring, rng):
    while True:
        head = _rand_elt(ring, rng)
        if ring.is_unit(head):
            return Poly(ring, [head] + [_rand_elt(ring, rng)
                                        for _ in range(rng.randrange(3))])


def _ideal_pair(ring, rng):
    """Two generator lists.  Half the time the second spans the same
    ideal: unit multiples of the first, one generator plus a multiple of
    another, an extra multiple, shuffled.  Otherwise it is drawn afresh,
    or is the first plus one fresh generator, and usually differs."""
    A = [_rand_ideal_gen(ring, rng) for _ in range(rng.randrange(1, 4))]
    if rng.random() < 0.5:
        B = [g * _rand_series_unit(ring, rng) for g in A]
        if len(B) > 1:
            i, j = rng.sample(range(len(B)), 2)
            B[j] = B[j] + B[i] * _rand_ideal_gen(ring, rng)
        B.append(A[0] * _rand_ideal_gen(ring, rng))
        rng.shuffle(B)
    else:
        B = [_rand_ideal_gen(ring, rng) for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.5:
            B = A + B[:1]
    return A, B


def test_ideal_canonical_form_decides_as_howell():
    """The cut form calls two ideals equal exactly when the Howell form
    of the whole ideal does, over every ring of IDEAL_RINGS."""
    rng = random.Random(6006)
    verdicts = {True: 0, False: 0}
    for case in range(900):
        ring = IDEAL_RINGS[case % len(IDEAL_RINGS)]
        prec = rng.randrange(1, 13)
        A, B = _ideal_pair(ring, rng)
        want = (_howell_ideal_form(ring, A, prec)
                == _howell_ideal_form(ring, B, prec))
        got = (ideal_canonical_form(ring, A, prec)
               == ideal_canonical_form(ring, B, prec))
        assert got == want, (ring, A, B, prec)
        verdicts[want] += 1
    assert min(verdicts.values()) > 200, verdicts


def test_truncated_form_equals_direct_form():
    rng = random.Random(7117)
    for case in range(150):
        ring = IDEAL_RINGS[case % len(IDEAL_RINGS)]
        prec = rng.randrange(1, 15)
        gens, _ = _ideal_pair(ring, rng)
        form = ideal_canonical_form(ring, gens, prec)
        for low in range(prec + 1):
            assert (_truncate_form(ring, form, low)
                    == ideal_canonical_form(ring, gens, low)), (
                ring, gens, prec, low)


def test_howell_width_is_the_certified_bound(monkeypatch):
    """One Howell form of width b D, b the largest min(prec, m c_i) over
    the residue factors g_i, c_i the least T-degree at which some
    generator is nonzero mod (l, g_i)."""
    import nclfun.limits as limits
    widths = []

    def recording(rows, ncols, M):
        widths.append(ncols)
        return howell_form(rows, ncols, M)

    monkeypatch.setattr(limits, "howell_form", recording)
    split9 = CoeffRing(3, 2, (8, 0, 1))
    x = gen(split9)
    # x - 1 is a unit where x = -1 (c = 0) and vanishes where x = 1,
    # where the T coefficient 1 gives c = 1, so b = m c = 2
    g = Poly(split9, [split9.sub(x, split9.one), split9.one])
    ideal_canonical_form(split9, [g], 10)
    assert widths == [4]
    # (x - 1) + (x + 1) T has no coefficient that is a unit of the whole
    # ring, yet each residue factor sees one by T^1
    widths.clear()
    g = Poly(split9, [split9.sub(x, split9.one), split9.add(x, split9.one)])
    ideal_canonical_form(split9, [g], 10)
    assert widths == [4]
    # over Z/27, 3 + T has c = 1, so T^3 lies in (3 + T)
    widths.clear()
    assert ideal_canonical_form(CoeffRing(3, 3), [Poly.from_ints(
        CoeffRing(3, 3), [3, 1])], 10)[0] == 3
    assert widths == [3]
    # over a field the T-order is the whole form and no row survives
    widths.clear()
    z5 = CoeffRing(5, 1)
    assert ideal_canonical_form(
        z5, [Poly.from_ints(z5, [0, 0, 2, 1])], 10) == (2, ())
    assert widths == [2]


def test_ideal_class_validation_and_product():
    y = _y(Z9)
    with pytest.raises(InvariantViolation):
        IdealClass(Z9, [y, _y(GAUSS9)])
    a = IdealClass(Z9, [y])
    b = IdealClass(Z9, [Poly.from_ints(Z9, [3]), y])
    ab = a * b
    assert len(ab.num_gens) == 2
    with pytest.raises(InvariantViolation):
        a * IdealClass(GAUSS9, [_y(GAUSS9)])


def test_ideal_class_cross_cancellation():
    y = _y(Z9)
    c = Poly.from_ints(Z9, [1, 2])  # unit constant term
    assert ideal_classes_equal(IdealClass(Z9, [y * c]), IdealClass(Z9, [y]),
                               16)


def test_precision_mismatch_is_loud():
    y = _y(Z9)
    a = IdealClass(Z9, [y * y * y * y * y * y])
    b = IdealClass(Z9, [Poly.zero(Z9)])
    with pytest.raises(PrecisionMismatch):
        ideal_classes_equal(a, b, 5)
    # y^12 and 0 agree at T^3 and at T^11
    y12 = IdealClass(Z9, [Poly(Z9, [Z9.zero] * 12 + [Z9.one])])
    assert ideal_classes_equal(y12, b, 3)


def _verdict(compare, a, b, prec):
    try:
        return compare(a, b, prec)
    except PrecisionMismatch:
        return "mismatch"


def _rand_in_P(ring, rng):
    """A polynomial of degree up to 3 with a unit constant term."""
    while True:
        c = _rand_elt(ring, rng)
        if ring.is_unit(c):
            return Poly(ring, [c] + [_rand_elt(ring, rng)
                                     for _ in range(rng.randrange(4))])


def _ideal_class_pairs(rng, ring):
    """Pairs of classes: random generators, a class against itself times
    a unit, and y^6 against 0, which flips between T^5 and T^13."""
    for _ in range(6):
        yield (IdealClass(ring, _rand_gens(ring, rng)),
               IdealClass(ring, _rand_gens(ring, rng)), 6)
        a = _rand_gens(ring, rng)
        unit = _rand_in_P(ring, rng)
        yield IdealClass(ring, a), IdealClass(ring, [g * unit for g in a]), 8
    y = _y(ring)
    y6 = y * y * y * y * y * y
    yield IdealClass(ring, [y6]), IdealClass(ring, [Poly.zero(ring)]), 5


def _two_precision_equal(a, b, prec):
    """ideal_classes_equal with each form computed at both precisions
    rather than cut from the wider one."""
    first, second = (ideal_canonical_form(a.ring, a.num_gens, p)
                     == ideal_canonical_form(b.ring, b.num_gens, p)
                     for p in (prec, prec + GUARD))
    if first != second:
        raise PrecisionMismatch("flips")
    return first


def test_ideal_classes_equal_takes_no_products(monkeypatch):
    rng = random.Random(83)
    cases = [pair for ring in (Z9, GAUSS9)
             for pair in _ideal_class_pairs(rng, ring)]
    want = [_verdict(_two_precision_equal, *c) for c in cases]
    assert {True, False, "mismatch"} <= set(want)

    def no_product(self, other):
        raise AssertionError("a product in the ideal comparison")

    monkeypatch.setattr(Poly, "__mul__", no_product)
    assert [_verdict(ideal_classes_equal, *c) for c in cases] == want


def test_ideal_classes_times_p_elements_keep_their_verdicts():
    """An element of P is a unit mod every power of T, so a generator
    list times one or two of them spans the same ideal: the canonical
    forms agree at every precision, and so do the verdicts."""
    rng = random.Random(89)
    verdicts = set()
    for ring in (Z9, GAUSS9, CoeffRing(5, 1, (4, 0, 1))):
        def times_P(cls):
            dens = [_rand_in_P(ring, rng)
                    for _ in range(rng.randrange(1, 3))]
            return IdealClass(ring, [g * d for g in cls.num_gens
                                     for d in dens])

        for a, b, prec in _ideal_class_pairs(rng, ring):
            a_P = times_P(a)
            for p in range(3, 12):
                assert (ideal_canonical_form(ring, a.num_gens, p)
                        == ideal_canonical_form(ring, a_P.num_gens, p))
            want = _verdict(ideal_classes_equal, a, b, prec)
            assert _verdict(ideal_classes_equal, a_P, b, prec) == want
            assert _verdict(ideal_classes_equal, a_P, times_P(b),
                            prec) == want
            verdicts.add(want)
    assert verdicts == {True, False, "mismatch"}


# --- Fitting ideal and characteristic element


def _presentation(module):
    """Rows of the presentation over Omega[Y], as Poly: the stored
    relations, then Y e_j - (gamma - 1) e_j for each generator j."""
    R = module.ring
    s = module.rank
    rows = [[Poly(R, [c]) for c in rel] for rel in module.relations]
    for j in range(s):
        row = []
        for i in range(s):
            gm1 = R.sub(module.gamma[i][j], R.one if i == j else R.zero)
            p = Poly(R, [R.neg(gm1)])
            row.append(p + _y(R) if i == j else p)
        rows.append(row)
    return rows


def _unit_pivot(ring, rows):
    """(row, column) of the first constant entry, in row-major order,
    whose coefficient is a unit of Omega; None if there is none."""
    for k, row in enumerate(rows):
        for c, p in enumerate(row):
            if p.degree == 0 and ring.is_unit(p.coeffs[0]):
                return k, c
    return None


def _poly_row_fitting(module):
    """fitting_ideal as it was before the elimination ran on coefficient
    lists: the unit-pivot elimination on rows of Poly, each entry
    updated as a - (r[c] u^-1) b by Poly products, then the same
    minors, dedup and sort."""
    R = module.ring
    rows = _presentation(module)
    ncols = module.rank
    while True:
        pivot = _unit_pivot(R, rows)
        if pivot is None:
            break
        k, c = pivot
        prow = rows.pop(k)
        u_inv = R.inv(prow[c].coeffs[0])
        reduced = []
        for row in rows:
            if not row[c].is_zero():
                mult = scale(row[c], u_inv)
                row = [a + -(mult * b) for a, b in zip(row, prow)]
            row = row[:c] + row[c + 1:]
            if not all(p.is_zero() for p in row):
                reduced.append(row)
        rows = reduced
        ncols -= 1
    gens = []
    seen = set()
    for subset in combinations(range(len(rows)), ncols):
        d = poly_det([rows[k] for k in subset], R)
        if not d.is_zero() and d.coeffs not in seen:
            seen.add(d.coeffs)
            gens.append(d)
    gens.sort(key=lambda p: (p.degree, p.coeffs))
    return IdealClass(R, gens or [Poly.zero(R)])


def _char_element_oracle(ring, Phi):
    """char_element as it was: the sum of c_k (1+Y)^k over the
    Berkowitz coefficients, with a Poly product per power."""
    cp = berkowitz_charpoly(ring, Phi)
    one_plus_y = Poly(ring, [ring.one, ring.one])
    acc = Poly.one(ring)
    out = Poly.zero(ring)
    for c in cp:
        out = out + scale(acc, c)
        acc = acc * one_plus_y
    return out


def _iwasawa_transform_oracle(ring, f, s):
    """iwasawa_transform as it was: the sum of f_k (1+Y)^(s-k), the
    powers of 1 + Y by Poly products."""
    one_plus_y = Poly(ring, [ring.one, ring.one])
    pows = [Poly.one(ring)]
    for _ in range(s):
        pows.append(pows[-1] * one_plus_y)
    out = Poly.zero(ring)
    for k in range(f.degree + 1):
        out = out + scale(pows[s - k], f.coeff(k))
    return out


def _all_minors_fitting(module):
    """Reference for fitting_ideal: every maximal minor of the full
    presentation, C(r + s, s) determinants, with no reduction."""
    R = module.ring
    rows = _presentation(module)
    gens = {}
    for subset in combinations(range(len(rows)), module.rank):
        d = poly_det([rows[k] for k in subset], R)
        if not d.is_zero():
            gens.setdefault(d.coeffs, d)
    return IdealClass(R, list(gens.values()) or [Poly.zero(R)])


def _unitriangular(ring, rng, s, lower):
    out = [[ring.one if i == j else ring.zero for j in range(s)]
           for i in range(s)]
    for i in range(s):
        for j in range(s):
            if (j < i) if lower else (j > i):
                out[i][j] = _rand_elt(ring, rng)
    return out


def _structured_phi(ring, rng, s):
    """P J P^-1 with J upper triangular and half of its diagonal
    congruent to 1 mod ell, so the limit module is never trivial."""
    J = _unitriangular(ring, rng, s, lower=False)
    for i in range(s):
        residue = 1 if i < (s + 1) // 2 else rng.choice(
            [r for r in range(ring.ell) if r != 1])
        J[i][i] = ring.int_embed(
            residue + ring.ell * rng.randrange(ring.modulus // ring.ell))
    P = mat_mul_omega(ring, _unitriangular(ring, rng, s, lower=True),
                      _unitriangular(ring, rng, s, lower=False))
    return mat_mul_omega(ring, mat_mul_omega(ring, P, J),
                         mat_inverse_omega(ring, P))


def _fitting_prec(module):
    return max(12, 2 * module.rank * (module.ring.m + 1))


def _assert_matches_all_minors(module):
    fit = fitting_ideal(module)
    want = _all_minors_fitting(module)
    assert ideal_classes_equal(fit, want, _fitting_prec(module)), (
        module.ring, module.gamma, module.relations)
    return fit


def test_fitting_ideal_frozen_oracles():
    fit = _assert_matches_all_minors(limit_module(Z9, _mat(Z9, [[4]])))
    assert [p.coeffs for p in fit.num_gens] == [
        Poly.from_ints(Z9, [6, 1]).coeffs]
    # the non-unit relation 3 leaves nothing to eliminate: (3, Y)
    hand = _hand_module(Z9, 1, [(Z9.int_embed(3),)], _mat(Z9, [[1]]),
                        _mat(Z9, [[1]]))
    fit2 = _assert_matches_all_minors(hand)
    assert [p.coeffs for p in fit2.num_gens] == [
        Poly.from_ints(Z9, [3]).coeffs, Poly.from_ints(Z9, [0, 1]).coeffs]


def test_fitting_ideal_matches_all_minors_on_seeded_phi():
    """Every (ring, size) pair for sizes 1-6, once with a random Phi
    and once with P J P^-1.  The oracle runs where it takes at most 100
    minors; it would take 18 564 for a random size-6 Phi over a
    quadratic ring, so the larger cases are compared with the
    characteristic element instead."""
    rng = random.Random(5150)
    rings = (Z9, CoeffRing(3, 3), CoeffRing(5, 1), GAUSS9, SPLIT3)
    oracle_sizes = set()
    for case in range(60):
        ring = rings[case % len(rings)]
        s = 1 + case % 6
        if case < 30:
            Phi = _rand_mat(ring, rng, s)
        else:
            Phi = _structured_phi(ring, rng, s)
        module = limit_module(ring, Phi)
        if comb(len(module.relations) + s, s) <= 100:
            _assert_matches_all_minors(module)
            oracle_sizes.add((ring.deg, s))
        else:
            assert ideal_classes_equal(
                fitting_ideal(module),
                IdealClass(ring, [char_element(ring, Phi)]),
                _fitting_prec(module)), (ring, Phi)
    assert {s for d, s in oracle_sizes if d == 1} == set(range(1, 7))
    assert {s for d, s in oracle_sizes if d == 2} == set(range(1, 5))


def test_fitting_ideal_hand_presentations():
    ident = _mat(Z9, [[1, 0], [0, 1]])
    y = _y(Z9)
    # a unit relation solves for the only generator: the unit ideal
    zero = _hand_module(Z9, 1, [(Z9.int_embed(2),)], _mat(Z9, [[1]]),
                        _mat(Z9, [[1]]))
    assert [p.coeffs for p in _assert_matches_all_minors(zero).num_gens] \
        == [Poly.one(Z9).coeffs]
    # the same from a limit module: 1 - 2 is a unit, nothing survives
    fit = _assert_matches_all_minors(limit_module(Z9, _mat(Z9, [[2]])))
    assert [p.coeffs for p in fit.num_gens] == [Poly.one(Z9).coeffs]
    # free with gamma = 1: no unit entry, one minor, Y^s
    for s in (1, 2, 3):
        ident_s = _mat(Z9, [[int(i == j) for j in range(s)]
                            for i in range(s)])
        free = _hand_module(Z9, s, [], ident_s, ident_s)
        fit = _assert_matches_all_minors(free)
        assert [p.coeffs for p in fit.num_gens] == [
            Poly(Z9, [Z9.zero] * s + [Z9.one]).coeffs]
    # the relation 3 e1 and the row Y e1 both vanish once e1 = 0 is
    # used, leaving Omega e2 with gamma = 1
    vanish = _hand_module(Z9, 2, [(Z9.one, Z9.zero),
                                  (Z9.int_embed(3), Z9.zero)],
                          ident, ident)
    fit = _assert_matches_all_minors(vanish)
    assert [p.coeffs for p in fit.num_gens] == [y.coeffs]
    # non-unit relations of a twisted action over a quadratic ring
    x = gen(GAUSS9)
    three = GAUSS9.int_embed(3)
    twist = _hand_module(GAUSS9, 2, [(three, GAUSS9.zero),
                                     (GAUSS9.zero, three)],
                         [[GAUSS9.one, x], [GAUSS9.zero, GAUSS9.one]],
                         [[GAUSS9.one, GAUSS9.neg(x)],
                          [GAUSS9.zero, GAUSS9.one]])
    _assert_matches_all_minors(twist)


def test_fitting_ideal_size_budget():
    """A size-6 Fitting ideal takes well under half a second and size 8
    finishes; the all-minors route takes seconds at size 6."""
    rng = random.Random(6006)
    for ring in (Z9, CoeffRing(3, 3), GAUSS9):
        for Phi in (_rand_mat(ring, rng, 6), _structured_phi(ring, rng, 6)):
            module = limit_module(ring, Phi)
            t0 = time.perf_counter()
            fit = fitting_ideal(module)
            elapsed = time.perf_counter() - t0
            assert elapsed < 0.5, (ring, elapsed)
            assert ideal_classes_equal(
                fit, IdealClass(ring, [char_element(ring, Phi)]),
                _fitting_prec(module))
    for ring in (Z9, GAUSS9):
        Phi = _structured_phi(ring, rng, 8)
        module = limit_module(ring, Phi)
        fit = fitting_ideal(module)
        assert ideal_classes_equal(
            fit, IdealClass(ring, [char_element(ring, Phi)]),
            _fitting_prec(module))


# Z/9, Z/27, Z/9[x]/(x^2 + 1) (m = 2), Z/3[x]/(x^2 + 2) and
# Z/25[x]/(x^3 + 2)
Y_SIDE_RINGS = (Z9, CoeffRing(3, 3), GAUSS9, SPLIT3, CUBIC25)


def _rand_relations(ring, rng, s):
    """Relation rows for a presentation built by hand: some with a unit
    entry, some divisible by ell, some zero."""
    rows = []
    for _ in range(rng.randrange(4)):
        scale = ring.ell ** rng.randrange(ring.m + 1)
        rows.append([ring.element([scale * rng.randrange(ring.modulus)
                                   for _ in range(ring.deg)])
                     for _ in range(s)])
    return rows


def test_fitting_ideal_matches_poly_row_elimination():
    """The elimination on coefficient lists gives byte-identical
    generator lists to the Poly-row elimination, on limit modules of
    random and P J P^-1 matrices of sizes 1-5 and on presentations with
    random relations."""
    rng = random.Random(8111)
    cases = 0
    for ring in Y_SIDE_RINGS:
        for s in range(1, 6):
            Phi = _structured_phi(ring, rng, s)
            modules = [limit_module(ring, Phi),
                       SimpleNamespace(
                           ring=ring, rank=s,
                           relations=_rand_relations(ring, rng, s),
                           gamma=Phi)]
            if s <= 3:
                modules.append(limit_module(ring, _rand_mat(ring, rng, s)))
            for module in modules:
                got = fitting_ideal(module)
                want = _poly_row_fitting(module)
                assert [g.coeffs for g in got.num_gens] == [
                    g.coeffs for g in want.num_gens], (ring, module.gamma)
                cases += 1
    assert cases == 65


def test_shifts_match_poly_oracles():
    """Horner in 1 + Y and the binomial sum agree with the Poly-product
    sums they replace, for every degree of f up to s."""
    rng = random.Random(8117)
    for ring in Y_SIDE_RINGS:
        for s in range(1, 6):
            for Phi in (_rand_mat(ring, rng, s), _structured_phi(ring, rng, s)):
                assert char_element(ring, Phi) == _char_element_oracle(
                    ring, Phi)
                f = det_one_minus_scaled(ring, Phi, 1)
                assert iwasawa_transform(ring, f, s) == \
                    _iwasawa_transform_oracle(ring, f, s)
            for deg in range(-1, s + 1):
                f = Poly(ring, [_rand_elt(ring, rng) for _ in range(deg + 1)])
                assert iwasawa_transform(ring, f, s) == \
                    _iwasawa_transform_oracle(ring, f, s)


def test_char_element_against_products():
    ch = char_element(Z9, _mat(Z9, [[4, 0], [0, 7]]))
    assert ch == _y(Z9) * _y(Z9)
    ch1 = char_element(Z9, _mat(Z9, [[4]]))
    assert ch1 == Poly.from_ints(Z9, [-3, 1])


def test_iwasawa_transform_bridges_determinants():
    rng = random.Random(99)
    for ring in (Z9, Z25, GAUSS9, SPLIT3):
        for _ in range(8):
            s = rng.randrange(1, 4)
            Phi = _rand_mat(ring, rng, s)
            f = det_one_minus_scaled(ring, Phi, 1)
            assert iwasawa_transform(ring, f, s) == char_element(ring, Phi)
    with pytest.raises(InvariantViolation):
        iwasawa_transform(Z9, _y(Z9) * _y(Z9), 1)


def test_unit_certificate_for_the_worked_example():
    # 2 * (1 - 4T) = 2 + T = T - 7 over Z/9, exactly
    lhs = scale(Poly.from_ints(Z9, [1, -4]), Z9.int_embed(2))
    rhs = Poly.from_ints(Z9, [-7, 1])
    assert lhs == rhs
    assert eq_up_to_unit(Poly.from_ints(Z9, [-7, 1]),
                         Poly.from_ints(Z9, [1, -4]))


def test_verify_mc_on_worked_example():
    out = verify_mc_commutative(Z9, _mat(Z9, [[4]]), prec=12)
    assert out["ok"] and out["ideals_equal"] and out["bridge_exact"]
    assert out["stable_from"] == 1
    assert out["right"] == "6 + Y"


def test_verify_mc_floor_enforced():
    with pytest.raises(InvariantViolation):
        verify_mc_commutative(Z9, _mat(Z9, [[4]]), prec=5)


def test_verify_mc_randomized_small():
    rng = random.Random(205)
    for ring in (Z9, Z25, SPLIT3):
        for _ in range(5):
            s = rng.randrange(1, 4)
            Phi = _rand_mat(ring, rng, s)
            floor = 2 * (s * ring.m + s)
            out = verify_mc_commutative(ring, Phi, prec=max(12, floor))
            assert out["ok"], (ring.ell, s)
