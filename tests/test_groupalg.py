import pathlib
import random
import re
from math import lcm

import pytest

from nclfun.coeffring import CoeffRing, Poly, mat_mul_omega, poly_det
from nclfun.covering import parse_instance
from nclfun.errors import (
    ConventionOverflow,
    InvalidGroup,
    InvariantViolation,
    NotASubgroup,
    NotNormal,
)
from nclfun.groupalg import (
    CrossedLaurent,
    GElement,
    GroupData,
    OpenSubgroup,
    Rep,
    _perm_order,
    coset_keys,
    group_validate,
    induce_rep,
    push_rep_through_quotient,
    quotient_by_normal,
    restrict_rep,
    subgroup_group_data,
    tensor_rep,
    theta_rho,
    trivial_rep,
)
from nclfun.randcases import (
    group_catalog,
    random_group,
    random_rep,
    random_ring,
)
from rep_oracle import kron_oracle, theta_rho_oracle

Z9 = CoeffRing(3, 2)


def character(rho, g):
    """The trace of rho(g)."""
    mat = rho.of(g)
    tr = rho.ring.zero
    for i in range(rho.dim):
        tr = rho.ring.add(tr, mat[i][i])
    return tr


def contains(U, g):
    """Whether g = h gamma^a lies in the open subgroup U."""
    return g.a % U.c == 0 and g.h in U.h_members


def _cyclic(n, action=None):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    if action is None:
        action = list(range(n))
    return GroupData(table, action)


_S3_PERMS = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)]


def _s3():
    # indices: e, (123), (132), (12), (13), (23); product is composition,
    # right factor applied first
    def comp(p, q):
        return tuple(p[q[i]] for i in range(3))

    idx = {p: i for i, p in enumerate(_S3_PERMS)}
    table = [[idx[comp(p, q)] for q in _S3_PERMS] for p in _S3_PERMS]
    c = _S3_PERMS[1]
    cinv = _S3_PERMS[2]
    action = [idx[comp(comp(c, p), cinv)] for p in _S3_PERMS]
    return GroupData(table, action)


def _s3_std2(gd):
    R = Z9
    C = [[R.int_embed(-1), R.int_embed(-1)], [R.int_embed(1), R.int_embed(0)]]
    Tm = [[R.int_embed(0), R.int_embed(1)], [R.int_embed(1), R.int_embed(0)]]
    I2 = [[R.one, R.zero], [R.zero, R.one]]
    CC = mat_mul_omega(R, C, C)
    imgs = [I2, C, CC, Tm, mat_mul_omega(R, C, Tm), mat_mul_omega(R, Tm, C)]
    return Rep(R, gd, imgs, C)


def _s3_sign(gd):
    R = Z9
    one = [[R.one]]
    neg = [[R.int_embed(-1)]]
    return Rep(R, gd, [one, one, one, neg, neg, neg], one)


def test_group_validate_accepts_good_groups():
    group_validate(_cyclic(6), ell=5)
    group_validate(_cyclic(3, [0, 2, 1]), ell=2)   # inversion action
    group_validate(_s3(), ell=3)
    group_validate(_cyclic(1), ell=5)


def test_group_validate_diagnostics():
    with pytest.raises(InvalidGroup, match="table is empty"):
        GroupData([], [])
    with pytest.raises(InvalidGroup, match="table is not square"):
        GroupData([[0, 1], [1]], [0, 1])
    with pytest.raises(InvalidGroup, match="row"):
        GroupData([[0, 1], [1, 1]], [0, 1])
    with pytest.raises(InvalidGroup, match="identity"):
        GroupData([[1, 0], [0, 1]], [0, 1])
    with pytest.raises(InvalidGroup, match="multiplicative"):
        GroupData([[(i + j) % 4 for j in range(4)] for i in range(4)],
                  [0, 1, 3, 2])
    # the action order must be a power of the working prime
    gd = _cyclic(3, [0, 2, 1])
    with pytest.raises(InvalidGroup, match="power of 3"):
        group_validate(gd, ell=3)
    group_validate(gd, ell=2)


def test_group_derives_its_order_and_action_order():
    """The order of H is the size of the table and action_order the
    exact order of the action permutation."""
    assert _cyclic(1).action_order == 1
    gd = _cyclic(3, [0, 2, 1])
    assert (gd.order, gd.action_order) == (3, 2)
    assert _s3().action_order == 3
    assert GroupData([[0]], [0]) == _cyclic(1)
    assert _cyclic(3) != gd


def test_perm_order_is_the_lcm_of_the_cycle_lengths():
    rng = random.Random(223)
    for n in range(1, 9):
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            lengths = []
            seen = set()
            for start in range(n):
                i, k = start, 0
                while i not in seen:
                    seen.add(i)
                    i = perm[i]
                    k += 1
                if k:
                    lengths.append(k)
            assert _perm_order(perm) == lcm(*lengths), perm


def test_gelement_inverse_and_assoc():
    gd = _s3()
    rng = random.Random(211)
    for _ in range(60):
        g = GElement(rng.randrange(6), rng.randrange(-5, 6))
        gi = gd.g_inv(g)
        assert gd.g_mul(g, gi) == GElement(0, 0)
        assert gd.g_mul(gi, g) == GElement(0, 0)
    for _ in range(60):
        a, b, c = (GElement(rng.randrange(6), rng.randrange(-4, 5))
                   for _ in range(3))
        assert gd.g_mul(gd.g_mul(a, b), c) == gd.g_mul(a, gd.g_mul(b, c))


def _rand_crossed(rng, ring, gd, lo=-2, hi=1):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        a = rng.randrange(lo, hi)
        vec = [ring.int_embed(rng.randrange(ring.modulus))
               for _ in range(gd.order)]
        terms[a] = vec
    return CrossedLaurent(ring, gd, terms)


def test_crossed_ring_axioms():
    gd = _s3()
    rng = random.Random(223)
    one = CrossedLaurent.one(Z9, gd)
    for _ in range(25):
        x = _rand_crossed(rng, Z9, gd)
        y = _rand_crossed(rng, Z9, gd)
        z = _rand_crossed(rng, Z9, gd)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * one == x and one * x == x
    assert CrossedLaurent(Z9, gd, {}) + one == one


def test_crossed_monomials_multiply_like_the_group():
    gd = _s3()
    rng = random.Random(227)
    for _ in range(40):
        g1 = GElement(rng.randrange(6), rng.randrange(-3, 4))
        g2 = GElement(rng.randrange(6), rng.randrange(-3, 4))
        m1 = CrossedLaurent.monomial(Z9, gd, g1)
        m2 = CrossedLaurent.monomial(Z9, gd, g2)
        assert m1 * m2 == CrossedLaurent.monomial(Z9, gd, gd.g_mul(g1, g2))


def test_theta_convention_pins():
    gd = _s3()
    std = _s3_std2(gd)
    sign = _s3_sign(gd)
    # gamma^{-1} evaluates to T on the trivial and sign reps
    gmono = CrossedLaurent.monomial(Z9, gd, GElement(0, -1))
    out = theta_rho(gmono, sign)
    assert out[0][0] == Poly.from_ints(Z9, [0, 1])
    # a transposition against the sign rep: coefficient -1, exponent 0
    dmono = CrossedLaurent.monomial(Z9, gd, GElement(3, -1))
    out = theta_rho(dmono, sign)
    assert out[0][0] == Poly.from_ints(Z9, [0, -1])
    # plain h evaluates to transpose of the inverse image
    hm = CrossedLaurent.monomial(Z9, gd, GElement(1, 0))
    got = theta_rho(hm, std)
    inv_t = [[std.h_images[2][j][i] for j in range(2)] for i in range(2)]
    for i in range(2):
        for j in range(2):
            assert got[i][j] == Poly(Z9, [inv_t[i][j]])
    # positive gamma powers cannot be represented
    with pytest.raises(ConventionOverflow):
        theta_rho(CrossedLaurent.monomial(Z9, gd, GElement(0, 1)), sign)


def _poly_mat_mul(mats_a, mats_b, ring):
    n = len(mats_a)
    out = []
    for i in range(n):
        row = []
        for j in range(len(mats_b[0])):
            acc = Poly.zero(ring)
            for t in range(len(mats_b)):
                acc = acc + mats_a[i][t] * mats_b[t][j]
            row.append(acc)
        out.append(row)
    return out


def test_theta_is_multiplicative():
    gd = _s3()
    rng = random.Random(229)
    for rho in [_s3_std2(gd), _s3_sign(gd), trivial_rep(Z9, gd)]:
        for _ in range(12):
            x = _rand_crossed(rng, Z9, gd, lo=-2, hi=1)
            y = _rand_crossed(rng, Z9, gd, lo=-2, hi=1)
            lhs = theta_rho(x * y, rho)
            rhs = _poly_mat_mul(theta_rho(x, rho), theta_rho(y, rho), rho.ring)
            assert lhs == rhs


def test_rep_validation_rejects_bad_data():
    gd = _cyclic(2)
    I1 = [[Z9.one]]
    neg = [[Z9.int_embed(-1)]]
    three = [[Z9.int_embed(3)]]
    Rep(Z9, gd, [I1, neg], I1)
    with pytest.raises(InvariantViolation):
        Rep(Z9, gd, [I1, three], I1)              # 3 squared is 0, not 1
    with pytest.raises(InvariantViolation):
        Rep(Z9, gd, [I1, neg], three)             # gamma not invertible
    gd2 = _cyclic(3, [0, 2, 1])
    # character gen -> 4 is a cube root of 1 mod 9, but conjugation by
    # gamma must send it to its inverse under the inversion action
    four = [[Z9.int_embed(4)]]
    f2 = [[Z9.int_embed(7)]]
    with pytest.raises(InvariantViolation):
        Rep(Z9, gd2, [I1, four, f2], I1)


def test_cube_root_character_with_trivial_action():
    gd = _cyclic(3)
    im = [[[Z9.int_embed(pow(4, k, 9))]] for k in range(3)]
    rho = Rep(Z9, gd, im, [[Z9.int_embed(2)]])
    assert character(rho, GElement(1, 0)) == (4,)
    assert rho.gamma_pow(-1) == [[(5,)]]          # 2 * 5 = 10 = 1 mod 9


def test_tensor_rep_characters_multiply():
    gd = _s3()
    std, sign = _s3_std2(gd), _s3_sign(gd)
    tens = tensor_rep(std, sign)
    assert tens.dim == 2
    rng = random.Random(233)
    for _ in range(20):
        g = GElement(rng.randrange(6), rng.randrange(-2, 3))
        assert character(tens, g) == Z9.mul(character(std, g),
                                            character(sign, g))


def test_tensor_and_theta_refuse_two_rings():
    """Every matrix of an instance is over one ring: a representation
    over Z/9 and one over Z/9[x]/(x^2 + 1) do not meet."""
    gd = _cyclic(2)
    gauss = CoeffRing(3, 2, [1, 0, 1])
    sign = Rep(Z9, gd, [[[Z9.one]], [[Z9.int_embed(-1)]]], [[Z9.one]])
    ext = Rep(gauss, gd, [[[gauss.one]], [[gauss.int_embed(-1)]]],
              [[gauss.element([0, 1])]])
    for a, b in ((sign, ext), (ext, sign)):
        with pytest.raises(InvariantViolation, match="different rings"):
            tensor_rep(a, b)
    for ring, rho in ((Z9, ext), (gauss, sign)):
        with pytest.raises(InvariantViolation, match="different rings"):
            theta_rho(CrossedLaurent.one(ring, gd), rho)


def test_open_subgroup_checks():
    gd = _s3()
    U = OpenSubgroup(gd, [0, 1, 2], 1)
    assert U.index == 2
    assert contains(U, GElement(1, 0)) and not contains(U, GElement(3, 0))
    with pytest.raises(NotASubgroup):
        OpenSubgroup(gd, [0, 3], 1)       # not stable under conjugation action
    OpenSubgroup(gd, [0, 3], 3)           # alpha^3 = id, now allowed
    with pytest.raises(NotASubgroup):
        OpenSubgroup(gd, [0, 1], 1)       # not closed
    with pytest.raises(NotASubgroup):
        OpenSubgroup(gd, [1, 2], 1)       # identity missing
    with pytest.raises(NotASubgroup, match="h6 out of range"):
        OpenSubgroup(gd, [0, 6], 2)


def test_subgroup_group_data_a3():
    gd = _s3()
    sub, loc = subgroup_group_data(OpenSubgroup(gd, [0, 1, 2], 1))
    assert loc == [0, 1, 2]
    assert sub.order == 3 and sub.action_order == 1
    assert sub.table == tuple(tuple((i + j) % 3 for j in range(3))
                              for i in range(3))


def test_restrict_rep_std_to_a3():
    gd = _s3()
    std = _s3_std2(gd)
    U = OpenSubgroup(gd, [0, 1, 2], 1)
    res = restrict_rep(std, U)
    assert res.dim == 2
    assert res.h_images[1] == std.h_images[1]
    assert res.gamma == std.gamma


def _coset_transversal_bruteforce(U, right=False):
    # BFS over (h, b) pairs under right multiplication by U generators,
    # or left multiplication when right is set; deliberately different
    # bookkeeping from the library routine.  Returns (first element met,
    # coset as a set of (h, a mod period)) per coset in the order met
    gd = U.group
    period = U.c * gd.action_order * 12
    gens = [GElement(h, 0) for h in U.h_members] + [GElement(0, U.c)]
    seen = set()
    out = []
    for b in range(U.c):
        for h in range(gd.order):
            g = GElement(h, b)
            coset = set()
            frontier = [g]
            while frontier:
                x = frontier.pop()
                key = (x.h, x.a % period)
                if key in coset:
                    continue
                coset.add(key)
                for u in gens:
                    y = gd.g_mul(u, x) if right else gd.g_mul(x, u)
                    if (y.h, y.a % period) not in coset:
                        frontier.append(y)
            tag = min(coset)
            if tag not in seen:
                seen.add(tag)
                out.append((g, coset))
    return out


def test_induce_rep_character_oracle():
    cases = []
    gd = _s3()
    cases.append((gd, OpenSubgroup(gd, [0, 1, 2], 1)))
    c2 = _cyclic(2)
    cases.append((c2, OpenSubgroup(c2, [0, 1], 2)))
    cases.append((c2, OpenSubgroup(c2, [0], 1)))
    rng = random.Random(239)
    for gd, U in cases:
        sub, loc = subgroup_group_data(U)
        rho_sub = trivial_rep(Z9, sub)
        ind = induce_rep(U, rho_sub)
        assert ind.dim == U.index
        reps = [g for g, _ in _coset_transversal_bruteforce(U)]
        assert len(reps) == U.index
        for _ in range(25):
            g = GElement(rng.randrange(gd.order), rng.randrange(-3, 4))
            expect = Z9.zero
            for gi in reps:
                u = gd.g_mul(gd.g_mul(gd.g_inv(gi), g), gi)
                if contains(U, u):
                    expect = Z9.add(expect, Z9.one)   # trivial character
            assert character(ind, g) == expect


def _member_sets(gd):
    """Every subgroup of H as a sorted member list: the closure of each
    pair of elements, which reaches every subgroup of the catalog
    groups."""
    out = set()
    for a in range(gd.order):
        for b in range(a, gd.order):
            mem = {0}
            frontier = [0]
            while frontier:
                x = frontier.pop()
                for y in (gd.table[x][a], gd.table[x][b]):
                    if y not in mem:
                        mem.add(y)
                        frontier.append(y)
            out.add(tuple(sorted(mem)))
    return sorted(out)


def test_coset_keys_match_bruteforce_cosets():
    """coset_keys against the cosets the brute force walks out, left and
    right, for every subgroup of every catalog group that is stable
    under alpha^c, c = 1, 2, 3.  The cosets of U met at exponent b have
    H-parts h * alpha^b(H_U) on the left and H_U * h on the right; each
    is the set of h with one key, named by its smallest member, and the
    keys come in the order the walk over b, then h, meets them.  S3's
    order-2 subgroups, stable only under alpha^3, are where the left
    and the right cosets differ."""
    differ = 0
    for ell in (3, 5):
        for entry in group_catalog(ell):
            gd = entry.build()
            for mem in _member_sets(gd):
                left = coset_keys(gd, mem)
                right = coset_keys(gd, mem, right=True)
                differ += left != right
                for c in (1, 2, 3):
                    if {gd.act(c, h) for h in mem} != set(mem):
                        continue
                    U = OpenSubgroup(gd, mem, c)
                    for side in (False, True):
                        found = _coset_transversal_bruteforce(U, side)
                        assert len(found) == U.index, (entry.name, mem, c)
                        keys = [right if side else coset_keys(
                            gd, [gd.act(b, u) for u in mem])
                            for b in range(c)]
                        assert [(g.a, g.h) for g, _ in found] == [
                            (b, k) for b in range(c)
                            for k in sorted(set(keys[b]))]
                        for g, coset in found:
                            block = {h for h, a in coset if a == g.a}
                            assert block == {h for h in range(gd.order)
                                             if keys[g.a][h] == g.h}
    assert differ


def test_quotient_normality_is_conjugation():
    """quotient_by_normal refuses exactly the member sets that some
    conjugation moves, naming an h that does, then those the action
    moves; on the rest its projection is the coset map."""
    for ell in (3, 5):
        for entry in group_catalog(ell):
            gd = entry.build()
            n = gd.order
            for mem in _member_sets(gd):
                mset = set(mem)

                def moves(h):
                    return {gd.table[gd.table[h][k]][gd.inv[h]]
                            for k in mem} != mset

                if any(moves(h) for h in range(n)):
                    with pytest.raises(NotNormal, match="conjugation") as exc:
                        quotient_by_normal(gd, mem)
                    named = re.search(r"by h(\d+) ", str(exc.value))
                    assert moves(int(named.group(1)))
                elif {gd.action[h] for h in mem} != mset:
                    with pytest.raises(NotNormal, match="stable"):
                        quotient_by_normal(gd, mem)
                else:
                    qd, proj = quotient_by_normal(gd, mem)
                    assert qd.order * len(mem) == n
                    assert proj[0] == 0
                    for x in range(n):
                        for y in range(n):
                            same = gd.table[gd.inv[x]][y] in mset
                            assert (proj[x] == proj[y]) == same


def test_induce_sign_character_through_gamma_index():
    # H = C2 with trivial action; U keeps all of H but doubles the
    # gamma step; induce the character sending delta to -1, gamma_U to 1
    gd = _cyclic(2)
    U = OpenSubgroup(gd, [0, 1], 2)
    sub, _ = subgroup_group_data(U)
    neg = [[Z9.int_embed(-1)]]
    one = [[Z9.one]]
    rho_sub = Rep(Z9, sub, [one, neg], one)
    ind = induce_rep(U, rho_sub)
    assert ind.dim == 2
    # gamma itself permutes the two cosets, so its character vanishes
    assert character(ind, GElement(0, 1)) == Z9.zero
    assert character(ind, GElement(0, 2)) == Z9.int_embed(2)
    assert character(ind, GElement(1, 0)) == Z9.int_embed(-2)


def test_quotient_by_normal():
    gd = _s3()
    qd, proj = quotient_by_normal(gd, [0, 1, 2])
    assert qd.order == 2 and proj == [0, 0, 0, 1, 1, 1]
    with pytest.raises(NotNormal):
        quotient_by_normal(gd, [0, 3])
    with pytest.raises(NotASubgroup, match="h-1 out of range"):
        quotient_by_normal(gd, [0, -1])
    # Klein group with the swap action: {0,1} is normal but not stable
    table = [[i ^ j for j in range(4)] for i in range(4)]
    klein = GroupData(table, [0, 2, 1, 3])
    with pytest.raises(NotNormal, match="stable"):
        quotient_by_normal(klein, [0, 1])
    qd2, proj2 = quotient_by_normal(klein, [0, 3])
    assert qd2.order == 2 and proj2 == [0, 1, 1, 0]


def test_push_rep_through_quotient_matches_sign():
    gd = _s3()
    qd, proj = quotient_by_normal(gd, [0, 1, 2])
    one = [[Z9.one]]
    neg = [[Z9.int_embed(-1)]]
    sign_q = Rep(Z9, qd, [one, neg], one)
    lifted = push_rep_through_quotient(sign_q, gd, proj)
    assert lifted == _s3_sign(gd)


def test_theta_det_of_identity_minus_gamma():
    # det of theta(1 - gamma^{-1}) on the 2-dim induced rep should be a
    # polynomial of degree 2 with constant term 1
    gd = _cyclic(2)
    U = OpenSubgroup(gd, [0, 1], 2)
    sub, _ = subgroup_group_data(U)
    neg = [[Z9.int_embed(-1)]]
    one = [[Z9.one]]
    ind = induce_rep(U, Rep(Z9, sub, [one, neg], one))
    x = CrossedLaurent.one(Z9, gd) - CrossedLaurent.monomial(
        Z9, gd, GElement(0, -1))
    mat = theta_rho(x, ind)
    d = poly_det(mat, Z9)
    assert d.coeff(0) == Z9.one
    assert d.degree == 2


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _subgroups(gd, ell):
    """Open subgroups <h> x gamma^(c Z) of gd, one per cyclic subgroup
    of H and gamma index c in (1, ell) that is a subgroup."""
    out = {}
    for h in range(gd.order):
        members, x = {0}, h
        while x not in members:
            members.add(x)
            x = gd.table[x][h]
        for c in (1, ell):
            key = (tuple(sorted(members)), c)
            if key not in out:
                try:
                    out[key] = OpenSubgroup(gd, members, c)
                except NotASubgroup:
                    pass
    return list(out.values())


def _built_from(reps, subgroups, ell):
    """(label, rep) for each representation tensor_rep, restrict_rep,
    induce_rep and push_rep_through_quotient build from the given reps
    (one group) and subgroups of it."""
    out = []
    for i, a in enumerate(reps):
        for b in reps[i:]:
            out.append(("tensor", tensor_rep(a, b)))
    for U in subgroups:
        sub_gd, _ = subgroup_group_data(U)
        for rho in reps:
            res = restrict_rep(rho, U)
            out.append(("restrict", res))
            if U.index * rho.dim <= 6:
                out.append(("induce", induce_rep(U, res)))
                out.append(("tensor-induce", tensor_rep(
                    rho, induce_rep(U, trivial_rep(rho.ring, sub_gd)))))
        try:
            qd, proj = quotient_by_normal(U.group, U.h_members)
        except (NotASubgroup, NotNormal):
            continue
        for rho in reps:
            out.append(("push", push_rep_through_quotient(
                trivial_rep(rho.ring, qd), U.group, proj)))
    return out


def test_constructed_reps_pass_full_validation():
    """tensor_rep, restrict_rep and induce_rep build their results
    without validating them, since a valid input makes a valid output.
    Every representation they build from the group fixtures and from
    seeded random_rep draws, over degree-2 rings too, passes the full
    check here, so a construction bug still fails."""
    cases = []
    for path in sorted(FIXTURES.glob("*.inst")):
        inst = parse_instance(path.read_text())
        gd = inst.covering.group
        reps = [inst.sheaf.rep] + [inst.reps[k] for k in sorted(inst.reps)]
        subgroups = [inst.subgroups[k] for k in sorted(inst.subgroups)]
        ell = inst.covering.ring.ell
        cases += _built_from(reps, subgroups + _subgroups(gd, ell), ell)
    rng = random.Random(4093)
    for trial in range(12):
        ell = (3, 5)[trial % 2]
        entry = random_group(rng, ell, max_order=6)
        gd = entry.build()
        ring = random_ring(rng, ell=ell)
        if trial % 4 < 2:
            while ring.deg == 1:
                ring = random_ring(rng, ell=ell)
        reps = [random_rep(rng, ring, gd, entry, max_rank=2)
                for _ in range(2)]
        cases += _built_from(reps, _subgroups(gd, ell), ell)
    kinds = {}
    for kind, rep in cases:
        rep._validate()
        kinds.setdefault(kind, set()).add(rep.ring.deg)
    assert all(kinds[k] == {1, 2} for k in (
        "tensor", "restrict", "induce", "tensor-induce", "push")), kinds
    assert len(cases) > 500, len(cases)


# ---------------------------------------------------------------------------
# theta_rho and tensor_rep against the loops they replaced
# ---------------------------------------------------------------------------

GAUSS9 = CoeffRing(3, 2, [1, 0, 1])


def _sparse_crossed(rng, ring, gd, exps):
    """A crossed element with a term at each gamma exponent in exps,
    about half of each term's coefficients zero, the rest any element
    of the ring (not only integers)."""
    terms = {}
    for a in exps:
        terms[a] = [ring.element([rng.randrange(ring.modulus)
                                  for _ in range(ring.deg)])
                    if rng.random() < 0.5 else ring.zero
                    for _ in range(gd.order)]
    return CrossedLaurent(ring, gd, terms)


def _theta_outcome(theta, x, rho):
    try:
        return theta(x, rho)
    except ConventionOverflow:
        return ConventionOverflow


def _oracle_reps(rng, ring):
    """Representations of dimension 1-4 over ring: two seeded draws
    per group of group_catalog(3), their tensor product, and the reps
    induced from their restrictions to open subgroups."""
    out = []
    for entry in group_catalog(3):
        gd = entry.build()
        reps = [random_rep(rng, ring, gd, entry, max_rank=2)
                for _ in range(2)]
        out += reps + [tensor_rep(*reps)]
        for U in _subgroups(gd, 3):
            for rho in reps:
                res = restrict_rep(rho, U)
                if U.index * res.dim <= 4:
                    out.append(induce_rep(U, res))
    if ring == Z9:
        gd = _s3()
        out += [_s3_std2(gd), tensor_rep(_s3_std2(gd), _s3_sign(gd))]
    return out


@pytest.mark.parametrize("ring", [Z9, GAUSS9], ids=["Z/9", "Z/9[x]/(x^2+1)"])
def test_theta_rho_matches_the_accumulating_oracle(ring):
    """theta_rho takes each entry as one dot; the oracle transposes
    while it adds up products, term by term.  They agree on every
    seeded element, raising ConventionOverflow on the same ones."""
    rng = random.Random(2311)
    reps = _oracle_reps(rng, ring)
    assert {rho.dim for rho in reps} == {1, 2, 3, 4}
    raised = kept = 0
    for rho in reps:
        for _ in range(4):
            exps = rng.sample(range(-3, 2), rng.randrange(0, 4))
            x = _sparse_crossed(rng, ring, rho.group, exps)
            want = _theta_outcome(theta_rho_oracle, x, rho)
            assert _theta_outcome(theta_rho, x, rho) == want
            if want is ConventionOverflow:
                raised += 1
            else:
                kept += 1
    assert raised > 20 and kept > 100, (raised, kept)


def test_theta_positive_gamma_terms_that_cancel_do_not_raise():
    """(h1 - h0) gamma of S3 goes to T^{-1} (rho(h1 gamma)^{-1} -
    rho(gamma)^{-1}), transposed.  At the trivial and sign reps the two
    images agree and the T^{-1} term cancels, so theta is the image of
    the rest; at std2 it survives and raises."""
    gd = _s3()
    std = _s3_std2(gd)
    rng = random.Random(2333)
    for ring, reps in ((Z9, [trivial_rep(Z9, gd), _s3_sign(gd)]),
                       (GAUSS9, [trivial_rep(GAUSS9, gd)])):
        for _ in range(6):
            rest = _sparse_crossed(rng, ring, gd, [-2, 0])
            x = rest + CrossedLaurent(ring, gd, {1: [
                ring.int_embed(-1), ring.one] + [ring.zero] * 4})
            assert 1 in x.terms
            for rho in reps:
                got = theta_rho(x, rho)
                assert got == theta_rho_oracle(x, rho)
                assert got == theta_rho(rest, rho)
            if ring == Z9:
                for theta in (theta_rho, theta_rho_oracle):
                    with pytest.raises(ConventionOverflow):
                        theta(x, std)


@pytest.mark.parametrize("ring", [Z9, GAUSS9], ids=["Z/9", "Z/9[x]/(x^2+1)"])
def test_tensor_rep_matches_the_index_loop_kron(ring):
    """Every image of tensor_rep is the Kronecker product of the index
    loop: row (i, k), column (j, t) holds a_ij b_kt."""
    rng = random.Random(2339)
    reps = _oracle_reps(rng, ring)
    pairs = 0
    for i, a in enumerate(reps):
        for b in reps[i:i + 3]:
            if a.group != b.group:
                continue
            tens = tensor_rep(a, b)
            want = [kron_oracle(ring, x, y)
                    for x, y in zip(a.h_images, b.h_images)]
            assert [list(map(list, m)) for m in tens.h_images] == want
            assert list(map(list, tens.gamma)) == kron_oracle(
                ring, a.gamma, b.gamma)
            pairs += 1
    assert pairs > 50, pairs


def test_trivial_rep_is_a_representation():
    """trivial_rep is built without validation; on every catalog group
    and every fixture group the full check passes on its data."""
    cases = []
    for ell in (3, 5):
        rings = [CoeffRing(ell, 2),
                 CoeffRing(ell, 2, {3: [1, 0, 1], 5: [1, 1, 1]}[ell])]
        cases += [(ring, entry.build()) for entry in group_catalog(ell)
                  for ring in rings]
    for path in sorted(FIXTURES.glob("*.inst")):
        cov = parse_instance(path.read_text()).covering
        cases.append((cov.ring, cov.group))
    assert len(cases) > 30
    for ring, gd in cases:
        triv = trivial_rep(ring, gd)
        checked = Rep(ring, gd, triv.h_images, triv.gamma, check=True)
        assert checked == triv
