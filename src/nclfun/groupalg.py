"""Finite pieces of the relevant profinite groups, their crossed Laurent
algebras, and matrix representations.

A group G here is always H \\rtimes Gamma with H finite and Gamma an
infinite procyclic factor acting through a finite-order automorphism
alpha; at any finite chop an element is (h, a) with a the exponent of
the distinguished generator gamma.  See the conventions module for the
orientation choices (T = gamma^{-1}, contragredient evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffring import CoeffRing, Poly, mat_inverse_omega
from .errors import (
    ConventionOverflow,
    InvalidGroup,
    InvariantViolation,
    NotASubgroup,
    NotNormal,
)
from .linalg import mat_identity, mat_mul, mat_pow

__all__ = [
    "GroupData",
    "GElement",
    "group_validate",
    "CrossedLaurent",
    "Rep",
    "trivial_rep",
    "tensor_rep",
    "theta_rho",
    "OpenSubgroup",
    "subgroup_group_data",
    "restrict_rep",
    "induce_rep",
    "quotient_by_normal",
    "push_rep_through_quotient",
]


class GroupData:
    """Multiplication table of H plus the action of gamma.

    table[i][j] is the index of h_i * h_j; index 0 is the identity.
    action is a permutation giving alpha(h_i) = h_{action[i]}, and
    action_order its exact order.  Construction runs the structural
    checks unless check=False; group_validate re-runs everything and
    additionally enforces the prime-power constraint on action_order.
    """

    def __init__(self, order, table, action, action_order, check=True):
        self.order = int(order)
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        self.action = tuple(int(x) for x in action)
        self.action_order = int(action_order)
        if check:
            _check_structure(self)
        self.inv = self._build_inverses()
        self._action_pows = self._build_action_pows()

    def _build_inverses(self):
        inv = [None] * self.order
        for i in range(self.order):
            for j in range(self.order):
                if self.table[i][j] == 0:
                    inv[i] = j
                    break
            if inv[i] is None:
                raise InvalidGroup(f"element {i} has no inverse")
        return tuple(inv)

    def _build_action_pows(self):
        pows = [tuple(range(self.order))]
        for _ in range(self.action_order - 1):
            prev = pows[-1]
            pows.append(tuple(self.action[prev[i]] for i in range(self.order)))
        return pows

    def act(self, k, h):
        """alpha^k(h), any integer k."""
        return self._action_pows[k % self.action_order][h]

    def g_mul(self, g1: "GElement", g2: "GElement") -> "GElement":
        return GElement(self.table[g1.h][self.act(g1.a, g2.h)], g1.a + g2.a)

    def g_inv(self, g: "GElement") -> "GElement":
        return GElement(self.act(-g.a, self.inv[g.h]), -g.a)

    def __eq__(self, other):
        return (isinstance(other, GroupData)
                and (self.order, self.table, self.action, self.action_order)
                == (other.order, other.table, other.action, other.action_order))

    def __hash__(self):
        return hash((self.order, self.table, self.action, self.action_order))

    def __repr__(self):
        return f"GroupData(order={self.order}, action_order={self.action_order})"


@dataclass(frozen=True)
class GElement:
    """h * gamma^a inside H \\rtimes Gamma."""
    h: int
    a: int

    def name(self) -> str:
        return f"h{self.h}*g^{self.a}"


def _check_structure(gd: GroupData):
    n = gd.order
    if n < 1:
        raise InvalidGroup("order must be positive")
    if len(gd.table) != n or any(len(row) != n for row in gd.table):
        raise InvalidGroup("table is not square of the declared order")
    for i in range(n):
        for j in range(n):
            if not 0 <= gd.table[i][j] < n:
                raise InvalidGroup(f"table entry ({i},{j}) out of range")
    for j in range(n):
        if gd.table[0][j] != j:
            raise InvalidGroup("index 0 is not a left identity")
    for i in range(n):
        if gd.table[i][0] != i:
            raise InvalidGroup("index 0 is not a right identity")
    for i in range(n):
        if sorted(gd.table[i]) != list(range(n)):
            raise InvalidGroup(f"row {i} is not a permutation")
        if sorted(gd.table[j][i] for j in range(n)) != list(range(n)):
            raise InvalidGroup(f"column {i} is not a permutation")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if gd.table[gd.table[i][j]][k] != gd.table[i][gd.table[j][k]]:
                    raise InvalidGroup(
                        f"associativity fails at ({i},{j},{k})")
    if len(gd.action) != n or sorted(gd.action) != list(range(n)):
        raise InvalidGroup("action is not a permutation of the group")
    if gd.action[0] != 0:
        raise InvalidGroup("action does not fix the identity")
    for i in range(n):
        for j in range(n):
            if gd.action[gd.table[i][j]] != gd.table[gd.action[i]][gd.action[j]]:
                raise InvalidGroup(f"action is not multiplicative at ({i},{j})")
    e = gd.action_order
    if e < 1:
        raise InvalidGroup("action_order must be positive")
    cur = list(range(n))
    orders_hit = []
    for step in range(1, e + 1):
        cur = [gd.action[c] for c in cur]
        if cur == list(range(n)):
            orders_hit.append(step)
    if e not in orders_hit:
        raise InvalidGroup(f"action does not have order {e}")
    if orders_hit and orders_hit[0] != e:
        raise InvalidGroup(
            f"action_order {e} is not exact; true order is {orders_hit[0]}")


def group_validate(gd: GroupData, ell=None):
    """Full structural audit; with ell set, also requires action_order to
    be a power of ell.  Raises InvalidGroup naming the first failure."""
    _check_structure(gd)
    if ell is not None:
        e = gd.action_order
        while e % ell == 0:
            e //= ell
        if e != 1:
            raise InvalidGroup(
                f"action_order {gd.action_order} is not a power of {ell}")


# ---------------------------------------------------------------------------
# the crossed Laurent algebra
# ---------------------------------------------------------------------------

class CrossedLaurent:
    """Element of the crossed algebra Omega[H][gamma, gamma^{-1}; alpha].

    Stored as a dict: gamma-exponent a -> tuple of Omega coefficients
    indexed by H.  The basis element at (h, a) is the group element
    h * gamma^a, and multiplication is convolution through the table
    with alpha twisting the right-hand H part.
    """

    __slots__ = ("ring", "group", "terms")

    def __init__(self, ring: CoeffRing, group: GroupData, terms=None):
        self.ring = ring
        self.group = group
        clean = {}
        for a, vec in (terms or {}).items():
            vec = tuple(ring.element(c) if not isinstance(c, tuple) else c
                        for c in vec)
            if len(vec) != group.order:
                raise InvariantViolation("coefficient vector has wrong length")
            if any(not ring.is_zero(c) for c in vec):
                clean[int(a)] = vec
        self.terms = clean

    @classmethod
    def zero(cls, ring, group):
        return cls(ring, group, {})

    @classmethod
    def one(cls, ring, group):
        return cls.monomial(ring, group, GElement(0, 0))

    @classmethod
    def monomial(cls, ring, group, g: GElement, coeff=None):
        coeff = ring.one if coeff is None else coeff
        vec = [ring.zero] * group.order
        vec[g.h] = coeff
        return cls(ring, group, {g.a: tuple(vec)})

    def _compat(self, other):
        if self.ring != other.ring or self.group != other.group:
            raise InvariantViolation("mixed crossed algebras")

    def __add__(self, other):
        self._compat(other)
        R, n = self.ring, self.group.order
        out = {}
        for a in set(self.terms) | set(other.terms):
            u = self.terms.get(a, (R.zero,) * n)
            v = other.terms.get(a, (R.zero,) * n)
            out[a] = tuple(R.add(x, y) for x, y in zip(u, v))
        return CrossedLaurent(R, self.group, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        R = self.ring
        return CrossedLaurent(
            R, self.group,
            {a: tuple(R.neg(c) for c in vec) for a, vec in self.terms.items()})

    def __mul__(self, other):
        self._compat(other)
        R, gd = self.ring, self.group
        n = gd.order
        acc: dict[int, list] = {}
        for a, vec in self.terms.items():
            for b, wec in other.terms.items():
                ab = a + b
                row = acc.setdefault(ab, [R.zero] * n)
                for h, cv in enumerate(vec):
                    if R.is_zero(cv):
                        continue
                    for hp, cw in enumerate(wec):
                        if R.is_zero(cw):
                            continue
                        tgt = gd.table[h][gd.act(a, hp)]
                        row[tgt] = R.add(row[tgt], R.mul(cv, cw))
        return CrossedLaurent(R, gd, {a: tuple(v) for a, v in acc.items()})

    def scale(self, c):
        R = self.ring
        return CrossedLaurent(
            R, self.group,
            {a: tuple(R.mul(c, v) for v in vec)
             for a, vec in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, CrossedLaurent)
                and self.ring == other.ring and self.group == other.group
                and self.terms == other.terms)

    def __repr__(self):
        parts = []
        for a in sorted(self.terms):
            for h, c in enumerate(self.terms[a]):
                if not self.ring.is_zero(c):
                    parts.append(f"{c!r}*h{h}*g^{a}")
        return "CrossedLaurent(" + (" + ".join(parts) or "0") + ")"


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

class Rep:
    """Matrix representation of H \\rtimes Gamma over a coefficient ring.

    h_images[i] is the matrix of h_i; gamma is the matrix of the
    distinguished generator.  Validation enforces the multiplication
    table, invertibility of gamma, and the compatibility
    gamma rho(h) gamma^{-1} = rho(alpha(h)).
    """

    __slots__ = ("ring", "group", "dim", "h_images", "gamma",
                 "_gamma_inv", "_gamma_pows")

    def __init__(self, ring, group, dim, h_images, gamma, check=True):
        self.ring = ring
        self.group = group
        self.dim = int(dim)
        self.h_images = tuple(
            tuple(tuple(ring.element(c) if not isinstance(c, tuple) else c
                        for c in row) for row in mat)
            for mat in h_images)
        self.gamma = tuple(
            tuple(ring.element(c) if not isinstance(c, tuple) else c
                  for c in row) for row in gamma)
        self._gamma_inv = None
        self._gamma_pows = {}
        if check:
            self._validate()

    def _validate(self):
        R, gd, r = self.ring, self.group, self.dim
        if len(self.h_images) != gd.order:
            raise InvariantViolation("one matrix per group element required")
        for mat in self.h_images + (self.gamma,):
            if len(mat) != r or any(len(row) != r for row in mat):
                raise InvariantViolation("matrix dimensions disagree with dim")
        ident = tuple(tuple(row) for row in mat_identity(R, r))
        if self.h_images[0] != ident:
            raise InvariantViolation("identity element must map to identity")
        for i in range(gd.order):
            for j in range(gd.order):
                prod = mat_mul(R, self.h_images[i], self.h_images[j])
                if tuple(tuple(row) for row in prod) != self.h_images[gd.table[i][j]]:
                    raise InvariantViolation(
                        f"matrices break the table at ({i},{j})")
        if self.gamma_inv() is None:
            raise InvariantViolation("gamma image is not invertible")
        gi = self.gamma_inv()
        for i in range(gd.order):
            conj = mat_mul(R, mat_mul(R, self.gamma, self.h_images[i]), gi)
            if tuple(tuple(row) for row in conj) != self.h_images[gd.act(1, i)]:
                raise InvariantViolation(
                    f"gamma conjugation disagrees with the action at {i}")

    def gamma_inv(self):
        if self._gamma_inv is None:
            self._gamma_inv = mat_inverse_omega(self.ring,
                                                [list(r) for r in self.gamma])
        return self._gamma_inv

    def h_mat(self, i):
        return [list(row) for row in self.h_images[i]]

    def gamma_pow(self, a):
        if a in self._gamma_pows:
            return self._gamma_pows[a]
        base = self.gamma
        if a < 0:
            base = self.gamma_inv()
            if base is None:
                raise InvariantViolation("gamma image is not invertible")
        out = mat_pow(self.ring, base, abs(a))
        self._gamma_pows[a] = out
        return out

    def of(self, g: GElement):
        """Matrix of the group element h * gamma^a."""
        return mat_mul(self.ring, self.h_mat(g.h), self.gamma_pow(g.a))

    def character(self, g: GElement):
        mat = self.of(g)
        tr = self.ring.zero
        for i in range(self.dim):
            tr = self.ring.add(tr, mat[i][i])
        return tr

    def __eq__(self, other):
        return (isinstance(other, Rep)
                and (self.ring, self.group, self.dim, self.h_images, self.gamma)
                == (other.ring, other.group, other.dim, other.h_images, other.gamma))

    def __repr__(self):
        return f"Rep(dim={self.dim} over {self.ring!r})"


def trivial_rep(ring, group):
    ident = [[ring.one]]
    return Rep(ring, group, 1, [ident] * group.order, ident)


def _embed_scalar(c, src: CoeffRing, dst: CoeffRing):
    if src == dst:
        return c
    if src.deg == 1 and src.ell == dst.ell and src.m == dst.m:
        return dst.int_embed(c[0])
    raise InvariantViolation(
        "cannot embed coefficients between unrelated rings")


def _common_ring(r1: CoeffRing, r2: CoeffRing):
    if r1 == r2:
        return r1
    if r1.deg == 1 and r1.ell == r2.ell and r1.m == r2.m:
        return r2
    if r2.deg == 1 and r1.ell == r2.ell and r1.m == r2.m:
        return r1
    raise InvariantViolation("representations live over incompatible rings")


def tensor_rep(r1: Rep, r2: Rep) -> Rep:
    """Kronecker product, with degree-1 coefficients embedded into the
    larger ring when the two targets differ."""
    if r1.group != r2.group:
        raise InvariantViolation("tensor needs a common group")
    ring = _common_ring(r1.ring, r2.ring)

    def emb(mat, src):
        return [[_embed_scalar(c, src, ring) for c in row] for row in mat]

    def kron(A, B):
        ra, rb = len(A), len(B)
        out = []
        for i in range(ra):
            for k in range(rb):
                row = []
                for j in range(ra):
                    for t in range(rb):
                        row.append(ring.mul(A[i][j], B[k][t]))
                out.append(row)
        return out

    hs = []
    for i in range(r1.group.order):
        hs.append(kron(emb(r1.h_mat(i), r1.ring), emb(r2.h_mat(i), r2.ring)))
    gam = kron(emb([list(r) for r in r1.gamma], r1.ring),
               emb([list(r) for r in r2.gamma], r2.ring))
    return Rep(ring, r1.group, r1.dim * r2.dim, hs, gam)


def theta_rho(x: CrossedLaurent, rho: Rep):
    """Evaluate a crossed element at a representation.

    h * gamma^a goes to transpose(rho((h gamma^a)^{-1})) * T^{-a}; the
    transpose-of-inverse composite is multiplicative, so this extends to
    a ring homomorphism into dim x dim matrices over polynomials in T.
    Entries that keep a negative exponent of T after summation cannot be
    represented and raise ConventionOverflow.
    """
    R_dst = rho.ring
    gd = x.group
    if gd != rho.group:
        raise InvariantViolation("crossed element and rep have different groups")
    r = rho.dim
    by_exp: dict[int, list] = {}
    for a, vec in x.terms.items():
        exp = -a
        mat_acc = by_exp.setdefault(
            exp, [[R_dst.zero] * r for _ in range(r)])
        for h, coeff in enumerate(vec):
            if x.ring.is_zero(coeff):
                continue
            c = _embed_scalar(coeff, x.ring, R_dst)
            ginv = gd.g_inv(GElement(h, a))
            m = rho.of(ginv)
            for i in range(r):
                for j in range(r):
                    # transpose while accumulating
                    mat_acc[i][j] = R_dst.add(
                        mat_acc[i][j], R_dst.mul(c, m[j][i]))
    exps = sorted(by_exp)
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            coeffs = {}
            for e in exps:
                v = by_exp[e][i][j]
                if not R_dst.is_zero(v):
                    coeffs[e] = v
            if coeffs and min(coeffs) < 0:
                raise ConventionOverflow(
                    "entry has a surviving negative power of T")
            top = max(coeffs) if coeffs else -1
            row.append(Poly(R_dst,
                            [coeffs.get(k, R_dst.zero)
                             for k in range(top + 1)]))
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# open subgroups, restriction, induction, quotients
# ---------------------------------------------------------------------------

class OpenSubgroup:
    """U = H_U \\rtimes gamma^{c Z} inside H \\rtimes Gamma.

    h_members must be an actual subgroup of H, stable under alpha^c
    (otherwise the straight-product description breaks down and we
    refuse with NotASubgroup).
    """

    def __init__(self, group: GroupData, h_members, c):
        self.group = group
        mem = tuple(sorted(set(int(h) for h in h_members)))
        self.h_members = mem
        self.c = int(c)
        if self.c < 1:
            raise NotASubgroup("gamma index must be positive")
        if 0 not in mem:
            raise NotASubgroup("identity missing from the member set")
        mset = set(mem)
        for i in mem:
            for j in mem:
                if group.table[i][j] not in mset:
                    raise NotASubgroup(
                        f"member set not closed: h{i}*h{j} escapes")
        if {group.act(self.c, h) for h in mem} != mset:
            raise NotASubgroup(
                "member set is not stable under alpha^c")

    @property
    def index(self):
        return (self.group.order // len(self.h_members)) * self.c

    def contains(self, g: GElement) -> bool:
        return g.a % self.c == 0 and g.h in set(self.h_members)

    def __repr__(self):
        return f"OpenSubgroup(members={list(self.h_members)}, c={self.c})"


def subgroup_group_data(U: OpenSubgroup):
    """GroupData of U in local coordinates, plus the local-to-ambient map.

    Local H is h_members (sorted); the local gamma is the ambient
    gamma^c, so the local action is alpha^c restricted.
    """
    amb = U.group
    loc_to_amb = list(U.h_members)
    amb_to_loc = {h: i for i, h in enumerate(loc_to_amb)}
    n = len(loc_to_amb)
    table = [[amb_to_loc[amb.table[loc_to_amb[i]][loc_to_amb[j]]]
              for j in range(n)] for i in range(n)]
    action = [amb_to_loc[amb.act(U.c, loc_to_amb[i])] for i in range(n)]
    # exact order of the restricted permutation
    e = 1
    cur = action[:]
    while cur != list(range(n)):
        cur = [action[c] for c in cur]
        e += 1
    gd = GroupData(n, table, action, e)
    return gd, loc_to_amb


def restrict_rep(rho: Rep, U: OpenSubgroup) -> Rep:
    sub_gd, loc_to_amb = subgroup_group_data(U)
    hs = [rho.h_mat(h) for h in loc_to_amb]
    return Rep(rho.ring, sub_gd, rho.dim, hs, rho.gamma_pow(U.c))


def induce_rep(U: OpenSubgroup, rho_sub: Rep) -> Rep:
    """Induction from an open subgroup, on the left coset space.

    Cosets of U are labelled (b, h * alpha^b(H_U)) with b in [0, c);
    the transversal element for a coset is (t, b) with t the smallest
    index representative.  For the generators of G the little-group
    elements land in U with gamma-exponent 0 or c, so no inverses of
    the subgroup gamma are ever needed.
    """
    amb = U.group
    sub_gd, loc_to_amb = subgroup_group_data(U)
    if rho_sub.group != sub_gd:
        raise InvariantViolation(
            "inducing data does not live on the given subgroup")
    amb_to_loc = {h: i for i, h in enumerate(loc_to_amb)}
    c = U.c
    R = rho_sub.ring
    w = rho_sub.dim

    def coset_key(b, h):
        # smallest index in h * alpha^b(H_U)
        shifted = {amb.table[h][amb.act(b, u)] for u in U.h_members}
        return min(shifted)

    transversal = []
    index_of = {}
    for b in range(c):
        seen = set()
        for h in range(amb.order):
            key = coset_key(b, h)
            if key not in seen:
                seen.add(key)
                index_of[(b, key)] = len(transversal)
                transversal.append(GElement(key, b))

    n = len(transversal)

    def act_matrix(g: GElement):
        out = [[R.zero] * (n * w) for _ in range(n * w)]
        for i, gi in enumerate(transversal):
            prod = amb.g_mul(g, gi)
            b2 = prod.a % c
            key = coset_key(b2, prod.h)
            j = index_of[(b2, key)]
            gj = transversal[j]
            u = amb.g_mul(amb.g_inv(gj), prod)
            if u.a % c != 0:
                raise InvariantViolation("coset bookkeeping broke")
            k = u.a // c
            if u.h not in amb_to_loc:
                raise InvariantViolation("little element escaped the subgroup")
            lu = amb_to_loc[u.h]
            block = mat_mul(R, rho_sub.h_mat(lu), rho_sub.gamma_pow(k))
            for rr in range(w):
                for ss in range(w):
                    out[j * w + rr][i * w + ss] = block[rr][ss]
        return out

    hs = [act_matrix(GElement(h, 0)) for h in range(amb.order)]
    gam = act_matrix(GElement(0, 1))
    return Rep(R, amb, n * w, hs, gam)


def quotient_by_normal(gd: GroupData, members):
    """Quotient of H by a normal, action-stable subgroup.

    Returns (GroupData of the quotient, projection list H -> cosets).
    Cosets are named by their smallest member, the identity coset first.
    """
    mem = tuple(sorted(set(int(h) for h in members)))
    mset = set(mem)
    if 0 not in mset:
        raise NotASubgroup("identity missing from the member set")
    for i in mem:
        for j in mem:
            if gd.table[i][j] not in mset:
                raise NotASubgroup("member set not closed under the table")
    for h in range(gd.order):
        conj = {gd.table[gd.table[h][k]][gd.inv[h]] for k in mem}
        if conj != mset:
            raise NotNormal(f"conjugation by h{h} moves the subgroup")
    if {gd.action[h] for h in mem} != mset:
        raise NotNormal("subgroup is not stable under the action; "
                        "the quotient carries no induced action")
    # cosets by smallest member
    coset_of = [None] * gd.order
    names = []
    for h in range(gd.order):
        if coset_of[h] is not None:
            continue
        block = sorted(gd.table[h][k] for k in mem)
        for x in block:
            coset_of[x] = block[0]
        names.append(block[0])
    names.sort()      # the identity coset names itself 0, hence comes first
    name_to_idx = {nm: i for i, nm in enumerate(names)}
    proj = [name_to_idx[coset_of[h]] for h in range(gd.order)]
    nq = len(names)
    table = [[proj[gd.table[names[i]][names[j]]] for j in range(nq)]
             for i in range(nq)]
    action = [proj[gd.action[names[i]]] for i in range(nq)]
    e = 1
    cur = action[:]
    while cur != list(range(nq)):
        cur = [action[c] for c in cur]
        e += 1
    qd = GroupData(nq, table, action, e)
    return qd, proj


def push_rep_through_quotient(rho_q: Rep, gd: GroupData, proj) -> Rep:
    """Inflate a representation of the quotient back to the big group."""
    hs = [rho_q.h_mat(proj[h]) for h in range(gd.order)]
    return Rep(rho_q.ring, gd, rho_q.dim, hs,
               [list(r) for r in rho_q.gamma])
