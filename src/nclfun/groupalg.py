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
from .linalg import block_matrix, mat_identity, mat_mul, mat_pow

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
    "coset_keys",
    "induce_rep",
    "quotient_by_normal",
    "push_rep_through_quotient",
]


def _nested_ints(value, depth):
    """Whether value is an integer (depth 0), or a list or tuple of
    values of depth - 1."""
    if depth == 0:
        return isinstance(value, int)
    return (isinstance(value, (list, tuple))
            and all(_nested_ints(v, depth - 1) for v in value))


class GroupData:
    """Multiplication table of H plus the action of gamma.

    table[i][j] is the index of h_i * h_j; index 0 is the identity.
    action is a permutation giving alpha(h_i) = h_{action[i]}.  The
    order of H is the size of the table and action_order the exact
    order of the action.  Construction runs every structural check;
    group_validate adds the prime-power constraint on action_order.
    """

    def __init__(self, table, action):
        for key, value, depth, what in (
                ("table", table, 2, "a list of rows of integers"),
                ("action", action, 1, "a list of integers")):
            if not _nested_ints(value, depth):
                raise InvalidGroup(f"group.{key} must be {what}")
        self.table = tuple(tuple(row) for row in table)
        self.action = tuple(action)
        self.order = len(self.table)
        _check_structure(self)
        self.action_order = _perm_order(self.action)
        self.inv = tuple(row.index(0) for row in self.table)
        self._action_pows = self._build_action_pows()

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
                and (self.table, self.action) == (other.table, other.action))

    def __hash__(self):
        return hash((self.table, self.action))

    def __repr__(self):
        return f"GroupData(order={self.order}, action_order={self.action_order})"


@dataclass(frozen=True)
class GElement:
    """h * gamma^a inside H \\rtimes Gamma."""
    h: int
    a: int


def _check_structure(gd: GroupData):
    n = gd.order
    if n < 1:
        raise InvalidGroup("table is empty")
    if any(len(row) != n for row in gd.table):
        raise InvalidGroup("table is not square")
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


def _perm_order(perm):
    """The order of a permutation of range(len(perm))."""
    ident = list(range(len(perm)))
    cur = list(perm)
    e = 1
    while cur != ident:
        cur = [perm[c] for c in cur]
        e += 1
    return e


def group_validate(gd: GroupData, ell):
    """Requires action_order to be a power of ell, else raises
    InvalidGroup; GroupData has already checked the structure."""
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

    def __init__(self, ring: CoeffRing, group: GroupData, terms):
        self.ring = ring
        self.group = group
        clean = {}
        for a, vec in terms.items():
            vec = tuple(vec)
            if len(vec) != group.order:
                raise InvariantViolation("coefficient vector has wrong length")
            if any(not ring.is_zero(c) for c in vec):
                clean[a] = vec
        self.terms = clean

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
    distinguished generator, whose size is the dimension.  Validation
    enforces square matrices of that size, the multiplication table,
    invertibility of gamma, and the compatibility
    gamma rho(h) gamma^{-1} = rho(alpha(h)).
    """

    __slots__ = ("ring", "group", "dim", "h_images", "gamma",
                 "_gamma_inv", "_gamma_pows")

    def __init__(self, ring, group, h_images, gamma, check=True):
        self.ring = ring
        self.group = group
        self.dim = len(gamma)
        self.h_images = tuple(tuple(tuple(row) for row in mat)
                              for mat in h_images)
        self.gamma = tuple(tuple(row) for row in gamma)
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
                raise InvariantViolation("matrices are not square of one size")
        ident = tuple(tuple(row) for row in mat_identity(R, r))
        if self.h_images[0] != ident:
            raise InvariantViolation("identity element must map to identity")
        for i in range(gd.order):
            for j in range(gd.order):
                prod = mat_mul(R, self.h_images[i], self.h_images[j])
                if tuple(tuple(row) for row in prod) != self.h_images[gd.table[i][j]]:
                    raise InvariantViolation(
                        f"matrices break the table at ({i},{j})")
        gi = self.gamma_inv()
        if gi is None:
            raise InvariantViolation("gamma image is not invertible")
        for i in range(gd.order):
            conj = mat_mul(R, mat_mul(R, self.gamma, self.h_images[i]), gi)
            if tuple(tuple(row) for row in conj) != self.h_images[gd.act(1, i)]:
                raise InvariantViolation(
                    f"gamma conjugation disagrees with the action at {i}")

    def gamma_inv(self):
        if self._gamma_inv is None:
            self._gamma_inv = mat_inverse_omega(self.ring, self.gamma)
        return self._gamma_inv

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
        return mat_mul(self.ring, self.h_images[g.h], self.gamma_pow(g.a))

    def __eq__(self, other):
        return (isinstance(other, Rep)
                and (self.ring, self.group, self.dim, self.h_images, self.gamma)
                == (other.ring, other.group, other.dim, other.h_images, other.gamma))

    def __repr__(self):
        return f"Rep(dim={self.dim} over {self.ring!r})"


def trivial_rep(ring, group):
    """The identity 1 x 1 images: a representation of any group, so it
    is not validated."""
    ident = [[ring.one]]
    return Rep(ring, group, [ident] * group.order, ident, check=False)


def tensor_rep(r1: Rep, r2: Rep) -> Rep:
    """Kronecker product of two representations over one ring.

    The Kronecker product of matrices is multiplicative, so the product
    of two representations is one and is not validated again."""
    if r1.group != r2.group:
        raise InvariantViolation("tensor needs a common group")
    if r1.ring != r2.ring:
        raise InvariantViolation("representations over different rings")
    ring = r1.ring

    def kron(A, B):
        return block_matrix([[[[ring.mul(a, b) for b in row] for row in B]
                              for a in arow] for arow in A])

    hs = [kron(a, b) for a, b in zip(r1.h_images, r2.h_images)]
    return Rep(ring, r1.group, hs, kron(r1.gamma, r2.gamma), check=False)


def theta_rho(x: CrossedLaurent, rho: Rep):
    """Evaluate a crossed element at a representation.

    h * gamma^a goes to transpose(rho((h gamma^a)^{-1})) * T^{-a}; the
    transpose-of-inverse composite is multiplicative, so this extends to
    a ring homomorphism into dim x dim matrices over polynomials in T.
    The coefficient of T^{-a} is taken entry by entry: entry (i, j) is
    one CoeffRing.dot of the nonzero coefficients c_h of the term at
    gamma^a with the entries (j, i) of the matrices rho((h gamma^a)^{-1}),
    each matrix taken once.  A nonzero entry at a negative power of T
    cannot be represented and raises ConventionOverflow.
    """
    R = rho.ring
    gd = x.group
    if gd != rho.group:
        raise InvariantViolation("crossed element and rep have different groups")
    if x.ring != R:
        raise InvariantViolation("crossed element and rep over different rings")
    r = rho.dim
    by_exp = {}
    for a, vec in x.terms.items():
        hs = [h for h, c in enumerate(vec) if not R.is_zero(c)]
        cs = [vec[h] for h in hs]
        ims = [rho.of(gd.g_inv(GElement(h, a))) for h in hs]
        by_exp[-a] = [[R.dot(cs, [m[j][i] for m in ims]) for j in range(r)]
                      for i in range(r)]
    if any(not R.is_zero(v) for e, mat in by_exp.items() if e < 0
           for row in mat for v in row):
        raise ConventionOverflow("entry has a surviving negative power of T")
    zero = [[R.zero] * r] * r
    top = max(by_exp, default=-1)
    return [[Poly(R, [by_exp.get(e, zero)[i][j] for e in range(top + 1)])
             for j in range(r)] for i in range(r)]


# ---------------------------------------------------------------------------
# open subgroups, restriction, induction, quotients
# ---------------------------------------------------------------------------

def _member_set(gd: GroupData, members):
    """The members as a sorted tuple, refused with NotASubgroup unless
    they are indices of H that hold the identity and are closed under
    the table."""
    if not all(isinstance(h, int) for h in members):
        raise NotASubgroup("members must be integers")
    mem = tuple(sorted(set(members)))
    for h in mem:
        if not 0 <= h < gd.order:
            raise NotASubgroup(
                f"member h{h} out of range for a group of order {gd.order}")
    if 0 not in mem:
        raise NotASubgroup("identity missing from the member set")
    mset = set(mem)
    for i in mem:
        for j in mem:
            if gd.table[i][j] not in mset:
                raise NotASubgroup(
                    f"member set not closed: h{i}*h{j} escapes")
    return mem


class OpenSubgroup:
    """U = H_U \\rtimes gamma^{c Z} inside H \\rtimes Gamma.

    h_members must be an actual subgroup of H, stable under alpha^c
    (otherwise the straight-product description breaks down and we
    refuse with NotASubgroup).
    """

    def __init__(self, group: GroupData, h_members, c):
        self.group = group
        self.c = c
        if c < 1:
            raise NotASubgroup("gamma index must be positive")
        mem = _member_set(group, h_members)
        self.h_members = mem
        if {group.act(self.c, h) for h in mem} != set(mem):
            raise NotASubgroup(
                "member set is not stable under alpha^c")

    @property
    def index(self):
        return (self.group.order // len(self.h_members)) * self.c

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
    return GroupData(table, action), loc_to_amb


def restrict_rep(rho: Rep, U: OpenSubgroup) -> Rep:
    """The representation of U that rho restricts to.  The local table
    and action are the ambient ones on the members, the local identity
    is the ambient one, and gamma^c is invertible and conjugates by
    alpha^c, so the result is a representation and is not validated
    again."""
    sub_gd, loc_to_amb = subgroup_group_data(U)
    hs = [rho.h_images[h] for h in loc_to_amb]
    return Rep(rho.ring, sub_gd, hs, rho.gamma_pow(U.c), check=False)


def coset_keys(gd: GroupData, members, right=False):
    """key[h]: the smallest index in the coset h*S of the member set S,
    or in S*h when right is set.  A coset is named by its key.  The key
    of a coset first appears at h = key, so the sorted distinct keys
    list the cosets in the order a walk over h = 0, 1, ... meets them."""
    t = gd.table
    if right:
        return [min(t[u][h] for u in members) for h in range(gd.order)]
    return [min(map(row.__getitem__, members)) for row in t]


def induce_rep(U: OpenSubgroup, rho_sub: Rep) -> Rep:
    """Induction from an open subgroup, on the left coset space.

    Cosets of U are labelled (b, h * alpha^b(H_U)) with b in [0, c);
    the transversal element for a coset is (t, b) with t the smallest
    index representative.  For the generators of G the little-group
    elements land in U with gamma-exponent 0 or c, so no inverses of
    the subgroup gamma are ever needed.

    Block (j, i) of the image of g is rho_sub(t_j^-1 g t_i) for the
    transversal t, which is a homomorphism on all of the group, so the
    result is a representation and is not validated again.
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

    keys = [coset_keys(amb, [amb.act(b, u) for u in U.h_members])
            for b in range(c)]
    transversal = [GElement(key, b)
                   for b in range(c) for key in sorted(set(keys[b]))]
    index_of = {(g.a, g.h): i for i, g in enumerate(transversal)}
    n = len(transversal)

    zero = [[R.zero] * w for _ in range(w)]

    def act_matrix(g: GElement):
        grid = [[zero] * n for _ in range(n)]
        for i, gi in enumerate(transversal):
            prod = amb.g_mul(g, gi)
            b2 = prod.a % c
            j = index_of[(b2, keys[b2][prod.h])]
            gj = transversal[j]
            u = amb.g_mul(amb.g_inv(gj), prod)
            if u.a % c != 0:
                raise InvariantViolation("coset bookkeeping broke")
            k = u.a // c
            if u.h not in amb_to_loc:
                raise InvariantViolation("little element escaped the subgroup")
            lu = amb_to_loc[u.h]
            grid[j][i] = rho_sub.of(GElement(lu, k))
        return block_matrix(grid)

    hs = [act_matrix(GElement(h, 0)) for h in range(amb.order)]
    gam = act_matrix(GElement(0, 1))
    return Rep(R, amb, hs, gam, check=False)


def quotient_by_normal(gd: GroupData, members):
    """Quotient of H by a normal, action-stable subgroup.

    Returns (GroupData of the quotient, projection list H -> cosets).
    Cosets are named by their keys, the identity coset first.  N is
    normal exactly when hN = Nh for every h, that is, when the left and
    the right keys agree.
    """
    mem = _member_set(gd, members)
    keys = coset_keys(gd, mem)
    right_keys = coset_keys(gd, mem, right=True)
    for h in range(gd.order):
        if keys[h] != right_keys[h]:
            raise NotNormal(f"conjugation by h{h} moves the subgroup")
    if {gd.action[h] for h in mem} != set(mem):
        raise NotNormal("subgroup is not stable under the action; "
                        "the quotient carries no induced action")
    names = sorted(set(keys))   # the identity coset names itself 0
    name_to_idx = {nm: i for i, nm in enumerate(names)}
    proj = [name_to_idx[k] for k in keys]
    nq = len(names)
    table = [[proj[gd.table[names[i]][names[j]]] for j in range(nq)]
             for i in range(nq)]
    action = [proj[gd.action[names[i]]] for i in range(nq)]
    return GroupData(table, action), proj


def push_rep_through_quotient(rho_q: Rep, gd: GroupData, proj) -> Rep:
    """Inflate a representation of the quotient back to the big group.

    The result is validated: it is a representation only when proj is
    a homomorphism carrying the action along, which nothing here
    checks."""
    hs = [rho_q.h_images[proj[h]] for h in range(gd.order)]
    return Rep(rho_q.ring, gd, hs, rho_q.gamma)
