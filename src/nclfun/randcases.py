"""Seeded generators for random test instances.

Everything here is deterministic in the passed random.Random, so a
criterion run with a fixed seed reproduces bit for bit.  The group
catalog is small on purpose: each entry is a shape whose admissible
gamma actions and characters we can write down exactly, rather than a
search over presentations.
"""

import random
from collections import namedtuple

from .coeffring import CoeffRing, Poly, is_in_S, poly_det
from .covering import CoveringSpec, Point, SheafSpec
from .groupalg import GroupData, Rep
from .linalg import mat_identity

__all__ = [
    "CatalogEntry",
    "group_catalog",
    "random_group",
    "random_ring",
    "random_points",
    "random_rep",
    "random_instance",
    "random_phi",
    "random_poly",
    "random_s_poly_matrix",
    "unit_roots",
]

CatalogEntry = namedtuple("CatalogEntry", ["name", "kind", "param", "build"])


# ---------------------------------------------------------------------------
# group catalog
# ---------------------------------------------------------------------------

def _cyclic_entry(n, u=1):
    def build():
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        action = [(u * i) % n for i in range(n)]
        return GroupData(table, action)
    tag = f"C{n}" if u == 1 else f"C{n}.mult{u}"
    return CatalogEntry(tag, "cyclic", (n, u), build)


def _klein_entry():
    def build():
        table = [[i ^ j for j in range(4)] for i in range(4)]
        return GroupData(table, [0, 1, 2, 3])
    return CatalogEntry("C2xC2", "klein", None, build)


_S3_PERMS = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)]


def _s3_entry():
    def build():
        def comp(p, q):
            return tuple(p[q[i]] for i in range(3))
        idx = {p: i for i, p in enumerate(_S3_PERMS)}
        table = [[idx[comp(p, q)] for q in _S3_PERMS] for p in _S3_PERMS]
        c, cinv = _S3_PERMS[1], _S3_PERMS[2]
        action = [idx[comp(comp(c, p), cinv)] for p in _S3_PERMS]
        return GroupData(table, action)
    return CatalogEntry("S3.inner", "s3", None, build)


def group_catalog(ell):
    """Groups whose gamma action has order a power of ell."""
    base = [
        _cyclic_entry(1),
        _cyclic_entry(2),
        _cyclic_entry(3),
        _cyclic_entry(4),
        _klein_entry(),
        _cyclic_entry(6),
    ]
    if ell == 3:
        base += [_s3_entry(), _cyclic_entry(7, u=2), _cyclic_entry(9, u=4)]
    if ell == 5:
        base += [_cyclic_entry(11, u=3)]
    return base


def random_group(rng, ell, max_order=12):
    pool = [e for e in group_catalog(ell) if e.build().order <= max_order]
    return rng.choice(pool)


# ---------------------------------------------------------------------------
# rings, points
# ---------------------------------------------------------------------------

_MINPOLY_POOL = {
    3: [None, [1, 0, 1], [2, 0, 1]],
    5: [None, [1, 1, 1], [4, 0, 1]],
}


def random_ring(rng, ell=None, max_m=2):
    if ell is None:
        ell = rng.choice((3, 5))
    m = rng.randrange(1, max_m + 1)
    return CoeffRing(ell, m, rng.choice(_MINPOLY_POOL[ell]))


def random_points(rng, group, max_points, max_degree):
    pts = []
    for _ in range(rng.randrange(1, max_points + 1)):
        d = rng.randrange(1, max_degree + 1)
        pts.append(Point(d, rng.randrange(group.order), d))
    return pts


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def unit_roots(ring, n, fix_u=1):
    """Integer units z with z^n = 1, also fixed by the multiplier in the
    sense that z^(fix_u - 1) = 1.  These are exactly the values an
    alpha-compatible character of a mult-action cyclic group can take on
    the generator."""
    mod = ring.modulus
    out = []
    for z in range(1, mod):
        if z % ring.ell == 0:
            continue
        if pow(z, n, mod) == 1 and pow(z, fix_u - 1, mod) == 1:
            out.append(z)
    return out


def _unit_pool(ring):
    return [z for z in range(1, ring.modulus) if z % ring.ell != 0]


_COMPANIONS_2 = [
    [[0, -1], [1, 0]],
    [[0, -1], [1, -1]],
    [[0, -1], [1, 1]],
]
_CYCLE_3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def _int_mat(ring, mat):
    return [[ring.int_embed(c) for c in row] for row in mat]


def _scalar_rep(rng, ring, group, rank):
    """All of H acts trivially; gamma is a random invertible matrix."""
    if rank == 1:
        gamma = [[ring.int_embed(rng.choice(_unit_pool(ring)))]]
    elif rank == 2:
        gamma = _int_mat(ring, rng.choice(_COMPANIONS_2))
    else:
        gamma = _int_mat(ring, _CYCLE_3)
    ident = mat_identity(ring, rank)
    return Rep(ring, group, [ident] * group.order, gamma)


def _character_rep(rng, ring, group, entry):
    n, u = entry.param
    roots = unit_roots(ring, n, fix_u=u)
    z = ring.int_embed(rng.choice(roots))
    images, acc = [], ring.one
    for _ in range(n):
        images.append([[acc]])
        acc = ring.mul(acc, z)
    gamma = [[ring.int_embed(rng.choice(_unit_pool(ring)))]]
    return Rep(ring, group, images, gamma)


def _klein_char_rep(rng, ring, group):
    s = rng.randrange(1, 4)
    neg, one = ring.int_embed(-1), ring.one
    images = [[[one if bin(s & h).count("1") % 2 == 0 else neg]]
              for h in range(4)]
    gamma = [[ring.int_embed(rng.choice(_unit_pool(ring)))]]
    return Rep(ring, group, images, gamma)


def _s3_sign_rep(rng, ring, group):
    one, neg = [[ring.one]], [[ring.int_embed(-1)]]
    images = [one, one, one, neg, neg, neg]
    gamma = [[ring.int_embed(rng.choice(_unit_pool(ring)))]]
    return Rep(ring, group, images, gamma)


def _perm_mat(ring, perm):
    r = len(perm)
    out = [[ring.zero] * r for _ in range(r)]
    for j in range(r):
        out[perm[j]][j] = ring.one
    return out


def _coset_perm_rep(rng, ring, group, entry, max_rank):
    """Permutation action on cosets of an alpha-stable subgroup."""
    n, u = entry.param
    ranks = [r for r in range(2, max_rank + 1) if n % r == 0]
    if not ranks:
        return None
    r = rng.choice(ranks)
    images = [_perm_mat(ring, [(h + x) % r for x in range(r)])
              for h in range(n)]
    gamma = _perm_mat(ring, [(u * x) % r for x in range(r)])
    return Rep(ring, group, images, gamma)


def _s3_coset_rep(rng, ring, group):
    swap = _perm_mat(ring, [1, 0])
    ident = _perm_mat(ring, [0, 1])
    images = [ident, ident, ident, swap, swap, swap]
    unit = ring.int_embed(rng.choice(_unit_pool(ring)))
    gamma = [[unit, ring.zero], [ring.zero, unit]]
    return Rep(ring, group, images, gamma)


def random_rep(rng, ring, group, entry, max_rank=3):
    """A representation drawn from the recipes that suit the entry."""
    choices = ["scalar"]
    if entry.kind == "cyclic":
        n, u = entry.param
        if len(unit_roots(ring, n, fix_u=u)) > 1:
            choices.append("character")
        if any(n % r == 0 for r in range(2, max_rank + 1)):
            choices.append("coset")
    elif entry.kind == "klein":
        choices.append("klein-char")
    elif entry.kind == "s3":
        choices += ["sign", "s3-coset"]
    pick = rng.choice(choices)
    if pick == "scalar":
        return _scalar_rep(rng, ring, group, rng.randrange(1, max_rank + 1))
    if pick == "character":
        return _character_rep(rng, ring, group, entry)
    if pick == "coset":
        return _coset_perm_rep(rng, ring, group, entry, max_rank)
    if pick == "klein-char":
        return _klein_char_rep(rng, ring, group)
    if pick == "sign":
        return _s3_sign_rep(rng, ring, group)
    return _s3_coset_rep(rng, ring, group)


# ---------------------------------------------------------------------------
# whole instances
# ---------------------------------------------------------------------------

_Q_POOL = {3: (2, 4, 5, 7), 5: (2, 3, 4, 7)}


def random_instance(rng, ell, max_h=12, max_points=6, max_degree=4,
                    max_rank=3, max_m=2):
    """A covering with points plus a sheaf, drawn from the catalog."""
    entry = random_group(rng, ell, max_order=max_h)
    group = entry.build()
    ring = random_ring(rng, ell=ell, max_m=max_m)
    q = rng.choice(_Q_POOL[ell])
    points = random_points(rng, group, max_points, max_degree)
    cov = CoveringSpec(q, ring, group, points)
    sheaf = SheafSpec(random_rep(rng, ring, group, entry, max_rank=max_rank))
    return cov, sheaf


# ---------------------------------------------------------------------------
# raw material for the limit and connecting-map suites
# ---------------------------------------------------------------------------

def random_phi(rng, ring, max_size):
    s = rng.randrange(1, max_size + 1)
    return [[ring.int_embed(rng.randrange(ring.modulus)) for _ in range(s)]
            for _ in range(s)]


def random_poly(rng, ring, max_deg):
    deg = rng.randrange(0, max_deg + 1)
    coeffs = [[rng.randrange(ring.modulus) for _ in range(ring.deg)]
              for _ in range(deg + 1)]
    return Poly(ring, [ring.element(c) for c in coeffs])


def random_s_poly_matrix(rng, ring, max_size, max_deg):
    """Square polynomial matrix whose determinant lies in S, found by
    resampling; sizes this small terminate fast."""
    size = rng.randrange(1, max_size + 1)
    while True:
        mat = [[random_poly(rng, ring, max_deg) for _ in range(size)]
               for _ in range(size)]
        if is_in_S(poly_det(mat, ring)):
            return mat
