"""Noncommutative L-classes over the crossed Laurent algebra.

A class is stored as a list of square matrices over the crossed algebra
together with signs, standing for a product of determinant classes of
the matrices and their inverses.  Evaluating against a representation
sends each matrix through the entrywise theta map and takes ordinary
determinants, producing an exact rational function in T.
"""

from collections import Counter
from functools import reduce
from operator import mul

from .coeffring import (
    Poly,
    RationalFunction,
    Series,
    is_in_P,
    is_in_S,
    poly_det,
    series_invert,
)
from .covering import (
    SheafSpec,
    push_covering_quotient,
    restrict_sheaf,
    subcover_points,
)
from .errors import (
    ConventionOverflow,
    InvariantViolation,
    NotSQuasiIso,
    SingularEvaluation,
    WrongGroup,
)
from .groupalg import (
    CrossedLaurent,
    GElement,
    Rep,
    induce_rep,
    push_rep_through_quotient,
    tensor_rep,
    theta_rho,
)
from .lfun import compare_series, euler_product, series_spread
from .linalg import block_matrix, mat_identity, power

__all__ = [
    "K1Class",
    "ncl_from_points",
    "ncl_from_cohomology",
    "ncl_evaluate",
    "ncl_twist",
    "ncl_push_quotient",
    "theta_matrix",
    "verify_interpolation",
    "verify_twist",
    "verify_quotient",
    "verify_artin_induction",
]


def _augmentation_poly_matrix(ring, mat):
    """Collapse a crossed matrix along H -> 1, gamma^a -> T^{-a} into a
    polynomial matrix.

    Every class the package builds has gamma-exponents <= 0
    (conventions.py section 4).  An entry that keeps a positive one
    after collapsing has no polynomial image and raises
    ConventionOverflow, as ncl_evaluate does at the trivial
    representation."""
    out = []
    for row in mat:
        prow = []
        for x in row:
            coeffs = [ring.zero] * (1 - min(x.terms, default=0))
            for a, vec in x.terms.items():
                s = reduce(ring.add, vec)
                if a <= 0:
                    coeffs[-a] = s
                elif not ring.is_zero(s):
                    raise ConventionOverflow(
                        "entry has a surviving negative power of T")
            prow.append(Poly(ring, coeffs))
        out.append(prow)
    return out


def _matrix_key(mat):
    """A hashable stand-in for a crossed matrix (CrossedLaurent defines
    __eq__ and so is unhashable): the sorted terms of every entry."""
    return tuple(tuple(tuple(sorted(x.terms.items())) for x in row)
                 for row in mat)


class K1Class:
    """Formal product prod det(A_i)^{e_i} with e_i = +1 or -1.

    Each factor must collapse, along the augmentation of H, to a matrix
    whose determinant lies in S; otherwise the factor has no business
    being inverted and the constructor refuses with NotSQuasiIso.

    The class interns its matrices: equal factor matrices share one
    stored tuple of rows, keyed once by content here, so the check runs
    once per distinct matrix and ncl_evaluate groups factors by the
    stored object.  A matrix object passed several times (ncl_from_points
    shares one per distinct point) is read and keyed once.
    """

    def __init__(self, ring, group, factors, check=True):
        self.ring = ring
        self.group = group
        # id(mat) -> (mat, stored rows); holding mat keeps its id unique
        # for the whole call, even when factors is a generator
        seen = {}
        by_key = {}
        fs = []
        for mat, exp in factors:
            if exp not in (1, -1):
                raise InvariantViolation("factor exponent must be +1 or -1")
            hit = seen.get(id(mat))
            if hit is None:
                rows = self._stored_rows(mat)
                hit = seen[id(mat)] = (
                    mat, by_key.setdefault(_matrix_key(rows), rows))
            fs.append((hit[1], exp))
        self.factors = tuple(fs)
        if check:
            for rows in by_key.values():
                pm = _augmentation_poly_matrix(ring, rows)
                if not is_in_S(poly_det(pm, ring)):
                    raise NotSQuasiIso(
                        "augmentation determinant of a factor is not in S")

    def _stored_rows(self, mat):
        """mat as a tuple of row tuples, after checking that it is square
        over this crossed algebra."""
        n = len(mat)
        rows = []
        for row in mat:
            if len(row) != n:
                raise InvariantViolation("factor matrix is not square")
            for x in row:
                if not isinstance(x, CrossedLaurent):
                    raise InvariantViolation(
                        "factor entries must be crossed elements")
                if x.ring != self.ring or x.group != self.group:
                    raise InvariantViolation(
                        "factor entry lives in a different crossed algebra")
            rows.append(tuple(row))
        return tuple(rows)

    def __mul__(self, other):
        if self.ring != other.ring or self.group != other.group:
            raise InvariantViolation("classes over different crossed algebras")
        return K1Class(self.ring, self.group,
                       list(self.factors) + list(other.factors), check=False)

    def inverse(self):
        return K1Class(self.ring, self.group,
                       [(m, -e) for m, e in reversed(self.factors)],
                       check=False)

    def __eq__(self, other):
        return (isinstance(other, K1Class) and self.ring == other.ring
                and self.group == other.group
                and self.factors == other.factors)

    def __repr__(self):
        return f"K1Class({len(self.factors)} factors)"


def theta_matrix(mat, rho):
    """Entrywise theta evaluation of a crossed matrix, assembled into
    one block matrix over polynomials."""
    return block_matrix([[theta_rho(e, rho) for e in row] for row in mat])


def _one_minus_g_times(ring, gd, g, A):
    """The crossed matrix Id - g A for a group element g and a square
    Omega matrix A: entry (i, j) is delta_ij - A_ij g."""
    one = CrossedLaurent.one(ring, gd)
    mat = []
    for i, row in enumerate(A):
        out = []
        for j, a in enumerate(row):
            e = CrossedLaurent.monomial(ring, gd, g, a)
            out.append(one - e if i == j else -e)
        mat.append(out)
    return mat


def ncl_from_points(cov, sheaf):
    """The product over points of the classes of Id - M_x, inverted,
    where M_x carries the sheaf matrix of Frobenius at the inverse group
    element.  Evaluating this class at a representation recovers the
    Euler product of the tensored sheaf.

    The class keeps one factor per point; the matrix is built once per
    distinct point and shared by its repeats."""
    rep = sheaf.rep
    if rep.group != cov.group:
        raise InvariantViolation("sheaf group does not match the covering")
    ring = rep.ring
    gd = cov.group

    def local_matrix(pt):
        sig = pt.frobenius()
        return _one_minus_g_times(ring, gd, gd.g_inv(sig), rep.of(sig))

    mats = {pt: local_matrix(pt) for pt in set(cov.points)}
    return K1Class(ring, gd, [(mats[pt], -1) for pt in cov.points])


def ncl_from_cohomology(cov, coh):
    """The class with one factor Id - gamma^{-1} Phi_i per cohomology
    degree, sign alternating so even degrees end up inverted.

    Only meaningful over a covering whose finite layer is trivial; any
    larger group means the cohomology matrices fail to say how H acts,
    and we refuse rather than guess."""
    gd = cov.group
    if gd.order != 1:
        raise WrongGroup("cohomology route needs a trivial finite layer")
    ring = coh.ring
    ginv = GElement(0, -1)
    return K1Class(ring, gd, [(_one_minus_g_times(ring, gd, ginv, Phi),
                               1 if d % 2 else -1)
                              for d, Phi in zip(coh.degrees, coh.matrices)])


def ncl_evaluate(k1, rho, prec=None):
    """Pushes every factor through theta at rho and multiplies the
    determinants with their signs: an exact rational function, or with
    prec its expansion in Omega[[T]] / T^prec as a Series.

    Equal factor matrices share one stored object, keyed once by the
    class, so repeated factors are grouped by (object, exponent): each
    distinct determinant is taken once and raised to its multiplicity
    by repeated squaring.  With prec every determinant is truncated
    first, so the products run mod T^prec and the denominator is
    inverted once; the result equals the exact evaluation expanded to
    prec.

    Denominator determinants must have unit constant term; otherwise the
    inverse does not exist at the level of power series and we raise
    SingularEvaluation instead of returning a wrong answer.  The check
    is made on the exact determinant."""
    if rho.group != k1.group:
        raise InvariantViolation("representation is on the wrong group")
    ring = rho.ring
    rows_of = {id(rows): rows for rows, _ in k1.factors}
    mults = Counter((id(rows), exp) for rows, exp in k1.factors)
    num = den = Poly.one(ring) if prec is None else Series.one(ring, prec)
    for (key, exp), mult in mults.items():
        det = poly_det(theta_matrix(rows_of[key], rho), ring)
        if exp == -1 and not is_in_P(det):
            raise SingularEvaluation(
                "denominator determinant has non-unit constant term")
        if prec is not None:
            det = det.truncate(prec)
        if exp == 1:
            num = num * power(det, mult, mul)
        else:
            den = den * power(det, mult, mul)
    if prec is None:
        return RationalFunction(num, den)
    return num * series_invert(den)


def ncl_twist(cov, sheaf, twist):
    """Class of the sheaf tensored with a finite twist, built from
    points of the same covering."""
    return ncl_from_points(cov, SheafSpec(tensor_rep(sheaf.rep, twist)))


def _crossed_project(x, gd_q, proj):
    out = {}
    for a, vec in x.terms.items():
        nv = [x.ring.zero] * gd_q.order
        for h, cval in enumerate(vec):
            nv[proj[h]] = x.ring.add(nv[proj[h]], cval)
        out[a] = tuple(nv)
    return CrossedLaurent(x.ring, gd_q, out)


def ncl_push_quotient(k1, gd_q, proj):
    """Push a class along a quotient of the finite layer, proj sending
    each element of H to its coset in gd_q: every crossed entry of every
    factor is projected."""
    return K1Class(k1.ring, gd_q,
                   [([[_crossed_project(x, gd_q, proj) for x in row]
                      for row in rows], exp)
                    for rows, exp in k1.factors])


# ---------------------------------------------------------------------------
# verification drivers: always two genuinely different routes
# ---------------------------------------------------------------------------

def _verdict(name, cmp, left, right, extra=None):
    out = {
        "check": name,
        "ok": bool(cmp.equal),
        "left": str(left),
        "right": str(right),
    }
    if extra:
        out.update(extra)
    return out


def verify_interpolation(cov, sheaf, rho, prec):
    """Class evaluation at rho against the Euler product of the sheaf
    tensored with rho, compared through the requested precision."""
    k1 = ncl_from_points(cov, sheaf)
    left = ncl_evaluate(k1, rho, prec)
    right = euler_product(cov, tensor_rep(sheaf.rep, rho), prec)
    return _verdict("interpolation", compare_series(left, right), left, right)


def verify_twist(cov, sheaf, twist, rho, prec):
    """Twisting the class then evaluating, against evaluating the plain
    class at the tensored representation."""
    left = ncl_evaluate(ncl_twist(cov, sheaf, twist), rho, prec)
    right = ncl_evaluate(ncl_from_points(cov, sheaf),
                         tensor_rep(twist, rho), prec)
    return _verdict("twist", compare_series(left, right), left, right)


def verify_quotient(cov, sheaf, members, rho_q, prec):
    """Projection of the class entrywise against rebuilding from the
    pushed covering, plus evaluation against the inflated rep.

    The sheaf has to factor through the quotient, meaning the listed
    normal subgroup acts trivially; it then descends to the rep that
    takes each coset's image at its first member."""
    rep = sheaf.rep
    ident = tuple(map(tuple, mat_identity(rep.ring, rep.dim)))
    if any(rep.h_images[k] != ident for k in members):
        raise InvariantViolation("sheaf does not factor through the quotient")
    cov_q, proj = push_covering_quotient(cov, members)
    gd_q = cov_q.group
    rep_q = Rep(rep.ring, gd_q,
                [rep.h_images[proj.index(qi)] for qi in range(gd_q.order)],
                rep.gamma)
    k1 = ncl_from_points(cov, sheaf)
    k1_pushed = ncl_push_quotient(k1, gd_q, proj)
    factors_match = k1_pushed == ncl_from_points(cov_q, SheafSpec(rep_q))
    rho_big = push_rep_through_quotient(rho_q, cov.group, proj)
    left = ncl_evaluate(k1_pushed, rho_q, prec)
    right = ncl_evaluate(k1, rho_big, prec)
    cmp = compare_series(left, right)
    out = _verdict("quotient", cmp, left, right,
                   {"factors_match": factors_match})
    out["ok"] = out["ok"] and factors_match
    return out


def verify_artin_induction(cov, sheaf, U, rho_sub, prec):
    """Euler product against the induced representation, compared with
    the subcovering Euler product of the restricted data spread out by
    the index step T -> T^c."""
    rho_ind = induce_rep(U, rho_sub)
    left = euler_product(cov, tensor_rep(sheaf.rep, rho_ind), prec)
    subcov, _ = subcover_points(cov, U)
    sheaf_res = restrict_sheaf(sheaf, U)
    c = U.c
    sub_prec = (prec - 1 + c - 1) // c + 1
    sub_series = euler_product(
        subcov, tensor_rep(sheaf_res.rep, rho_sub), sub_prec)
    right = series_spread(sub_series, c, prec)
    return _verdict("artin-induction", compare_series(left, right),
                    left, right)
