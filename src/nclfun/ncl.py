"""Noncommutative L-classes over the crossed Laurent algebra.

A class is stored as a list of square matrices over the crossed algebra
together with signs, standing for a product of determinant classes of
the matrices and their inverses.  Evaluating against a representation
sends each matrix through the entrywise theta map and takes ordinary
determinants, producing an exact rational function in T.
"""

from collections import Counter

from .coeffring import (
    Poly,
    RationalFunction,
    is_in_P,
    is_in_S,
    poly_det,
    power,
)
from .covering import SheafSpec, push_covering_quotient
from .errors import (
    InvariantViolation,
    NotSQuasiIso,
    SingularEvaluation,
    WrongGroup,
)
from .groupalg import (
    CrossedLaurent,
    GElement,
    Rep,
    push_rep_through_quotient,
    tensor_rep,
    theta_rho,
)
from .lfun import compare_series, euler_product, series_spread
from .linalg import mat_identity

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
    """Collapse a crossed matrix along H -> 1, gamma^a -> T^{-a}, then
    clear denominators rowwise so the result is a polynomial matrix.

    Row scaling by a power of T changes the determinant by a power of T,
    which is harmless for membership in S.
    """
    n = len(mat)
    collapsed = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = {}
            for a, vec in mat[i][j].terms.items():
                s = ring.zero
                for v in vec:
                    s = ring.add(s, v)
                if not ring.is_zero(s):
                    entry[-a] = s
            row.append(entry)
        collapsed.append(row)
    out = []
    for row in collapsed:
        exps = [e for entry in row for e in entry]
        shift = -min(exps) if exps and min(exps) < 0 else 0
        prow = []
        for entry in row:
            if not entry:
                prow.append(Poly.zero(ring))
                continue
            top = max(entry) + shift
            prow.append(Poly(ring, [entry.get(k - shift, ring.zero)
                                    for k in range(top + 1)]))
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
    being inverted and the constructor refuses with NotSQuasiIso.  The
    check runs once per distinct factor matrix.
    """

    def __init__(self, ring, group, factors, check=True):
        self.ring = ring
        self.group = group
        fs = []
        for mat, exp in factors:
            if exp not in (1, -1):
                raise InvariantViolation("factor exponent must be +1 or -1")
            n = len(mat)
            rows = []
            for row in mat:
                if len(row) != n:
                    raise InvariantViolation("factor matrix is not square")
                for x in row:
                    if not isinstance(x, CrossedLaurent):
                        raise InvariantViolation(
                            "factor entries must be crossed elements")
                    if x.ring != ring or x.group != group:
                        raise InvariantViolation(
                            "factor entry lives in a different crossed algebra")
                rows.append(tuple(row))
            fs.append((tuple(rows), exp))
        self.factors = tuple(fs)
        if check:
            distinct = {_matrix_key(mat): mat for mat, _ in self.factors}
            for mat in distinct.values():
                pm = _augmentation_poly_matrix(ring, mat)
                if not is_in_S(poly_det(pm, ring)):
                    raise NotSQuasiIso(
                        "augmentation determinant of a factor is not in S")

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
    n = len(mat)
    r = rho.dim
    out = [[None] * (n * r) for _ in range(n * r)]
    for i in range(n):
        for j in range(n):
            block = theta_rho(mat[i][j], rho)
            for u in range(r):
                for v in range(r):
                    out[i * r + u][j * r + v] = block[u][v]
    return out


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
    r = rep.dim

    def local_matrix(pt):
        sig = pt.frobenius()
        ginv = gd.g_inv(sig)
        A = rep.of(sig)
        mat = []
        for i in range(r):
            row = []
            for j in range(r):
                e = CrossedLaurent.monomial(ring, gd, ginv, A[i][j])
                if i == j:
                    e = CrossedLaurent.one(ring, gd) - e
                else:
                    e = -e
                row.append(e)
            mat.append(row)
        return mat

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
    factors = []
    for d, Phi in zip(coh.degrees, coh.matrices):
        n = len(Phi)
        mat = []
        for i in range(n):
            row = []
            for j in range(n):
                e = CrossedLaurent.monomial(ring, gd, ginv, Phi[i][j])
                if i == j:
                    e = CrossedLaurent.one(ring, gd) - e
                else:
                    e = -e
                row.append(e)
            mat.append(row)
        factors.append((mat, 1 if d % 2 else -1))
    return K1Class(ring, gd, factors)


def ncl_evaluate(k1, rho):
    """Exact rational function obtained by pushing every factor through
    theta at rho and multiplying determinants with their signs.

    Repeated factors are grouped by (matrix, exponent): each distinct
    determinant is taken once and raised to its multiplicity by repeated
    squaring.

    Denominator determinants must have unit constant term; otherwise the
    inverse does not exist at the level of power series and we raise
    SingularEvaluation instead of returning a wrong answer."""
    if rho.group != k1.group:
        raise InvariantViolation("representation is on the wrong group")
    ring = rho.ring
    mats = {}
    mults = Counter()
    for mat, exp in k1.factors:
        key = (_matrix_key(mat), exp)
        mats.setdefault(key, mat)
        mults[key] += 1
    num = Poly.one(ring)
    den = Poly.one(ring)
    for key, mult in mults.items():
        det = poly_det(theta_matrix(mats[key], rho), ring)
        if key[1] == 1:
            num = num * power(det, mult)
        else:
            if not is_in_P(det):
                raise SingularEvaluation(
                    "denominator determinant has non-unit constant term")
            den = den * power(det, mult)
    return RationalFunction(num, den)


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


def ncl_push_quotient(cov, sheaf, members):
    """Push the pointwise class along a quotient of the finite layer.

    The sheaf has to factor through the quotient, meaning the listed
    normal subgroup acts trivially; the pushed class is obtained by
    projecting every crossed entry, and the pushed covering and sheaf
    are returned alongside so callers can rebuild independently."""
    rep = sheaf.rep
    ring = rep.ring
    ident = mat_identity(ring, rep.dim)
    for k in sorted(set(members)):
        if [list(r) for r in rep.h_mat(k)] != ident:
            raise InvariantViolation(
                "sheaf does not factor through the quotient")
    cov_q, proj = push_covering_quotient(cov, members)
    gd_q = cov_q.group
    reps_of = {}
    for h, qi in enumerate(proj):
        if qi not in reps_of:
            reps_of[qi] = h
    h_images_q = [rep.h_mat(reps_of[qi]) for qi in range(gd_q.order)]
    rep_q = Rep(ring, gd_q, rep.dim, h_images_q,
                [list(r) for r in rep.gamma])
    k1 = ncl_from_points(cov, sheaf)
    factors_q = []
    for mat, exp in k1.factors:
        mq = [[_crossed_project(x, gd_q, proj) for x in row] for row in mat]
        factors_q.append((mq, exp))
    k1_q = K1Class(ring, gd_q, factors_q)
    return cov_q, SheafSpec(rep_q), k1_q


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
    if cmp.first_diff is not None:
        out["first_diff"] = cmp.first_diff
    if extra:
        out.update(extra)
    return out


def verify_interpolation(cov, sheaf, rho, prec):
    """Class evaluation at rho against the Euler product of the sheaf
    tensored with rho, compared through the requested precision."""
    k1 = ncl_from_points(cov, sheaf)
    left = ncl_evaluate(k1, rho).expand(prec)
    right = euler_product(cov, tensor_rep(sheaf.rep, rho), prec)
    return _verdict("interpolation", compare_series(left, right), left, right)


def verify_twist(cov, sheaf, twist, rho, prec):
    """Twisting the class then evaluating, against evaluating the plain
    class at the tensored representation."""
    left = ncl_evaluate(ncl_twist(cov, sheaf, twist), rho).expand(prec)
    right = ncl_evaluate(ncl_from_points(cov, sheaf),
                         tensor_rep(twist, rho)).expand(prec)
    return _verdict("twist", compare_series(left, right), left, right)


def verify_quotient(cov, sheaf, members, rho_q, prec):
    """Projection of the class entrywise against rebuilding from the
    pushed covering, plus evaluation against the inflated rep."""
    cov_q, sheaf_q, k1_pushed = ncl_push_quotient(cov, sheaf, members)
    k1_direct = ncl_from_points(cov_q, sheaf_q)
    factors_match = k1_pushed == k1_direct
    _, proj = push_covering_quotient(cov, members)
    rho_big = push_rep_through_quotient(rho_q, cov.group, proj)
    left = ncl_evaluate(k1_pushed, rho_q).expand(prec)
    right = ncl_evaluate(ncl_from_points(cov, sheaf), rho_big).expand(prec)
    cmp = compare_series(left, right)
    out = _verdict("quotient", cmp, left, right,
                   {"factors_match": factors_match})
    out["ok"] = out["ok"] and factors_match
    return out


def verify_artin_induction(cov, sheaf, U, rho_sub, prec):
    """Euler product against the induced representation, compared with
    the subcovering Euler product of the restricted data spread out by
    the index step T -> T^c."""
    from .covering import restrict_sheaf, subcover_points
    from .groupalg import induce_rep

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
