"""Connecting map from S-invertible matrices to torsion classes.

A square polynomial matrix whose determinant survives in S presents an
S-torsion cokernel; its class on the torsion side is the ideal class of
that determinant.  The checks here confirm the map is multiplicative,
respects short exact sequences of presentations, and collapses the big
cyclic block matrices to their small companions by explicit row and
column operations.
"""

from .coeffring import Poly, PolyOps, is_in_S, poly_det, render_poly_terms
from .errors import InvariantViolation, NotSQuasiIso
from .linalg import mat_identity, mat_mul
from .limits import (
    IdealClass,
    fitting_ideal,
    ideal_classes_equal,
    iwasawa_transform,
    limit_module,
    ngens,
)

__all__ = [
    "TorsionClass",
    "d_connecting",
    "poly_mat_mul",
    "verify_d_multiplicative",
    "verify_d_exactness",
    "verify_d_fitting_consistency",
    "block_reduction_check",
]


class TorsionClass(IdealClass):
    """Class of an S-torsion module, carried by ideal generators.

    Same arithmetic as an ideal class; the separate name records that
    these arise as cokernels of S-invertible matrices, not as Fitting
    ideals of limit modules."""


def _check_poly_matrix(ring, mat):
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise InvariantViolation("matrix is not square")
        for p in row:
            if not isinstance(p, Poly) or p.ring != ring:
                raise InvariantViolation(
                    "entries must be polynomials over the stated ring")
    return n


def d_connecting(ring, alpha):
    """Torsion class of the cokernel of alpha.

    The determinant must lie in S; a determinant dying in some residue
    component means the cokernel has a free part and no torsion class,
    which is refused rather than misreported."""
    _check_poly_matrix(ring, alpha)
    det = poly_det(alpha, ring)
    if not is_in_S(det):
        raise NotSQuasiIso("determinant is not in S")
    return TorsionClass(ring, [det])


def poly_mat_mul(ring, A, B):
    return mat_mul(PolyOps(ring), A, B)


def verify_d_multiplicative(ring, alpha, beta, prec):
    """d(beta alpha) against d(beta) d(alpha).

    The left side takes the determinant of the literal matrix product;
    the right side multiplies the two classes.  The determinants are
    also compared as exact polynomials, which is the stronger fact."""
    _check_poly_matrix(ring, alpha)
    if len(beta) != len(alpha):
        raise InvariantViolation("sizes differ")
    prod = poly_mat_mul(ring, beta, alpha)
    left = d_connecting(ring, prod)
    right = d_connecting(ring, beta) * d_connecting(ring, alpha)
    det_exact = (poly_det(prod, ring)
                 == poly_det(beta, ring) * poly_det(alpha, ring))
    ok = ideal_classes_equal(left, right, prec)
    return {
        "check": "d-multiplicative",
        "ok": ok and det_exact,
        "classes_equal": ok,
        "det_exact": det_exact,
        "left": str(left.num_gens[0]),
        "right": " * ".join(str(g) for g in right.num_gens),
    }


def verify_d_exactness(ring, alpha, gamma, off, prec):
    """d of a block triangular matrix against the product of the classes
    of its diagonal blocks.

    beta = [[alpha, off], [0, gamma]] presents an extension of the two
    cokernels; its class must be the product."""
    n = _check_poly_matrix(ring, alpha)
    k = _check_poly_matrix(ring, gamma)
    if len(off) != n or any(len(r) != k for r in off):
        raise InvariantViolation("off-diagonal block has the wrong shape")
    zero = Poly.zero(ring)
    beta = []
    for i in range(n):
        beta.append(list(alpha[i]) + list(off[i]))
    for i in range(k):
        beta.append([zero] * n + list(gamma[i]))
    left = d_connecting(ring, beta)
    right = d_connecting(ring, alpha) * d_connecting(ring, gamma)
    ok = ideal_classes_equal(left, right, prec)
    return {
        "check": "d-exactness",
        "ok": ok,
        "left": str(left.num_gens[0]),
        "right": " * ".join(str(g) for g in right.num_gens),
    }


def verify_d_fitting_consistency(ring, Phi, prec):
    """The connecting map applied to I - T Phi, carried across the
    variable bridge, against the Fitting ideal of the limit module.

    This ties the torsion side to the Iwasawa side: the determinant
    becomes the characteristic element, whose ideal the Fitting ideal
    must reproduce."""
    s = len(Phi)
    one = Poly.one(ring)
    mat = []
    for i in range(s):
        row = []
        for j in range(s):
            p = Poly(ring, [ring.zero, ring.neg(Phi[i][j])])
            if i == j:
                p = p + one
            row.append(p)
        mat.append(row)
    cls = d_connecting(ring, mat)
    bridged = TorsionClass(
        ring, [iwasawa_transform(ring, g, s) for g in cls.num_gens])
    fit = fitting_ideal(limit_module(ring, Phi))
    ok = ideal_classes_equal(bridged, fit, prec)
    return {
        "check": "d-fitting-consistency",
        "ok": ok,
        "left": render_poly_terms(ring, bridged.num_gens[0].coeffs, var="Y"),
        "right": "Fitt with " + ngens(len(fit.num_gens)),
    }


def block_reduction_check(ring, A, b):
    """Reduce I minus the b-block cyclic matrix of A to the diagonal
    form by explicit row and column passes, and confirm the determinant
    never moved.

    The cyclic matrix has the identity on the block subdiagonal and A in
    the upper right corner; adding each block row to the next and then
    folding the early columns into the last one must land exactly on
    diag(I, ..., I, I - A)."""
    n = _check_poly_matrix(ring, A)
    if b < 1:
        raise InvariantViolation("block count must be positive")
    ops = PolyOps(ring)
    one, zero = ops.one, ops.zero

    def blk_zero():
        return [[zero] * n for _ in range(n)]

    def blk_ident():
        return mat_identity(ops, n)

    E = [[blk_zero() for _ in range(b)] for _ in range(b)]
    for i in range(b):
        E[i][i] = blk_ident()
    for i in range(1, b):
        sub = E[i][i - 1]
        for t in range(n):
            sub[t][t] = -one
    corner = E[0][b - 1]
    for i in range(n):
        for j in range(n):
            corner[i][j] = corner[i][j] - A[i][j]

    def flat(blocks):
        out = []
        for bi in range(b):
            for t in range(n):
                row = []
                for bj in range(b):
                    row.extend(blocks[bi][bj][t])
                out.append(row)
        return out

    det_before = poly_det(flat(E), ring)

    for i in range(1, b):
        for bj in range(b):
            blk = E[i][bj]
            prev = E[i - 1][bj]
            E[i][bj] = [[blk[t][u] + prev[t][u] for u in range(n)]
                        for t in range(n)]
    for j in range(b - 1):
        for bi in range(b):
            contrib = poly_mat_mul(ring, E[bi][j], A)
            blk = E[bi][b - 1]
            E[bi][b - 1] = [[blk[t][u] + contrib[t][u] for u in range(n)]
                            for t in range(n)]

    want_last = blk_ident()
    for i in range(n):
        for j in range(n):
            want_last[i][j] = want_last[i][j] - A[i][j]
    diagonal_ok = True
    for bi in range(b):
        for bj in range(b):
            want = (want_last if bi == bj == b - 1
                    else blk_ident() if bi == bj else blk_zero())
            if E[bi][bj] != want:
                diagonal_ok = False
    det_after = poly_det(flat(E), ring)
    det_small = poly_det(want_last, ring)
    ok = diagonal_ok and det_before == det_after == det_small
    return {
        "check": "block-reduction",
        "ok": ok,
        "diagonal_exact": diagonal_ok,
        "left": str(det_before),
        "right": str(det_small),
    }
