"""Connecting map from S-invertible matrices to torsion classes.

A square polynomial matrix whose determinant survives in S presents an
S-torsion cokernel; its class on the torsion side is the ideal class of
that determinant.  The checks here confirm the map is multiplicative,
respects short exact sequences of presentations, and collapses the big
cyclic block matrices to their small companions by explicit row and
column operations.
"""

from .coeffring import (
    Poly,
    PolyOps,
    is_in_S,
    one_minus_T,
    poly_det,
    render_poly_terms,
)
from .errors import InvariantViolation, NotSQuasiIso
from .linalg import block_matrix, mat_identity, mat_mul
from .limits import (
    IdealClass,
    fitting_ideal,
    ideal_classes_equal,
    iwasawa_transform,
    limit_module,
    ngens,
)

__all__ = [
    "d_connecting",
    "poly_mat_mul",
    "verify_d_multiplicative",
    "verify_d_exactness",
    "verify_d_fitting_consistency",
    "block_reduction_check",
]


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
    """Torsion class of the cokernel of alpha: the ideal class of its
    determinant.

    The determinant must lie in S; a determinant dying in some residue
    component means the cokernel has a free part and no torsion class,
    which is refused rather than misreported."""
    _check_poly_matrix(ring, alpha)
    det = poly_det(alpha, ring)
    if not is_in_S(det):
        raise NotSQuasiIso("determinant is not in S")
    return IdealClass(ring, [det])


def poly_mat_mul(ring, A, B):
    return mat_mul(PolyOps(ring), A, B)


def verify_d_multiplicative(ring, alpha, beta, prec):
    """d(beta alpha) against d(beta) d(alpha).

    The left side takes the determinant of the literal matrix product;
    the right side multiplies the two classes.  The determinants are
    also compared as exact polynomials, which is the stronger fact:
    det(beta alpha) and det(beta) det(alpha) are the single generators
    of the two sides, so each determinant is taken once."""
    _check_poly_matrix(ring, alpha)
    if len(beta) != len(alpha):
        raise InvariantViolation("sizes differ")
    prod = poly_mat_mul(ring, beta, alpha)
    left = d_connecting(ring, prod)
    right = d_connecting(ring, beta) * d_connecting(ring, alpha)
    det_exact = left.num_gens[0] == right.num_gens[0]
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
    zero = [[Poly.zero(ring)] * n for _ in range(k)]
    beta = block_matrix([[alpha, off], [zero, gamma]])
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
    cls = d_connecting(ring, one_minus_T(ring, Phi))
    bridged = IdealClass(
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
    ident = mat_identity(ops, n)
    zero = [[ops.zero] * n for _ in range(n)]
    minus_ident = [[-p for p in row] for row in ident]
    minus_A = [[-p for p in row] for row in A]

    def add(X, Y):
        return [[p + q for p, q in zip(r, t)] for r, t in zip(X, Y)]

    small = add(ident, minus_A)
    E = [[ident if i == j else minus_ident if i == j + 1 else zero
          for j in range(b)] for i in range(b)]
    E[0][b - 1] = add(E[0][b - 1], minus_A)
    det_before = poly_det(block_matrix(E), ring)

    for i in range(1, b):
        E[i] = [add(blk, prev) for blk, prev in zip(E[i], E[i - 1])]
    for j in range(b - 1):
        for row in E:
            row[b - 1] = add(row[b - 1], poly_mat_mul(ring, row[j], A))

    want = [[ident if i == j else zero for j in range(b)] for i in range(b)]
    want[b - 1][b - 1] = small
    diagonal_ok = E == want
    det_after = poly_det(block_matrix(E), ring)
    det_small = poly_det(small, ring)
    ok = diagonal_ok and det_before == det_after == det_small
    return {
        "check": "block-reduction",
        "ok": ok,
        "diagonal_exact": diagonal_ok,
        "left": str(det_before),
        "right": str(det_small),
    }
