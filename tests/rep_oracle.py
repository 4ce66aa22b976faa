"""Reference routines for the representation tests: the plain loops
that groupalg replaced, kept to check the package against.

- `theta_rho_oracle`: theta_rho as an add/mul loop that transposes
  rho((h gamma^a)^{-1}) while it accumulates, one exponent dict per
  entry.  theta_rho now takes each entry as one CoeffRing.dot.
- `kron_oracle`: the Kronecker product as a four-deep index loop, row
  (i, k) and column (j, t) holding A[i][j] B[k][t].  tensor_rep now
  assembles it with linalg.block_matrix.
"""

from nclfun.coeffring import Poly
from nclfun.errors import ConventionOverflow, InvariantViolation
from nclfun.groupalg import GElement


def theta_rho_oracle(x, rho):
    R = rho.ring
    gd = x.group
    if gd != rho.group:
        raise InvariantViolation("crossed element and rep have different groups")
    if x.ring != R:
        raise InvariantViolation("crossed element and rep over different rings")
    r = rho.dim
    by_exp = {}
    for a, vec in x.terms.items():
        exp = -a
        mat_acc = by_exp.setdefault(exp, [[R.zero] * r for _ in range(r)])
        for h, coeff in enumerate(vec):
            if R.is_zero(coeff):
                continue
            ginv = gd.g_inv(GElement(h, a))
            m = rho.of(ginv)
            for i in range(r):
                for j in range(r):
                    # transpose while accumulating
                    mat_acc[i][j] = R.add(mat_acc[i][j],
                                          R.mul(coeff, m[j][i]))
    exps = sorted(by_exp)
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            coeffs = {}
            for e in exps:
                v = by_exp[e][i][j]
                if not R.is_zero(v):
                    coeffs[e] = v
            if coeffs and min(coeffs) < 0:
                raise ConventionOverflow(
                    "entry has a surviving negative power of T")
            top = max(coeffs) if coeffs else -1
            row.append(Poly(R, [coeffs.get(k, R.zero)
                                for k in range(top + 1)]))
        out.append(row)
    return out


def kron_oracle(ring, A, B):
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
