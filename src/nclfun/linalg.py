"""Exact linear algebra over Z/M with M a prime power.

Everything downstream (series rings, group algebras, Fitting ideals)
reduces its module arithmetic to row spans over Z/M.  The canonical
object is the Howell normal form: two lists of rows generate the same
submodule of (Z/M)^n if and only if their Howell forms are identical
lists.  That is what makes span equality, membership, kernels and
solving decidable here without any fraction-field tricks.

Also hosts dense matrix arithmetic (identity, mat-vec, product, power)
and the Berkowitz characteristic polynomial, written once for any
commutative ring supplied through an ops object: `zero`, `one` and
`add`, `sub`, `mul`, `neg`.  A CoeffRing is such an object, so Omega
matrices pass the ring itself; coeffring.PolyOps is the one for
Omega[T].  Berkowitz is division free, so it runs unchanged over both.
"""

from __future__ import annotations

from math import gcd

__all__ = [
    "xgcd",
    "unit_lifting_gcd",
    "howell_form",
    "span_size",
    "reduce_vector",
    "in_span",
    "left_kernel",
    "solve_left",
    "mat_identity",
    "mat_vec",
    "mat_mul",
    "mat_pow",
    "berkowitz_charpoly",
    "det_from_charpoly",
    "charpoly_reversal",
    "split_components",
]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = gcd(a, b) = x*a + y*b.

    Inputs are expected nonnegative; then g >= 0.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def unit_lifting_gcd(a: int, M: int) -> int:
    """A unit u mod M with u*a == gcd(a, M) mod M.

    Requires M to be a prime power and a nonzero mod M.  Any inverse of
    a/gcd modulo M/gcd is automatically prime to the underlying prime,
    hence already a unit mod M; no lifting search is needed.
    """
    a %= M
    g = gcd(a, M)
    if g == M:
        raise ValueError("zero residue has no unit scaling")
    return pow(a // g, -1, M // g)


# ---------------------------------------------------------------------------
# Howell normal form
# ---------------------------------------------------------------------------

def howell_form(rows: list[list[int]], ncols: int, M: int) -> list[list[int]]:
    """Canonical basis of the row span of `rows` inside (Z/M)^ncols.

    The result satisfies, for M a prime power:
      * pivots (first nonzero entries) are powers of the prime dividing M,
        in strictly increasing column positions;
      * every entry above a pivot is reduced modulo that pivot;
      * the span property: any span element whose support starts at
        column c lies in the span of the basis rows with pivot >= c.
    Two generating sets of the same submodule produce equal output.
    """
    work = []
    for r in rows:
        rr = [x % M for x in r]
        if len(rr) != ncols:
            raise ValueError(f"row length {len(rr)} != ncols {ncols}")
        if any(rr):
            work.append(rr)
    basis: list[list[int]] = []
    for c in range(ncols):
        pivot = None
        rest = []
        for r in work:
            if r[c]:
                if pivot is None:
                    pivot = r
                else:
                    a_, b_ = pivot[c], r[c]
                    g, xx, yy = xgcd(a_, b_)
                    # the 2x2 transform [[xx, yy], [-b/g, a/g]] has det 1,
                    # so the span of the pair is preserved exactly
                    new_p = [(xx * u + yy * v) % M for u, v in zip(pivot, r)]
                    new_r = [((a_ // g) * v - (b_ // g) * u) % M
                             for u, v in zip(pivot, r)]
                    pivot = new_p
                    if any(new_r):
                        rest.append(new_r)
            else:
                rest.append(r)
        work = rest
        if pivot is not None:
            u = unit_lifting_gcd(pivot[c], M)
            if u != 1:
                pivot = [(u * v) % M for v in pivot]
            basis.append(pivot)
            ann = M // gcd(pivot[c], M)
            if ann > 1:
                ann_row = [(ann * v) % M for v in pivot]
                if any(ann_row):
                    work.append(ann_row)
    # normalise entries above each pivot; ascending order is required,
    # since reducing at a pivot only touches columns at or past it
    for i in range(len(basis)):
        row = basis[i]
        c = next(j for j, v in enumerate(row) if v)
        p = row[c]
        for k in range(i):
            q = basis[k][c] // p
            if q:
                basis[k] = [(u - q * v) % M for u, v in zip(basis[k], row)]
    return basis


def span_size(basis: list[list[int]], M: int) -> int:
    """Number of elements of the span, given a Howell basis."""
    total = 1
    for row in basis:
        p = next(v for v in row if v)
        total *= M // gcd(p, M)
    return total


def reduce_vector(v: list[int], basis: list[list[int]], M: int,
                  coeffs: list[int] | None = None) -> list[int]:
    """Greedy reduction of v against a Howell basis; returns the residual.

    If `coeffs` is passed (a zeroed list, one slot per basis row), the
    multiple of each row that was subtracted is recorded there.
    """
    v = [x % M for x in v]
    for i, row in enumerate(basis):
        c = row.index(next(filter(None, row)))
        if v[c]:
            q = v[c] // row[c]
            if q:
                v = [(u - q * w) % M for u, w in zip(v, row)]
                if coeffs is not None:
                    coeffs[i] = (coeffs[i] + q) % M
    return v


def in_span(v: list[int], basis: list[list[int]], M: int) -> bool:
    """Membership test against a Howell basis.  Complete, not heuristic:
    the span property guarantees greedy reduction finds a witness when
    one exists."""
    return not any(reduce_vector(v, basis, M))


def left_kernel(A: list[list[int]], M: int) -> list[list[int]]:
    """Howell basis of {x in (Z/M)^r : x*A == 0}, rows of A of length n.

    Works by running Howell on the block [A | I]: combinations tracking
    stays exact, and rows whose A-part died give kernel generators.  The
    span property of the big form makes the collection complete.
    """
    r = len(A)
    n = len(A[0]) if r else 0
    aug = [list(A[i]) + [1 if j == i else 0 for j in range(r)]
           for i in range(r)]
    H = howell_form(aug, n + r, M)
    ker = [row[n:] for row in H if not any(row[:n])]
    return howell_form(ker, r, M)


def solve_left(A: list[list[int]], b: list[int], M: int) -> list[int] | None:
    """One solution x of x*A == b over Z/M, or None when none exists."""
    r = len(A)
    n = len(A[0]) if r else 0
    aug = [list(A[i]) + [1 if j == i else 0 for j in range(r)]
           for i in range(r)]
    H = howell_form(aug, n + r, M)
    main = [row for row in H if any(row[:n])]
    v = reduce_vector(list(b) + [0] * r, main, M)
    if any(v[:n]):
        return None
    return [(-t) % M for t in v[n:]]


# ---------------------------------------------------------------------------
# Dense matrices over a commutative ring given by an ops object
# ---------------------------------------------------------------------------

def mat_identity(ops, n: int) -> list[list]:
    return [[ops.one if i == j else ops.zero for j in range(n)]
            for i in range(n)]


def mat_vec(ops, A, v) -> list:
    """A v for a matrix A and a column vector v."""
    add, mul = ops.add, ops.mul
    out = []
    for row in A:
        acc = ops.zero
        for a, b in zip(row, v):
            acc = add(acc, mul(a, b))
        out.append(acc)
    return out


def mat_mul(ops, A, B) -> list[list]:
    """The product A B.  Row i is computed as B^t times row i of A,
    which multiplies each pair of entries in the other order; the ring
    is commutative, so the result is the same."""
    cols = list(zip(*B))
    return [mat_vec(ops, cols, row) for row in A]


def mat_pow(ops, A, e: int) -> list[list]:
    """A^e for e >= 0, by repeated squaring."""
    out = mat_identity(ops, len(A))
    while e:
        if e & 1:
            out = mat_mul(ops, out, A)
        e >>= 1
        if e:
            A = mat_mul(ops, A, A)
    return out


# ---------------------------------------------------------------------------
# Berkowitz characteristic polynomial, generic over a commutative ring
# ---------------------------------------------------------------------------

def berkowitz_charpoly(ops, mat) -> list:
    """Coefficients of det(lambda*I - A), ascending in lambda.

    Division free (Samuelson / Berkowitz recursion), so valid over any
    commutative ring.  Returns a list of length n+1 whose last entry is
    ops.one.  For the empty matrix the answer is [one].
    """
    n = len(mat)
    if n == 0:
        return [ops.one]
    # vec holds the charpoly of the trailing principal submatrix,
    # coefficients in descending order, and grows one step per column
    vec = [ops.one, ops.neg(mat[n - 1][n - 1])]
    for k in range(n - 2, -1, -1):
        s = n - k - 1          # size of the submatrix below/right of k
        a = mat[k][k]
        R = [mat[k][k + 1 + j] for j in range(s)]
        C = [mat[k + 1 + i][k] for i in range(s)]
        A1 = [[mat[k + 1 + i][k + 1 + j] for j in range(s)] for i in range(s)]
        # Toeplitz column: 1, -a, -R C, -R A1 C, ..., -R A1^(s-1) C
        col = [ops.one, ops.neg(a)]
        w = C
        for _ in range(s):
            col.append(ops.neg(mat_vec(ops, [R], w)[0]))
            w = mat_vec(ops, A1, w)
        new = []
        for i in range(s + 2):
            acc = ops.zero
            for j in range(s + 1):
                if 0 <= i - j < len(col):
                    acc = ops.add(acc, ops.mul(col[i - j], vec[j]))
            new.append(acc)
        vec = new
    vec.reverse()
    return vec


def det_from_charpoly(ops, cp: list):
    """det(A) from the ascending charpoly of A: (-1)^n * constant term."""
    n = len(cp) - 1
    return cp[0] if n % 2 == 0 else ops.neg(cp[0])


def charpoly_reversal(cp: list) -> list:
    """Ascending coefficients of det(I - Y*A) from those of det(lambda*I - A).

    This is the plain coefficient reversal; the constant term of the
    output is the leading 1 of the input.
    """
    return list(reversed(cp))


def split_components(n: int, entry_nonzero) -> list[list[int]]:
    """Connected components of the index set under the symmetrised
    nonzero pattern of a square matrix.

    `entry_nonzero(i, j)` reports whether position (i, j) is nonzero.
    Simultaneous row/column permutation into these blocks leaves the
    determinant unchanged, so a determinant may be computed blockwise.
    """
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if entry_nonzero(i, j) or entry_nonzero(j, i):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())
