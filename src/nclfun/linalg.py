"""Exact linear algebra over Z/M with M a prime power.

Everything downstream (series rings, group algebras, Fitting ideals)
reduces its module arithmetic to row spans over Z/M.  The canonical
object is the Howell normal form: two lists of rows generate the same
submodule of (Z/M)^n if and only if their Howell forms are identical
lists.  That is what makes span equality, membership and kernels
decidable here without any fraction-field tricks.

The Howell form eliminates at each column with a pivot of least
valuation: over Z/p^m every other entry of the column is then a
multiple of the pivot's, and one row update clears it.  A left kernel
is read off one Howell form of [A | I].

Also hosts dense matrix arithmetic (identity, mat-vec, product, and
power(x, e, mul), the one square-and-multiply, which units, Poly and
Series use too) and the Berkowitz characteristic polynomial.  The
matrix layer is written once for any commutative ring supplied through
an ops object, and reads `zero`, `one`, `neg` and `dot(xs, ys)`, the
sum of a * b over the pairs of zip(xs, ys); only Berkowitz reads `neg`.
Every matrix entry, and every coefficient of Berkowitz's Toeplitz
product, is one `dot`, so a ring can add up a whole inner product
before it reduces.  A CoeffRing is such an object, so Omega matrices
pass the ring itself, and Berkowitz runs over a CoeffRing only: it is
division free, so it needs no domain.  coeffring.PolyOps is the ops
object for products over Omega[T]; determinants over Omega[T] go
through coeffring.poly_det, which packs the entries into integers and
eliminates there, fraction free.  ZMod(M) is Z/M with Python ints as
elements and a dot that reduces once mod M.
A product of ZMod matrices takes no dot per entry: mat_mul packs each
row of the right factor into one integer, with a slot per column wide
enough for the unreduced entry (see ZMod), and forms each row of the
product as one integer sum.

block_matrix(grid) is the matrix whose block (i, j) is grid[i][j]:
evaluated crossed matrices, cyclic blocks and their direct sums,
Kronecker products of representations (block (i, j) is a_ij B),
induced representations and the block reductions of relk are all
assembled by it, over any ring, since it only moves entries.
"""

from __future__ import annotations

import sys
from array import array
from functools import partial
from math import gcd
from operator import mul

__all__ = [
    "unit_lifting_gcd",
    "howell_form",
    "span_size",
    "reduce_vector",
    "in_span",
    "left_kernel",
    "mat_identity",
    "block_matrix",
    "mat_vec",
    "mat_mul",
    "power",
    "mat_pow",
    "berkowitz_charpoly",
    "split_components",
    "ZMod",
]


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
    Two generating sets of the same submodule produce equal output, so
    any correct elimination returns these rows.

    At each column c the pivot is the first row whose entry there has
    the least gcd with M; the search stops at the first unit.  Scaled
    by unit_lifting_gcd, its entry is g = p^v, and since M is a power
    of p every other entry of the column is a multiple of g: each other
    row r is cleared by the one update r - (r[c] / g) pivot.  The
    annihilator (M / g) pivot goes back into the rows still to be
    eliminated, and the entries above each pivot are reduced last.
    """
    work = []
    for r in rows:
        rr = [x % M for x in r]
        if len(rr) != ncols:
            raise ValueError(f"row length {len(rr)} != ncols {ncols}")
        if any(rr):
            work.append(rr)
    # every row in work is zero before column c, and so is each basis
    # row before its pivot, so row operations only touch columns c on
    basis: list[list[int]] = []
    for c in range(ncols):
        pivot = None
        g = M
        for r in work:
            a = r[c]
            if a:
                d = gcd(a, M)
                if d < g:
                    pivot, g = r, d
                    if d == 1:
                        break
        if pivot is None:
            continue
        u = unit_lifting_gcd(pivot[c], M)
        if u != 1:
            pivot[c:] = [(u * v) % M for v in pivot[c:]]
        tail = pivot[c:]
        rest = []
        for r in work:
            if r is pivot:
                continue
            q = r[c] // g
            if q:
                r[c:] = new = [(v - q * w) % M for v, w in zip(r[c:], tail)]
                if any(new):
                    rest.append(r)
            else:
                rest.append(r)
        basis.append(pivot)
        if g > 1:
            # the multiples of the pivot that vanish at c are those of
            # the annihilator row (M / g) pivot
            ann_row = [(M // g * v) % M for v in tail]
            if any(ann_row):
                rest.append(pivot[:c] + ann_row)
        work = rest
    # normalise entries above each pivot; ascending order is required,
    # since reducing at a pivot only touches columns at or past it
    for i, c in enumerate(_pivot_columns(basis)):
        row = basis[i]
        p = row[c]
        for k in range(i):
            above = basis[k]
            q = above[c] // p
            if q:
                above[c:] = [(u - q * v) % M
                             for u, v in zip(above[c:], row[c:])]
    return basis


def span_size(basis: list[list[int]], M: int) -> int:
    """Number of elements of the span, given a Howell basis."""
    total = 1
    for row in basis:
        p = next(v for v in row if v)
        total *= M // gcd(p, M)
    return total


def _pivot_columns(basis: list[list[int]]) -> list[int]:
    """Column of the first nonzero entry of each row of a Howell basis."""
    return [row.index(next(filter(None, row))) for row in basis]


def reduce_vector(v: list[int], basis: list[list[int]], M: int) -> list[int]:
    """Greedy reduction of v against a Howell basis; returns the residual."""
    v = [x % M for x in v]
    for row, c in zip(basis, _pivot_columns(basis)):
        q = v[c] // row[c]
        if q:
            # the row is zero before its pivot, so only v[c:] changes
            v[c:] = [(u - q * w) % M for u, w in zip(v[c:], row[c:])]
    return v


def in_span(v: list[int], basis: list[list[int]], M: int) -> bool:
    """Membership test against a Howell basis.  Complete, not heuristic:
    the span property guarantees greedy reduction finds a witness when
    one exists."""
    return not any(reduce_vector(v, basis, M))


def left_kernel(A: list[list[int]], M: int) -> list[list[int]]:
    """Howell basis of {x in (Z/M)^r : x*A == 0}, rows of A of length n.

    One Howell form H of the block [A | I]: its span is {(x A | x)},
    and the kernel is the I-part of the rows of H whose A-part is zero.
    Those rows are the rows of H with pivot at n or past it, and they
    are already a Howell basis.  Take x in the kernel whose support
    starts at column c: (0 | x) lies in the span and starts at column
    n + c, so by H's span property it lies in the span of the rows of
    H with pivot >= n + c.  That is the span property of the cut rows,
    and their pivots and the reduced entries above them are H's own.
    """
    r = len(A)
    n = len(A[0]) if r else 0
    aug = [list(A[i]) + [1 if j == i else 0 for j in range(r)]
           for i in range(r)]
    H = howell_form(aug, n + r, M)
    return [row[n:] for row in H if not any(row[:n])]


# ---------------------------------------------------------------------------
# Dense matrices over a commutative ring given by an ops object
# ---------------------------------------------------------------------------

class ZMod:
    """Z/M as an ops object, as much of it as the matrix identity,
    product and power read: Python ints in [0, M), and a dot that adds
    up the whole inner product exactly and reduces once.

    mat_mul multiplies ZMod matrices on packed rows: each row of B is
    one integer with a slot of 1, 2, 4 or 8 bytes per column, the
    narrowest that holds k (M - 1)^2 for B with k rows, the largest sum
    an entry of the product can reach before it is reduced.  Entries
    outside [0, M) would break that bound.  A bound of 2^64 or more
    takes one dot per entry, as does a B with no entries."""

    zero = 0
    one = 1

    def __init__(self, M: int):
        self.modulus = M

    def dot(self, xs, ys) -> int:
        return sum(map(mul, xs, ys)) % self.modulus


def mat_identity(ops, n: int) -> list[list]:
    return [[ops.one if i == j else ops.zero for j in range(n)]
            for i in range(n)]


def block_matrix(grid) -> list[list]:
    """The matrix whose block (i, j) is grid[i][j]: the blocks of a grid
    row share their height, those of a grid column their width."""
    return [[x for row in rows for x in row]
            for blocks in grid for rows in zip(*blocks)]


def mat_vec(ops, A, v) -> list:
    """A v for a matrix A and a column vector v."""
    dot = ops.dot
    return [dot(row, v) for row in A]


def mat_mul(ops, A, B) -> list[list]:
    """The product A B, one dot per entry; over a ZMod, one packed
    integer product per row where the slots allow it."""
    if isinstance(ops, ZMod):
        out = _packed_mat_mul(A, B, ops.modulus)
        if out is not None:
            return out
    dot = ops.dot
    cols = list(zip(*B))
    return [[dot(row, col) for col in cols] for row in A]


# the array type code and byte size of the narrowest 1-, 2-, 4- or
# 8-byte slot, indexed by the bit length of the bound, up to 64
_SLOTS = tuple(next((code, size) for code, size in (
    ("B", 1), ("H", 2), ("I", 4), ("Q", 8)) if bits <= 8 * size)
    for bits in range(65))


def _packed_mat_mul(A, B, M):
    """A B over Z/M for entries in [0, M), or None when B has no entries
    or the bound k (M - 1)^2 of an unreduced entry, k the number of rows
    of B, needs more than 64 bits.

    Each row of B is packed into one integer, a slot per column as wide
    as the bound needs.  Row i of A B is then one integer sum of A[i][j]
    times packed row j, with no carry from one slot into the next; its
    bytes are read back as one slot per entry and reduced mod M."""
    if not B or not B[0]:
        return None
    bits = (len(B) * (M - 1) ** 2).bit_length()
    if bits > 64:
        return None
    code, size = _SLOTS[bits]
    order = sys.byteorder
    from_bytes = int.from_bytes
    nbytes = len(B[0]) * size
    if size == 1:
        # bytes are their own one-byte slots: no array, no cast
        packed = [from_bytes(bytes(row), order) for row in B]
        return [[v % M for v in
                 sum(map(mul, row, packed)).to_bytes(nbytes, order)]
                for row in A]
    packed = [from_bytes(array(code, row), order) for row in B]
    return [[v % M for v in memoryview(
        sum(map(mul, row, packed)).to_bytes(nbytes, order)).cast(code)]
        for row in A]


def power(x, e: int, mul):
    """The product of e >= 1 copies of x under the associative product
    mul, by repeated squaring: bit_length(e) - 1 squarings and
    popcount(e) - 1 other products, each mul(partial, square).  For
    e = 1 it is x itself, with no product."""
    if e < 1:
        raise ValueError("power exponent must be at least 1")
    out = None
    while True:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if not e:
            return out
        x = mul(x, x)


def mat_pow(ops, A, e: int) -> list[list]:
    """A^e for e >= 0, by power over mat_mul.  The result is a new
    matrix, never A itself, and no product has an identity factor."""
    if e == 0:
        return mat_identity(ops, len(A))
    if e == 1:
        return [list(row) for row in A]
    return power(A, e, partial(mat_mul, ops))


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
            col.append(ops.neg(ops.dot(R, w)))
            w = mat_vec(ops, A1, w)
        # the Toeplitz matrix of col times vec: entry i is the sum of
        # col[i - j] vec[j] over j <= min(i, s)
        vec = [ops.dot(vec, col[i::-1]) for i in range(s + 2)]
    vec.reverse()
    return vec


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
