"""Reference routines for tests: slow, plain algorithms that the
package replaced or never needed, kept to check the package against.

- `schoolbook_series_mul` and `recurrence_series_invert`: the
  coefficient-by-coefficient add/mul loops that Series.__mul__ and
  coeffring.series_invert replaced.  They check the product that
  _poly_dot cuts at the precision and takes free when an operand is 1,
  and the inversion that sums on integer coordinates.
- `eq_up_to_unit`: whether two series agree up to a unit series factor,
  the certificate of acceptance criterion 4 and of the limit tests.
  `_cut` holds a series to a lower precision for it, since Series
  itself keeps no such method.
- `solve_left`: one solution of x A == b over Z/M, which eq_up_to_unit
  needs and the package does not.
- `PolyRingOps`: PolyOps with the add, mul and neg that the add/mul
  oracles and Berkowitz over Omega[T] read; the package's own Omega[T]
  matrices need only zero, one and dot.
- `INT_OPS` and `det_from_charpoly`: the integers as an ops object,
  as much of it as Berkowitz reads, and the determinant read off a
  characteristic polynomial.
- `berkowitz_packed_poly_det`: poly_det as it was before fraction-free
  elimination, Berkowitz on the same packed integers; the oracle of
  poly_det's elimination.
- `fl_gcd` and `fl_derivative`: the monic gcd and the derivative over
  F_l, with which CoeffRing once tested square-freeness as
  gcd(f, f') == 1; it now reads it off the factorization.
"""

from operator import mul, neg
from types import SimpleNamespace

from nclfun.coeffring import (
    Poly,
    PolyOps,
    Series,
    _fl_mod,
    _fl_trim,
    _pack,
    _reduce_slots,
    _unpack,
)
from nclfun.errors import InvariantViolation, NonUnitConstantTerm
from nclfun.linalg import (
    berkowitz_charpoly,
    howell_form,
    left_kernel,
    reduce_vector,
    split_components,
)


class PolyRingOps(PolyOps):
    """Omega[T] as a full ops object, for the oracles."""

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a


# exact Python ints of any size
INT_OPS = SimpleNamespace(zero=0, one=1, neg=neg,
                          dot=lambda xs, ys: sum(map(mul, xs, ys)))


def det_from_charpoly(ops, cp):
    """det(A) from the ascending charpoly of A: (-1)^n * constant term."""
    n = len(cp) - 1
    return cp[0] if n % 2 == 0 else ops.neg(cp[0])


def berkowitz_packed_poly_det(mat, ring):
    """Determinant of a square matrix of Poly: every entry packed into
    one integer as poly_det packs it, Berkowitz division free on each
    connected block, the product read back as balanced digits."""
    n = len(mat)
    if n == 0:
        return Poly.one(ring)
    D = ring.deg
    X = n * (D - 1) + 1
    bound = 1
    for row in mat:
        bound *= sum([sum(map(sum, p.coeffs)) for p in row])
    w = bound.bit_length() + 1
    packed = [[_pack(p.coeffs, D, X, w) for p in row] for row in mat]
    det = 1
    for comp in split_components(n, lambda i, j: packed[i][j] != 0):
        block = [[packed[i][j] for j in comp] for i in comp]
        det *= det_from_charpoly(INT_OPS, berkowitz_charpoly(INT_OPS, block))
    count = abs(det).bit_length() // w + 1
    count += -count % X
    half = 1 << (w - 1)
    vals = _unpack(det + int(("1" + "0" * (w - 1)) * count, 2), count, w)
    return Poly(ring, _reduce_slots(ring, [v - half for v in vals], X))


def fl_gcd(a, b, ell):
    """The monic gcd of two polynomials over F_l (ascending coefficient
    tuples), by Euclid; () when both are zero."""
    a = _fl_trim(c % ell for c in a)
    b = _fl_trim(c % ell for c in b)
    while b:
        a, b = b, _fl_mod(a, b, ell)
    if a:
        inv = pow(a[-1], -1, ell)
        a = tuple(c * inv % ell for c in a)
    return a


def fl_derivative(p, ell):
    """The formal derivative of a polynomial over F_l."""
    return _fl_trim((i * p[i]) % ell for i in range(1, len(p)))


def schoolbook_series_mul(a, b):
    """a * b mod T^n, n the smaller precision, one ring product per pair
    of nonzero coefficients below n."""
    if a.ring != b.ring:
        raise InvariantViolation("mixed coefficient rings in series op")
    R = a.ring
    n = min(a.prec, b.prec)
    out = [R.zero] * n
    for i in range(n):
        u = a.coeffs[i]
        if R.is_zero(u):
            continue
        for j in range(n - i):
            v = b.coeffs[j]
            if not R.is_zero(v):
                out[i + j] = R.add(out[i + j], R.mul(u, v))
    return Series(R, n, out)


def recurrence_series_invert(s):
    """The inverse in Omega[[T]] / T^prec by the recurrence
    t_k = -t_0 (s_1 t_(k-1) + ... + s_k t_0), summed by add and mul."""
    R = s.ring
    c0 = s.coeffs[0]
    if not R.is_unit(c0):
        raise NonUnitConstantTerm(
            "series inversion needs a unit constant term")
    t0 = R.inv(c0)
    out = [t0]
    for k in range(1, s.prec):
        acc = R.zero
        for j in range(1, k + 1):
            sj = s.coeffs[j]
            if not R.is_zero(sj):
                acc = R.add(acc, R.mul(sj, out[k - j]))
        out.append(R.neg(R.mul(t0, acc)))
    return Series(R, s.prec, out)


def solve_left(A, b, M):
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


def _cut(s, prec):
    """A series held past prec, cut to prec; any other left as it is."""
    return Series(s.ring, prec, s.coeffs[:prec]) if s.prec > prec else s


def eq_up_to_unit(a, b, prec=32):
    """Whether a == u * b holds in Omega[[T]] / T^prec for some unit u
    (unit means invertible there: unit constant term).

    The coefficient equations are linear in u, so the full solution set
    is an affine subspace over Z/M after flattening.  Existence of a
    solution with unit constant term is decided by projecting that
    subspace to the constant coordinates and reducing modulo l: the
    projected set is a coset of a subgroup of F_l^D, small enough to
    enumerate, and u0 is a unit exactly when its reduction is prime to
    the minimal polynomial.
    """
    ring = a.ring
    if ring != b.ring:
        raise InvariantViolation("mixed coefficient rings in unit comparison")
    if isinstance(a, Poly):
        a = a.truncate(prec)
    if isinstance(b, Poly):
        b = b.truncate(prec)
    a, b = _cut(a, prec), _cut(b, prec)
    if a.prec != prec or b.prec != prec:
        raise InvariantViolation("operands shorter than requested precision")
    D, M, ell = ring.deg, ring.modulus, ring.ell
    # unknown u as prec Omega coefficients; u * b == a coefficientwise.
    # the flattened system has one row per unknown: the (j, t) row is
    # x^t T^j b truncated, flattened.
    rows = ring.omega_rows_to_int_rows(
        [[ring.zero] * j + list(b.coeffs[:prec - j]) for j in range(prec)])
    target = ring.flatten_vec(a.coeffs)
    part = solve_left(rows, target, M)
    if part is None:
        return False
    ker = left_kernel(rows, M)
    # constant coordinates of u sit at flat positions 0..D-1
    base = tuple(part[:D])
    deltas = {tuple(0 for _ in range(D))}
    for krow in ker:
        head = tuple(c % ell for c in krow[:D])
        if any(head):
            new = set()
            for d0 in deltas:
                for mult in range(ell):
                    new.add(tuple((u + mult * v) % ell
                                  for u, v in zip(d0, head)))
            deltas = deltas | new
    fbar = _fl_trim(c % ell for c in ring.minpoly)
    for d0 in deltas:
        cand = tuple((u + v) % ell for u, v in zip(base, d0))
        if ring.deg == 1:
            if cand[0] % ell != 0:
                return True
        elif fl_gcd(cand, fbar, ell) == (1,):
            return True
    return False
