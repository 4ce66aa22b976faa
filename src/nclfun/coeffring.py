"""Coefficient rings: Z/l^m and its monogenic extensions, with the
polynomial, power-series and rational-function layers on top.

An element of Omega = (Z/l^m)[x]/(f) is stored as a bare tuple of D
ints (ascending powers of x, least nonnegative residues), where D is
the degree of the monic minimal polynomial f.  The CoeffRing object
owns all arithmetic on these tuples; keeping elements as plain tuples
makes them hashable and keeps the hot multiplication loop cheap.

The reduction of f modulo l must be square free.  Then the quotient of
Omega by its Jacobson radical is a product of finite fields, one per
irreducible factor of f mod l.  Units, the set P of series with unit
constant term, and the larger multiplicative set S (polynomials whose
image in every residue component ring is nonzero) are all decided
through that product: a unit is an element nonzero in every residue
field, and its inverse is its power to the order of the unit group,
minus one.  Inverses and residue projections are kept per element:
CoeffRing instances with equal (l, m, f) share one memo of them,
bounded by the M^D elements of the ring (once per residue factor for
the projections).
"""

from operator import itemgetter, mul

from .errors import InvariantViolation, NonUnitConstantTerm
from .linalg import (
    berkowitz_charpoly,
    howell_form,
    mat_identity,
    mat_mul,
    mat_pow,
    power,
)


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over F_l (coefficient tuples, ascending, trimmed)
# ---------------------------------------------------------------------------

def _fl_trim(p):
    p = tuple(p)
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _fl_divmod(a, b, ell):
    a = list(_fl_trim(c % ell for c in a))
    b = _fl_trim(c % ell for c in b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, ell)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * inv_lead % ell
        shift = len(a) - len(b)
        q[shift] = c
        for i, cc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * cc) % ell
        a.pop()
    return _fl_trim(q), _fl_trim(a)


def _fl_mod(a, b, ell):
    return _fl_divmod(a, b, ell)[1]


def _monic_polys(ell, d):
    # all monic polynomials of degree d, lexicographic in the low coeffs
    def rec(k):
        if k == d:
            yield (1,)
            return
        for tail in rec(k + 1):
            for c in range(ell):
                yield (c,) + tail
    return rec(0)


def _fl_factor(f, ell):
    """Monic irreducible factors of a monic f over F_l, repeated by
    multiplicity, found by trial division, smallest degree first and
    lexicographic within each degree.  Deterministic, which downstream
    code relies on; f is square free exactly when no factor repeats."""
    f = _fl_trim(c % ell for c in f)
    factors = []
    d = 1
    while len(f) - 1 >= 1:
        deg = len(f) - 1
        if d > deg // 2:
            factors.append(f)
            break
        hit = None
        for g in _monic_polys(ell, d):
            if not _fl_mod(f, g, ell):
                hit = g
                break
        if hit is None:
            d += 1
            continue
        factors.append(hit)
        f = _fl_divmod(f, hit, ell)[0]
    return factors


# ---------------------------------------------------------------------------
# the coefficient ring
# ---------------------------------------------------------------------------

# (ell, m, minpoly) -> the dict of inverses and, per residue factor,
# the dict of projections: shared by equal rings, since callers build a
# fresh ring per case.  Elements are reduced tuples, so a dict holds at
# most M^D entries, 15 625 for Z/25[x]/(x^3 + 2).
_MEMOS = {}


class CoeffRing:
    """Omega = (Z/l^m)[x]/(minpoly); elements are int tuples of length D."""

    def __init__(self, ell, m, minpoly=None):
        if not _is_prime(ell):
            raise InvariantViolation(f"modulus base {ell} is not prime")
        if m < 1:
            raise InvariantViolation("exponent must be at least 1")
        self.ell = ell
        self.m = m
        self.modulus = ell ** m
        if minpoly is None:
            minpoly = (0, 1)
        minpoly = tuple(c % self.modulus for c in minpoly)
        if len(minpoly) < 2 or minpoly[-1] != 1:
            raise InvariantViolation(
                "minimal polynomial must be monic of degree >= 1")
        self.minpoly = minpoly
        self.deg = len(minpoly) - 1
        self.components = _fl_factor(minpoly, ell)
        if len(set(self.components)) != len(self.components):
            raise InvariantViolation(
                "minimal polynomial is not square free modulo the prime")
        # the order of the unit group: the radical has l^((m - 1) D)
        # elements, and Omega mod it is the product of the F_l[x]/(g)
        self._unit_order = ell ** ((m - 1) * self.deg)
        for g in self.components:
            self._unit_order *= ell ** (len(g) - 1) - 1
        self._inverses, self._projections = _MEMOS.setdefault(
            (ell, m, minpoly), ({}, {g: {} for g in self.components}))
        self.zero = (0,) * self.deg
        self.one = (1 % self.modulus,) + (0,) * (self.deg - 1)
        self._xpow = [self.one]
        self.x_powers(2 * self.deg - 1)

    def _shift_reduce(self, a):
        """Coordinates of x * a."""
        D, M = self.deg, self.modulus
        top = a[D - 1]
        out = [0] + list(a[:D - 1])
        if top:
            for i in range(D):
                out[i] = (out[i] - top * self.minpoly[i]) % M
        return tuple(out)

    def x_powers(self, count):
        """Coordinates of x^k for k < count.  The list is kept and grows
        on demand; it always holds the 2D - 1 powers that mul reads."""
        rows = self._xpow
        while len(rows) < count:
            rows.append(self._shift_reduce(rows[-1]))
        return rows

    def __eq__(self, other):
        return (isinstance(other, CoeffRing)
                and (self.ell, self.m, self.minpoly)
                == (other.ell, other.m, other.minpoly))

    def __hash__(self):
        return hash((self.ell, self.m, self.minpoly))

    def __repr__(self):
        if self.deg == 1:
            return f"CoeffRing(Z/{self.modulus})"
        return f"CoeffRing(Z/{self.modulus}[x]/{list(self.minpoly)})"

    # --- element construction -------------------------------------------

    def element(self, coords):
        coords = tuple(int(c) % self.modulus for c in coords)
        if len(coords) != self.deg:
            raise InvariantViolation(
                f"element needs {self.deg} coordinates, got {len(coords)}")
        return coords

    def int_embed(self, n):
        return (n % self.modulus,) + (0,) * (self.deg - 1)

    # --- arithmetic ------------------------------------------------------

    def add(self, a, b):
        M = self.modulus
        return tuple((u + v) % M for u, v in zip(a, b))

    def sub(self, a, b):
        M = self.modulus
        return tuple((u - v) % M for u, v in zip(a, b))

    def neg(self, a):
        M = self.modulus
        return tuple((-u) % M for u in a)

    def mul(self, a, b):
        M = self.modulus
        D = self.deg
        if D == 1:
            return (a[0] * b[0] % M,)
        conv = [0] * (2 * D - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    conv[i + j] += u * v
        out = [0] * D
        for k, c in enumerate(conv):
            if c:
                row = self._xpow[k]
                for t in range(D):
                    if row[t]:
                        out[t] += c * row[t]
        return tuple(v % M for v in out)

    def dot(self, xs, ys):
        """The sum of a * b over the pairs (a, b) of zip(xs, ys).

        The x-convolutions of all pairs add up in 2D - 1 unreduced
        integers, which are reduced once, through the powers of x and
        mod M: one tuple and one reduction per sum, not per product."""
        if self.deg == 1:
            return (sum([a[0] * b[0] for a, b in zip(xs, ys)])
                    % self.modulus,)
        conv = [0] * (2 * self.deg - 1)
        for a, b in zip(xs, ys):
            for i, u in enumerate(a):
                if u:
                    for k, v in enumerate(b, i):
                        conv[k] += u * v
        return _reduce_slots(self, conv)[0]

    def is_zero(self, a):
        return not any(a)

    # --- units and residue components -----------------------------------

    def is_unit(self, a):
        """Whether a is nonzero in every residue field F_l[x]/(g): Omega
        mod its radical is their product, and the radical is nilpotent."""
        if self.deg == 1:
            return a[0] % self.ell != 0
        return all(any(self.project_component(a, g))
                   for g in self.components)

    def inv(self, a):
        """Inverse of a unit: pow mod M over Z/l^m, and otherwise
        a^(u - 1) by squaring, u the order of the unit group.  A non-unit
        raises every time; nothing is kept for it."""
        try:
            return self._inverses[a]
        except KeyError:
            pass
        if not self.is_unit(a):
            raise InvariantViolation("inverse of a non-unit requested")
        if self.deg == 1:
            b = (pow(a[0], -1, self.modulus),)
        elif self._unit_order == 1:
            b = a
        else:
            b = power(a, self._unit_order - 1, self.mul)
        if self.mul(a, b) != self.one:
            raise InvariantViolation("unit inversion failed")
        self._inverses[a] = b
        return b

    def project_component(self, a, g):
        """Image of a in F_l[x]/(g) as a tuple of length deg(g), for g
        one of self.components."""
        memo = self._projections[g]
        try:
            return memo[a]
        except KeyError:
            abar = tuple(c % self.ell for c in a)
            r = _fl_mod(abar, g, self.ell)
            out = memo[a] = tuple((r[i] if i < len(r) else 0)
                                  for i in range(len(g) - 1))
            return out

    # --- flattening to Z/M ----------------------------------------------

    def flatten_vec(self, vec):
        out = []
        for a in vec:
            out.extend(a)
        return out

    def unflatten_vec(self, flat):
        D = self.deg
        return [tuple(flat[i:i + D]) for i in range(0, len(flat), D)]

    def omega_rows_to_int_rows(self, rows):
        """Each Omega-row becomes D integer rows (its multiples by x^u), so
        the Z/M span of the output equals the Omega span of the input,
        read through flattening."""
        out = []
        for row in rows:
            cur = list(row)
            out.append(self.flatten_vec(cur))
            for _ in range(self.deg - 1):
                cur = [self._shift_reduce(a) for a in cur]
                out.append(self.flatten_vec(cur))
        return out

    def x_shift_int_row(self, flat):
        """The flattened row multiplied by x, blockwise."""
        return self.flatten_vec(
            [self._shift_reduce(a) for a in self.unflatten_vec(flat)])

    def flat_map(self, A):
        """The flat map of a square Omega matrix A.  An Omega-linear map
        is also a Z/M-linear map of the flattened coordinates; this is
        its integer matrix, whose row j D + u is x^u times column j of
        A, flattened, so a flat vector v goes to A v as the row vector v
        times it.  The flat map of A B is then the flat map of B times
        that of A, in that order, the flat map of A^-1 is the inverse of
        that of A, and every power, sum and product of Omega matrices is
        a ZMod(M) matrix product of flat maps."""
        return self.omega_rows_to_int_rows(list(zip(*A)))

    def omega_matrix(self, F):
        """The Omega matrix whose flat map is F: column j is read off
        row j D, the image of e_j."""
        D = self.deg
        s = len(F) // D
        return tuple(tuple(tuple(F[j * D][i * D:(i + 1) * D])
                           for j in range(s)) for i in range(s))


# ---------------------------------------------------------------------------
# Omega matrices
# ---------------------------------------------------------------------------

# A CoeffRing is itself an ops object of the generic matrix layer in
# linalg.  These names stay because perfbench/ imports and traces them.
mat_identity_omega = mat_identity
mat_mul_omega = mat_mul
mat_pow_omega = mat_pow


def mat_inverse_omega(ring, A):
    """Inverse of a square Omega matrix as a list of lists, or None if
    not invertible.

    One Howell form of [F | I], F the flat map of A, which is
    invertible exactly when A is.  Then the form is [I | F^-1], and
    F^-1 is the flat map of A^-1, which omega_matrix reads back.  The
    product X A is checked against the identity."""
    n = len(A)
    N = n * ring.deg
    H = howell_form([row + [int(i == j) for j in range(N)]
                     for i, row in enumerate(ring.flat_map(A))],
                    2 * N, ring.modulus)
    ident = [[int(i == j) for j in range(N)] for i in range(N)]
    if [row[:N] for row in H] != ident:
        return None
    X = [list(r) for r in ring.omega_matrix([row[N:] for row in H])]
    if mat_mul(ring, X, A) != mat_identity(ring, n):
        return None
    return X


# ---------------------------------------------------------------------------
# polynomials in T over Omega
# ---------------------------------------------------------------------------

class Poly:
    """Polynomial over a CoeffRing: coefficients are reduced ring elements,
    ascending, with trailing zeros stripped.  The zero polynomial has an
    empty coefficient tuple and reports degree -1."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = _strip(tuple(coeffs))

    @classmethod
    def from_ints(cls, ring, ints):
        return cls(ring, [ring.int_embed(n) for n in ints])

    @classmethod
    def zero(cls, ring):
        return cls(ring, [])

    @classmethod
    def one(cls, ring):
        return cls(ring, [ring.one])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.ring.zero

    def is_zero(self):
        return not self.coeffs

    def _need_same_ring(self, other):
        if self.ring != other.ring:
            raise InvariantViolation("mixed coefficient rings in polynomial op")

    def __add__(self, other):
        self._need_same_ring(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ring, [self.ring.add(self.coeff(k), other.coeff(k))
                                for k in range(n)])

    def __neg__(self):
        return Poly(self.ring, [self.ring.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self._need_same_ring(other)
        return Poly(self.ring,
                    _poly_dot(self.ring, (self.coeffs,), (other.coeffs,)))

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def truncate(self, prec):
        return Series(self.ring, prec, self.coeffs[:prec])

    def __str__(self):
        return render_poly_terms(self.ring, self.coeffs)

    def __repr__(self):
        return f"Poly({self})"


# _pack builds an operand of at most this many coefficients by shifts
# and splits a longer one in halves.  Timed against one joined binary
# string, which is linear in the bit length (CPython 3.11, 2 vCPU, slot
# widths 12-40 bits, D = 1-3): shifts alone cost 0.13-0.3x up to 50
# coefficients but grow quadratically, to 2-8x at 2 000; split at 16
# the pack costs 0.2-0.55x the string at every length up to 19 000, the
# size of the exact products of ncl evaluate on ec_f5.
_PACK_LEAF = 16


def _pack(coeffs, D, slots, w):
    """One integer from a tuple of ring elements: coordinate t of the
    element at T^k fills slot k * slots + t, w bits wide, and slots D to
    slots - 1 of each block stay zero.  A short tuple is packed by
    shifts; a longer one is split in halves, whose packs are joined by
    one shift, so a long pack stays near linear in its bit length."""
    n = len(coeffs)
    if n > _PACK_LEAF:
        h = n // 2
        return (_pack(coeffs[:h], D, slots, w)
                | _pack(coeffs[h:], D, slots, w) << h * slots * w)
    gap = (slots - D) * w
    v = 0
    for c in reversed(coeffs):
        v <<= gap
        for u in reversed(c):
            v = v << w | u
    return v


def _unpack(v, count, w):
    """The count slots of w bits of an integer 0 <= v < 2^(count w),
    lowest first, read through one binary string."""
    total = count * w
    bits = format(v, "b").zfill(total)
    vals = [int(bits[i:i + w], 2) for i in range(0, total, w)]
    vals.reverse()
    return vals


def _kronecker_slots(ring, a, b, count):
    """The first count T-coefficients of the product of two nonempty
    coefficient tuples by Kronecker substitution, unreduced: slot
    k (2D - 1) + t holds the integer coefficient of x^t T^k.

    Each T-coefficient, read as a polynomial in x of degree below D,
    fills 2D - 1 slots of w bits in one integer; one integer product then
    holds the slots.  Each sums at most min(len) * D products of
    residues below M, so w = 2 bitlen(M - 1) + bitlen(min(len) * D) bits
    hold it and no carry crosses a slot, and the slots past count blocks
    are masked off before they are read.
    """
    D, M = ring.deg, ring.modulus
    w = 2 * (M - 1).bit_length() + (min(len(a), len(b)) * D).bit_length()
    S = 2 * D - 1
    bits = count * S * w
    return _unpack(_pack(a, D, S, w) * _pack(b, D, S, w) & ((1 << bits) - 1),
                   count * S, w)


def _reduce_slots(ring, vals, slots=None):
    """Ring elements from integer x-coefficients in blocks of `slots`
    (2D - 1 by default), one element per block, through the powers of x
    and mod M."""
    D, M = ring.deg, ring.modulus
    if D == 1:
        return [(v % M,) for v in vals]
    if slots is None:
        slots, xpow = 2 * D - 1, ring._xpow
    else:
        xpow = ring.x_powers(slots)
    out = []
    for k in range(0, len(vals), slots):
        acc = vals[k:k + D]
        for c, row in zip(vals[k + D:k + slots], xpow[D:]):
            if c:
                acc = [u + c * r for u, r in zip(acc, row)]
        out.append(tuple([u % M for u in acc]))
    return out


# A pair whose operands both have at least this many coefficients is
# multiplied by Kronecker substitution, a shorter one by the schoolbook
# loop over integer coordinates.  Timed per pair over Z/9, Z/3[x]/(x^2+1)
# and Z/25[x]/(x^3+2), Kronecker costs 1.2-3.6x the loop up to 5x5
# coefficients, breaks even between 6x6 and 8x8, and costs 0.5-0.7x at
# 10x10 and 0.25-0.4x at 20x20: the long exact products of class
# evaluation.  The 1-5 coefficient entries of the Fitting elimination
# and of the connecting maps' matrix products stay on the loop.
_KRONECKER_MIN_LEN = 8


def _strip(coeffs):
    """A sequence of ring elements without its trailing zeros."""
    n = len(coeffs)
    while n and not any(coeffs[n - 1]):
        n -= 1
    return coeffs[:n]


def _poly_dot(ring, xs, ys, n=None):
    """The sum of a * b over the pairs (a, b) of coefficient tuples in
    zip(xs, ys), as a list of ring elements, ascending in T; with n,
    only its coefficients below T^n.  The list may end in zeros; an
    empty sum gives an empty list.

    All products add up in one unreduced integer array, 2D - 1 slots
    per power of T, reduced once at the end.  With n each operand is
    cut to n coefficients; the schoolbook loop then forms no product
    at or past T^n, and the Kronecker product, computed in full, is
    masked to n blocks before it is unpacked.  Poly products,
    PolyOps.dot and the Fitting elimination pass no n; Series products
    pass their precision."""
    D = ring.deg
    S = 2 * D - 1
    acc = []
    for ac, bc in zip(xs, ys):
        if n is not None:
            ac, bc = ac[:n], bc[:n]
        if not ac or not bc:
            continue
        top = len(ac) + len(bc) - 1
        if n is not None and top > n:
            top = n
        if len(acc) < top * S:
            acc.extend([0] * (top * S - len(acc)))
        if len(ac) >= _KRONECKER_MIN_LEN and len(bc) >= _KRONECKER_MIN_LEN:
            for k, v in enumerate(_kronecker_slots(ring, ac, bc, top)):
                acc[k] += v
        else:
            for i, u in enumerate(ac):
                for j, v in enumerate(bc[:top - i], i):
                    for s, us in enumerate(u, j * S):
                        if us:
                            for k, vt in enumerate(v, s):
                                acc[k] += us * vt
    return _reduce_slots(ring, acc)


class PolyOps:
    """Ops object of Omega[T], for the generic matrix layer: products
    and powers of matrices of Poly.  Determinants go through poly_det,
    which computes in the integers."""

    def __init__(self, ring):
        self.ring = ring
        self.zero = Poly.zero(ring)
        self.one = Poly.one(ring)

    def dot(self, xs, ys):
        """The sum of a * b over the pairs of zip(xs, ys), as one Poly."""
        return Poly(self.ring, _poly_dot(
            self.ring, [a.coeffs for a in xs], [b.coeffs for b in ys]))


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

class Series:
    """Power series over a CoeffRing, held to an explicit precision: the
    coefficient tuple always has exactly `prec` entries.  A product is
    taken at the smaller precision n of the two operands.

    It is the polynomial product of the two operands cut to n (trailing
    zeros dropped), by the same _poly_dot as Poly, which forms no
    product at or past T^n: a short local factor costs its length
    times the other operand's, not n times it.  An operand that is
    exactly 1 costs one comparison: the other operand, cut to n, is
    the product."""

    __slots__ = ("ring", "prec", "coeffs")

    def __init__(self, ring, prec, coeffs):
        if prec < 1:
            raise InvariantViolation("series precision must be at least 1")
        cs = list(coeffs)
        if len(cs) < prec:
            cs.extend([ring.zero] * (prec - len(cs)))
        self.ring = ring
        self.prec = prec
        self.coeffs = tuple(cs[:prec])

    @classmethod
    def one(cls, ring, prec):
        return cls(ring, prec, [ring.one])

    def __mul__(self, other):
        if self.ring != other.ring:
            raise InvariantViolation("mixed coefficient rings in series op")
        n = min(self.prec, other.prec)
        a, b = _strip(self.coeffs[:n]), _strip(other.coeffs[:n])
        one = (self.ring.one,)
        if a == one or b == one:
            return Series(self.ring, n, b if a == one else a)
        return Series(self.ring, n, _poly_dot(self.ring, (a,), (b,), n))

    def __eq__(self, other):
        return (isinstance(other, Series) and self.ring == other.ring
                and self.prec == other.prec and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.prec, self.coeffs))

    def __str__(self):
        return render_poly_terms(self.ring, self.coeffs)

    def __repr__(self):
        return f"Series[{self.prec}]({self})"


def series_invert(s):
    """Multiplicative inverse in Omega[[T]] / T^prec.

    The inverse t satisfies t_k = sum of q_j t_(k-j) over the nonzero
    s_j with 1 <= j <= k, where q_j = -t_0 s_j is formed once per j.
    The sum runs on integer coordinates.  Coordinate r of q_j x^c, for
    c < D, is taken once as the weight of coordinate c of t_(k-j) in
    coordinate r of t_k.  So the powers of x are folded into the
    weights, and each coordinate of t_k is one sum of unreduced integer
    products, reduced once mod M.  Needs a unit constant term; raises
    NonUnitConstantTerm otherwise.
    """
    R = s.ring
    c0 = s.coeffs[0]
    if not R.is_unit(c0):
        raise NonUnitConstantTerm(
            "series inversion needs a unit constant term")
    t0 = R.inv(c0)
    D, M, prec = R.deg, R.modulus, s.prec
    js = [j for j in range(1, prec) if any(s.coeffs[j])]
    # t is kept flat, t_i[c] at i D + c.  At step k the list holds k D
    # ints, so t_(k-j)[c] sits at c - j D; up to T^k the first `used`
    # of the js contribute, read through the first used D indices.
    used = 0
    minus_t0 = R.neg(t0)
    idx, weights = [], [[] for _ in range(D)]
    for j in js:
        q = R.mul(minus_t0, s.coeffs[j])
        for c in range(D):
            idx.append(c - j * D)
            for r in range(D):
                weights[r].append(q[r])
            q = R._shift_reduce(q)
    flat, get = list(t0), None
    for k in range(1, prec):
        if used < len(js) and js[used] == k:
            used += 1
            if used * D > 1:
                get = itemgetter(*idx[:used * D])
            else:
                # itemgetter of one index gives the int, not a 1-tuple
                get = lambda f, i=idx[:1]: tuple(map(f.__getitem__, i))
        if get is None:
            flat.extend(R.zero)
        else:
            vals = get(flat)
            flat.extend([sum(map(mul, w, vals)) % M for w in weights])
    return Series(R, prec, [tuple(flat[i:i + D])
                            for i in range(0, prec * D, D)])


# ---------------------------------------------------------------------------
# the multiplicative sets P and S
# ---------------------------------------------------------------------------

def is_in_P(a):
    """Whether a Poly has a unit constant term."""
    return a.ring.is_unit(a.coeff(0))


def is_in_S(a):
    """Nonzero image in every residue component ring (F_l-factor of the
    reduction), coefficientwise.

    For a Poly the answer is exact.  For a Series it is a one-sided
    check: True is a certificate, False only means no witness appeared
    within the stored precision.
    """
    ring = a.ring
    coeffs = a.coeffs
    for g in ring.components:
        if not any(any(ring.project_component(c, g)) for c in coeffs):
            return False
    return True


# ---------------------------------------------------------------------------
# determinants of polynomial matrices
# ---------------------------------------------------------------------------

def poly_det(mat, ring):
    """Determinant of a square matrix of Poly, by Kronecker substitution
    into the integers and fraction-free elimination there.

    A 1 x 1 matrix returns its entry, which is already a reduced Poly.
    Otherwise every coefficient is lifted to [0, M), and the ring map
    Z[x, T] -> Z sending x to 2^w and T to 2^(w X), with
    X = n (D - 1) + 1, packs each entry into one integer.  One Bareiss
    elimination runs on the whole packed matrix (see _bareiss_det), and
    its determinant is read back as balanced base-2^w digits, reduced
    through the powers of x and mod M.  Bareiss divides, and its
    divisions are exact only in a domain: it runs on the lifted
    integers, never over Omega itself.

    The digits are exactly the integer coefficients of the determinant
    of the lifted matrix, because no two of its monomials share a slot
    and none overflows one.  Its x-degree is at most n (D - 1) < X, so
    x^t T^k lands in slot k X + t alone.  By the Leibniz formula it is
    a sum over permutations of products of one entry per row; the sum
    of the absolute values of the coefficients of a product is at most
    the product of those of the factors, so each coefficient is at most
    B = prod_i sum_j |a_ij|_1 in absolute value, where |a|_1 is the sum
    of the lifted coefficients of a.  With 2^(w - 1) > B each balanced
    digit lies in (-2^(w - 1), 2^(w - 1)) and is unique.  Intermediate
    values of Bareiss are minors of the lifted matrix, exact integers of
    any size; only the final determinant has to fit its slots.  None of
    this reads the zero pattern: a block-diagonal matrix takes the same
    slots and the same exact elimination as a dense one.
    Reduction through the powers of x and mod M is a ring map
    Z[x, T] -> Omega[T], so it takes that determinant to the
    determinant over Omega[T].
    """
    n = len(mat)
    if n == 0:
        return Poly.one(ring)
    if n == 1:
        return mat[0][0]
    D = ring.deg
    X = n * (D - 1) + 1
    bound = 1
    for row in mat:
        bound *= sum([sum(map(sum, p.coeffs)) for p in row])
    w = bound.bit_length() + 1
    packed = [[_pack(p.coeffs, D, X, w) for p in row] for row in mat]
    det = _bareiss_det(packed)
    # a top digit in slot s makes |det| > 2^(w s - 1), so count slots
    # hold every digit; they are padded to whole T-blocks.  Adding
    # 2^(w - 1) to every slot makes each digit nonnegative, carry free.
    count = abs(det).bit_length() // w + 1
    count += -count % X
    half = 1 << (w - 1)
    vals = _unpack(det + int(("1" + "0" * (w - 1)) * count, 2), count, w)
    return Poly(ring, _reduce_slots(ring, [v - half for v in vals], X))


def _bareiss_det(a):
    """Determinant of a nonempty square integer matrix, by Bareiss's
    fraction-free elimination; the rows of a are overwritten.

    Step k turns every entry below and right of the pivot a_kk into
    (a_kk a_ij - a_ik a_kj) / prev, prev the pivot of step k - 1 (1 at
    the first step).  By Sylvester's identity that entry is then the
    minor on rows 0..k, i and columns 0..k, j of the input (rows
    permuted by the swaps so far), so the division is exact in Z, a
    domain; over Omega it need not be.  A zero pivot is swapped
    with the first lower row nonzero in its column, flipping the sign;
    if there is none, the determinant is 0.  The last pivot is the
    determinant of the permuted matrix."""
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, tail = a[k][k], a[k][k + 1:]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            row[k + 1:] = [(pivot * u - f * v) // prev
                           for u, v in zip(row[k + 1:], tail)]
        prev = pivot
    return sign * a[n - 1][n - 1]


def one_minus_T(ring, Phi):
    """I - T Phi as a matrix of Poly, for a square Omega matrix Phi."""
    one, zero = ring.one, ring.zero
    return [[Poly(ring, [one if i == j else zero, ring.neg(a)])
             for j, a in enumerate(row)] for i, row in enumerate(Phi)]


def det_one_minus_scaled(ring, A, d):
    """det(I - T^d A) as a Poly, for a square Omega matrix A.

    Computed from the characteristic polynomial of A by coefficient
    reversal, then spreading coefficient k to degree d*k.
    """
    # det(I - Y A) has the coefficients of det(lambda I - A) reversed
    rev = reversed(berkowitz_charpoly(ring, A))
    coeffs = []
    for k, c in enumerate(rev):
        while len(coeffs) < d * k:
            coeffs.append(ring.zero)
        coeffs.append(c)
    return Poly(ring, coeffs)


# ---------------------------------------------------------------------------
# rational functions with denominators in P
# ---------------------------------------------------------------------------

class RationalFunction:
    """Quotient num/den of polynomials with den required to lie in P.

    A unit constant term makes den a nonzerodivisor, so cross
    multiplication is a genuine equivalence and equality testing is
    exact, no canonical form needed.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, num, den):
        if num.ring != den.ring:
            raise InvariantViolation("mixed coefficient rings in quotient")
        if not is_in_P(den):
            raise InvariantViolation(
                "denominator must have a unit constant term")
        self.ring = num.ring
        self.num = num
        self.den = den

    def __eq__(self, other):
        if not isinstance(other, RationalFunction) or self.ring != other.ring:
            return False
        return self.num * other.den == other.num * self.den

    def expand(self, prec):
        """Series expansion to the given precision."""
        return self.num.truncate(prec) * series_invert(self.den.truncate(prec))

    def __str__(self):
        if self.den == Poly.one(self.ring):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


# ---------------------------------------------------------------------------
# canonical rendering
# ---------------------------------------------------------------------------

def render_element(ring, a):
    """Least nonnegative residues, ascending powers of x, '+' separated,
    parenthesised once x actually appears."""
    if ring.deg == 1:
        return str(a[0])
    if ring.is_zero(a):
        return "0"
    terms = []
    for k, c in enumerate(a):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            xs = "x" if k == 1 else f"x^{k}"
            terms.append(xs if c == 1 else f"{c}*{xs}")
    body = "+".join(terms)
    if len(terms) == 1 and "x" not in body:
        return body
    return f"({body})"


def render_poly_terms(ring, coeffs, var="T"):
    terms = []
    for k, c in enumerate(coeffs):
        if ring.is_zero(c):
            continue
        cs = render_element(ring, c)
        if k == 0:
            terms.append(cs)
        else:
            ts = var if k == 1 else f"{var}^{k}"
            terms.append(ts if cs == "1" else f"{cs}*{ts}")
    return " + ".join(terms) if terms else "0"
