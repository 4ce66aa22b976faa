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
through that product.
"""

from .errors import InvariantViolation, NonUnitConstantTerm
from .linalg import (
    berkowitz_charpoly,
    charpoly_reversal,
    det_from_charpoly,
    left_kernel,
    mat_identity,
    mat_mul,
    mat_pow,
    solve_left,
    split_components,
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


def _fl_gcd(a, b, ell):
    a = _fl_trim(c % ell for c in a)
    b = _fl_trim(c % ell for c in b)
    while b:
        a, b = b, _fl_mod(a, b, ell)
    if a:
        inv = pow(a[-1], -1, ell)
        a = tuple(c * inv % ell for c in a)
    return a


def _fl_mul(a, b, ell):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = (out[i + j] + u * v) % ell
    return _fl_trim(out)


def _fl_sub(a, b, ell):
    n = max(len(a), len(b))
    return _fl_trim(((a[i] if i < len(a) else 0)
                     - (b[i] if i < len(b) else 0)) % ell
                    for i in range(n))


def _fl_derivative(p, ell):
    return _fl_trim((i * p[i]) % ell for i in range(1, len(p)))


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


def _fl_factor_squarefree(f, ell):
    """Monic irreducible factors of a square-free monic f over F_l,
    found by trial division, smallest degree first and lexicographic
    within each degree.  Deterministic, which downstream code relies on."""
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
        fbar = _fl_trim(c % ell for c in minpoly)
        if _fl_gcd(fbar, _fl_derivative(fbar, ell), ell) != (1,):
            raise InvariantViolation(
                "minimal polynomial is not square free modulo the prime")
        self._fbar = fbar
        self.components = _fl_factor_squarefree(fbar, ell)
        self.zero = (0,) * self.deg
        self.one = (1 % self.modulus,) + (0,) * (self.deg - 1)
        self._xpow = self._build_xpow()

    def _shift_reduce(self, a):
        """Coordinates of x * a."""
        D, M = self.deg, self.modulus
        top = a[D - 1]
        out = [0] + list(a[:D - 1])
        if top:
            for i in range(D):
                out[i] = (out[i] - top * self.minpoly[i]) % M
        return tuple(out)

    def _build_xpow(self):
        # coordinates of x^k for k = 0 .. 2D-2, used by mul and by the
        # reduction of Kronecker products
        rows = [self.one]
        for _ in range(2 * self.deg - 2):
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

    def gen(self):
        """The class of x (for deg 1 this is the image of x, a constant)."""
        if self.deg == 1:
            return ((-self.minpoly[0]) % self.modulus,)
        return (0, 1) + (0,) * (self.deg - 2)

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

    def is_zero(self, a):
        return not any(a)

    # --- units and residue components -----------------------------------

    def is_unit(self, a):
        if self.deg == 1:
            return a[0] % self.ell != 0
        abar = tuple(c % self.ell for c in a)
        return _fl_gcd(abar, self._fbar, self.ell) == (1,)

    def inv(self, a):
        """Inverse of a unit, lifting the residue inverse by Newton steps."""
        if not self.is_unit(a):
            raise InvariantViolation("inverse of a non-unit requested")
        ell = self.ell
        if self.deg == 1:
            b = (pow(a[0] % ell, -1, ell),)
        else:
            # extended Euclid over F_l against the minimal polynomial
            abar = _fl_trim(c % ell for c in a)
            r0, r1 = self._fbar, abar
            s0, s1 = (), (1,)
            while r1:
                quo, rem = _fl_divmod(r0, r1, ell)
                r0, r1 = r1, rem
                s0, s1 = s1, _fl_sub(s0, _fl_mul(quo, s1, ell), ell)
            lead_inv = pow(r0[-1], -1, ell)
            s0 = tuple(c * lead_inv % ell for c in s0)
            b = tuple((s0[i] if i < len(s0) else 0) for i in range(self.deg))
        b = self.element(b)
        for _ in range(self.m.bit_length() + 2):
            ab = self.mul(a, b)
            if ab == self.one:
                return b
            b = self.mul(b, self.sub(self.int_embed(2), ab))
        if self.mul(a, b) != self.one:
            raise InvariantViolation("unit inversion failed to converge")
        return b

    def project_component(self, a, g):
        """Image of a in F_l[x]/(g) as a tuple of length deg(g)."""
        abar = tuple(c % self.ell for c in a)
        r = _fl_mod(abar, g, self.ell)
        return tuple((r[i] if i < len(r) else 0) for i in range(len(g) - 1))

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
            for _ in range(self.deg):
                out.append(self.flatten_vec(cur))
                cur = [self._shift_reduce(a) for a in cur]
        return out

    def x_shift_int_row(self, flat):
        """The flattened row multiplied by x, blockwise."""
        return self.flatten_vec(
            [self._shift_reduce(a) for a in self.unflatten_vec(flat)])


# ---------------------------------------------------------------------------
# Omega-linear systems, through flattening
# ---------------------------------------------------------------------------

def solve_left_omega(ring, A, b):
    """One Omega-solution x of x A == b (row vector times matrix), or None.

    Row i of A contributes D flattened rows (multiples by x^u, u < D);
    the solution coefficients against those rows are exactly the
    coordinates of x_i, because x^u with u < D is the u-th basis vector.
    """
    if not A:
        return [] if all(ring.is_zero(c) for c in b) else None
    flat_A = ring.omega_rows_to_int_rows(A)
    flat_b = ring.flatten_vec(b)
    sol = solve_left(flat_A, flat_b, ring.modulus)
    if sol is None:
        return None
    D = ring.deg
    return [ring.element(sol[i * D:(i + 1) * D]) for i in range(len(A))]


# A CoeffRing is itself an ops object of the generic matrix layer in
# linalg.  These names stay because perfbench/ imports and traces them.
mat_identity_omega = mat_identity
mat_mul_omega = mat_mul
mat_pow_omega = mat_pow


def mat_inverse_omega(ring, A):
    """Inverse of a square Omega matrix, or None if not invertible."""
    n = len(A)
    At = [list(col) for col in zip(*A)]
    ident = mat_identity(ring, n)
    cols = []
    for e in ident:
        x = solve_left_omega(ring, At, e)     # A x == e_j
        if x is None:
            return None
        cols.append(x)
    X = [list(row) for row in zip(*cols)]
    if mat_mul(ring, X, A) != ident:
        return None
    return X


def omega_det(ring, A):
    return det_from_charpoly(ring, berkowitz_charpoly(ring, A))


# ---------------------------------------------------------------------------
# polynomials in T over Omega
# ---------------------------------------------------------------------------

class Poly:
    """Polynomial over a CoeffRing, coefficients ascending, trailing zeros
    stripped.  The zero polynomial has an empty coefficient tuple and
    reports degree -1."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        cs = [ring.element(c) if not isinstance(c, tuple) else c
              for c in coeffs]
        while cs and ring.is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

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

    def constant(self):
        return self.coeff(0)

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

    def __sub__(self, other):
        self._need_same_ring(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ring, [self.ring.sub(self.coeff(k), other.coeff(k))
                                for k in range(n)])

    def __neg__(self):
        return Poly(self.ring, [self.ring.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self._need_same_ring(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ring)
        R = self.ring
        # From 3x3 coefficients up Kronecker substitution takes at most
        # 0.6x the schoolbook time (0.01x at 200x200): the long exact
        # products of class evaluation.  The 1-2 coefficient entries of
        # Berkowitz minors (Fitting ideals, connecting maps) stay on the
        # schoolbook loop, where packing would cost more than it saves.
        if len(self.coeffs) >= 3 and len(other.coeffs) >= 3:
            return Poly(R, _kronecker_mul(R, self.coeffs, other.coeffs))
        out = [R.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if R.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = R.add(out[i + j], R.mul(a, b))
        return Poly(R, out)

    def scale(self, c):
        return Poly(self.ring, [self.ring.mul(c, a) for a in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def truncate(self, prec):
        return Series(self.ring, prec,
                      [self.coeff(k) for k in range(prec)])

    def __str__(self):
        return render_poly_terms(self.ring, self.coeffs)

    def __repr__(self):
        return f"Poly({self})"


def _kronecker_mul(ring, a, b):
    """Coefficients of the product of two nonempty coefficient tuples,
    by Kronecker substitution.

    Each T-coefficient, read as a polynomial in x of degree below D,
    fills 2D - 1 slots of w bits in one integer; one integer product then
    holds in slot (k, t) the exact coefficient of x^t T^k before
    reduction.  That coefficient sums at most min(len) * D products of
    residues below M, so w = 2 bitlen(M - 1) + bitlen(min(len) * D) bits
    hold it and no carry crosses a slot.  The slots are read back through
    binary strings, which CPython converts in linear time.
    """
    D, M = ring.deg, ring.modulus
    w = 2 * (M - 1).bit_length() + (min(len(a), len(b)) * D).bit_length()
    slots = 2 * D - 1
    fmt = f"0{w}b"
    top = (0,) * (D - 1)

    def pack(cs):
        return int("".join([format(u, fmt) for c in reversed(cs)
                            for u in top + c[::-1]]), 2)

    total = (len(a) + len(b) - 1) * slots * w
    bits = format(pack(a) * pack(b), "b").zfill(total)
    vals = [int(bits[i:i + w], 2) for i in range(0, total, w)]
    vals.reverse()
    if D == 1:
        return [(v % M,) for v in vals]
    xpow = ring._xpow
    out = []
    for k in range(0, len(vals), slots):
        acc = [0] * D
        for t in range(slots):
            c = vals[k + t]
            if c:
                for s, r in enumerate(xpow[t]):
                    acc[s] += c * r
        out.append(tuple(v % M for v in acc))
    return out


def power(x, e):
    """The product of e >= 1 copies of x (a Poly or a Series), by
    repeated squaring; e = 1 costs no product."""
    if e < 1:
        raise InvariantViolation("power exponent must be at least 1")
    out = None
    while True:
        if e & 1:
            out = x if out is None else out * x
        e >>= 1
        if not e:
            return out
        x = x * x


class PolyOps:
    """Ops object of Omega[T], for the generic matrix layer: matrices of
    Poly and their determinants."""

    def __init__(self, ring):
        self.ring = ring
        self.zero = Poly.zero(ring)
        self.one = Poly.one(ring)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

class Series:
    """Power series over a CoeffRing, held to an explicit precision: the
    coefficient tuple always has exactly `prec` entries.  Binary ops
    truncate to the smaller precision of the two operands."""

    __slots__ = ("ring", "prec", "coeffs")

    def __init__(self, ring, prec, coeffs):
        if prec < 1:
            raise InvariantViolation("series precision must be at least 1")
        cs = [ring.element(c) if not isinstance(c, tuple) else c
              for c in coeffs]
        if len(cs) < prec:
            cs.extend([ring.zero] * (prec - len(cs)))
        self.ring = ring
        self.prec = prec
        self.coeffs = tuple(cs[:prec])

    @classmethod
    def from_ints(cls, ring, prec, ints):
        return cls(ring, prec, [ring.int_embed(n) for n in ints])

    @classmethod
    def one(cls, ring, prec):
        return cls(ring, prec, [ring.one])

    def coeff(self, k):
        return self.coeffs[k]

    def _join(self, other):
        if self.ring != other.ring:
            raise InvariantViolation("mixed coefficient rings in series op")
        return min(self.prec, other.prec)

    def __add__(self, other):
        n = self._join(other)
        return Series(self.ring, n,
                      [self.ring.add(self.coeffs[k], other.coeffs[k])
                       for k in range(n)])

    def __sub__(self, other):
        n = self._join(other)
        return Series(self.ring, n,
                      [self.ring.sub(self.coeffs[k], other.coeffs[k])
                       for k in range(n)])

    def __mul__(self, other):
        n = self._join(other)
        R = self.ring
        out = [R.zero] * n
        for i in range(n):
            a = self.coeffs[i]
            if R.is_zero(a):
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if not R.is_zero(b):
                    out[i + j] = R.add(out[i + j], R.mul(a, b))
        return Series(R, n, out)

    def truncate(self, prec):
        if prec > self.prec:
            raise InvariantViolation(
                f"cannot extend precision {self.prec} to {prec}")
        return Series(self.ring, prec, self.coeffs[:prec])

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

    Needs a unit constant term; raises NonUnitConstantTerm otherwise.
    """
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


# ---------------------------------------------------------------------------
# the multiplicative sets P and S
# ---------------------------------------------------------------------------

def is_in_P(a):
    """Unit constant term.  Works for Poly and Series alike."""
    if isinstance(a, Poly):
        return a.ring.is_unit(a.constant())
    return a.ring.is_unit(a.coeffs[0])


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

def poly_det(mat, ring=None):
    """Determinant of a square matrix of Poly, computed blockwise.

    The symmetrised nonzero pattern is split into connected components
    first; simultaneous row/column permutation into blocks leaves the
    determinant fixed, and Berkowitz runs division free on each block.
    """
    n = len(mat)
    if ring is None:
        if n == 0:
            raise InvariantViolation("empty matrix needs an explicit ring")
        ring = mat[0][0].ring
    ops = PolyOps(ring)
    if n == 0:
        return ops.one
    comps = split_components(n, lambda i, j: not mat[i][j].is_zero())
    result = ops.one
    for comp in comps:
        sub = [[mat[i][j] for j in comp] for i in comp]
        cp = berkowitz_charpoly(ops, sub)
        result = result * det_from_charpoly(ops, cp)
    return result


def det_one_minus_scaled(ring, A, d):
    """det(I - T^d A) as a Poly, for a square Omega matrix A.

    Computed from the characteristic polynomial of A by coefficient
    reversal, then spreading coefficient k to degree d*k.
    """
    rev = charpoly_reversal(berkowitz_charpoly(ring, A))
    coeffs = []
    for k, c in enumerate(rev):
        while len(coeffs) < d * k:
            coeffs.append(ring.zero)
        coeffs.append(c)
    return Poly(ring, coeffs)


# ---------------------------------------------------------------------------
# equality up to a unit series factor
# ---------------------------------------------------------------------------

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
    a = a.truncate(prec) if a.prec > prec else a
    b = b.truncate(prec) if b.prec > prec else b
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
    fbar = ring._fbar
    for d0 in deltas:
        cand = tuple((u + v) % ell for u, v in zip(base, d0))
        if ring.deg == 1:
            if cand[0] % ell != 0:
                return True
        elif _fl_gcd(cand, fbar, ell) == (1,):
            return True
    return False


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

    def __init__(self, num, den=None):
        if den is None:
            den = Poly.one(num.ring)
        if num.ring != den.ring:
            raise InvariantViolation("mixed coefficient rings in quotient")
        if not is_in_P(den):
            raise InvariantViolation(
                "denominator must have a unit constant term")
        self.ring = num.ring
        self.num = num
        self.den = den

    @classmethod
    def one(cls, ring):
        return cls(Poly.one(ring))

    def __mul__(self, other):
        if self.ring != other.ring:
            raise InvariantViolation("mixed coefficient rings in product")
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction) or self.ring != other.ring:
            return False
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("rational functions are not hashable")

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
