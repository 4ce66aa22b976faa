"""Limit modules along the cyclotomic tower and their invariants.

Everything here is certified rather than heuristic: tower stabilization
is proved by finding a literal repeat in the sequence of matrix powers,
kernel vanishing composes explicit trace maps to the zero map, and ideal
comparisons run at two precisions so that a truncation artifact raises
instead of leaking through as a wrong boolean.
"""

from collections import namedtuple

from .coeffring import Poly, is_in_P, poly_det
from .errors import InvariantViolation, PrecisionMismatch
from .linalg import (
    berkowitz_charpoly,
    howell_form,
    in_span,
    left_kernel,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_vec,
    reduce_vector,
    span_size,
)

__all__ = [
    "GammaModule",
    "IdealClass",
    "coker_tower",
    "limit_module",
    "kernel_chain_report",
    "fitting_ideal",
    "char_element",
    "iwasawa_transform",
    "verify_mc_commutative",
    "ideal_canonical_form",
    "ideal_classes_equal",
]


# ---------------------------------------------------------------------------
# modules with a gamma action
# ---------------------------------------------------------------------------

class GammaModule:
    """Quotient of Omega^s by the span of relation rows, carrying an
    invertible action of gamma given on coordinates.

    gamma_inv is stored explicitly; for limit modules it is a literal
    power of the same matrix, which is the whole point of working at a
    stabilized level."""

    def __init__(self, ring, rank, relations, gamma, gamma_inv, check=True):
        self.ring = ring
        self.rank = rank
        self.relations = tuple(tuple(r) for r in relations)
        self.gamma = tuple(tuple(r) for r in gamma)
        self.gamma_inv = tuple(tuple(r) for r in gamma_inv)
        for r in self.relations:
            if len(r) != rank:
                raise InvariantViolation("relation row of wrong length")
        if len(gamma) != rank or len(gamma_inv) != rank:
            raise InvariantViolation("gamma matrix of wrong size")
        if check:
            self._check()

    def _check(self):
        R = self.ring
        ident = mat_identity(R, self.rank)
        flat = R.omega_rows_to_int_rows(self.relations)
        width = self.rank * R.deg
        basis = howell_form(flat, width, R.modulus)
        # gamma_inv only needs to invert gamma on the quotient, so the
        # defect columns of the product must land in the relation span
        prod = mat_mul(R, self.gamma, self.gamma_inv)
        for j in range(self.rank):
            col = [R.sub(prod[i][j], ident[i][j]) for i in range(self.rank)]
            if not in_span(R.flatten_vec(col), basis, R.modulus):
                raise InvariantViolation(
                    "gamma_inv does not invert gamma on the quotient")
        for rel in self.relations:
            img = self.act(rel)
            if not in_span(R.flatten_vec(img), basis, R.modulus):
                raise InvariantViolation(
                    "gamma does not preserve the relation module")

    def act(self, v):
        return mat_vec(self.ring, self.gamma, v)

    def act_inv(self, v):
        return mat_vec(self.ring, self.gamma_inv, v)

    def size(self):
        """Number of elements of the quotient."""
        R = self.ring
        width = self.rank * R.deg
        flat = R.omega_rows_to_int_rows(self.relations)
        basis = howell_form(flat, width, R.modulus)
        return R.modulus ** width // span_size(basis, R.modulus)


# ---------------------------------------------------------------------------
# the coinvariant tower and its certified stabilization
# ---------------------------------------------------------------------------

TowerLayer = namedtuple("TowerLayer", ["n", "image_rows", "coker_size"])

TowerReport = namedtuple(
    "TowerReport",
    ["ell", "rank", "layers", "stable_from", "first_stall",
     "repeat_at", "period"])


def _image_rows(ring, A):
    """Howell canonical rows for the column span of A, flattened."""
    cols = [[A[i][j] for i in range(len(A))] for j in range(len(A))]
    flat = ring.omega_rows_to_int_rows(cols)
    return howell_form(flat, len(A) * ring.deg, ring.modulus)


def coker_tower(ring, Phi, n_max=48):
    """Images of I - Phi^(ell^n) for n = 0, 1, ... until the power
    sequence literally repeats, which certifies that every later image
    equals the one at the repeat entry.

    The images are nested downward because I - P^ell factors through
    I - P, so once the power sequence cycles the image chain is pinned
    constant.  The reported stabilization index is the first n whose
    image equals that limit value."""
    s = len(Phi)
    ell = ring.ell
    ident = mat_identity(ring, s)
    powers = []
    seen = {}
    P = [list(r) for r in Phi]
    repeat_at = period = None
    n = 0
    while n <= n_max:
        key = tuple(tuple(r) for r in P)
        if key in seen:
            repeat_at = seen[key]
            period = n - seen[key]
            break
        seen[key] = n
        powers.append(key)
        P = mat_pow(ring, P, ell)
        n += 1
    if repeat_at is None:
        raise InvariantViolation(
            f"power sequence did not repeat within {n_max} levels")
    width = s * ring.deg
    layers = []
    prev = None
    first_stall = None
    for n, Pn in enumerate(powers):
        A = [[ring.sub(ident[i][j], Pn[i][j]) for j in range(s)]
             for i in range(s)]
        rows = _image_rows(ring, A)
        if prev is not None:
            for r in rows:
                if not in_span(list(r), prev, ring.modulus):
                    raise InvariantViolation(
                        "image chain is not nested; tower data is corrupt")
            if first_stall is None and rows == prev:
                first_stall = n - 1
        csize = ring.modulus ** width // span_size(rows, ring.modulus)
        layers.append(TowerLayer(n, rows, csize))
        prev = rows
    limit_rows = layers[repeat_at].image_rows
    stable_from = next(n for n, lay in enumerate(layers)
                       if lay.image_rows == limit_rows)
    if first_stall is None:
        # the next uncomputed layer repeats an already-seen power, so
        # the chain is constant from stable_from on without ever having
        # shown two equal consecutive layers inside the computed range
        first_stall = stable_from
    return TowerReport(ell, s, layers, stable_from, first_stall,
                       repeat_at, period)


def limit_module(ring, Phi, tower=None):
    """The limit of the coinvariant tower, presented at its stabilized
    level: relations are the canonical image rows there, gamma acts by
    Phi, and the inverse of gamma is the explicit power
    Phi^(ell^n0 - 1), which is inverse because gamma^(ell^n0) is the
    identity on the quotient."""
    if tower is None:
        tower = coker_tower(ring, Phi)
    n0 = tower.stable_from
    rows = tower.layers[n0].image_rows
    s = len(Phi)
    relations = [ring.unflatten_vec(list(r)) for r in rows]
    gamma_inv = mat_pow(ring, Phi, ring.ell ** n0 - 1)
    return GammaModule(ring, s, relations, Phi, gamma_inv)


# ---------------------------------------------------------------------------
# kernel chain and its certified vanishing
# ---------------------------------------------------------------------------

KernelLayer = namedtuple("KernelLayer", ["n", "kernel_rows", "size"])

KernelChainReport = namedtuple(
    "KernelChainReport",
    ["ell", "rank", "layers", "stable_from", "trace_is_mult_by_ell",
     "vanishing_certified"])


def _kernel_rows(ring, A):
    """Canonical rows spanning {v : A v = 0}, via the left kernel of the
    transpose in flattened coordinates."""
    # integer matrix of the map v -> A v in flattened coordinates: row u
    # is the image of the u-th flat basis vector
    width = len(A) * ring.deg
    M = ring.modulus
    mat = []
    for u in range(width):
        basis = [0] * width
        basis[u] = 1
        v = ring.unflatten_vec(basis)
        mat.append(ring.flatten_vec(mat_vec(ring, A, v)))
    ker = left_kernel(mat, M)
    return howell_form([list(r) for r in ker], width, M)


def kernel_chain_report(ring, Phi, tower=None):
    """Kernels of I - Phi^(ell^n) with the trace transition maps.

    At and beyond the stabilized level the transition acts as literal
    multiplication by ell on a fixed kernel, so composing m of them is
    multiplication by ell^m, the zero map; that composite is computed
    and checked entrywise, which certifies that the inverse limit of
    the kernel chain vanishes."""
    if tower is None:
        tower = coker_tower(ring, Phi)
    s = len(Phi)
    ell = ring.ell
    ident = mat_identity(ring, s)
    n_top = tower.stable_from + ring.m + 1
    P = [list(r) for r in Phi]
    pows = []
    for n in range(n_top + 1):
        pows.append(P)
        P = mat_pow(ring, P, ell)
    layers = []
    kernels = []
    for n in range(n_top + 1):
        A = [[ring.sub(ident[i][j], pows[n][i][j]) for j in range(s)]
             for i in range(s)]
        rows = _kernel_rows(ring, A)
        kernels.append(rows)
        layers.append(KernelLayer(n, rows, span_size(rows, ring.modulus)))
    # transitions: trace from level n+1 to level n
    traces = []
    for n in range(n_top):
        V = mat_identity(ring, s)
        acc = mat_identity(ring, s)
        for _ in range(ell - 1):
            acc = mat_mul(ring, acc, pows[n])
            V = [[ring.add(V[i][j], acc[i][j]) for j in range(s)]
                 for i in range(s)]
        traces.append(V)
        for r in kernels[n + 1]:
            img = mat_vec(ring, V, ring.unflatten_vec(list(r)))
            if not in_span(ring.flatten_vec(img), kernels[n], ring.modulus):
                raise InvariantViolation(
                    "trace transition leaves the kernel chain")
    stable_from = tower.stable_from
    for n in range(stable_from, n_top):
        if kernels[n + 1] != kernels[n]:
            raise InvariantViolation(
                "kernel chain moves beyond the certified stable level")
    # at a stabilized level the transition is multiplication by ell
    mult_ok = True
    ell_c = ring.int_embed(ell)
    V = traces[stable_from] if stable_from < len(traces) else None
    if V is not None:
        for r in kernels[stable_from]:
            v = ring.unflatten_vec(list(r))
            want = [ring.mul(ell_c, a) for a in v]
            if mat_vec(ring, V, v) != want:
                mult_ok = False
    # composite of m consecutive stabilized transitions, applied to the
    # stable kernel, must vanish identically
    comp = mat_identity(ring, s)
    for n in range(stable_from, min(stable_from + ring.m, n_top)):
        comp = mat_mul(ring, traces[n], comp)
    vanished = True
    for r in kernels[stable_from]:
        img = mat_vec(ring, comp, ring.unflatten_vec(list(r)))
        if not all(map(ring.is_zero, img)):
            vanished = False
    return KernelChainReport(ell, s, layers, stable_from, mult_ok, vanished)


# ---------------------------------------------------------------------------
# ideals in the truncated power series ring
# ---------------------------------------------------------------------------

def ideal_canonical_form(ring, gens, prec):
    """Canonical integer rows for the ideal the generators span in
    Omega[[T]]/T^prec.

    That ideal is the Z/M span of the rows x^u T^j g for g a generator,
    0 <= u < D and 0 <= j < prec: x^D is a combination of lower powers
    of x and T^prec vanishes, so the span is closed under both shifts by
    construction.  One Howell form of those rows is canonical, so equal
    ideals give literally equal row tuples.  A T-shift that truncates to
    zero adds nothing, so each row's shifts stop there; a degree-1 ring
    adds no x rows.

    The basis is still checked to be closed under multiplying by T and
    by x, and InvariantViolation is raised if it is not."""
    D = ring.deg
    width = prec * D
    M = ring.modulus
    rows = []
    for flat in ring.omega_rows_to_int_rows(
            [[g.coeff(k) for k in range(prec)] for g in gens]):
        lead = next((k for k, v in enumerate(flat) if v), width)
        for j in range(prec - lead // D):
            rows.append([0] * (j * D) + flat[:width - j * D])
    basis = howell_form(rows, width, M)
    for r in basis:
        for cand in ([0] * D + r[:-D], ring.x_shift_int_row(r)):
            if any(reduce_vector(cand, basis, M)):
                raise InvariantViolation(
                    "ideal basis is not closed under T and x")
    return basis


class IdealClass:
    """A fractional ideal written as numerator and denominator
    generator lists over Omega[T].

    Equality is decided by cross multiplying and comparing canonical
    forms of the resulting honest ideals at a stated precision; the
    guarded comparison at two precisions lives in ideal_classes_equal.
    """

    def __init__(self, ring, num_gens, den_gens=None):
        self.ring = ring
        self.num_gens = tuple(num_gens)
        self.den_gens = tuple(den_gens) if den_gens else (Poly.one(ring),)
        for p in self.num_gens + self.den_gens:
            if p.ring != ring:
                raise InvariantViolation("generator over the wrong ring")
        for p in self.den_gens:
            if not is_in_P(p):
                raise InvariantViolation(
                    "denominator generators must have unit constant term")

    def __mul__(self, other):
        if self.ring != other.ring:
            raise InvariantViolation("ideal classes over different rings")
        return IdealClass(
            self.ring,
            [a * b for a in self.num_gens for b in other.num_gens],
            [a * b for a in self.den_gens for b in other.den_gens])

    def equals_at(self, other, prec):
        if self.ring != other.ring:
            raise InvariantViolation("ideal classes over different rings")
        left = [a * d for a in self.num_gens for d in other.den_gens]
        right = [b * d for b in other.num_gens for d in self.den_gens]
        return (ideal_canonical_form(self.ring, left, prec)
                == ideal_canonical_form(self.ring, right, prec))

    def __repr__(self):
        return (f"IdealClass(num={len(self.num_gens)} gens, "
                f"den={len(self.den_gens)} gens)")


def ideal_classes_equal(a, b, prec, guard=8):
    """Equality at prec and at prec + guard together.

    Agreement at both precisions is the answer; disagreement between
    them means the smaller precision was lying, and that is reported as
    PrecisionMismatch rather than as a boolean."""
    first = a.equals_at(b, prec)
    second = a.equals_at(b, prec + guard)
    if first != second:
        raise PrecisionMismatch(
            f"ideal comparison flips between T^{prec} and T^{prec + guard}")
    return first


# ---------------------------------------------------------------------------
# Fitting ideal and the characteristic element
# ---------------------------------------------------------------------------

def _poly_entry(ring, c):
    return Poly(ring, [c])


def ngens(k):
    """Render a generator count for report strings."""
    return "1 generator" if k == 1 else f"{k} generators"


def fitting_ideal(module):
    """Zeroth Fitting ideal of the module over Omega[[Y]], with Y acting
    as gamma - 1.

    Y has to be the nilpotent-side variable: on a limit module gamma
    has ell-power order, so Y eventually vanishes and the ideal is a
    proper, informative one.  The Frobenius variable would act
    invertibly and every comparison downstream would collapse to the
    unit ideal.

    The presentation stacks the stored Omega-relations on top of the
    rows Y e_j - (gamma - 1) e_j; generators are all maximal minors of
    the stack, taken in lexicographic row-subset order, deduplicated,
    and sorted for a deterministic result."""
    R = module.ring
    s = module.rank
    rows = []
    for rel in module.relations:
        rows.append([_poly_entry(R, c) for c in rel])
    Y = Poly(R, [R.zero, R.one])
    for j in range(s):
        row = []
        for i in range(s):
            gm1 = R.sub(module.gamma[i][j], R.one if i == j else R.zero)
            p = _poly_entry(R, R.neg(gm1))
            if i == j:
                p = p + Y
            row.append(p)
        rows.append(row)
    from itertools import combinations
    gens = []
    seen = set()
    for subset in combinations(range(len(rows)), s):
        sub = [rows[k] for k in subset]
        d = poly_det(sub, R)
        if d.is_zero():
            continue
        key = d.coeffs
        if key not in seen:
            seen.add(key)
            gens.append(d)
    gens.sort(key=lambda p: (p.degree, p.coeffs))
    if not gens:
        gens = [Poly.zero(R)]
    return IdealClass(R, gens)


def char_element(ring, Phi):
    """det((1+Y) I - Phi), the characteristic polynomial of the gamma
    matrix evaluated at 1 + Y."""
    cp = berkowitz_charpoly(ring, Phi)
    one_plus_y = Poly(ring, [ring.one, ring.one])
    acc = Poly.one(ring)
    out = Poly.zero(ring)
    for c in cp:
        out = out + acc.scale(c)
        acc = acc * one_plus_y
    return out


def iwasawa_transform(ring, f, s):
    """(1+Y)^s f((1+Y)^{-1}): the exact polynomial bridge taking a
    determinant in the Frobenius variable, of a matrix of size s, to
    the matching characteristic element in Y.

    Since deg f <= s the negative powers cancel and the result is an
    honest polynomial; no truncation is involved."""
    if f.degree > s:
        raise InvariantViolation("degree exceeds the stated matrix size")
    one_plus_y = Poly(ring, [ring.one, ring.one])
    pows = [Poly.one(ring)]
    for _ in range(s):
        pows.append(pows[-1] * one_plus_y)
    out = Poly.zero(ring)
    for k in range(f.degree + 1):
        out = out + pows[s - k].scale(f.coeff(k))
    return out


def verify_mc_commutative(ring, Phi, prec=32, guard=8):
    """Fitting ideal of the limit module against the ideal generated by
    the characteristic element, as a guarded comparison, together with
    the exact bridge from the Frobenius-variable determinant.

    The precision floor 2 (rank * m + rank) keeps maximal minors from
    being truncated into agreement."""
    from .coeffring import det_one_minus_scaled
    s = len(Phi)
    floor = 2 * (s * ring.m + s)
    if prec < floor:
        raise InvariantViolation(
            f"precision {prec} below the safe floor {floor}")
    tower = coker_tower(ring, Phi)
    module = limit_module(ring, Phi, tower=tower)
    fit = fitting_ideal(module)
    ch = char_element(ring, Phi)
    ok = ideal_classes_equal(fit, IdealClass(ring, [ch]), prec, guard)
    from .coeffring import render_poly_terms
    bridged = iwasawa_transform(ring, det_one_minus_scaled(ring, Phi, 1), s)
    return {
        "check": "mc-commutative",
        "ok": ok and bridged == ch,
        "ideals_equal": ok,
        "bridge_exact": bridged == ch,
        "left": "Fitt with " + ngens(len(fit.num_gens)),
        "right": render_poly_terms(ring, ch.coeffs, var="Y"),
        "stable_from": tower.stable_from,
    }
