"""Limit modules along the cyclotomic tower and their invariants.

Everything here is certified rather than heuristic: tower stabilization
is proved by finding a literal repeat in the sequence of matrix powers,
kernel vanishing composes explicit trace maps to the zero map, and ideal
comparisons run at two precisions so that a truncation artifact raises
instead of leaking through as a wrong boolean.

The tower and the kernel chain are Z/M-linear, so they run on flat
maps (CoeffRing.flat_map states the convention).  Phi is flattened
once; its powers, every I - P, the trace sums and their composites are
ZMod(M) matrices (linalg's ops object of Z/M).  A GammaModule takes
the flat maps of gamma and gamma^-1 and the Howell rows of its
relations, and its check runs on them as given; a limit module hands
it the tower's flat map of Phi, that map's power ell^n0 - 1 and the
Howell rows at n0.  gamma and gamma^-1 are both read back as Omega
matrices, for the Fitting ideal.

The Y side works on coefficient lists of Omega[Y], not on Poly
products: the Fitting elimination updates each entry by one unreduced
integer accumulation, char_element shifts by Horner in 1 + Y and
iwasawa_transform by a binomial sum.  The pivot search and the residue
projections of the ideal form ask the coefficient ring, whose
inverses and projections are kept per element in one memo shared by
equal rings, at most M^D entries each (see coeffring).
"""

from collections import namedtuple
from itertools import combinations
from math import comb

from .coeffring import (
    Poly,
    _poly_dot,
    _strip,
    one_minus_T,
    poly_det,
    render_poly_terms,
)
from .errors import InvariantViolation, PrecisionMismatch
from .linalg import (
    ZMod,
    berkowitz_charpoly,
    howell_form,
    in_span,
    left_kernel,
    mat_mul,
    mat_pow,
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
    "mc_precision_floor",
    "verify_mc_commutative",
    "ideal_canonical_form",
    "ideal_classes_equal",
]

# the last level coker_tower takes before it gives up on a repeat
TOWER_LEVELS = 48
# how far past prec ideal_classes_equal compares again, in coefficients
GUARD = 8


# ---------------------------------------------------------------------------
# modules with a gamma action
# ---------------------------------------------------------------------------

class GammaModule:
    """Quotient of Omega^s by the span of relation rows, carrying an
    invertible action of gamma given on coordinates.

    It is built from F and G, the flat maps of gamma and gamma_inv
    (see CoeffRing.flat_map), and basis, the Howell form over Z/M of
    the flattened relations and their multiples by x^u; limit_module
    has all three from the tower.  rank, gamma, gamma_inv and
    relations, the basis rows unflattened, are read off them.
    gamma_inv need only invert gamma on the quotient; for limit modules
    it is a literal power of gamma, which is the whole point of working
    at a stabilized level.  The check runs on every module."""

    def __init__(self, ring, F, G, basis):
        N = len(F)
        if N % ring.deg or len(G) != N or any(
                len(r) != N for r in (*F, *G, *basis)):
            raise InvariantViolation("flat maps or basis of wrong size")
        self.ring = ring
        self.rank = N // ring.deg
        self.basis = basis
        self.relations = tuple(tuple(ring.unflatten_vec(r)) for r in basis)
        self.gamma = ring.omega_matrix(F)
        self.gamma_inv = ring.omega_matrix(G)
        self._check(F, G)

    def _check(self, F, G):
        """Over Z/M: the rows of I - G F, the defect of gamma gamma_inv,
        and the basis rows times F, gamma applied to the relations and
        their multiples by x^u, must lie in the span of the basis."""
        M = self.ring.modulus
        zm = ZMod(M)
        basis = self.basis
        # gamma_inv only needs to invert gamma on the quotient
        if not all(in_span(r, basis, M)
                   for r in _one_minus(mat_mul(zm, G, F), M)):
            raise InvariantViolation(
                "gamma_inv does not invert gamma on the quotient")
        if not all(in_span(r, basis, M) for r in mat_mul(zm, basis, F)):
            raise InvariantViolation(
                "gamma does not preserve the relation module")

    def size(self):
        """Number of elements of the quotient."""
        R = self.ring
        return R.modulus ** (self.rank * R.deg) // span_size(
            self.basis, R.modulus)


# ---------------------------------------------------------------------------
# the coinvariant tower and its certified stabilization
# ---------------------------------------------------------------------------

TowerLayer = namedtuple("TowerLayer", ["image_rows", "coker_size"])

# powers[n] is the flat map of Phi^(ell^n) for n < repeat_at + period;
# the sequence cycles from repeat_at on, so _power_index finds any
# later one among them
TowerReport = namedtuple(
    "TowerReport",
    ["layers", "stable_from", "repeat_at", "period", "powers"])


def _one_minus(F, M):
    """I - F over Z/M, for a square integer matrix F."""
    return [[(int(i == j) - a) % M for j, a in enumerate(row)]
            for i, row in enumerate(F)]


def coker_tower(ring, Phi):
    """Images of I - Phi^(ell^n) for n = 0, 1, ... until the power
    sequence literally repeats, by level TOWER_LEVELS or it raises,
    which certifies that every later image equals the one at the repeat
    entry.

    The images are nested downward because I - P^ell factors through
    I - P, so once the power sequence cycles the image chain is pinned
    constant.  The reported stabilization index is the first n whose
    image equals that limit value.

    Everything runs on flat maps over Z/M: Phi is flattened once, its
    powers are ZMod(M) matrix powers, and the image of I - P is the
    Howell form of the rows of I minus the flat map of P."""
    s = len(Phi)
    ell = ring.ell
    M = ring.modulus
    zm = ZMod(M)
    powers = []
    seen = {}
    F = ring.flat_map(Phi)
    repeat_at = period = None
    n = 0
    while n <= TOWER_LEVELS:
        key = tuple(map(tuple, F))
        if key in seen:
            repeat_at = seen[key]
            period = n - seen[key]
            break
        seen[key] = n
        powers.append(key)
        F = mat_pow(zm, F, ell)
        n += 1
    if repeat_at is None:
        raise InvariantViolation(
            f"power sequence did not repeat within {TOWER_LEVELS} levels")
    width = s * ring.deg
    layers = []
    prev = None
    for F in powers:
        rows = howell_form(_one_minus(F, M), width, M)
        if prev is not None:
            for r in rows:
                if not in_span(list(r), prev, M):
                    raise InvariantViolation(
                        "image chain is not nested; tower data is corrupt")
        csize = M ** width // span_size(rows, M)
        layers.append(TowerLayer(rows, csize))
        prev = rows
    limit_rows = layers[repeat_at].image_rows
    stable_from = next(n for n, lay in enumerate(layers)
                       if lay.image_rows == limit_rows)
    return TowerReport(layers, stable_from, repeat_at, period, powers)


def _power_index(tower, n):
    """The index of Phi^(ell^n) in tower.powers: past the repeat the
    sequence cycles with the tower's period."""
    if n >= tower.repeat_at:
        n = tower.repeat_at + (n - tower.repeat_at) % tower.period
    return n


def limit_module(ring, Phi, tower=None):
    """The limit of the coinvariant tower, presented at its stabilized
    level n0: relations are the canonical image rows there, gamma acts
    by Phi, and the inverse of gamma is the explicit power
    Phi^(ell^n0 - 1), which is inverse because gamma^(ell^n0) is the
    identity on the quotient.

    The module is built from the tower alone: gamma's flat map is
    tower.powers[0], gamma_inv's is its power over Z/M, and the basis
    is the tower's Howell rows at n0, so the module's check runs on
    them with no Howell form of its own.  Phi is read only to build
    the tower when none is given."""
    if tower is None:
        tower = coker_tower(ring, Phi)
    n0 = tower.stable_from
    F = tower.powers[0]
    G = mat_pow(ZMod(ring.modulus), F, ring.ell ** n0 - 1)
    return GammaModule(ring, F, G, tower.layers[n0].image_rows)


# ---------------------------------------------------------------------------
# kernel chain and its certified vanishing
# ---------------------------------------------------------------------------

KernelLayer = namedtuple("KernelLayer", ["kernel_rows", "size"])

KernelChainReport = namedtuple(
    "KernelChainReport",
    ["layers", "stable_from", "trace_is_mult_by_ell", "vanishing_certified"])


def _trace_sum(zm, F, ell):
    """The sum S_ell of F^k over k < ell, for a square matrix F over zm
    and ell >= 2.

    It doubles along the bits of ell past the leading one:
    S_2n = S_n + F^n S_n, then S_2n+1 = I + F S_2n where the bit is set,
    with F^n carried beside.  The first step, S_2 = I + F, takes no
    product, and F^n is not carried past the last bit, so ell = 3, 5
    and 7 take 1, 3 and 5 products, as many as adding up the powers one
    by one (ell - 2), and no ell takes more than that or more than 4
    products per bit."""
    M = zm.modulus

    def plus(X, Y):
        return [[(a + b) % M for a, b in zip(x, y)] for x, y in zip(X, Y)]

    def one_plus(X):
        return [[(a + (r == c)) % M for c, a in enumerate(row)]
                for r, row in enumerate(X)]

    bits = bin(ell)[3:]
    last = len(bits)
    S, P = None, F          # S_1 = I is never read: step 1 gives S_2 = I + F
    for i, bit in enumerate(bits, start=1):
        S = one_plus(F) if i == 1 else plus(S, mat_mul(zm, P, S))
        if i < last:
            P = mat_mul(zm, P, P)
        if bit == "1":
            S = one_plus(mat_mul(zm, F, S))
            if i < last:
                P = mat_mul(zm, P, F)
    return S


def kernel_chain_report(ring, Phi, tower=None):
    """Kernels of I - Phi^(ell^n) with the trace transition maps.

    At and beyond the stabilized level the transition acts as literal
    multiplication by ell on a fixed kernel, so composing m of them is
    multiplication by ell^m, the zero map; that composite is computed
    and checked entrywise, which certifies that the inverse limit of
    the kernel chain vanishes.

    Levels whose powers Phi^(ell^n) are one stored power of the tower
    share it: each distinct power has its kernel and its trace taken
    once, and each distinct pair of consecutive powers its transition
    checked once.  All of it runs on the tower's flat maps over Z/M:
    kernel rows are flat vectors, and a map V sends the rows K to the
    product of K with the flat map of V."""
    if tower is None:
        tower = coker_tower(ring, Phi)
    ell = ring.ell
    M = ring.modulus
    zm = ZMod(M)
    n_top = tower.stable_from + ring.m + 1
    # idx[n] indexes Phi^(ell^n) in tower.powers
    idx = [_power_index(tower, n) for n in range(n_top + 1)]
    # the kernel of I - P, canonical rows spanning {v : P v = v}, is
    # the left kernel of I - F, F the flat map of P
    kernel_of = {i: left_kernel(_one_minus(tower.powers[i], M), M)
                 for i in dict.fromkeys(idx)}
    kernels = [kernel_of[i] for i in idx]
    layers = [KernelLayer(rows, span_size(rows, M)) for rows in kernels]
    # transitions: trace from level n+1 to level n, the sum of P^k over
    # k < ell for P = Phi^(ell^n); its flat map is the sum of F^k
    trace_of = {i: _trace_sum(zm, tower.powers[i], ell)
                for i in dict.fromkeys(idx[:n_top])}
    traces = [trace_of[i] for i in idx[:n_top]]
    for i, j in dict.fromkeys(zip(idx, idx[1:])):
        for img in mat_mul(zm, kernel_of[j], trace_of[i]):
            if not in_span(img, kernel_of[i], M):
                raise InvariantViolation(
                    "trace transition leaves the kernel chain")
    stable_from = tower.stable_from
    for n in range(stable_from, n_top):
        if kernels[n + 1] != kernels[n]:
            raise InvariantViolation(
                "kernel chain moves beyond the certified stable level")
    # at a stabilized level the transition is multiplication by ell
    stable = kernels[stable_from]
    mult_ok = all(
        img == [ell * a % M for a in r]
        for r, img in zip(stable, mat_mul(zm, stable, traces[stable_from])))
    # composite of m consecutive stabilized transitions, applied to the
    # stable kernel, must vanish identically; the flat map of V_n comp
    # is that of comp times that of V_n
    comp = traces[stable_from]
    for n in range(stable_from + 1, stable_from + ring.m):
        comp = mat_mul(zm, comp, traces[n])
    vanished = not any(map(any, mat_mul(zm, stable, comp)))
    return KernelChainReport(layers, stable_from, mult_ok, vanished)


# ---------------------------------------------------------------------------
# ideals in the truncated power series ring
# ---------------------------------------------------------------------------

def _without_identity_tail(rows, d, n):
    """(j0, rows) from Howell rows of an ideal of Omega[[T]]/T^n, Omega
    of degree d over Z/M: the rows are first cut to width n*d.  j0 is
    the least j such that every column from j*d on carries a pivot 1,
    that is the least j with T^j in the ideal; the rows kept are those
    with pivot before j0*d, cut there, which is the Howell form mod
    T^j0."""
    width = n * d
    rows = [r[:width] for r in rows if any(r[:width])]
    pivots = [next(k for k, v in enumerate(r) if v) for r in rows]
    unit_cols = {k for r, k in zip(rows, pivots) if r[k] == 1}
    j0 = n
    while j0 and all(k in unit_cols for k in range((j0 - 1) * d, j0 * d)):
        j0 -= 1
    cut = j0 * d
    return j0, tuple(tuple(r[:cut]) for r, k in zip(rows, pivots)
                     if k < cut)


def _certified_power(ring, gens, prec):
    """A b <= prec with T^b in the ideal the generators span in
    Omega[[T]]/T^prec.

    Omega is the product of one Galois ring GR_i per residue factor g_i
    of the minimal polynomial.  Let c_i be the least T-degree at which
    some generator is nonzero mod (l, g_i).  In GR_i that generator is
    g = l a + T^c_i u with u a unit, and (T^c_i u)^m = (g - l a)^m lies
    in (g) because l^m = 0, so the image of the ideal in GR_i[[T]]
    holds T^(m c_i).  An ideal holds T^b when each image does, so b is
    the largest min(prec, m c_i)."""
    b = 0
    for g in ring.components:
        c = next((k for k in range(prec)
                  if any(any(ring.project_component(gen.coeff(k), g))
                         for gen in gens)), prec)
        b = max(b, min(prec, ring.m * c))
    return b


def ideal_canonical_form(ring, gens, prec):
    """Canonical form of the ideal the generators span in
    Omega[[T]]/T^prec: equal ideals give equal forms, and only they do.

    The form is a pair (j0, rows): j0 the least j with T^j in the ideal,
    and rows the Howell form over Z/M of the ideal mod T^j0, the Z/M
    span of the rows x^u T^j g for g a generator.  Since T^b lies in the
    ideal for the b that _certified_power reads off the generators, the
    ideal is fixed by its image mod T^b, and one Howell form of those
    rows cut to width b D finds the pair; the rows at and past j0 are
    the identity and are dropped.  For m = 1 the residue fields see
    every nonzero coefficient, so over a single residue factor no row
    remains and j0 is the T-order.

    The rows are checked to be closed under multiplying by T and by x,
    and InvariantViolation is raised if they are not."""
    D = ring.deg
    b = _certified_power(ring, gens, prec)
    width = b * D
    rows = []
    for flat in ring.omega_rows_to_int_rows(
            [[g.coeff(k) for k in range(b)] for g in gens]):
        lead = next((k for k, v in enumerate(flat) if v), width)
        for j in range(b - lead // D):
            rows.append([0] * (j * D) + flat[:width - j * D])
    j0, basis = _without_identity_tail(
        howell_form(rows, width, ring.modulus), D, b)
    for r in basis:
        for cand in ((0,) * D + r[:-D], ring.x_shift_int_row(r)):
            if not in_span(cand, basis, ring.modulus):
                raise InvariantViolation(
                    "ideal basis is not closed under T and x")
    return j0, basis


def _truncate_form(ring, form, prec):
    """The canonical form at a lower precision, read off a form: the
    image mod T^prec of an ideal keeps the rows that pivot before
    prec, cut there."""
    j0, rows = form
    return _without_identity_tail(rows, ring.deg, min(j0, prec))


class IdealClass:
    """An ideal of Omega[[T]], written as a list of generators over
    Omega[T].

    A class carries no denominators: an element of P (unit constant
    term) is a unit of Omega[[T]]/T^prec at every precision, so
    multiplying the generators by such elements changes neither the
    ideal nor any comparison.  Equality is decided in
    ideal_classes_equal, by comparing canonical forms.
    """

    def __init__(self, ring, num_gens):
        self.ring = ring
        self.num_gens = tuple(num_gens)
        for p in self.num_gens:
            if p.ring != ring:
                raise InvariantViolation("generator over the wrong ring")

    def __mul__(self, other):
        if self.ring != other.ring:
            raise InvariantViolation("ideal classes over different rings")
        return IdealClass(
            self.ring, [a * b for a in self.num_gens for b in other.num_gens])

    def __repr__(self):
        return f"IdealClass({len(self.num_gens)} gens)"


def ideal_classes_equal(a, b, prec):
    """Equality at prec and at prec + GUARD together.

    Agreement at both precisions is the answer; disagreement between
    them means the smaller precision was lying, and that is reported as
    PrecisionMismatch rather than as a boolean.  Each class's form is
    computed once, at prec + GUARD, and cut to prec.  No product is
    taken: the classes hold ideals, and a generator list times elements
    of P, which are units mod every power of T, would give the same
    forms and so the same verdict."""
    if a.ring != b.ring:
        raise InvariantViolation("ideal classes over different rings")
    wide = [ideal_canonical_form(a.ring, x.num_gens, prec + GUARD)
            for x in (a, b)]
    first = _truncate_form(a.ring, wide[0], prec) == _truncate_form(
        a.ring, wide[1], prec)
    second = wide[0] == wide[1]
    if first != second:
        raise PrecisionMismatch(
            f"ideal comparison flips between T^{prec} and T^{prec + GUARD}")
    return first


# ---------------------------------------------------------------------------
# Fitting ideal and the characteristic element
# ---------------------------------------------------------------------------

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
    rows Y e_j - (gamma - 1) e_j.  Its entries are Omega[Y] coefficient
    lists: tuples of reduced ring elements, trailing zeros stripped.  It
    is reduced first: while some entry is a constant unit u of Omega
    (the first in row-major order), the pivot row is scaled by -u^-1,
    and every other row r has r[c] times it added, each entry a + r[c] b
    as one _poly_dot of (r[c], a) with (b, 1), so column c is zero
    outside the pivot row;
    then the pivot row and column go, and so do rows that became zero.
    Row operations over Omega[Y] and dropping a generator that one
    relation solves for keep the Fitting ideal exactly, and the only
    division is by a unit.  Only the rows left become Poly, for
    poly_det: generators are the maximal minors of what remains, taken in
    lexicographic row-subset order, deduplicated, and sorted for a
    deterministic result: (1) when no column remains, (0) when fewer
    rows than columns do."""
    R = module.ring
    s = module.rank
    rows = [[(c,) if any(c) else () for c in rel]
            for rel in module.relations]
    for j in range(s):
        rows.append([(R.neg(R.sub(module.gamma[i][j], R.one)), R.one)
                     if i == j else _strip((R.neg(module.gamma[i][j]),))
                     for i in range(s)])
    ncols = s
    while True:
        pivot = next(((k, c) for k, row in enumerate(rows)
                      for c, p in enumerate(row)
                      if len(p) == 1 and R.is_unit(p[0])), None)
        if pivot is None:
            break
        k, c = pivot
        prow = rows.pop(k)
        minus_u_inv = R.neg(R.inv(prow[c][0]))
        prow = [tuple(R.mul(minus_u_inv, a) for a in p) for p in prow]
        del prow[c]
        reduced = []
        for row in rows:
            f = row.pop(c)
            if f:
                row = [_strip(_poly_dot(R, (f, a), (b, (R.one,))))
                       if b else a
                       for a, b in zip(row, prow)]
            if any(row):
                reduced.append(row)
        rows = reduced
        ncols -= 1
    rows = [[Poly(R, p) for p in row] for row in rows]
    gens = []
    seen = set()
    for subset in combinations(range(len(rows)), ncols):
        d = poly_det([rows[k] for k in subset], R)
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
    matrix evaluated at 1 + Y.

    Horner in 1 + Y on the Berkowitz coefficients c_k: out <- out (1+Y)
    + c_k from the top down, each step one shifted add on the integer
    coordinates (coefficient j, coordinate t at j D + t), reduced mod M
    once at the end."""
    D = ring.deg
    out = []
    for c in reversed(berkowitz_charpoly(ring, Phi)):
        # out (1 + Y): out plus out shifted up by one power of Y
        out = [a + b for a, b in zip(out + [0] * D, [0] * D + out)]
        out[:D] = [a + b for a, b in zip(out, c)]
    M = ring.modulus
    return Poly(ring, [tuple([v % M for v in out[k:k + D]])
                       for k in range(0, len(out), D)])


def iwasawa_transform(ring, f, s):
    """(1+Y)^s f((1+Y)^{-1}): the exact polynomial bridge taking a
    determinant in the Frobenius variable, of a matrix of size s, to
    the matching characteristic element in Y.

    Since deg f <= s the negative powers cancel and the result is an
    honest polynomial, the sum of f_k (1+Y)^(s-k); no truncation is
    involved.  The coefficient of Y^j is the binomial sum of
    C(s - k, j) f_k, taken on integer coordinates mod M."""
    if f.degree > s:
        raise InvariantViolation("degree exceeds the stated matrix size")
    M = ring.modulus
    fs = f.coeffs
    out = []
    for j in range(s + 1):
        terms = [(comb(s - k, j), c) for k, c in enumerate(fs) if k <= s - j]
        out.append(tuple([sum([b * c[t] for b, c in terms]) % M
                          for t in range(ring.deg)]))
    return Poly(ring, out)


def mc_precision_floor(ring, s):
    """The least precision verify_mc_commutative takes for an s x s Phi:
    2 (s * m + s) keeps maximal minors from being truncated into
    agreement."""
    return 2 * (s * ring.m + s)


def verify_mc_commutative(ring, Phi, prec, tower=None):
    """Fitting ideal of the limit module against the ideal generated by
    the characteristic element, compared at prec and prec + GUARD, with
    the exact bridge from the Frobenius-variable determinant.

    bridge_exact compares iwasawa_transform of det(I - T Phi), taken by
    poly_det (fraction-free elimination on packed integers), with
    char_element(Phi), taken by Berkowitz over Omega: two determinant
    algorithms, so a fault in either one shows.

    prec must reach mc_precision_floor.  A caller that also needs the
    coinvariant tower of Phi may pass it in."""
    s = len(Phi)
    floor = mc_precision_floor(ring, s)
    if prec < floor:
        raise InvariantViolation(
            f"precision {prec} below the safe floor {floor}")
    if tower is None:
        tower = coker_tower(ring, Phi)
    module = limit_module(ring, Phi, tower=tower)
    fit = fitting_ideal(module)
    ch = char_element(ring, Phi)
    ok = ideal_classes_equal(fit, IdealClass(ring, [ch]), prec)
    det = poly_det(one_minus_T(ring, Phi), ring)
    bridged = iwasawa_transform(ring, det, s)
    return {
        "check": "mc-commutative",
        "ok": ok and bridged == ch,
        "ideals_equal": ok,
        "bridge_exact": bridged == ch,
        "left": "Fitt with " + ngens(len(fit.num_gens)),
        "right": render_poly_terms(ring, ch.coeffs, var="Y"),
        "stable_from": tower.stable_from,
    }
