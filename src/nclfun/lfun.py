"""L-series of a sheaf on a covering instance, two independent ways.

The pointwise route multiplies inverted Euler factors over the listed
closed points.  The cohomological route takes an alternating product of
characteristic determinants of the gamma action.  The package never
merges the two code paths; their agreement on overlapping inputs is a
theorem, and the tests treat it as one.
"""

from collections import Counter, namedtuple
from operator import mul

from .coeffring import (
    Poly,
    RationalFunction,
    Series,
    det_one_minus_scaled,
    one_minus_T,
    poly_det,
    series_invert,
)
from .covering import CohomologySpec
from .errors import InvariantViolation
from .linalg import block_matrix, mat_identity, power, split_components


def euler_product(cov, rho, prec):
    """Product over the points of det(I - T^deg rho(Frob))^{-1}, as a
    series at the requested precision.

    rho is any representation of the covering group (typically the
    sheaf, or the sheaf tensored with a twisting representation).

    The local factor depends only on the point, so repeated points are
    grouped: each distinct factor is truncated once and raised to its
    multiplicity by repeated squaring.  The product of the factors is
    inverted once, at the end.
    """
    if rho.group != cov.group:
        raise InvariantViolation("representation lives on a different group")
    ring = rho.ring
    acc = Series.one(ring, prec)
    for pt, mult in Counter(cov.points).items():
        mat = rho.of(pt.frobenius())
        factor = det_one_minus_scaled(ring, mat, pt.degree)
        acc = acc * power(factor.truncate(prec), mult, mul)
    return series_invert(acc)


def det_one_minus_matrix(ring, Phi):
    """det(I - T*Phi) as a Poly, split along the connectivity pattern of
    Phi first, and each component's I - T*Phi_c taken by poly_det
    (fraction-free elimination): the local factors of euler_product
    come from Berkowitz, so the two routes share no determinant routine.

    This is the one block split in the package.  The trace route's
    matrices are the big direct sums of cohomology_from_points, one
    block per point; one poly_det of the whole matrix would widen every
    slot to the bound over all its rows, so a direct sum costs what its
    blocks cost only when it is split first."""
    comps = split_components(
        len(Phi), lambda i, j: not ring.is_zero(Phi[i][j]))
    out = Poly.one(ring)
    for comp in comps:
        sub = [[Phi[i][j] for j in comp] for i in comp]
        out = out * poly_det(one_minus_T(ring, sub), ring)
    return out


def trace_formula_rational(coh):
    """The alternating determinant product as an exact rational function:
    odd degrees in the numerator, even degrees in the denominator."""
    ring = coh.ring
    num = Poly.one(ring)
    den = Poly.one(ring)
    for d, mat in zip(coh.degrees, coh.matrices):
        f = det_one_minus_matrix(ring, mat)
        if d % 2:
            num = num * f
        else:
            den = den * f
    return RationalFunction(num, den)


def trace_formula_L(coh, prec):
    """Series expansion of the cohomological L-function."""
    return trace_formula_rational(coh).expand(prec)


def cohomology_from_points(cov, rho):
    """A degree-0 cohomology presentation whose trace formula equals the
    Euler product of rho over the points.

    Each point of degree d contributes a cyclic block of size d*r: the
    identity on the subdiagonal and rho(Frob) in the upper corner, so
    that det(I - T*block) = det(I - T^d rho(Frob)).  Blocks are direct
    summed in point order.
    """
    if rho.group != cov.group:
        raise InvariantViolation("representation lives on a different group")
    ring = rho.ring
    r = rho.dim
    zero = [[ring.zero] * r for _ in range(r)]
    one = mat_identity(ring, r)
    blocks = []
    for pt in cov.points:
        d = pt.degree
        A = rho.of(pt.frobenius())
        blocks.append(block_matrix(
            [[A if (u, v) == (0, d - 1) else one if u == v + 1 else zero
              for v in range(d)] for u in range(d)]))
    big = block_matrix([[B if k == t else [[ring.zero] * len(C)] * len(B)
                         for t, C in enumerate(blocks)]
                        for k, B in enumerate(blocks)])
    return CohomologySpec(ring, [0], [big])


SeriesComparison = namedtuple("SeriesComparison",
                              ["equal", "prec", "first_diff"])


def compare_series(s1, s2):
    """Coefficientwise comparison through the smaller precision.

    Returns (equal, prec compared, index of first mismatch or None).
    """
    if s1.ring != s2.ring:
        raise InvariantViolation("series over different rings")
    n = min(s1.prec, s2.prec)
    for k in range(n):
        if s1.coeffs[k] != s2.coeffs[k]:
            return SeriesComparison(False, n, k)
    return SeriesComparison(True, n, None)


def series_spread(s, c, prec):
    """The series s(T^c), truncated to prec.

    Valid whenever the input precision covers every index below prec
    that is divisible by c; raises otherwise rather than guessing."""
    if c < 1:
        raise InvariantViolation("spread step must be positive")
    ring = s.ring
    need = (prec - 1) // c + 1
    if s.prec < need:
        raise InvariantViolation(
            f"need {need} coefficients to spread to precision {prec}")
    out = [ring.zero] * prec
    for k in range(need):
        if c * k < prec:
            out[c * k] = s.coeffs[k]
    return Series(ring, prec, out)
