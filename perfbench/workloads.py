"""Seeded workloads for the nclfun benchmark.

Each workload is a pool of named checks built from the shipped fixtures
and from inputs drawn with a seed.  A check returns a verdict and an
output: "pass" or "fail" from one of the package's two-route
comparisons, or "ok" with a rendering whose digest run.py compares
against perfbench/golden.json.  Building a pool is the benchmark's
set-up; running its checks is the timed part.

The three workloads load different layers:

- lfun-ncl: Euler product, trace route, class evaluation and the
  ncl verify drivers; no ideal is ever formed.
- imc-growing: limit modules of Phi at sizes 1 to 5; many short
  generators reach the ideal layer through the Fitting ideal.
- kconnect-battery: the connecting map; a few long generators reach the
  ideal layer, exact Poly products and poly_det, no Fitting ideal.
"""

import hashlib
import random
from collections import namedtuple
from itertools import cycle
from pathlib import Path

from nclfun.coeffring import (
    CoeffRing,
    is_in_S,
    mat_identity_omega,
    mat_inverse_omega,
    mat_mul_omega,
    poly_det,
)
from nclfun.covering import parse_instance
from nclfun.groupalg import quotient_by_normal, subgroup_group_data, trivial_rep
from nclfun.lfun import (
    cohomology_from_points,
    compare_series,
    euler_product,
    trace_formula_L,
)
from nclfun.limits import kernel_chain_report, verify_mc_commutative
from nclfun.ncl import (
    ncl_from_points,
    verify_artin_induction,
    verify_interpolation,
    verify_quotient,
    verify_twist,
)
from nclfun.randcases import (
    group_catalog,
    random_instance,
    random_poly,
    random_rep,
)
from nclfun.relk import (
    block_reduction_check,
    verify_d_exactness,
    verify_d_fitting_consistency,
    verify_d_multiplicative,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GROUP_FIXTURES = ("trivial", "z2xgamma", "z3_semidirect", "s3_gamma")
ALL_FIXTURES = GROUP_FIXTURES + ("ec_f5",)

# ec_f5 lists points through degree 6, so precision 7 is the most its
# Euler product can support; the other fixtures run at the CLI default.
FIXTURE_PRECISION = {"ec_f5": 7}
DEFAULT_PRECISION = 32

# Z/3^m for m = 1..3, Z/5, and the inert and split quadratic rings of
# the randcases minpoly pool, as (ell, m, minpoly).
IMC_RINGS = ((3, 1, None), (3, 2, None), (3, 3, None), (5, 1, None),
             (3, 1, (1, 0, 1)), (3, 1, (2, 0, 1)),
             (5, 1, (1, 1, 1)), (5, 1, (4, 0, 1)))
KCONNECT_RINGS = ((3, 2, None), (3, 1, (1, 0, 1)), (3, 1, (2, 0, 1)),
                  (5, 1, (1, 1, 1)), (5, 1, (4, 0, 1)))
# the precision of the connecting-map acceptance battery
KCONNECT_PRECISION = 24

Check = namedtuple("Check", ["name", "run"])
Pool = namedtuple("Pool", ["checks", "input_digest"])


def load_fixtures():
    return {name: parse_instance((FIXTURES / f"{name}.inst").read_text())
            for name in ALL_FIXTURES}


def _pass(ok):
    return ("pass" if ok else "fail"), ""


def _render_matrix(mat):
    return repr([[getattr(p, "coeffs", p) for p in row] for row in mat])


class _InputLog:
    """Collects a canonical rendering of every generated input so two
    runs can show they used identical inputs."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *parts):
        self._h.update(repr(parts).encode())
        self._h.update(b"\n")

    def digest(self):
        return self._h.hexdigest()


# ---------------------------------------------------------------------------
# lfun-ncl
# ---------------------------------------------------------------------------

def _lfun_check(inst, prec):
    def run():
        left = euler_product(inst.covering, inst.sheaf.rep, prec)
        coh = inst.cohomology
        if coh is None:
            coh = cohomology_from_points(inst.covering, inst.sheaf.rep)
        right = trace_formula_L(coh, prec)
        return _pass(compare_series(left, right).equal)
    return run


def _ncl_verify_checks(name, inst, prec):
    """The checks `nclfun ncl verify` runs on one fixture, in its order."""
    cov, sheaf = inst.covering, inst.sheaf
    out = []
    for rep_name in sorted(inst.reps):
        rho = inst.reps[rep_name]
        out.append(Check(
            f"ncl.verify[{name}].interpolation[{rep_name}]",
            lambda rho=rho: _pass(
                verify_interpolation(cov, sheaf, rho, prec)["ok"])))
        out.append(Check(
            f"ncl.verify[{name}].twist[{rep_name}]",
            lambda rho=rho: _pass(verify_twist(
                cov, sheaf, rho, trivial_rep(rho.ring, cov.group),
                prec)["ok"])))
    for sub_name in sorted(inst.subgroups):
        U = inst.subgroups[sub_name]
        if U.c == 1 and len(U.h_members) < cov.group.order:
            qd, _ = quotient_by_normal(cov.group, U.h_members)
            out.append(Check(
                f"ncl.verify[{name}].quotient[{sub_name}]",
                lambda U=U, qd=qd: _pass(verify_quotient(
                    cov, sheaf, U.h_members, trivial_rep(cov.ring, qd),
                    prec)["ok"])))
        sub_gd, _ = subgroup_group_data(U)
        out.append(Check(
            f"ncl.verify[{name}].artin[{sub_name}]",
            lambda U=U, sub_gd=sub_gd: _pass(verify_artin_induction(
                cov, sheaf, U, trivial_rep(cov.ring, sub_gd), prec)["ok"])))
    return out


def _random_covering(rng, log):
    """One random covering, with a seeded representation to interpolate
    at, drawn from `rng`."""
    ell = rng.choice((3, 5))
    cov, sheaf = random_instance(rng, ell, max_h=12, max_points=6,
                                 max_degree=4, max_rank=2, max_m=2)
    entry = next(e for e in group_catalog(ell) if e.build() == cov.group)
    rho = random_rep(rng, cov.ring, cov.group, entry, max_rank=2)
    log.add("covering", cov.q, cov.ring.ell, cov.ring.m, cov.ring.minpoly,
            cov.group.table, cov.group.action, cov.points,
            sheaf.rep.h_images, sheaf.rep.gamma, rho.h_images, rho.gamma)
    return cov, sheaf, rho


def _random_coverings_check(rng, first, count, log):
    """Euler product against the trace route, then interpolation at a
    seeded representation, on `count` random coverings in turn.  The
    detail names the coverings that failed."""
    cases = [_random_covering(rng, log) for _ in range(count)]
    prec = DEFAULT_PRECISION

    def run():
        failed = []
        for k, (cov, sheaf, rho) in enumerate(cases, start=first):
            left = euler_product(cov, sheaf.rep, prec)
            right = trace_formula_L(cohomology_from_points(cov, sheaf.rep),
                                    prec)
            if not (compare_series(left, right).equal
                    and verify_interpolation(cov, sheaf, rho, prec)["ok"]):
                failed.append(k)
        return ("fail", f"coverings {failed}") if failed else ("pass", "")

    return Check(f"random[{first}-{first + count - 1}]", run)


def _k1_rendering(k1):
    return repr([(exp, [[sorted(x.terms.items()) for x in row]
                        for row in mat])
                 for mat, exp in k1.factors])


# Random coverings, RANDOM_PER_CHECK to a check.  One covering takes
# 2 to 40 ms, so alone they would fall on either side of the median check
# as the seed decides; four together lie well above it.
RANDOM_COVERINGS = 8
RANDOM_PER_CHECK = 4


def build_lfun_ncl(rng, fixtures, log):
    """The ec_f5 checks, the ncl verify drivers on the group fixtures and
    seeded random coverings.

    The pool has 43 checks, so run.py's p97 tail falls between
    lfun.check[ec_f5@7] and ncl.compute[ec_f5].  The 41 checks on
    fixtures are the same for every seed, and the median check is always
    the same one of them."""
    checks = []
    for name in ALL_FIXTURES:
        prec = FIXTURE_PRECISION.get(name, DEFAULT_PRECISION)
        checks.append(Check(f"lfun.check[{name}@{prec}]",
                            _lfun_check(fixtures[name], prec)))
    ec = fixtures["ec_f5"]
    checks.append(Check(
        "lfun.euler[ec_f5@32]",
        lambda: ("ok", str(euler_product(ec.covering, ec.sheaf.rep, 32)))))
    checks.append(Check(
        "ncl.compute[ec_f5]",
        lambda: ("ok", _k1_rendering(ncl_from_points(ec.covering,
                                                     ec.sheaf)))))
    for name in GROUP_FIXTURES:
        checks.extend(_ncl_verify_checks(name, fixtures[name],
                                         DEFAULT_PRECISION))
    for first in range(0, RANDOM_COVERINGS, RANDOM_PER_CHECK):
        checks.append(_random_coverings_check(rng, first, RANDOM_PER_CHECK,
                                              log))
    return checks


# ---------------------------------------------------------------------------
# imc-growing
# ---------------------------------------------------------------------------

def _ring(spec):
    ell, m, minpoly = spec
    return CoeffRing(ell, m, minpoly)


def _unitriangular(rng, ring, size, lower):
    out = mat_identity_omega(ring, size)
    for i in range(size):
        for j in range(size):
            if (j < i) if lower else (j > i):
                out[i][j] = ring.element(
                    [rng.randrange(ring.modulus) for _ in range(ring.deg)])
    return out


def structured_phi(rng, ring, size):
    """P J P^-1 with P random invertible and J upper triangular with
    exactly ceil(size / 2) diagonal entries congruent to 1 mod ell.

    Those entries, and only those, survive in the limit of the tower, so
    the limit module is free of rank ceil(size / 2) for every draw.  Its
    presentation size, and so the number of Fitting minors, is fixed by
    (ring, size) rather than by the luck of the draw, while every entry
    of Phi still comes from the seed."""
    ell, M = ring.ell, ring.modulus
    ones = (size + 1) // 2
    J = _unitriangular(rng, ring, size, lower=False)
    for i in range(size):
        residue = 1 if i < ones else rng.choice(
            [r for r in range(ell) if r != 1])
        J[i][i] = ring.int_embed(residue + ell * rng.randrange(M // ell))
    P = mat_mul_omega(ring, _unitriangular(rng, ring, size, lower=True),
                      _unitriangular(rng, ring, size, lower=False))
    return mat_mul_omega(ring, mat_mul_omega(ring, P, J),
                         mat_inverse_omega(ring, P))


def _imc_verify(ring, Phi, prec):
    def run():
        out = verify_mc_commutative(ring, Phi, prec=prec)
        chain = kernel_chain_report(ring, Phi)
        return _pass(out["ok"] and chain.trace_is_mult_by_ell
                     and chain.vanishing_certified)
    return run


# Draws per (ring, size): fewer of the millisecond sizes, so most of the
# run goes to the sizes where the ideal layer works hardest.  About 200
# cases in all, so that the median case does not swing with the seed.
IMC_REPEATS = {1: 2, 2: 4, 3: 6, 4: 6, 5: 3}


def build_imc_growing(rng, log):
    """Phi of sizes 1 to 5 over every ring in IMC_RINGS, each (ring,
    size) pair drawn IMC_REPEATS times.  Every fourth case below size 5
    also runs the connecting-map consistency with the Fitting ideal."""
    cases = [(spec, size) for spec in IMC_RINGS
             for size, n in IMC_REPEATS.items() for _ in range(n)]
    checks = []
    for i, (spec, size) in enumerate(cases):
        ring = _ring(spec)
        Phi = structured_phi(rng, ring, size)
        # the smallest precision verify_mc_commutative accepts
        prec = 2 * (size * ring.m + size)
        log.add("phi", spec, Phi)
        tag = f"{ring.modulus}{'q' + str(spec[2]) if spec[2] else ''}"
        checks.append(Check(f"imc.verify[{i}:Z{tag}:s{size}]",
                            _imc_verify(ring, Phi, prec)))
        if i % 4 == 0 and size <= 4:
            checks.append(Check(
                f"imc.d-fitting[{i}:Z{tag}:s{size}]",
                lambda ring=ring, Phi=Phi, prec=prec: _pass(
                    verify_d_fitting_consistency(ring, Phi, prec)["ok"])))
    return checks


# ---------------------------------------------------------------------------
# kconnect-battery
# ---------------------------------------------------------------------------

def _s_matrix(rng, ring, size, deg=2):
    while True:
        mat = [[random_poly(rng, ring, deg) for _ in range(size)]
               for _ in range(size)]
        if is_in_S(poly_det(mat, ring)):
            return mat


def build_kconnect_battery(rng, log):
    """S-matrices of sizes 1 to 4 through d-multiplicative, block
    triangles through d-exactness, and cyclic block reductions for b up
    to 6, over Z/9 and the quadratic rings."""
    checks = []
    prec = KCONNECT_PRECISION
    for spec in KCONNECT_RINGS:
        ring = _ring(spec)
        tag = f"{ring.modulus}{'q' + str(spec[2]) if spec[2] else ''}"
        for size in range(1, 5):
            alpha = _s_matrix(rng, ring, size)
            beta = _s_matrix(rng, ring, size)
            log.add("mult", spec, _render_matrix(alpha), _render_matrix(beta))
            checks.append(Check(
                f"kconnect.mult[Z{tag}:s{size}]",
                lambda ring=ring, a=alpha, b=beta: _pass(
                    verify_d_multiplicative(ring, a, b, prec)["ok"])))
        for n, k in ((1, 1), (1, 2), (2, 1)):
            alpha = _s_matrix(rng, ring, n)
            gamma = _s_matrix(rng, ring, k)
            off = [[random_poly(rng, ring, 2) for _ in range(k)]
                   for _ in range(n)]
            log.add("exact", spec, _render_matrix(alpha),
                    _render_matrix(gamma), _render_matrix(off))
            checks.append(Check(
                f"kconnect.exact[Z{tag}:{n}+{k}]",
                lambda ring=ring, a=alpha, g=gamma, o=off: _pass(
                    verify_d_exactness(ring, a, g, o, prec)["ok"])))
    block_rings = cycle(_ring(spec) for spec in KCONNECT_RINGS)
    for b in range(1, 7):
        ring = next(block_rings)
        A = [[random_poly(rng, ring, 1) for _ in range(2)] for _ in range(2)]
        log.add("block", b, ring.minpoly, ring.modulus, _render_matrix(A))
        checks.append(Check(
            f"kconnect.block[b{b}]",
            lambda ring=ring, A=A, b=b: _pass(
                block_reduction_check(ring, A, b)["ok"])))
    return checks


WORKLOADS = ("lfun-ncl", "imc-growing", "kconnect-battery")


def build_pool(workload, seed, fixtures):
    """All checks of one workload for one seed, plus the digest of the
    inputs drawn for them."""
    rng = random.Random(f"{workload}:{seed}")
    log = _InputLog()
    if workload == "lfun-ncl":
        checks = build_lfun_ncl(rng, fixtures, log)
    elif workload == "imc-growing":
        checks = build_imc_growing(rng, log)
    elif workload == "kconnect-battery":
        checks = build_kconnect_battery(rng, log)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Pool(checks, log.digest())
