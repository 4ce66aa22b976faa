"""Command line front end.

Every invocation prints one result record per check performed, in a
fixed field order, to stdout; all progress chatter goes to stderr.  The
process exits 0 when every comparison passed, 1 when any verification
failed or a computation hit a semantic dead end, and 2 when the inputs
themselves were unusable.
"""

import argparse
import ast
import hashlib
import json
import sys
import time
from collections import namedtuple

from .coeffring import CoeffRing, Poly, render_poly_terms
from .covering import instance_digest, parse_instance
from .errors import (
    ConventionOverflow,
    InvalidGroup,
    InvariantViolation,
    NotASubgroup,
    NotSQuasiIso,
    ParseError,
    PrecisionMismatch,
    SingularEvaluation,
    WrongGroup,
)

ResultRecord = namedtuple(
    "ResultRecord",
    ["command", "digest", "check", "left", "right", "verdict", "time_ms"])

_COMPUTE_ERRORS = (NotSQuasiIso, SingularEvaluation, PrecisionMismatch,
                   WrongGroup, ConventionOverflow, InvariantViolation)


class InputProblem(Exception):
    pass


_INPUT_ERRORS = (InputProblem, ParseError, InvalidGroup, NotASubgroup,
                 OSError, ValueError, SyntaxError, KeyError)


def _note(msg):
    print(msg, file=sys.stderr)


def _record(command, digest, check, left, right, ok, t0):
    if ok is None:
        verdict = "ok"
    else:
        verdict = "pass" if ok else "fail"
    return ResultRecord(command, digest, check, str(left), str(right),
                        verdict, int((time.perf_counter() - t0) * 1000))


def render_record(rec, fmt):
    if fmt == "json-lines":
        return json.dumps(rec._asdict())
    return (f"{rec.verdict:4} {rec.command} {rec.check} "
            f"digest={rec.digest[:12]} left={rec.left!r} "
            f"right={rec.right!r} time_ms={rec.time_ms}")


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------

def _load_fixture(path):
    try:
        with open(path) as fh:
            text = fh.read()
        inst = parse_instance(text)
    except (OSError, ParseError, InvalidGroup, NotASubgroup,
            InvariantViolation) as exc:
        raise InputProblem(f"fixture {path}: {exc}")
    return inst, instance_digest(inst)


def _inline_ring(args):
    if args.ell is None:
        raise InputProblem("--ell is required for inline inputs")
    try:
        minpoly = ast.literal_eval(args.minpoly) if args.minpoly else None
        return CoeffRing(args.ell, args.m, minpoly)
    except (ValueError, SyntaxError, InvariantViolation) as exc:
        raise InputProblem(f"cannot build the coefficient ring: {exc}")


def _payload_digest(*parts):
    return hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()


def _omega_matrix(ring, raw, flag):
    data = ast.literal_eval(raw)
    if (not isinstance(data, list) or not data
            or any(not isinstance(r, list) or len(r) != len(data)
                   for r in data)):
        raise InputProblem(f"{flag} must be a square matrix literal")
    out = []
    for row in data:
        out.append([ring.int_embed(c) if isinstance(c, int)
                    else ring.element(c) for c in row])
    return out


def _poly_matrix(ring, raw, flag):
    data = ast.literal_eval(raw)
    if (not isinstance(data, list) or not data
            or any(not isinstance(r, list) or len(r) != len(data)
                   for r in data)):
        raise InputProblem(f"{flag} must be a square matrix of"
                           " coefficient lists")
    out = []
    for row in data:
        prow = []
        for entry in row:
            if not isinstance(entry, list):
                raise InputProblem(f"{flag}: each entry is a list of"
                                   " coefficients")
            coeffs = [ring.int_embed(c) if isinstance(c, int)
                      else ring.element(c) for c in entry]
            prow.append(Poly(ring, coeffs or [ring.zero]))
        out.append(prow)
    return out


# ---------------------------------------------------------------------------
# lfun
# ---------------------------------------------------------------------------

def cmd_lfun_euler(args):
    from .lfun import euler_product
    inst, digest = _load_fixture(args.fixture)
    t0 = time.perf_counter()
    series = euler_product(inst.covering, inst.sheaf.rep, args.precision)
    return [_record("lfun.euler", digest, "euler-product", series, "",
                    None, t0)]


def cmd_lfun_trace(args):
    from .lfun import trace_formula_L
    inst, digest = _load_fixture(args.fixture)
    if inst.cohomology is None:
        raise InputProblem("fixture stores no cohomology section")
    t0 = time.perf_counter()
    series = trace_formula_L(inst.cohomology, args.precision)
    return [_record("lfun.trace", digest, "trace-formula", series, "",
                    None, t0)]


def cmd_lfun_check(args):
    from .lfun import (cohomology_from_points, compare_series,
                       euler_product, trace_formula_L)
    inst, digest = _load_fixture(args.fixture)
    t0 = time.perf_counter()
    left = euler_product(inst.covering, inst.sheaf.rep, args.precision)
    coh = inst.cohomology
    if coh is None:
        coh = cohomology_from_points(inst.covering, inst.sheaf.rep)
        _note("no stored cohomology; comparing against the pointwise "
              "cyclic model")
    right = trace_formula_L(coh, args.precision)
    cmp = compare_series(left, right)
    return [_record("lfun.check", digest, "euler-vs-trace", left, right,
                    cmp.equal, t0)]


# ---------------------------------------------------------------------------
# ncl
# ---------------------------------------------------------------------------

def cmd_ncl_compute(args):
    from .ncl import ncl_from_points
    inst, digest = _load_fixture(args.fixture)
    t0 = time.perf_counter()
    k1 = ncl_from_points(inst.covering, inst.sheaf)
    return [_record("ncl.compute", digest, "class-from-points",
                    f"{len(k1.factors)} local factors",
                    f"|H| = {inst.covering.group.order}", None, t0)]


def cmd_ncl_evaluate(args):
    from .ncl import ncl_evaluate, ncl_from_points
    inst, digest = _load_fixture(args.fixture)
    if args.rep not in inst.reps:
        raise InputProblem(
            f"fixture stores no rep named {args.rep!r}; "
            f"available: {sorted(inst.reps)}")
    t0 = time.perf_counter()
    k1 = ncl_from_points(inst.covering, inst.sheaf)
    rf = ncl_evaluate(k1, inst.reps[args.rep])
    return [_record("ncl.evaluate", digest, f"evaluate[{args.rep}]",
                    rf, "", None, t0)]


def cmd_ncl_verify(args):
    from .groupalg import quotient_by_normal, subgroup_group_data, trivial_rep
    from .ncl import (verify_artin_induction, verify_interpolation,
                      verify_quotient, verify_twist)
    inst, digest = _load_fixture(args.fixture)
    cov, sheaf = inst.covering, inst.sheaf
    prec = args.precision
    records = []

    def add(name, out, t0):
        records.append(_record("ncl.verify", digest, name, out["left"],
                               out["right"], out["ok"], t0))

    for name in sorted(inst.reps):
        rho = inst.reps[name]
        t0 = time.perf_counter()
        add(f"interpolation[{name}]",
            verify_interpolation(cov, sheaf, rho, prec), t0)
        t0 = time.perf_counter()
        triv = trivial_rep(rho.ring, cov.group)
        add(f"twist[{name}]", verify_twist(cov, sheaf, rho, triv, prec), t0)

    for name in sorted(inst.subgroups):
        U = inst.subgroups[name]
        if U.c == 1 and len(U.h_members) < cov.group.order:
            try:
                qd, _ = quotient_by_normal(cov.group, U.h_members)
            except InvalidGroup:
                _note(f"subgroup {name} is not normal; quotient check "
                      "skipped")
            else:
                t0 = time.perf_counter()
                rho_q = trivial_rep(cov.ring, qd)
                try:
                    add(f"quotient[{name}]",
                        verify_quotient(cov, sheaf, U.h_members, rho_q,
                                        prec), t0)
                except InvariantViolation as exc:
                    _note(f"quotient check for {name} skipped: {exc}")
        t0 = time.perf_counter()
        sub_gd, _ = subgroup_group_data(U)
        out = verify_artin_induction(cov, sheaf, U,
                                     trivial_rep(cov.ring, sub_gd), prec)
        add(f"artin[{name}]", out, t0)
    return records


# ---------------------------------------------------------------------------
# imc
# ---------------------------------------------------------------------------

def cmd_imc_limit(args):
    from .limits import coker_tower, limit_module
    ring = _inline_ring(args)
    Phi = _omega_matrix(ring, args.phi, "--phi")
    digest = _payload_digest("imc", ring.ell, ring.m, list(ring.minpoly),
                             args.phi)
    t0 = time.perf_counter()
    tower = coker_tower(ring, Phi)
    sizes = [layer.coker_size for layer in tower.layers[:tower.stable_from + 2]]
    rec1 = _record("imc.limit", digest, "coker-tower",
                   f"stable from n = {tower.stable_from}",
                   f"layer sizes {sizes}", None, t0)
    t0 = time.perf_counter()
    module = limit_module(ring, Phi, tower=tower)
    rec2 = _record("imc.limit", digest, "limit-module",
                   f"rank {module.rank}, {len(module.relations)} relations",
                   f"size {module.size()}", None, t0)
    return [rec1, rec2]


def cmd_imc_fitting(args):
    from .limits import fitting_ideal, limit_module, ngens
    ring = _inline_ring(args)
    Phi = _omega_matrix(ring, args.phi, "--phi")
    digest = _payload_digest("imc", ring.ell, ring.m, list(ring.minpoly),
                             args.phi)
    t0 = time.perf_counter()
    fit = fitting_ideal(limit_module(ring, Phi))
    gens = [render_poly_terms(ring, g.coeffs, var="Y")
            for g in fit.num_gens[:3]]
    tail = "" if len(fit.num_gens) <= 3 else f" (+{len(fit.num_gens) - 3} more)"
    return [_record("imc.fitting", digest, "fitting-ideal",
                    ngens(len(fit.num_gens)),
                    "; ".join(gens) + tail, None, t0)]


def cmd_imc_verify(args):
    from .limits import kernel_chain_report, verify_mc_commutative
    ring = _inline_ring(args)
    Phi = _omega_matrix(ring, args.phi, "--phi")
    digest = _payload_digest("imc", ring.ell, ring.m, list(ring.minpoly),
                             args.phi)
    t0 = time.perf_counter()
    out = verify_mc_commutative(ring, Phi, prec=args.precision)
    rec1 = _record("imc.verify", digest, out["check"], out["left"],
                   out["right"], out["ok"], t0)
    t0 = time.perf_counter()
    chain = kernel_chain_report(ring, Phi)
    ok = chain.trace_is_mult_by_ell and chain.vanishing_certified
    rec2 = _record("imc.verify", digest, "kernel-vanishing",
                   f"stable from n = {chain.stable_from}",
                   f"trace acts by ell: {chain.trace_is_mult_by_ell}, "
                   f"limit vanishes: {chain.vanishing_certified}", ok, t0)
    return [rec1, rec2]


# ---------------------------------------------------------------------------
# kconnect
# ---------------------------------------------------------------------------

def cmd_kconnect_d(args):
    from .relk import d_connecting
    ring = _inline_ring(args)
    alpha = _poly_matrix(ring, args.alpha, "--alpha")
    digest = _payload_digest("kconnect", ring.ell, ring.m,
                             list(ring.minpoly), args.alpha)
    t0 = time.perf_counter()
    cls = d_connecting(ring, alpha)
    return [_record("kconnect.d", digest, "connecting-class",
                    cls.num_gens[0], "den 1", None, t0)]


def cmd_kconnect_verify(args):
    ring = _inline_ring(args)
    records = []
    if args.phi is not None:
        from .relk import verify_d_fitting_consistency
        Phi = _omega_matrix(ring, args.phi, "--phi")
        digest = _payload_digest("kconnect", ring.ell, ring.m,
                                 list(ring.minpoly), args.phi)
        t0 = time.perf_counter()
        out = verify_d_fitting_consistency(ring, Phi, args.precision)
        records.append(_record("kconnect.verify", digest, out["check"],
                               out["left"], out["right"], out["ok"], t0))
        return records
    if args.alpha is None or args.beta is None:
        raise InputProblem("kconnect verify needs --alpha and --beta, "
                           "or --phi")
    from .relk import verify_d_multiplicative
    alpha = _poly_matrix(ring, args.alpha, "--alpha")
    beta = _poly_matrix(ring, args.beta, "--beta")
    digest = _payload_digest("kconnect", ring.ell, ring.m,
                             list(ring.minpoly), args.alpha, args.beta)
    t0 = time.perf_counter()
    out = verify_d_multiplicative(ring, alpha, beta, args.precision)
    records.append(_record("kconnect.verify", digest, out["check"],
                           out["left"], out["right"], out["ok"], t0))
    return records


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def _suite_case(seed, i, prec):
    import random as _random

    from .lfun import (cohomology_from_points, compare_series,
                       euler_product, trace_formula_L)
    from .limits import verify_mc_commutative
    from .randcases import (random_instance, random_phi, random_ring,
                            random_s_poly_matrix)
    from .relk import verify_d_multiplicative

    rng = _random.Random(f"{seed}:{i}")
    kind = ("lfun", "imc", "kconnect")[i % 3]
    digest = _payload_digest("suite", seed, i, kind)
    t0 = time.perf_counter()
    if kind == "lfun":
        cov, sheaf = random_instance(rng, rng.choice((3, 5)),
                                     max_points=4, max_degree=3)
        left = euler_product(cov, sheaf.rep, prec)
        right = trace_formula_L(cohomology_from_points(cov, sheaf.rep), prec)
        ok = compare_series(left, right).equal
        return _record("suite.run", digest, f"case{i}:euler-vs-trace",
                       left, right, ok, t0)
    if kind == "imc":
        ring = random_ring(rng)
        Phi = random_phi(rng, ring, 3)
        out = verify_mc_commutative(ring, Phi, prec=max(prec, 24))
        return _record("suite.run", digest, f"case{i}:mc-commutative",
                       out["left"], out["right"], out["ok"], t0)
    ring = random_ring(rng)
    alpha = random_s_poly_matrix(rng, ring, 3, 2)
    beta = random_s_poly_matrix(rng, ring, len(alpha), 2)
    while len(beta) != len(alpha):
        beta = random_s_poly_matrix(rng, ring, 3, 2)
    out = verify_d_multiplicative(ring, alpha, beta, max(prec, 16))
    return _record("suite.run", digest, f"case{i}:d-multiplicative",
                   out["left"], out["right"], out["ok"], t0)


def cmd_suite_run(args):
    count = args.count
    _note(f"suite: {count} cases, seed {args.seed}")
    return [_suite_case(args.seed, i, args.precision) for i in range(count)]


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=32,
                        help="series precision (number of coefficients)")
    common.add_argument("--format", choices=("text", "json-lines"),
                        default="text")

    fixture = argparse.ArgumentParser(add_help=False)
    fixture.add_argument("--fixture", required=True,
                         help="path to an instance file")

    inline = argparse.ArgumentParser(add_help=False)
    inline.add_argument("--ell", type=int, default=None)
    inline.add_argument("--m", type=int, default=1)
    inline.add_argument("--minpoly", default=None,
                        help="coefficient list literal, e.g. '[2,1,1]'")

    top = argparse.ArgumentParser(
        prog="nclfun",
        description="exact L-functions, K1 classes, and Iwasawa limits "
                    "for coverings over finite fields")
    sub = top.add_subparsers(dest="group_cmd", required=True)

    lf = sub.add_parser("lfun", help="L-functions two ways")
    lfs = lf.add_subparsers(dest="sub_cmd", required=True)
    lfs.add_parser("euler", parents=[common, fixture]) \
       .set_defaults(func=cmd_lfun_euler)
    lfs.add_parser("trace", parents=[common, fixture]) \
       .set_defaults(func=cmd_lfun_trace)
    lfs.add_parser("check", parents=[common, fixture]) \
       .set_defaults(func=cmd_lfun_check)

    nc = sub.add_parser("ncl", help="noncommutative classes")
    ncs = nc.add_subparsers(dest="sub_cmd", required=True)
    ncs.add_parser("compute", parents=[common, fixture]) \
       .set_defaults(func=cmd_ncl_compute)
    ev = ncs.add_parser("evaluate", parents=[common, fixture])
    ev.add_argument("--rep", required=True)
    ev.set_defaults(func=cmd_ncl_evaluate)
    ncs.add_parser("verify", parents=[common, fixture]) \
       .set_defaults(func=cmd_ncl_verify)

    im = sub.add_parser("imc", help="limit modules and ideals")
    ims = im.add_subparsers(dest="sub_cmd", required=True)
    for name, fn in (("limit", cmd_imc_limit),
                     ("fitting", cmd_imc_fitting),
                     ("verify", cmd_imc_verify)):
        p = ims.add_parser(name, parents=[common, inline])
        p.add_argument("--phi", required=True,
                       help="square matrix literal, e.g. '[[4]]'")
        p.set_defaults(func=fn)

    kc = sub.add_parser("kconnect", help="connecting map checks")
    kcs = kc.add_subparsers(dest="sub_cmd", required=True)
    kd = kcs.add_parser("d", parents=[common, inline])
    kd.add_argument("--alpha", required=True,
                    help="matrix of coefficient lists, e.g. '[[[1,5]]]'")
    kd.set_defaults(func=cmd_kconnect_d)
    kv = kcs.add_parser("verify", parents=[common, inline])
    kv.add_argument("--alpha", default=None)
    kv.add_argument("--beta", default=None)
    kv.add_argument("--phi", default=None)
    kv.set_defaults(func=cmd_kconnect_verify)

    st = sub.add_parser("suite", help="seeded random batches")
    sts = st.add_subparsers(dest="sub_cmd", required=True)
    sr = sts.add_parser("run", parents=[common])
    sr.add_argument("--seed", type=int, default=0)
    sr.add_argument("--count", type=int, default=9)
    sr.set_defaults(func=cmd_suite_run)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        records = args.func(args)
    except _INPUT_ERRORS as exc:
        _note(f"input error: {exc}")
        return 2
    except _COMPUTE_ERRORS as exc:
        _note(f"computation refused: {type(exc).__name__}: {exc}")
        return 1
    for rec in records:
        print(render_record(rec, args.format))
    return 1 if any(r.verdict == "fail" for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
