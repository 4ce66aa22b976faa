"""Covering instances: the finite data describing a tower chop over a
finite field, its closed points, the coefficient sheaf, and optional
named representations, open subgroups and cohomology presentations.

The on-disk grammar is line based: `key = value` with `#` comments and
blank lines permitted.  A value is a decimal integer or a nested
bracket list of such values, at most 200 deep, with commas and
whitespace between them: the integer-and-array subset of JSON, which
is all render_instance writes.  parse_literal reads it, for instance
files and for the command line's inline literals alike.  Every matrix
of an instance is over the one ring that omega.minpoly names.  A ring
element is an int, or a list of at most D ints (ascending powers of x,
zero-padded), read by parse_element for both; render_instance writes
bare integers over a degree-1 ring and coefficient lists otherwise.
The canonical rendering fixes section order, sorts named sections,
drops comments, and reduces every residue, so equal instances render
to byte-identical text.
"""

import hashlib
import json
from collections import namedtuple
from dataclasses import dataclass
from math import gcd

from .coeffring import CoeffRing
from .errors import InvalidGroup, InvariantViolation, NotASubgroup, ParseError
from .groupalg import (
    GElement,
    GroupData,
    OpenSubgroup,
    Rep,
    coset_keys,
    group_validate,
    quotient_by_normal,
    restrict_rep,
    subgroup_group_data,
)
from .linalg import power

FORMAT_TAG = "covering-instance-v1"


class Point(namedtuple("Point", ["degree", "h", "gamma_exp"])):
    """Closed point of the base: degree, the H-part of its Frobenius,
    and the gamma exponent, which admissibility forces to equal the
    degree.  A tuple, so the Counter and the sets over a covering's
    points hash and compare them without a Python call per point."""

    __slots__ = ()

    def __new__(cls, degree, h, gamma_exp):
        if degree < 1:
            raise InvariantViolation("point degree must be positive")
        if gamma_exp != degree:
            raise InvariantViolation(
                f"gamma exponent {gamma_exp} must match degree {degree}")
        return super().__new__(cls, degree, h, gamma_exp)

    def frobenius(self) -> GElement:
        return GElement(self.h, self.gamma_exp)


class CoveringSpec:
    """Base field size, coefficient ring, group chop, and closed points.

    The coefficient prime l and exponent m are those of the ring.
    complete_through = N states that the points include every closed
    point of degree at most N, so products over them are right mod
    T^(N + 1); None states nothing."""

    def __init__(self, q, ring, group, points, complete_through=None):
        self.q = q
        self.ring = ring
        self.group = group
        self.points = tuple(points)
        self.complete_through = complete_through
        if q < 2:
            raise InvariantViolation("base field size must be at least 2")
        if gcd(q, ring.ell) != 1:
            raise InvariantViolation(
                "coefficient prime must be invertible in the base field")
        group_validate(group, ring.ell)
        for p in self.points:
            if not 0 <= p.h < group.order:
                raise InvariantViolation(f"point H-part {p.h} out of range")

    def __repr__(self):
        return (f"CoveringSpec(q={self.q}, ell={self.ring.ell}, "
                f"m={self.ring.m}, |H|={self.group.order}, "
                f"points={len(self.points)})")


@dataclass
class SheafSpec:
    """The coefficient sheaf: a representation of the covering group."""
    rep: Rep


class CohomologySpec:
    """Finitely generated gamma-modules in a run of degrees: one square
    matrix per degree giving the gamma action on a free carrier."""

    def __init__(self, ring, degrees, matrices):
        self.ring = ring
        self.degrees = tuple(degrees)
        if len(self.degrees) != len(set(self.degrees)):
            raise InvariantViolation("cohomology degrees repeat")
        if list(self.degrees) != sorted(self.degrees):
            raise InvariantViolation("cohomology degrees must be ascending")
        self.matrices = tuple(tuple(tuple(row) for row in mat)
                              for mat in matrices)
        if any(len(row) != len(mat) for mat in self.matrices for row in mat):
            raise InvariantViolation("cohomology matrix is not square")
        if len(self.matrices) != len(self.degrees):
            raise InvariantViolation("one matrix per degree required")


@dataclass
class Instance:
    """Everything a single instance file describes."""
    covering: CoveringSpec
    sheaf: SheafSpec
    reps: dict
    subgroups: dict
    cohomology: object            # CohomologySpec or None


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_literal(raw, where):
    """The value of raw: a decimal integer, or a bracket list of values.

    raw is decoded as JSON, and one iterative walk then checks that
    every item is an int or a list (bool is a subclass of int, but true
    is no integer entry).  So the grammar is the integer-and-array
    subset of JSON, nested at most 200 deep as literal_eval allowed: no
    `0x10`, `1_000`, `+5`, `- 5`, `00`, `(5)` or trailing comma.  The
    depth is bounded before decoding, so what is accepted does not
    depend on how deep the caller's stack is.  Whatever is not in the
    grammar raises ParseError naming where and quoting at most 60
    characters of raw."""
    limit = 200
    rest = ""
    if raw.count("[") > limit:
        # drop the digits, signs, commas and JSON whitespace; each pass
        # then takes every innermost [], so brackets nested d deep are
        # gone after d passes, and anything else is refused anyway
        rest = raw.translate(dict.fromkeys(map(ord, "0123456789-, \t\n\r")))
        for _ in range(limit):
            rest = rest.replace("[]", "")
    try:
        val = None if rest else json.loads(raw)
    except ValueError:
        val = None            # refused by the walk, as any non-int is
    stack = [[val]]
    while stack:
        for v in stack.pop():
            if type(v) is list:
                stack.append(v)
            elif type(v) is not int:
                shown = (repr(raw) if len(raw) <= 60
                         else repr(raw[:60]) + "...")
                raise ParseError(f"{where}: only integers and bracket "
                                 f"lists allowed; cannot parse value {shown}")
    return val


def _collect(text):
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        if key in out:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        if key == "format":
            out[key] = (lineno, raw.strip())
        else:
            out[key] = (lineno,
                        parse_literal(raw.strip(), f"line {lineno}: {key}"))
    return out


def _take(fields, key, required=True, default=None):
    if key in fields:
        return fields.pop(key)[1]
    if required:
        raise ParseError(f"missing required key {key!r}")
    return default


def parse_element(ring, v, where):
    """The ring element v writes: an int, or a list of at most D ints,
    the coordinates in ascending powers of x, zero-padded; bool is a
    subclass of int, but true is no ring element."""
    if type(v) is int:
        return ring.int_embed(v)
    if (type(v) is not list or len(v) > ring.deg
            or any(type(c) is not int for c in v)):
        raise ParseError(f"{where}: each ring element is an int or a list"
                         f" of at most {ring.deg} ints")
    return ring.element(v + [0] * (ring.deg - len(v)))


def parse_matrix(ring, v, size, where):
    """The size x size matrix over ring that v writes, entry by entry."""
    if (not isinstance(v, list) or len(v) != size
            or any(not isinstance(row, list) or len(row) != size for row in v)):
        raise ParseError(f"{where}: expected a {size}x{size} matrix")
    return [[parse_element(ring, c, where) for c in row] for row in v]


def parse_minpoly(v, where):
    """The minimal polynomial v writes: a list of ints, ascending powers
    of x; CoeffRing checks that it is monic and square free."""
    if type(v) is not list or any(type(c) is not int for c in v):
        raise ParseError(f"{where}: expected a list of integer coefficients")
    return v


def _build_rep(fields, prefix, ring, group):
    rank = _take(fields, f"{prefix}.rank")
    if not isinstance(rank, int) or rank < 1:
        raise ParseError(f"{prefix}.rank must be a positive integer")
    h_raw = _take(fields, f"{prefix}.h_images")
    if not isinstance(h_raw, list) or len(h_raw) != group.order:
        raise ParseError(
            f"{prefix}.h_images: expected one matrix per group element")
    hs = [parse_matrix(ring, mat, rank, f"{prefix}.h_images[{i}]")
          for i, mat in enumerate(h_raw)]
    gam = parse_matrix(ring, _take(fields, f"{prefix}.gamma"), rank,
                       f"{prefix}.gamma")
    return Rep(ring, group, hs, gam)


def parse_instance(text):
    """Parse and validate one instance file; returns an Instance.

    Grammar problems raise ParseError with a line reference where one
    exists; semantic violations raise their own exception types
    (InvalidGroup, NotASubgroup, InvariantViolation).
    """
    fields = _collect(text)
    fmt = _take(fields, "format")
    if fmt != FORMAT_TAG:
        raise ParseError(f"unsupported format {fmt!r}")
    for key, (lineno, _) in fields.items():
        if key == "sheaf.minpoly" or (key.startswith("rep.")
                                      and key.endswith(".minpoly")):
            raise ParseError(
                f"line {lineno}: {key}: an instance has one coefficient "
                f"ring; state the whole instance over this ring with "
                f"omega.minpoly")
    q = _take(fields, "q")
    ell = _take(fields, "ell")
    m = _take(fields, "m")
    for name, v in (("q", q), ("ell", ell), ("m", m)):
        if not isinstance(v, int):
            raise ParseError(f"{name} must be an integer")
    minpoly = _take(fields, "omega.minpoly", required=False, default=[0, 1])
    ring = CoeffRing(ell, m, parse_minpoly(minpoly, "omega.minpoly"))

    order = _take(fields, "group.order")
    table = _take(fields, "group.table")
    action = _take(fields, "group.action")
    action_order = _take(fields, "group.action_order")
    for key, v in (("order", order), ("action_order", action_order)):
        if not isinstance(v, int):
            raise InvalidGroup(f"group.{key} must be an integer")
    group = GroupData(table, action)
    # the stated order and action order are redundant: check them
    if order != group.order:
        raise InvalidGroup(f"group.order {order} disagrees with the table "
                           f"of order {group.order}")
    if action_order % group.action_order:
        raise InvalidGroup(f"group.action_order: action does not have "
                           f"order {action_order}")
    if action_order != group.action_order:
        raise InvalidGroup(f"group.action_order {action_order} is not exact; "
                           f"true order is {group.action_order}")

    pts_raw = _take(fields, "points")
    if not isinstance(pts_raw, list):
        raise ParseError("points must be a list of [degree, h, gamma_exp]")
    # each distinct triple is checked once and becomes one Point, which
    # its repeats share
    points = []
    made = {}
    for i, trip in enumerate(pts_raw):
        if (not isinstance(trip, list) or len(trip) != 3
                or not all(isinstance(x, int) for x in trip)):
            raise ParseError(
                f"points[{i}]: expected a [degree, h, gamma_exp] triple")
        key = tuple(trip)
        point = made.get(key)
        if point is None:
            d, h, a = trip
            if d < 1:
                raise ParseError(f"points[{i}]: degree must be positive")
            if a != d:
                raise ParseError(
                    f"points[{i}]: gamma exponent {a} violates "
                    f"admissibility; it must equal the degree {d}")
            if not 0 <= h < group.order:
                raise ParseError(f"points[{i}]: H-part {h} out of range")
            point = made[key] = Point(d, h, a)
        points.append(point)
    complete = _take(fields, "points.complete_through", required=False)
    if complete is not None and (not isinstance(complete, int)
                                 or complete < 1):
        raise ParseError("points.complete_through must be a positive integer")

    covering = CoveringSpec(q, ring, group, points, complete)
    sheaf = SheafSpec(_build_rep(fields, "sheaf", ring, group))

    coh = None
    if "cohomology.degrees" in fields or "cohomology.matrices" in fields:
        degs = _take(fields, "cohomology.degrees")
        mats_raw = _take(fields, "cohomology.matrices")
        if not isinstance(degs, list) or not isinstance(mats_raw, list):
            raise ParseError("cohomology sections must be lists")
        if not all(isinstance(d, int) for d in degs):
            raise ParseError("cohomology.degrees must be a list of integers")
        if len(degs) != len(mats_raw):
            raise ParseError("cohomology.matrices must align with degrees")
        mats = []
        for d, mraw in zip(degs, mats_raw):
            if not isinstance(mraw, list) or any(not isinstance(r, list)
                                                 for r in mraw):
                raise ParseError(f"cohomology matrix for degree {d} malformed")
            size = len(mraw)
            mats.append(parse_matrix(ring, mraw, size, f"cohomology[{d}]"))
        coh = CohomologySpec(ring, degs, mats)

    rep_names = sorted({k.split(".", 2)[1] for k in fields
                        if k.startswith("rep.")})
    reps = {}
    for name in rep_names:
        if not name.isidentifier():
            raise ParseError(f"rep name {name!r} is not an identifier")
        reps[name] = _build_rep(fields, f"rep.{name}", ring, group)

    sub_names = sorted({k.split(".", 2)[1] for k in fields
                        if k.startswith("subgroup.")})
    subgroups = {}
    for name in sub_names:
        if not name.isidentifier():
            raise ParseError(f"subgroup name {name!r} is not an identifier")
        members = _take(fields, f"subgroup.{name}.h_members")
        c = _take(fields, f"subgroup.{name}.c")
        if not isinstance(members, list) or not isinstance(c, int):
            raise ParseError(f"subgroup.{name}: h_members list and integer c required")
        if c < 1:
            raise ParseError(f"subgroup.{name}.c must be positive")
        try:
            subgroups[name] = OpenSubgroup(group, members, c)
        except NotASubgroup as exc:
            raise NotASubgroup(f"subgroup.{name}.h_members: {exc}") from None

    if fields:
        stray = sorted(fields)[0]
        raise ParseError(f"line {fields[stray][0]}: unknown key {stray!r}")

    return Instance(covering, sheaf, reps, subgroups, coh)


# ---------------------------------------------------------------------------
# canonical rendering
# ---------------------------------------------------------------------------

def _render_entry(ring, elem):
    if ring.deg == 1:
        return elem[0]
    return list(elem)


def _render_matrix(ring, mat):
    return [[_render_entry(ring, c) for c in row] for row in mat]


def render_instance(inst):
    """Canonical text form; parse . render is idempotent."""
    cov = inst.covering
    ring = cov.ring
    lines = [
        f"format = {FORMAT_TAG}",
        f"q = {cov.q}",
        f"ell = {ring.ell}",
        f"m = {ring.m}",
        f"omega.minpoly = {list(ring.minpoly)!r}",
        f"group.order = {cov.group.order}",
        f"group.table = {[list(r) for r in cov.group.table]!r}",
        f"group.action = {list(cov.group.action)!r}",
        f"group.action_order = {cov.group.action_order}",
        f"points = {[[p.degree, p.h, p.gamma_exp] for p in cov.points]!r}",
    ]
    if cov.complete_through is not None:
        lines.append(f"points.complete_through = {cov.complete_through}")

    def rep_lines(prefix, rep):
        return [f"{prefix}.rank = {rep.dim}",
                f"{prefix}.h_images = "
                f"{[_render_matrix(ring, m) for m in rep.h_images]!r}",
                f"{prefix}.gamma = {_render_matrix(ring, rep.gamma)!r}"]

    lines.extend(rep_lines("sheaf", inst.sheaf.rep))
    if inst.cohomology is not None:
        coh = inst.cohomology
        lines.append(f"cohomology.degrees = {list(coh.degrees)!r}")
        lines.append(f"cohomology.matrices = "
                     f"{[_render_matrix(coh.ring, m) for m in coh.matrices]!r}")
    for name in sorted(inst.reps):
        lines.extend(rep_lines(f"rep.{name}", inst.reps[name]))
    for name in sorted(inst.subgroups):
        U = inst.subgroups[name]
        lines.append(f"subgroup.{name}.h_members = {list(U.h_members)!r}")
        lines.append(f"subgroup.{name}.c = {U.c}")
    return "\n".join(lines) + "\n"


def instance_digest(inst):
    return hashlib.sha256(render_instance(inst).encode()).hexdigest()


# ---------------------------------------------------------------------------
# passage to an open subgroup: points of the pulled-back covering
# ---------------------------------------------------------------------------

def subcover_points(cov: CoveringSpec, U: OpenSubgroup):
    """The covering seen from an open subgroup U.

    Right cosets of U are labelled (b, k) with b the gamma exponent mod
    c and k the smallest member of the H-coset; the Frobenius of each
    input point permutes the labels, each orbit of size s contributing
    one point of the subcovering, of local degree s*d/c, whose local
    Frobenius is the return map of the orbit read in U-coordinates.

    A point of local degree e lies over base points of degree at most
    c*e, so when the covering is complete through N the subcovering is
    complete through N // c (None when that is below 1).

    Returns the new CoveringSpec (base field enlarged to q^c, local
    group data) together with the local-to-ambient H index map.
    """
    gd = cov.group
    sub_gd, loc_to_amb = subgroup_group_data(U)
    amb_to_loc = {h: i for i, h in enumerate(loc_to_amb)}
    c = U.c
    keys = coset_keys(gd, U.h_members, right=True)
    labels = [(b, k) for b in range(c) for k in sorted(set(keys))]
    if len(labels) != U.index:
        raise InvariantViolation("coset census disagrees with the index")

    def step(lab, sigma):
        b, k = lab
        a2 = b + sigma.a
        b2 = a2 % c
        # H-part of the moved coset: alpha^{b2-a2}(k * alpha^{b}(h_sigma))
        moved = gd.table[k][gd.act(b, sigma.h)]
        moved = gd.act(b2 - a2, moved)
        return (b2, keys[moved])

    new_points = []
    for pt in cov.points:
        sigma = pt.frobenius()
        visited = set()
        orbits = []
        for start in labels:
            if start in visited:
                continue
            orbit = [start]
            visited.add(start)
            cur = step(start, sigma)
            while cur != start:
                orbit.append(cur)
                visited.add(cur)
                cur = step(cur, sigma)
            orbits.append(orbit)
        for orbit in orbits:
            base = min(orbit)
            s = len(orbit)
            total = s * pt.degree
            if total % c != 0:
                raise InvariantViolation(
                    "orbit length times degree escaped the gamma index")
            b0, k0 = base
            g0 = GElement(k0, b0)
            sig_pow = power(sigma, s, gd.g_mul)
            u = gd.g_mul(gd.g_mul(g0, sig_pow), gd.g_inv(g0))
            if u.a != total or u.h not in amb_to_loc or u.a % c != 0:
                raise InvariantViolation("orbit return map left the subgroup")
            local_deg = total // c
            new_points.append(Point(local_deg, amb_to_loc[u.h], local_deg))

    n = cov.complete_through
    complete = None if n is None or n // c < 1 else n // c
    sub_cov = CoveringSpec(cov.q ** c, cov.ring, sub_gd, new_points, complete)
    return sub_cov, loc_to_amb


def restrict_sheaf(sheaf: SheafSpec, U: OpenSubgroup) -> SheafSpec:
    return SheafSpec(restrict_rep(sheaf.rep, U))


def push_covering_quotient(cov: CoveringSpec, members):
    """Covering data for the quotient group chop: same points, H-parts
    projected along the quotient map, so as complete as before."""
    qd, proj = quotient_by_normal(cov.group, members)
    pts = [Point(p.degree, proj[p.h], p.gamma_exp) for p in cov.points]
    out = CoveringSpec(cov.q, cov.ring, qd, pts, cov.complete_through)
    return out, proj
