"""Compute one L-function by two unrelated routes and watch them agree.

Route one multiplies local factors over the closed points.  Route two
packs the same points into a single cyclic gamma-module per point and
takes the alternating determinant.  Nothing is shared between the two
code paths past the input data, which is what makes the agreement a
real check and not bookkeeping.

Run:  python3 demos/lfunctions_two_ways.py
"""

from nclfun.coeffring import CoeffRing
from nclfun.covering import CoveringSpec, Point, SheafSpec
from nclfun.groupalg import GroupData, Rep
from nclfun.lfun import (
    cohomology_from_points,
    compare_series,
    euler_product,
    trace_formula_L,
    trace_formula_rational,
)

PREC = 16

ring = CoeffRing(3, 2)          # coefficients in Z/9
group = GroupData([[0, 1], [1, 0]], [0, 1])

# three closed points; the degree-2 one carries the nontrivial element
points = [Point(1, 0, 1), Point(1, 1, 1), Point(2, 1, 2)]
cov = CoveringSpec(5, ring, group, points)

# the sign character, with gamma acting by the unit 2
sign = Rep(ring, group,
           [[[ring.one]], [[ring.int_embed(-1)]]],
           [[ring.int_embed(2)]])

print("covering:", cov)
print()

left = euler_product(cov, sign, PREC)
print("euler product  :", left)

coh = cohomology_from_points(cov, sign)
right = trace_formula_L(coh, PREC)
print("trace route    :", right)

cmp = compare_series(left, right)
print("agree?         :", cmp.equal, f"(through {cmp.prec} coefficients)")
assert cmp.equal

rf = trace_formula_rational(coh)
print()
print("as a rational function:", rf)
print()
print("The cyclic model puts every point in odd degree, so the whole")
print("L-function sits in the numerator; expanding it back as a series")
print("reproduces the Euler product exactly.")
