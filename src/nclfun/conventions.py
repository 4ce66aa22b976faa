"""Frozen orientation and sign conventions.

Several independent normalisations have to be chosen once and then
respected by every module; this file is the single statement of record.

1.  Group elements.  G = H \\rtimes Gamma at finite chop: an element is
    a pair (h, a) meaning h * gamma^a, and the product twists the right
    factor: (h, a) (h', a') = (h * alpha^a(h'), a + a').

2.  The deformation variable.  T corresponds to gamma^{-1}.  So the
    evaluation of a crossed element at a representation rho sends
    h * gamma^a to rho~(h * gamma^a) * T^{-a}, which for the frequent
    case a <= 0 produces nonnegative powers of T.

3.  Contragredient evaluation.  rho~(g) = transpose(rho(g^{-1})).  This
    is the composition of rho with inversion and transposition, hence a
    genuine ring homomorphism out of the crossed algebra, and it makes
    the evaluation of the geometric local factors land exactly on the
    Euler factors of the rho-twisted sheaf.

4.  Local factors.  A point of degree d with Frobenius sigma = (h, d)
    contributes the class of (Id - M) with M built from sigma^{-1}:
    the group part carries gamma-exponent -d, that is T-exponent +d.

Changing any one of these without the matching compensation elsewhere
breaks the interpolation identities; the test suite pins all four.
"""
