"""
Polynomial semirings over a monoid of exponents
===============================================

Polynomials with nonnegative coefficients and exponents drawn from a monoid
M form a semiring N0[x;M] -- there is no subtraction, so factorization
behaves very differently from the ring case.  This demo decides atomicity
with a complete search, and builds pairs of equal-length factorizations in
rational-coefficient monoid algebras Q[x;M].
"""

from fractions import Fraction

from factolab import (
    MonoidPresentation,
    SemiringPolynomial,
    algebra_witness,
    binomial_irreducibility_check,
    case1_relation,
    is_additive_atom,
    natural_atom_test,
    poly_mul,
    poly_pow,
)

###############################################################################
# Over the natural numbers, x^4 + 2x^3 + 2x^2 + 7x + 6 factors in two ways
# that share no atom and have the same length:
#
#   (x + 1)(x^3 + x^2 + x + 6) = (x + 2)(x^3 + 2x + 3)
#
# All four factors are atoms of N0[x] -- over the integers they would factor
# further, but the needed coefficients are negative.

def nat(*coeffs):
    return SemiringPolynomial.from_terms(
        [(e, c) for e, c in enumerate(coeffs) if c], "N"
    )

p1, q1 = nat(1, 1), nat(6, 1, 1, 1)
p2, q2 = nat(2, 1), nat(3, 2, 0, 1)
product = poly_mul(p1, q1)
print("product:", product)
print("same product both ways:", poly_mul(p2, q2) == product)
for f in (p1, q1, p2, q2):
    is_atom, _ = natural_atom_test(f)
    print(f"  atom over N0[x]: {f}  ->  {is_atom}")

###############################################################################
# natural_atom_test is a complete decision procedure: with no subtraction
# available, any factor of f has coefficients bounded by f's largest
# coefficient and exponents bounded by f's degree, so the search space is a
# finite box.  For a reducible input it returns a witness factorization.

is_atom, witness = natural_atom_test(product)
print()
print(f"{product}: atom = {is_atom}")
print("  witness:", witness[0], " * ", witness[1])

###############################################################################
# The box grows exponentially with the degree, so the search cuts off every
# prefix that cannot be completed to a divisor.  One cut evaluates at x = 1:
# f(1) = g(1) * h(1), so the coefficient sum of g so far times that of the
# quotient so far cannot exceed f(1).  With it (x + 1)^12, a product of twelve
# atoms whose box holds 925^13 candidates, is decided in milliseconds.

power = poly_pow(nat(1, 1), 12)
is_atom, (g, h) = natural_atom_test(power)
print()
print(f"(x + 1)^12: atom = {is_atom}")
print("  witness:", g, " * ", h)
print("  multiplies back:", poly_mul(g, h) == power)

###############################################################################
# Exponents can come from any rank-one monoid.  Over M = <2, 3> the monomial
# x^5 is not an atom (5 = 2 + 3), and binomials can be tested for
# irreducibility through monomial shifts.

m23 = MonoidPresentation.from_values([2, 3])
x5 = SemiringPolynomial.monomial(5, 1, "N", m23)
is_atom, witness = natural_atom_test(x5)
print()
print(f"x^5 over <2,3>: atom = {is_atom}, witness = ({witness[0]}, {witness[1]})")

binom = SemiringPolynomial.from_terms([(6, 1), (4, -1)], "Q", m23)
print(f"{binom} irreducible over Q[x;<2,3>]:", binomial_irreducibility_check(binom))

###############################################################################
# Additively, the atoms of N0[x;M] are exactly the monomials with coefficient
# one, and they are closed under multiplication and under taking divisors.

print()
print("additive atoms:")
for poly in (nat(1), nat(0, 0, 1), nat(2), nat(1, 1)):
    print(f"  {poly}: {is_additive_atom(poly)}")

###############################################################################
# Two monomial atoms of a Puiseux monoid algebra always satisfy one canonical
# unbalanced relation: for generators 1/2 and 2/3, four copies of x^(1/2)
# multiply to the same element as three copies of x^(2/3).

puiseux = MonoidPresentation.from_values([Fraction(1, 2), Fraction(2, 3)])
relation = case1_relation(puiseux, 0, 1)
print()
print("monomial relation over <1/2, 2/3>:", relation.left, "=", relation.right)

###############################################################################
# In the monoid algebra Q[x;<a,b>] for coprime a < b, a crafted pair of
# binomial atoms produces two factorizations of the same polynomial with the
# same length and no shared atom.  The construction is fully explicit.

for a, b in [(2, 3), (3, 5)]:
    w = algebra_witness(a, b)
    print()
    print(f"algebra witness for <{a}, {b}>:")
    print("  binomial atoms: a1 =", w.a1, "  a2 =", w.a2)
    print("  product:", w.product)
    z1 = "  *  ".join(f"({poly})^{mult}" for poly, mult in w.z1)
    z2 = "  *  ".join(f"({poly})^{mult}" for poly, mult in w.z2)
    print("  z1 =", z1)
    print("  z2 =", z2)
    print("  both factorizations have length", w.factorization_length)
    assert w.factors_multiply_out()

###############################################################################
# The same objects are available on the command line:
# `factolab semiring-atom poly.json`, `factolab algebra-witness 2 3`, and
# `factolab case1 presentation.json 0 1`.
