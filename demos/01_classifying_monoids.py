"""
Classifying monoids by their factorization behavior
===================================================

A finitely generated monoid of nonnegative rational vectors is presented by
its generator list.  The workbench computes the lattice of factorization
relations exactly and turns it into verdicts: unique factorization (UFM),
length-factorial (LFM, distinct factorizations of an element always have
distinct lengths), half-factorial (HFM, all factorizations of an element have
equal length), and a label for every atom.
"""

import json

from factolab import (
    MonoidPresentation,
    classify,
    enumerate_factorizations,
    length_set,
    relation_evidence,
)

###############################################################################
# The additive monoid generated by 2 and 3: every integer >= 2.
# Its single defining relation is 3*[2] = 2*[3]  (6 = 2+2+2 = 3+3).

pair = MonoidPresentation.from_values([2, 3])
report = classify(pair)

print("generators 2, 3")
print("  kernel rank:", report.kernel_rank)
print("  kernel basis:", report.kernel_basis)
print("  UFM:", report.is_ufm, " LFM:", report.is_lfm, " HFM:", report.is_hfm)
print("  atom labels:", [lab.value for lab in report.labels])
print("  master relation:", report.master.left, "=", report.master.right)

###############################################################################
# Each verdict is backed by a concrete witness.  The report stores kernel
# vectors; positive entries are one side of a relation, negative entries the
# other.

for key, vector in sorted(report.witnesses.items()):
    print("  witness", key, "->", vector)

###############################################################################
# Factorizations of a single element.  12 = 2*6 = 2*3+3*2 = 3*4, so the
# factorization vectors over the atoms (2, 3) are (6,0), (3,2), (0,4) --
# three factorizations, three distinct lengths.  That pattern holding for
# every element is exactly what LFM means.

print()
print("factorizations of 12:", enumerate_factorizations(pair, (12,)))
print("length set of 12:", sorted(length_set(pair, (12,))))

###############################################################################
# A cross-check that never looks at the kernel, pairing prefixes within
# residue classes of the least-grade generator: list every
# irredundant relation (two factorizations of the same element sharing no
# atom) up to grade 20.  For this monoid they are exactly the multiples of
# the master relation.

for relation in relation_evidence(pair, 20):
    print("  evidence:", relation.left, "=", relation.right)

# The search closes every relation with the generator of least grade, so it
# stays fast on deeper bounds: the McNugget monoid 6, 9, 20 has 1,160
# irredundant relations up to grade 150 (the grading gives 6 grade 1, so these
# are the relations among the elements up to 900).

nuggets = MonoidPresentation.from_values([6, 9, 20])
print("relations of 6, 9, 20 up to grade 150:", len(relation_evidence(nuggets, 150)))

# Length sets do not list factorizations either.  100000 has about 4.6
# million of them in 6, 9, 20, but along each run of the last free exponent
# the length moves by a fixed step, so each run adds one arithmetic
# progression of lengths at once.

lengths = length_set(nuggets, (100000,))
print("length set of 100000:", len(lengths), "lengths, from", min(lengths), "to", max(lengths))

###############################################################################
# Three generators 3, 4, 5 behave differently: 3+5 = 4+4 is a relation with
# equal length on both sides, so two distinct factorizations of 8 share a
# length and the monoid is not LFM.  No atom is prime, purely long, or
# purely short.

triple = MonoidPresentation.from_values([3, 4, 5])
report = classify(triple)
print()
print("generators 3, 4, 5")
print("  UFM:", report.is_ufm, " LFM:", report.is_lfm, " HFM:", report.is_hfm)
print("  balanced witness:", report.witnesses["not_lfm"])
print("  atom labels:", [lab.value for lab in report.labels])
print("  PLSM:", report.is_plsm)

###############################################################################
# Verdicts are scale-invariant: dividing every generator by 7 gives a monoid
# of fractions (a Puiseux monoid) with the same relation lattice.

from fractions import Fraction

scaled = MonoidPresentation.from_values(
    [Fraction(3, 7), Fraction(4, 7), Fraction(5, 7)]
)
scaled_report = classify(scaled)
print()
print("generators 3/7, 4/7, 5/7")
print("  same kernel basis:", scaled_report.kernel_basis == report.kernel_basis)
print("  same verdicts:", (scaled_report.is_lfm, scaled_report.is_hfm)
      == (report.is_lfm, report.is_hfm))

###############################################################################
# A two-dimensional example: the strip generated by (0,1), (1,1), (2,1).
# Every relation is balanced -- the second coordinate counts the atoms -- so
# the monoid is half-factorial without being a UFM.

strip = MonoidPresentation.from_generators([(0, 1), (1, 1), (2, 1)])
report = classify(strip)
print()
print("generators (0,1), (1,1), (2,1)")
print("  UFM:", report.is_ufm, " LFM:", report.is_lfm, " HFM:", report.is_hfm)
print("  balanced witness:", report.witnesses["not_ufm"])

###############################################################################
# The full report serializes to JSON (this is also what the command line
# prints): try  `factolab analyze - <<< '{"dim": 1, "generators": [["2"],["3"]]}'`

print()
print(json.dumps(classify(pair).to_json_dict(), indent=2, sort_keys=True))
