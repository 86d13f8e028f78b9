"""Factorization-theoretic classification of pointed monoid presentations.

Every question answered here reduces to the relation lattice
L = {z in Z^k : sum_i z_i g_i = 0}: pairs of factorizations of a common
element correspond to lattice vectors via z1 - z2, and irredundant relations
are exactly the sign splits (w+, w-) of nonzero w in L.  Writing sigma for
the coordinate sum (the length difference across a relation):

* unique factorization  <=>  L = 0,
* length factoriality   <=>  L = 0, or rank L = 1 with sigma(b) != 0,
* half factoriality     <=>  sigma vanishes on L,
* atom i is prime       <=>  coordinate i vanishes on L,
* atom i is purely long <=>  it is not prime and no vector in the rational
  span of L has z_i >= 1 together with sigma(z) <= 0 (purely short is the
  mirror image with sigma(z) >= 0).

The lattice basis b_1, ..., b_r is saturated, so rational feasibility scales
back to lattice points and the two directions match exactly.  Over
z = sum_j t_j b_j each purity system is two integer rows, c . t >= 1 and
-sign sigma . t >= 0 (sign 1 for long, -1 for short), with c the atom's column
(b_1i, ..., b_ri) and sigma the vector (sigma(b_1), ..., sigma(b_r)).  One rule
decides it in every rank, cheapest test first (Schrijver, *Theory of Linear
and Integer Programming*, 1986, ch. 7):

1. if, at the last index j where c or sigma is nonzero, the column that
   Fourier-Motzkin eliminates first, c_j != 0 and -sign sigma_j c_j >= 0,
   that elimination pairs no rows, and the witness is sign(c_j) b_j;
2. else, by Farkas' lemma, the label holds with no witness exactly when c is
   a positive multiple of sign sigma, checked in integers;
3. else the system is feasible, and :func:`~factolab.linalg.span_witness`
   solves it over the one integer Fourier-Motzkin core, which eliminates only
   the columns a live row touches and leaves the other variables at 0; an
   empty answer, or a point that misses the system, raises.

Every witness is the point that core would return.  In rank one, with L
spanned by the primitive b, the first two tests always decide: atom i is
purely long iff sigma(b) b_i > 0 and purely short iff sigma(b) b_i < 0,
sign(b_i) b witnessing against the other label.  Verdicts are decided by
these exact criteria only; bounded searches appear solely in the
independent oracle ``relation_evidence``.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from itertools import accumulate, combinations, product
from math import gcd
from operator import neg
from typing import NamedTuple, Optional

from . import linalg
from .linalg import (
    BudgetExceeded,
    InternalContradiction,
    LatticeBasis,
    integer_ratio,
    sign_normalized,
    span_witness,
)
from .monoid import FactorizationVector, MonoidPresentation, require_atoms

FINITENESS_NOTE = (
    "finite factorization and bounded factorization hold automatically for "
    "finitely generated pointed monoids; reported as constants, not computed"
)


class AtomLabel(Enum):
    PRIME = "prime"
    PURELY_LONG = "purely_long"
    PURELY_SHORT = "purely_short"
    NEITHER = "neither"


class FactorizationRelation(NamedTuple):
    """A pair of factorizations of one element, long side first."""

    left: FactorizationVector
    right: FactorizationVector

    @property
    def is_irredundant(self) -> bool:
        return all(a == 0 or b == 0 for a, b in zip(self.left, self.right))

    @property
    def is_balanced(self) -> bool:
        return sum(self.left) == sum(self.right)

    @classmethod
    def from_kernel_vector(cls, w: tuple[int, ...]) -> "FactorizationRelation":
        plus = tuple(max(c, 0) for c in w)
        minus = tuple(max(-c, 0) for c in w)
        return cls(plus, minus)

    def to_json_dict(self) -> dict:
        return {"left": list(self.left), "right": list(self.right)}


class ClassificationReport(NamedTuple):
    """Verdicts, atom labels and witnesses of one presentation.

    ``master`` is the primitive unbalanced relation that generates all
    relations, if there is one.  It exists exactly when the presentation is
    length factorial but not unique: the kernel is then spanned by one vector
    b with sigma(b) != 0, oriented long side first, and every irredundant
    unbalanced relation is a multiple of it (or of its swap).
    """

    kernel_rank: int
    kernel_basis: tuple[tuple[int, ...], ...]
    is_ufm: bool
    is_lfm: bool
    is_hfm: bool
    is_plsm: bool
    is_ffm: bool
    is_bfm: bool
    labels: tuple[AtomLabel, ...]
    prime: tuple[int, ...]
    purely_long: tuple[int, ...]
    purely_short: tuple[int, ...]
    master: Optional[FactorizationRelation]
    witnesses: dict[str, tuple[int, ...]]
    note: str = FINITENESS_NOTE

    def to_json_dict(self) -> dict:
        return {
            **self._asdict(),
            "kernel_basis": [list(v) for v in self.kernel_basis],
            "labels": [label.value for label in self.labels],
            **{key: list(getattr(self, key)) for key in ("prime", "purely_long", "purely_short")},
            "master": self.master.to_json_dict() if self.master else None,
            "witnesses": {key: list(v) for key, v in sorted(self.witnesses.items())},
        }


def _orient(v: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive v with sigma > 0, or first nonzero entry > 0 if balanced.
    Every vector of a saturated basis is primitive."""
    s = sum(v)
    if s < 0:
        return tuple(-c for c in v)
    return v if s > 0 else sign_normalized(v)


def _balanced_kernel_vector(basis: LatticeBasis) -> tuple[int, ...]:
    """A nonzero lattice vector with coordinate sum zero, for a kernel that is
    not length-factorial: of rank >= 2, or of rank one with sigma(b) = 0.
    The first basis vector of sum zero is one; failing that, the rank is
    >= 2 and sigma(b2) b1 - sigma(b1) b2 over its gcd is one, nonzero as b1
    and b2 are independent and both sums are."""
    sigmas = [sum(v) for v in basis.vectors]
    for v, s in zip(basis.vectors, sigmas):
        if s == 0:
            return _orient(v)
    b1, b2 = basis.vectors[0], basis.vectors[1]
    s1, s2 = sigmas[0], sigmas[1]
    v = [s2 * a - s1 * b for a, b in zip(b1, b2)]
    g = gcd(*v)
    return _orient(tuple(c // g for c in v))


def _purity_refutations(basis: LatticeBasis) -> list[Optional[list[Optional[tuple[int, ...]]]]]:
    """For each atom i, None if it is prime, else its witnesses against being
    purely long (sign 1) and purely short (sign -1), each None where that
    label holds, by the module's rule over the rows (c | 1) and
    (-sign sigma | 0), with c the atom's column, nonzero as it is not prime.

    Test 1: where c_j != 0 and -sign sigma_j c_j >= 0, the first elimination
    level pairs no rows (the sigma row lies on the side of the other one, or
    is 0 there and is solved at t = 0 later), so the point is t_j = 1 / c_j
    with every other t at 0, and sign(c_j) b_j is primitive as the basis is
    saturated.  Test 2: by Farkas' lemma the rows admit no t exactly when
    y c = y' sign sigma for some y > 0 and y' >= 0, that is, when c is a
    positive multiple of sign sigma.  Once test 1 fails, sigma_j != 0 and
    sign sigma_j c_j >= 0, so that holds exactly when c sigma_j = c_j sigma,
    at the indices below j as both vanish past it: c_j = 0 fails this, as
    c != 0.  So test 2 holds for one sign at most, and in rank one, where
    c = (b_i) and j = 0, test 1 or test 2 always decides."""
    vectors = basis.vectors
    sigmas = [sum(v) for v in vectors]
    negated = [tuple(map(neg, v)) for v in vectors]
    answers = []
    for i, column in enumerate(zip(*vectors) if vectors else [()] * basis.dim):
        if not any(column):
            answers.append(None)
            continue
        j = len(column) - 1
        while not (column[j] or sigmas[j]):
            j -= 1
        c, s = column[j], sigmas[j]
        refutations = []
        for sign in (1, -1):
            if c and sign * s * c <= 0:
                w = vectors[j] if c > 0 else negated[j]
            elif not j or [s * x for x in column[:j]] == [c * y for y in sigmas[:j]]:
                w = None
            else:
                w = span_witness(((*column, 1), (*[-sign * y for y in sigmas], 0)), vectors)
                if w is None:
                    raise InternalContradiction(f"atom {i} has no purity witness, but its column is no Farkas certificate")
                if w[i] < 1 or sign * sum(w) > 0:
                    raise InternalContradiction(f"purity witness {w} for atom {i} violates the system it solves")
            refutations.append(w)
        answers.append(refutations)
    return answers


def classify(presentation: MonoidPresentation) -> ClassificationReport:
    """Full exact classification of a validated, atoms-only presentation."""
    basis = require_atoms(presentation).kernel
    rank = basis.rank
    sigmas = [sum(v) for v in basis.vectors]

    is_ufm = rank == 0
    is_hfm = all(s == 0 for s in sigmas)
    is_lfm = rank == 0 or (rank == 1 and sigmas[0] != 0)

    labels: list[AtomLabel] = []
    witnesses: dict[str, tuple[int, ...]] = {}
    for i, refutations in enumerate(_purity_refutations(basis)):
        if refutations is None:
            labels.append(AtomLabel.PRIME)
            continue
        long_refutation, short_refutation = refutations
        if long_refutation is not None:
            witnesses[f"atom{i}_not_purely_long"] = long_refutation
        if short_refutation is not None:
            witnesses[f"atom{i}_not_purely_short"] = short_refutation
        if long_refutation is None:
            labels.append(AtomLabel.PURELY_LONG)
        elif short_refutation is None:
            labels.append(AtomLabel.PURELY_SHORT)
        else:
            labels.append(AtomLabel.NEITHER)

    prime = tuple(i for i, lab in enumerate(labels) if lab is AtomLabel.PRIME)
    purely_long = tuple(i for i, lab in enumerate(labels) if lab is AtomLabel.PURELY_LONG)
    purely_short = tuple(i for i, lab in enumerate(labels) if lab is AtomLabel.PURELY_SHORT)

    if rank > 0:
        first = witnesses["not_ufm"] = _orient(basis.vectors[0])
    if not is_hfm:
        j = next(j for j, s in enumerate(sigmas) if s)
        witnesses["not_hfm"] = _orient(basis.vectors[j]) if j else first
    if not is_lfm:
        balanced = _balanced_kernel_vector(basis)
        if sum(balanced) != 0:
            raise InternalContradiction("not length factorial but no balanced relation")
        witnesses["not_lfm"] = balanced

    return ClassificationReport(
        kernel_rank=rank,
        kernel_basis=basis.vectors,
        is_ufm=is_ufm,
        is_lfm=is_lfm,
        is_hfm=is_hfm,
        is_plsm=bool(purely_long) and bool(purely_short),
        is_ffm=True,
        is_bfm=True,
        labels=tuple(labels),
        prime=prime,
        purely_long=purely_long,
        purely_short=purely_short,
        master=FactorizationRelation.from_kernel_vector(first) if is_lfm and rank else None,
        witnesses=witnesses,
    )


def relation_evidence(presentation: MonoidPresentation, bound) -> list[FactorizationRelation]:
    """All irredundant relations of grade <= bound under the validated grading,
    the long (or lexicographically larger) side first, sorted by grade,
    element, left and right side.  An oracle that never touches the kernel
    lattice: it pairs prefixes within residue classes of the least-grade
    generator.

    The bound becomes the integer grade budget floor(bound * unit), read off
    its integer ratio.  Every grade is at least 1, so a prefix
    below evaluates to an element x with |x_r| <= budget * m, where m = max|X|
    over every entry of every column.  Its quotient q below has
    |q| <= budget * m, so its class x - q t has entries of absolute value at
    most budget * m * (m + 1).  With B twice that plus 1, the key
    sum_r x_r * B**(d - 1 - r) of either identifies it and sorts as it does.

    A prefix is an exponent vector of grade <= budget on the generators but
    the least-grade t.  If it evaluates to x, its class is x - q t with
    q = x_i // t_i for the first i where t_i != 0, kept as its key.  At most
    one side of an irredundant relation uses t, so the relation is a pair of
    prefixes of disjoint supports in one class, the side of smaller q taking
    the difference of the quotients in copies of t.  Conversely such a pair
    is a relation when that side keeps grade <= budget, as equal keys within
    the budget are equal elements.  The pair determines the relation, so each
    is found once.  (Classes modulo key(t) would merge all prefixes when
    key(t) is 1, as for the last unit vector.)

    A step is a prefix, a pair of overlapping support masks in one class, or
    a pair of prefixes of disjoint supports.  More than
    ``factolab.linalg.MAX_STEPS`` steps raise BudgetExceeded, and each level
    of prefixes is sized against that before it is built.

    For budgets a <= b, the relations of grade <= a are the leading ones of
    those of grade <= b: the radix changes the keys but neither their order
    nor the classes, nor which pairs are relations.  The steps grow with the
    budget, as the prefixes, classes and support masks at a are among those
    at b.  A search fails exactly when its steps pass ``MAX_STEPS``, as no
    level sized before it is built outgrows the last, whose prefixes are
    steps.  So the integer form keeps the largest completed search as
    ``(budget, steps, grades, relations)``, the relations' sorted grades
    beside them, and a call whose budget is at most that one answers the
    relations up to its budget, one slice, while those steps are within
    ``MAX_STEPS``: exactly when, and exactly what, a fresh search would
    answer.  Every call returns a new list.
    """
    form = require_atoms(presentation)
    num, den = integer_ratio(bound)
    budget = num * form.unit // den
    if budget < 1:  # below the grade of any generator, and the keys need B > 1
        return []
    max_steps = linalg.MAX_STEPS
    kept = form.relation_search
    if kept[0] >= budget and kept[1] <= max_steps:
        return kept[3][:bisect_right(kept[2], budget)]
    over_budget = f"search exceeded its budget of {max_steps} steps"
    grades = form.grades
    top = max(abs(c) for x in form.columns for c in x)
    radix = 2 * budget * top * (top + 1) + 1
    keys = [sum(c * radix**r for r, c in enumerate(reversed(x))) for x in form.columns]
    t = grades.index(min(grades))
    i = next(r for r, c in enumerate(form.columns[t]) if c)  # a coordinate that t moves
    # Per prefix: its key, coordinate i, grade and support mask.  The exponents
    # are not kept: the children of a prefix are consecutive, m = 0, 1, ..., so
    # each level records where the children of each prefix before it start.
    values, coordinates, useds, masks = [0], [0], [0], [0]
    levels = []  # (j, starts) per generator j but t, in order
    for j, (x, key, grade) in enumerate(zip(form.columns, keys, grades)):
        if j == t:
            continue
        counts = [(budget - used) // grade + 1 for used in useds]
        if sum(counts) > max_steps:
            raise BudgetExceeded(over_budget)
        levels.append((j, list(accumulate(counts, initial=0))))
        c, bit = x[i], 1 << j
        values = [v + m * key for v, n in zip(values, counts) for m in range(n)]
        coordinates = [v + m * c for v, n in zip(coordinates, counts) for m in range(n)]
        useds = [v + m * grade for v, n in zip(useds, counts) for m in range(n)]
        masks = [v | bit if m else v for v, n in zip(masks, counts) for m in range(n)]

    def exponents(p: int, s: int) -> tuple[int, ...]:
        """The exponent vector of prefix p with s copies of t."""
        z = [0] * len(grades)
        z[t] = s
        for j, starts in reversed(levels):
            parent = bisect_right(starts, p) - 1
            z[j], p = p - starts[parent], parent
        return tuple(z)

    key_t, lead, grade_t = keys[t], form.columns[t][i], grades[t]
    classes: dict[int, list[int]] = {}
    for p, (value, coordinate) in enumerate(zip(values, coordinates)):
        classes.setdefault(value - coordinate // lead * key_t, []).append(p)
    del coordinates  # not needed past the classes, and the relations found below set the peak
    steps = len(values)
    # Scaled grades and element keys sort as the rational grades and elements do.
    found: list[tuple] = []
    for members in classes.values():
        if len(members) < 2:
            continue
        supports: dict[int, list[int]] = {}
        for p in members:
            supports.setdefault(masks[p], []).append(p)
        for (mask1, side1), (mask2, side2) in combinations(supports.items(), 2):
            disjoint = not mask1 & mask2
            steps += len(side1) * len(side2) if disjoint else 1
            if steps > max_steps:
                raise BudgetExceeded(over_budget)
            if not disjoint:
                continue
            for one, low in product(side1, side2):
                s = (values[one] - values[low]) // key_t  # the difference of the quotients, exact in a class
                if s < 0:
                    one, low, s = low, one, -s
                if useds[low] + s * grade_t <= budget:
                    a, b = exponents(one, 0), exponents(low, s)
                    pair = (a, b) if (sum(a), a) > (sum(b), b) else (b, a)
                    found.append((useds[one], values[one], FactorizationRelation(*pair)))
    found.sort()
    relations = [rel for _, _, rel in found]
    if kept[0] < budget:
        form.relation_search = budget, steps, [grade for grade, _, _ in found], relations
    return relations[:]
