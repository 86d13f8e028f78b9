"""Finitely generated pointed monoids presented by rational generator vectors.

A presentation is a list of k nonzero vectors in Q^d, read as the additive
submonoid they generate.  Validation checks pointedness (no nonzero
nonnegative integer relation among the generators) and produces a positive
grading, which bounds every factorization search.  Factorizations of an
element are exponent vectors over the generators and are enumerated exactly.

A presentation of positive rationals is a numerical monoid scaled by one
rational unit: :class:`NumericalMonoid` decides membership in it from an
Apéry set, and :attr:`MonoidPresentation.rank_one` gives the unit and that
monoid, on which the exponents of :mod:`factolab.semiring` rest.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Mapping, Set
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import add, mul
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import linalg
from .linalg import (
    BudgetExceeded,
    DimensionMismatch,
    Frozen,
    IntVector,
    InternalContradiction,
    LatticeBasis,
    dot,
    excerpt,
    format_rational,
    fourier_motzkin,
    homogeneous_lp_witness,
    integer,
    integer_kernel,
    integer_ratio,
    parse_rational,
)

QVector = tuple[Fraction, ...]
FactorizationVector = tuple[int, ...]

# The most total weight of the answers one integer form keeps, where an answer
# weighs its length + 1 (see IntegerForm.recall).
ANSWER_WEIGHT_CAP = 1 << 15


class InvalidGenerator(ValueError):
    """A generator is the zero vector or has the wrong dimension."""


class NotPointed(ValueError):
    """The monoid has a unit besides zero; carries a nonnegative kernel witness."""

    def __init__(self, witness: tuple[int, ...]):
        self.witness = witness
        super().__init__(
            f"presentation is not pointed: nonzero nonnegative kernel vector {excerpt(witness)}"
        )


class NotNormalized(ValueError):
    """The operation requires a duplicate-free, atoms-only presentation."""


class NotAnAtom(NotNormalized):
    """A generator factors into others; carries the index and a witness."""

    def __init__(self, index: int, witness: FactorizationVector):
        self.index = index
        self.witness = witness
        super().__init__(f"generator {index} is not an atom (witness {witness}); normalize first")


class DuplicateGenerator(NotNormalized):
    def __init__(self, index: int, original: int):
        self.index = index
        self.original = original
        super().__init__(f"generator {index} duplicates generator {original}; normalize first")


def _coordinates(values: Iterable, read: Callable) -> list:
    """``read`` of each coordinate; a ``str`` or ``bytes``, which would give one
    coordinate per character, and a set or mapping, which would give its keys
    in iteration order, raise ``ValueError``.  A tuple or list, the common
    case, skips the check against the two ABCs, which is several times
    slower than one against concrete types."""
    if not isinstance(values, (tuple, list)) and isinstance(values, (str, bytes, Set, Mapping)):
        raise ValueError(f"cannot read {type(values).__name__} {excerpt(repr(values))} as a sequence of rationals")
    return [read(v) for v in values]


def as_element(values: Iterable) -> QVector:
    """Coerce a sequence of rationals into an element vector."""
    return tuple(_coordinates(values, parse_rational))


class Grading(NamedTuple):
    """Positive rational grading h; every generator satisfies h(g) >= 1."""

    weights: QVector

    def grade(self, vector: Sequence) -> Fraction:
        return dot(self.weights, as_element(vector))


class NumericalMonoid:
    """Membership oracle for the monoid generated by coprime positive ints.

    Membership is read off the Apéry set of the smallest generator ``m``:
    ``apery[r]`` is the least member congruent to ``r`` modulo ``m``, and an
    integer ``n`` is a member exactly when ``n >= apery[n % m]``, since
    adding ``m`` keeps the residue.  The set is built by round robin, one
    generator ``g`` at a time: adding ``g`` splits the ``m`` residues into
    ``gcd(g, m)`` cycles, and one walk around each cycle from its least
    known entry settles it, so ``k`` generators take ``O(k m)`` steps
    however far out the gaps reach (Böcker & Lipták, *A fast and simple
    algorithm for the money changing problem*, Algorithmica 48, 2007).
    A generator that is not an ``int`` (a ``bool`` included) raises
    ``ValueError``.
    """

    def __init__(self, generators: Sequence[int]):
        gens = tuple(sorted({integer(g, "generator") for g in generators}))
        if not gens or gens[0] < 1:
            raise ValueError("generators must be positive integers")
        if math.gcd(*gens) != 1:
            raise ValueError(
                f"generators {excerpt(gens)} have gcd {excerpt(math.gcd(*gens))}; "
                "membership beyond the table would be undecidable"
            )
        self.generators = gens
        m = gens[0]
        if m > linalg.MAX_STEPS:  # checked before the Apéry set of m residues is allocated
            raise BudgetExceeded(f"smallest generator {excerpt(m)} exceeds the budget of {linalg.MAX_STEPS} steps")
        # every known Apéry entry is at most (m - 1) * g_max, and a walk adds at
        # most g_max at most m - 1 times, so no walk from a known entry reaches
        # this sentinel; a walk around a cycle that no member reaches yet starts
        # on it, stays on it and writes nothing
        unknown = 2 * m * gens[-1]
        apery = [0] + [unknown] * (m - 1)
        for g in gens[1:]:
            cycles = math.gcd(g, m)
            for start in range(cycles):
                n = min(apery[start::cycles])
                for _ in range(m // cycles - 1):
                    n += g
                    p = n % m
                    if apery[p] < n:
                        n = apery[p]
                    else:
                        apery[p] = n
        self._apery = tuple(apery)

    @property
    def frontier(self) -> int:
        """The conductor: every integer at or beyond this bound is a member."""
        return max(self._apery) - self.generators[0] + 1

    def contains(self, n: int) -> bool:
        return n >= self._apery[n % self.generators[0]]

    def __contains__(self, n: int) -> bool:
        return self.contains(n)

    def gaps(self) -> tuple[int, ...]:
        """The finitely many nonnegative integers outside the monoid; a
        conductor past ``factolab.linalg.MAX_STEPS`` raises BudgetExceeded."""
        frontier = self.frontier
        if frontier > linalg.MAX_STEPS:  # checked before the candidates are scanned
            raise BudgetExceeded(f"conductor {frontier} exceeds the budget of {linalg.MAX_STEPS} steps")
        return tuple(n for n in range(frontier) if not self.contains(n))

    def __repr__(self) -> str:
        return f"NumericalMonoid{self.generators}"


class MonoidPresentation(Frozen):
    """k generator vectors in Q^d, understood additively."""

    def __init__(self, ambient_dim: int, generators: tuple[QVector, ...], label: Optional[str] = None):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        if not generators:
            raise InvalidGenerator("a presentation needs at least one generator")
        for j, g in enumerate(generators):
            if len(g) != ambient_dim:
                raise InvalidGenerator(f"generator {j} has {len(g)} coordinates, not {excerpt(ambient_dim)}")
        self.__dict__.update(ambient_dim=ambient_dim, generators=generators, label=label)

    def _key(self) -> tuple:
        return self.ambient_dim, self.generators, self.label

    @classmethod
    def from_generators(cls, generators: Sequence[Iterable], label: Optional[str] = None) -> "MonoidPresentation":
        gens = tuple(as_element(g) for g in generators)
        return cls(len(gens[0]) if gens else 1, gens, label)

    @classmethod
    def from_values(cls, values: Sequence, label: Optional[str] = None) -> "MonoidPresentation":
        """Convenience constructor for submonoids of Q: one rational per generator."""
        return cls(1, tuple((q,) for q in _coordinates(values, parse_rational)), label)

    @property
    def atom_count(self) -> int:
        return len(self.generators)

    @cached_property
    def integer_form(self) -> "IntegerForm":
        """The validated integer form, built on first use and kept."""
        return IntegerForm(self)

    @cached_property
    def rank_one(self):
        """``(unit, numerical)`` of a monoid of positive rationals, built on first use and kept.

        A rational ``x`` lies in the monoid iff ``x / unit`` is a nonnegative
        integer in the :class:`NumericalMonoid` ``numerical``.
        """
        if self.ambient_dim != 1:
            raise ValueError("exponent monoids must be one-dimensional")
        values = [g[0] for g in self.generators]
        if any(v <= 0 for v in values):
            raise ValueError("exponent monoid generators must be positive")
        denominator = math.lcm(*(v.denominator for v in values))
        numerators = [v.numerator * (denominator // v.denominator) for v in values]
        common = math.gcd(*numerators)
        return Fraction(common, denominator), NumericalMonoid([n // common for n in numerators])

    def evaluate(self, exponents: Sequence[int]) -> QVector:
        """The element sum_i exponents[i] * generator[i].  An exponent may be
        negative, as in a kernel vector; one that is not an ``int`` (a ``bool``
        included) raises ``ValueError``."""
        exponents = _coordinates(exponents, lambda m: integer(m, "exponent"))
        if len(exponents) != self.atom_count:
            raise DimensionMismatch("exponent vector length does not match generator count")
        out = [Fraction(0)] * self.ambient_dim
        for m, g in zip(exponents, self.generators):
            if m:
                for i in range(self.ambient_dim):
                    out[i] += m * g[i]
        return tuple(out)

    def to_json_dict(self) -> dict:
        data = {
            "dim": self.ambient_dim,
            "generators": [[format_rational(c) for c in g] for g in self.generators],
        }
        if self.label is not None:
            data["label"] = self.label
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "MonoidPresentation":
        if not isinstance(data, dict) or "dim" not in data or "generators" not in data:
            raise ValueError("presentation JSON needs 'dim' and 'generators' fields")
        dim, rows = data["dim"], data["generators"]
        if type(dim) is not int:
            raise ValueError(f"'dim' must be an integer, got {excerpt(repr(dim))}")
        if not isinstance(rows, list) or not all(isinstance(g, list) for g in rows):
            raise ValueError("'generators' must be a list of lists of rationals")
        gens = tuple(as_element(g) for g in rows)
        label = data.get("label")
        if label is not None and not isinstance(label, str):
            raise ValueError(f"'label' must be a string, got {excerpt(repr(label))}")
        return cls(dim, gens, label)


# ---------------------------------------------------------------------------
# validation and grading
# ---------------------------------------------------------------------------


def validate_presentation(presentation: MonoidPresentation) -> Grading:
    """Check pointedness and return a positive grading, min-normalized to 1.

    A presentation is pointed exactly when no nonzero nonnegative integer
    vector annihilates the generators; by duality this is equivalent to the
    existence of a rational functional h with h(g) > 0 for every generator.
    On failure the dual certificate is produced as a NotPointed witness.
    The check runs once per presentation, in its integer form.
    """
    return presentation.integer_form.grading


# ---------------------------------------------------------------------------
# the integer form and its search
# ---------------------------------------------------------------------------


class Reduction(NamedTuple):
    """The integer Gauss-Jordan form T X = R of the columns X, pivots taken last
    column first.  A free column then lies in the span of the pivot columns
    after it, so a lexicographic walk of the free exponents is lexicographic in
    z.  The last free exponent m solves w m = acc (mod lead) in every pivot
    row.  ``rows`` combines these congruences by the Chinese remainder
    theorem, in row order: ``(row, w, gcd, modulus, inverse, size)``, where
    ``size`` is the product of the moduli before, so that m = m0 + size t
    for the m0 they leave; gcd = gcd(w size, lead) must divide acc - w m0,
    and then t = (acc - w m0) / gcd * inverse (mod modulus).  The product of
    all moduli is ``step``, and ``move``, in column order, is the kernel
    vector by which a solution changes when m grows by ``step``.
    ``floors``: :func:`_floors` under the form's grades."""

    transforms: tuple[IntVector, ...]  # T; its rows past the pivot rows vanish on X
    leads: IntVector  # per pivot row, the only nonzero entry of its column in R, > 0
    free: IntVector  # the free column indices
    columns: tuple[IntVector, ...]  # the free columns of R
    order: IntVector  # puts the free, then the pivot exponents in column order
    floors: tuple
    rows: tuple[tuple[int, int, int, int, int, int], ...]
    step: int
    move: IntVector


class IntegerForm:
    """A validated presentation in integers, built once on first use.

    Coordinate row i times ``scales[i]`` makes every generator an integer
    column.  The validated grading h becomes integer ``weights`` u on the
    scaled coordinates with u . X = ``unit`` * h(x) for the least integer
    unit > 0; ``grades`` are the generators' grades u . x.  Both scalings are
    positive, so they keep every relation, factorization and order of
    elements.  Every search runs under these grades, on ``reduction``, an
    elimination of the columns.  Only :attr:`grading`, the rational h, holds
    fractions; it is built on first use.

    ``answers`` keeps the recent answers of :func:`enumerate_factorizations`,
    :func:`length_set` and :func:`atomic_divisors`, so that a query asked
    again costs one lookup after one pass over the element's coordinates
    (see :meth:`recall`).  ``atoms_only`` records that :func:`require_atoms`
    passed, and ``relation_search`` keeps the largest search of
    :func:`~factolab.classify.relation_evidence`, which a call at a bound up
    to its own answers with one slice.
    """

    def __init__(self, presentation: MonoidPresentation):
        ratios = [[c.as_integer_ratio() for c in g] for g in presentation.generators]
        self.scales = tuple(math.lcm(*(den for _, den in row)) for row in zip(*ratios))
        self.columns = tuple(
            tuple(num * (s // den) for (num, den), s in zip(g, self.scales)) for g in ratios
        )
        for j, column in enumerate(self.columns):
            if not any(column):
                raise InvalidGenerator(f"generator {j} is the zero vector")
        # u = h / s grades the columns as h grades the generators: the coordinate
        # sum, or the integer numerators of a Fourier-Motzkin point.  Neither a
        # positive rescaling of a variable nor the point's common denominator
        # moves h, which is min-normalized below.
        common = math.lcm(*self.scales)
        u = [common // s for s in self.scales]
        if any(sum(map(mul, u, x)) <= 0 for x in self.columns):
            solved = fourier_motzkin([(*x, 1) for x in self.columns], len(self.scales))
            u = None if solved is None else solved[0]
        if u is None:  # no positive grading, so a nonnegative relation exists
            k = len(self.columns)
            nonneg = [tuple(-1 if j == i else 0 for j in range(k)) for i in range(k)]
            for i in range(k):
                strict = tuple(1 if j == i else 0 for j in range(k))
                witness = homogeneous_lp_witness(self.kernel, strict, nonneg)
                if witness is not None:
                    raise NotPointed(witness)
            raise InternalContradiction("no grading found and no nonnegative kernel witness either")
        # the weights are u / low over the least common denominator ``unit``
        low = min(sum(map(mul, u, x)) for x in self.columns)
        if low <= 0:
            raise InternalContradiction("the grading point does not grade every generator positively")
        self.unit = math.lcm(*(low // math.gcd(w, low) for w in u))
        self.weights = tuple(w * self.unit // low for w in u)
        self.grades = tuple(sum(map(mul, self.weights, x)) for x in self.columns)
        # whether require_atoms passed
        self.atoms_only = False
        # (budget, steps, grades, relations) of the largest search classify.relation_evidence
        # completed; budget 0 answers no call
        self.relation_search: tuple[int, int, Sequence[int], Sequence] = 0, 0, (), ()
        # (query, target, MAX_STEPS) -> answer, least recently used first, and their weight
        self.answers: OrderedDict[tuple, Collection] = OrderedDict()
        self.answer_weight = 0

    def recall(self, query: Callable[["IntegerForm", IntVector], Collection], target: IntVector) -> Collection:
        """``query(self, target)``, answered from ``answers`` when the same
        query on the same target was answered under the same
        ``factolab.linalg.MAX_STEPS``.  Only an answer is kept, never an
        exception, so a call under another budget walks afresh and succeeds
        or fails exactly as a fresh walk would.  An answer must be immutable,
        and weighs its length + 1; the least recently used answers are
        dropped while the kept weight exceeds ``ANSWER_WEIGHT_CAP``, and an
        answer heavier than the whole cap is returned but not kept."""
        key = query, target, linalg.MAX_STEPS
        answers = self.answers
        answer = answers.get(key)
        if answer is not None:
            answers.move_to_end(key)
            return answer
        answer = query(self, target)
        weight = len(answer) + 1
        if weight <= ANSWER_WEIGHT_CAP:
            answers[key] = answer
            self.answer_weight += weight
            while self.answer_weight > ANSWER_WEIGHT_CAP:
                self.answer_weight -= len(answers.popitem(last=False)[1]) + 1
        return answer

    @cached_property
    def grading(self) -> Grading:
        """The rational grading h = s * u / unit, min-normalized to 1."""
        return Grading(tuple(Fraction(s * w, self.unit) for s, w in zip(self.scales, self.weights)))

    @cached_property
    def kernel(self) -> LatticeBasis:
        return integer_kernel(zip(*self.columns))

    @cached_property
    def reduction(self) -> Reduction:
        d, k = len(self.scales), len(self.columns)
        rows = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(zip(*self.columns))]
        pivots: list[int] = []
        for j in reversed(range(k)):
            p = next((i for i in range(len(pivots), d) if rows[i][j]), None)
            if p is None:
                continue
            g = math.gcd(*rows[p]) * (1 if rows[p][j] > 0 else -1)
            lead = [x // g for x in rows[p]]
            rows[p], rows[len(pivots)] = rows[len(pivots)], lead
            for i, row in enumerate(rows):
                if row is not lead and row[j]:
                    row = [lead[j] * x - row[j] * y for x, y in zip(row, lead)]
                    g = math.gcd(*row)
                    rows[i] = [x // g for x in row]
            pivots.append(j)
        leads = tuple(rows[i][j] for i, j in enumerate(pivots))
        free = [j for j in range(k) if j not in pivots]
        columns = tuple(tuple(row[j] for row in rows[:len(pivots)]) for j in free)
        order = tuple(sorted(range(k), key=(free + pivots).__getitem__))
        congruences, step, move = [], 1, [0] * k
        if free:
            for r, (w, lead) in enumerate(zip(columns[-1], leads)):
                g = math.gcd(w * step, lead)
                congruences.append((r, w, g, lead // g, pow(w * step // g, -1, lead // g), step))
                step *= lead // g
            shift = [0] * (len(free) - 1) + [step] + [-w * step // lead for w, lead in zip(columns[-1], leads)]
            move = list(map(shift.__getitem__, order))
        transforms = tuple(tuple(row[k:]) for row in rows)
        floors = _floors(columns, [self.grades[j] for j in free])
        return Reduction(transforms, leads, tuple(free), columns, order, floors, tuple(congruences), step, tuple(move))

    def _leaves(self, target: IntVector, expand: bool) -> Iterator[tuple[FactorizationVector, int]]:
        """Every z >= 0 with X z == target, in lexicographic order, as leaves
        ``(first, count)``: a walked prefix of the free exponents, with the
        ``count`` solutions ``first + t * move`` for 0 <= t < count.

        Each z has the target's own grade u . target under ``grades``, which
        caps every free exponent at that grade over its column's.  The free
        exponents before the last are walked in lexicographic order: the
        search of Contejean and Devie, bounded by the grade.  ``acc`` is what
        the prefix leaves of the target's image T target, and ``left`` what it
        leaves of the grade.  A prefix set last at position p whose acc some
        entry of ``floors[p + 1]`` proves dead is skipped with its subtree.
        If ``floors[p]``, which also covers column p, proves it dead too, so
        is every later value at p, and the walk leaves position p at once
        (see :func:`_floors`).  At a live prefix each pivot row bounds the
        last free exponent m, below the grade cap left / grade: m <= acc / w
        where w > 0, m >= acc / w where w < 0, and acc >= 0 where w = 0.
        ``rows`` solve the rows' congruences to m = m0 (mod ``step``).  Every
        m of that progression within the bounds is a solution, and each
        pivot exponent an exact division.  Each prefix reached, dead or not,
        is a step; so is each leaf, or, when ``expand``, each solution in it.
        More than ``factolab.linalg.MAX_STEPS`` steps raise BudgetExceeded."""
        transforms, leads, free, columns, order, floors, rows, step, _ = self.reduction
        acc = [sum(map(mul, row, target)) for row in transforms]
        if any(acc[len(leads):]):  # outside the span of the columns
            return
        if not free:  # independent columns: one candidate
            pivots = [divmod(b, lead) for b, lead in zip(acc, leads)]
            if all(not rest and q >= 0 for q, rest in pivots):
                yield tuple(pivots[j][0] for j in order), 1
            return
        left = sum(map(mul, self.weights, target))
        if left < 0:
            return
        grades = [self.grades[j] for j in free]
        last, last_grade, w_last = len(columns) - 1, grades[-1], columns[-1]
        max_steps, steps = linalg.MAX_STEPS, 0
        z = [0] * last
        i = -1  # the position set last (-1 at the root); every later one is 0
        while True:
            steps += 1
            leaf = cut = None
            for r, num, den in floors[i + 1]:
                if acc[r] * den < left * num:  # a dead prefix; and its position, if floors[i] says so
                    for r, num, den in floors[i] if i >= 0 else ():
                        if acc[r] * den < left * num:
                            cut = True
                            break
                    break
            else:
                i = last - 1
                m0, low, top = 0, 0, left // last_grade
                for r, w, g, modulus, inverse, size in rows:
                    b = acc[r]
                    t, rest = divmod(b - w * m0, g)
                    if rest:
                        break
                    m0 += size * (t * inverse % modulus)
                    if w > 0:
                        if b < w * top:
                            top = b // w
                    elif w < 0:
                        if b < w * low:
                            low = -(b // -w)  # the ceiling of b / w
                    elif b < 0:
                        break
                else:
                    first = low + (m0 - low) % step
                    if first <= top:
                        count = (top - first) // step + 1
                        steps += count if expand else 1
                        vector = [*z, first]
                        for b, w, lead in zip(acc, w_last, leads):
                            vector.append((b - w * first) // lead)
                        leaf = tuple(map(vector.__getitem__, order)), count
            if steps > max_steps:
                raise BudgetExceeded(f"search exceeded its budget of {max_steps} steps")
            if leaf:
                yield leaf
            # the lexicographic successor of the prefix z within the grade;
            # after a dead prefix, the first one past its subtree, or past
            # position i after a cut
            while i >= 0 and (cut or left < grades[i]):
                cut = False
                left += z[i] * grades[i]
                for r, c in enumerate(columns[i]):
                    acc[r] += z[i] * c
                z[i] = 0
                i -= 1
            if i < 0:
                return
            z[i] += 1
            left -= grades[i]
            for r, c in enumerate(columns[i]):
                acc[r] -= c

    def solutions(self, target: IntVector) -> Iterator[FactorizationVector]:
        """Every z >= 0 with X z == target, in lexicographic order: each leaf
        of the walk, expanded along ``move``, with each solution a step."""
        move = self.reduction.move
        for z, count in self._leaves(target, True):
            yield z
            while count > 1:
                z = tuple(map(add, z, move))
                yield z
                count -= 1

    @cached_property
    def atom_defects(self) -> tuple[Optional[FactorizationVector], ...]:
        """Per generator, its lexicographically first decomposition of length
        >= 2, or None when it is an atom.  :func:`_atom_by_bounds` settles most
        atoms; the walk of every other generator stops at its first
        decomposition, under the budget of :meth:`solutions`."""
        rows = (self.grades, *zip(*self.columns))
        return tuple(
            None if _atom_by_bounds(rows, (grade, *target)) else
            next((z for z in self.solutions(target) if sum(z) >= 2), None)
            for target, grade in zip(self.columns, self.grades)
        )


def _atom_by_bounds(rows: Sequence[IntVector], target: IntVector) -> bool:
    """Whether integer bounds alone show that no z >= 0 of length >= 2 has
    X z = target; ``rows`` are the grades, then the rows of X.

    Take a row in which every column still usable has an entry >= 0, the
    least being ``lo``.  A decomposition of length >= 2 that uses column c
    also uses at least one more unit, which adds at least ``lo``, so c is
    usable only if its entry is <= target - lo.  The mirror holds for a row
    of entries <= 0.  On the grade row, whose entries are positive, this
    drops the target's own column and every column of grade above it.  The
    rule repeats until nothing is dropped; with no column left, or a row
    whose gcd does not divide the target, the target is an atom."""
    usable: Sequence[int] = range(len(rows[0]))
    size = -1
    while size != len(usable):
        size = len(usable)
        for row, t in zip(rows, target):
            entries = [row[c] for c in usable]
            lo, hi = min(entries), max(entries)
            if lo >= 0 and hi > t - lo:
                usable = [c for c in usable if row[c] <= t - lo]
            if hi <= 0 and lo < t - hi:
                usable = [c for c in usable if row[c] >= t - hi]
            if not usable:
                return True
    for row, t in zip(rows, target):
        g = math.gcd(*(row[c] for c in usable))
        if t % g if g else t:
            return True
    return False


def _floors(columns: Sequence[IntVector], grades: Sequence[int]) -> tuple:
    """Per walk position p >= -1, at index p + 1: ``(i, num, den)`` for each
    pivot row i, where num / den = min(0, min_{j>p} columns[j][i] / grades[j]).
    The exponents after p, of grade <= left, add at least left * num / den to
    row i, so a prefix with acc_i < left * num / den is dead.  The entry at
    index p covers column p too: a prefix set last at p that it proves dead
    stays dead when the exponent at p grows, as that only moves grade from
    left into column p.  No entries in rank one, where acc is a positive
    multiple of the grade left and never cuts first, nor for one free
    column, whose lone root the leaf rule settles."""
    if len(columns) < 2 or len(columns[0]) == 1:
        return ((),) * len(columns)
    floors = []
    for q in range(len(columns)):
        bounds = []
        for i in range(len(columns[0])):
            num, den = 0, 1  # compared by cross-multiplication, as every grade is positive
            for c, g in zip(columns[q:], grades[q:]):
                if c[i] * den < num * g:
                    num, den = c[i], g
            bounds.append((i, num, den))
        floors.append(tuple(bounds))
    return tuple(floors)


# ---------------------------------------------------------------------------
# factorization enumeration
# ---------------------------------------------------------------------------


def _target(presentation: MonoidPresentation, element: Iterable) -> Optional[IntVector]:
    """The element as a column of the integer form, or None when a coordinate
    lies off the scaled integer grid, so that it is not in the monoid.  Each
    coordinate is read once, as an integer ratio, and scaled in one pass."""
    ratios = _coordinates(element, integer_ratio)
    if len(ratios) != presentation.ambient_dim:
        raise DimensionMismatch("element does not live in the ambient space")
    target = []
    for (num, den), s in zip(ratios, presentation.integer_form.scales):
        if s % den:
            return None
        target.append(num * (s // den))
    return tuple(target)


def enumerate_factorizations(presentation: MonoidPresentation, element: Iterable) -> tuple[FactorizationVector, ...]:
    """All exponent vectors z with sum_i z_i g_i = element, sorted lexicographically.

    The validated grading h caps every exponent: z_i <= h(x) / h(g_i).  The
    result does not depend on it.  The empty tuple means the element is not in
    the monoid.  Generators need not be atoms; the result then lists generator
    decompositions.  A search longer than the budget of
    :meth:`IntegerForm.solutions` raises BudgetExceeded.  The answer is kept
    by :meth:`IntegerForm.recall`, and the same tuple is returned when the
    element is asked again under the same budget.
    """
    target = _target(presentation, element)
    return () if target is None else presentation.integer_form.recall(_factorizations, target)


def _factorizations(form: IntegerForm, target: IntVector) -> tuple[FactorizationVector, ...]:
    return tuple(form.solutions(target))


def length_set(presentation: MonoidPresentation, element: Iterable) -> set[int]:
    """The set of factorization lengths of the element.

    Along a leaf of the walk the length is affine in the last free exponent:
    each step of ``move`` adds its sum, the slope.  So each leaf adds one
    arithmetic progression of lengths, ORed into the bits of one int, and
    counts as one step.  Every length lies between grade / g_max and
    grade / g_min, for the element's grade and the generators' largest and
    least grades; bit i stands for the least of these lengths plus i.  When
    more lengths than ``factolab.linalg.MAX_STEPS`` lie between them, the
    lengths are read off each solution instead, counted as
    :meth:`IntegerForm.solutions` counts.  The answer is kept as a frozenset
    by :meth:`IntegerForm.recall`, and every call returns a fresh set built
    from it, so a caller may change the set it gets."""
    target = _target(presentation, element)
    return set() if target is None else set(presentation.integer_form.recall(_lengths, target))


def _lengths(form: IntegerForm, target: IntVector) -> frozenset[int]:
    grade = sum(map(mul, form.weights, target))
    low = -(-grade // max(form.grades))
    if grade // min(form.grades) - low >= linalg.MAX_STEPS:
        return frozenset(sum(z) for z in form.solutions(target))
    slope = sum(form.reduction.move)
    gap = abs(slope)
    bits = 0
    for z, count in form._leaves(target, False):
        start = sum(z) - low
        if count > 1 and slope:  # start, start + slope, ..., from the least end
            bits |= ((1 << gap * count) - 1) // ((1 << gap) - 1) << min(start, start + (count - 1) * slope)
        else:
            bits |= 1 << start
    return frozenset(low + i for i, bit in enumerate(bin(bits)[:1:-1]) if bit == "1")


def atomic_divisors(presentation: MonoidPresentation, element: Iterable) -> set[int]:
    """Indices of generators appearing in at least one factorization.  Each
    leaf of the walk counts as one step and reads its support off its two
    end points: every exponent is affine along it, so one that ``move``
    changes is positive at an end of a leaf of two or more solutions.  The
    walk stops once every generator has appeared, so its budget is spent
    only while one is still missing.  The answer is kept as a frozenset by
    :meth:`IntegerForm.recall`, and every call returns a fresh set built
    from it, so a caller may change the set it gets."""
    target = _target(presentation, element)
    return set() if target is None else set(presentation.integer_form.recall(_divisors, target))


def _divisors(form: IntegerForm, target: IntVector) -> frozenset[int]:
    divisors: set[int] = set()
    indices = range(len(form.columns))
    moving = list(compress(indices, form.reduction.move))
    for z, count in form._leaves(target, False):
        divisors.update(compress(indices, z))
        if count > 1:
            divisors.update(moving)
        if len(divisors) == len(indices):
            break
    return frozenset(divisors)


# ---------------------------------------------------------------------------
# atom normalization
# ---------------------------------------------------------------------------


def _duplicates(form: IntegerForm) -> dict[int, int]:
    """Index of every repeated generator -> index of its first occurrence.
    Two generators are equal exactly when their scaled columns are."""
    first: dict[IntVector, int] = {}
    return {
        i: first[x]
        for i, x in enumerate(form.columns)
        if first.setdefault(x, i) != i
    }


def normalize_atoms(presentation: MonoidPresentation) -> MonoidPresentation:
    """Reduce the generator list to the atoms by dropping duplicates and
    reducible generators, which leaves the monoid as it is.  Atomicity is
    decided against the full monoid, so the result does not depend on the
    order in which defects are found."""
    form = presentation.integer_form
    drop = set(_duplicates(form))
    drop.update(i for i, witness in enumerate(form.atom_defects) if witness is not None)
    if not drop:
        return presentation
    survivors = tuple(g for i, g in enumerate(presentation.generators) if i not in drop)
    return MonoidPresentation(presentation.ambient_dim, survivors, presentation.label)


def require_atoms(presentation: MonoidPresentation) -> IntegerForm:
    """Validate and demand that the presentation lists exactly the atoms:
    the first defect raises DuplicateGenerator or NotAnAtom.  Returns the
    integer form, without building its rational grading.  The form records
    in ``atoms_only`` that it passed, so the scan runs once per form; one
    that fails is scanned again, and raises the same, on every call."""
    form = presentation.integer_form
    if not form.atoms_only:
        for i, original in _duplicates(form).items():
            raise DuplicateGenerator(i, original)
        for i, witness in enumerate(form.atom_defects):
            if witness is not None:
                raise NotAnAtom(i, witness)
        form.atoms_only = True
    return form


def ensure_normalized(presentation: MonoidPresentation) -> Grading:
    """:func:`require_atoms`, returning the validated grading."""
    return require_atoms(presentation).grading
