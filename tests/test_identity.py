"""A digest of the package's outputs on seeded presentations.

Refactors that claim to keep every output are held to that here: the digest
covers normalization, classification, factorization queries and the relation
oracle on random presentations, and the PLS constructions.  A change that
alters any of these outputs on purpose updates ``DIGEST`` and says why.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from factolab import (
    MonoidPresentation,
    atomic_divisors,
    classify,
    enumerate_factorizations,
    length_set,
    normalize_atoms,
    pls_example,
    relation_evidence,
)
from factolab.linalg import BudgetExceeded
from factolab.monoid import IntegerForm

from helpers import Counted

DIGEST = "22bbccef4b7f98b63b9cf158445ddb019165fe437ad4e71862d3f3caad966fd3"


def outcome(call):
    """The JSON-ready result of ``call()``, or the type and message it raised."""
    try:
        return call()
    except (ValueError, BudgetExceeded) as exc:
        return [type(exc).__name__, str(exc)]


def draw(rng):
    """(generators, two exponent vectors over them, a loose element)."""
    d, k = rng.randint(1, 3), rng.randint(2, 7)

    def entry():
        return Fraction(rng.randint(-4, 6), rng.choice((1, 2, 3)))

    gens = [tuple(entry() for _ in range(d)) for _ in range(k)]
    exponents = [rng.randint(0, 3) for _ in range(k)]
    loose = tuple(entry() for _ in range(d))
    return gens, exponents, loose


def records(seed):
    rng = random.Random(seed)
    survivors = 0
    for _ in range(300):
        gens, exponents, loose = draw(rng)
        try:
            p = MonoidPresentation.from_generators(gens)
            q = normalize_atoms(p)
        except (ValueError, BudgetExceeded) as exc:
            yield [type(exc).__name__, str(exc)]
            continue
        survivors += 1
        yield q.to_json_dict()
        yield outcome(lambda: classify(q).to_json_dict())
        for x in (p.evaluate(exponents), loose):
            yield outcome(lambda: [list(z) for z in enumerate_factorizations(q, x)])
            yield outcome(lambda: sorted(length_set(q, x)))
            yield outcome(lambda: sorted(atomic_divisors(q, x)))
        for bound in (-1, 0, Fraction(7, 2), 6):
            yield outcome(lambda: [r.to_json_dict() for r in relation_evidence(q, bound)])
    yield survivors


def test_outputs_match_the_pinned_digest(monkeypatch):
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 10**5)
    digest = hashlib.sha256()
    for seed in (1, 2):
        for record in records(seed):
            digest.update(json.dumps(record, sort_keys=True).encode())
            digest.update(b"\n")
    for purely_long in range(1, 4):
        for purely_short in range(1, 4):
            digest.update(json.dumps(pls_example(purely_long, purely_short).to_json_dict()).encode())
    assert digest.hexdigest() == DIGEST


def test_a_second_pass_reads_the_kept_answers(monkeypatch):
    # the 918 factorization queries of the digest's draws of seed 1, none of
    # which raises, asked twice of the same presentation objects: the second
    # pass gives the same answers without a walk
    monkeypatch.setattr("factolab.linalg.MAX_STEPS", 10**5)
    queries = []
    rng = random.Random(1)
    for _ in range(300):
        gens, exponents, loose = draw(rng)
        try:
            p = MonoidPresentation.from_generators(gens)
            q = normalize_atoms(p)
        except (ValueError, BudgetExceeded):
            continue
        queries += [(query, q, x) for x in (p.evaluate(exponents), loose)
                    for query in (enumerate_factorizations, length_set, atomic_divisors)]

    def answers():
        return [outcome(lambda: query(q, x)) for query, q, x in queries]

    first = answers()
    leaves = Counted(IntegerForm._leaves)
    monkeypatch.setattr(IntegerForm, "_leaves", lambda form, *args: leaves(form, *args))
    assert answers() == first
    assert not any(isinstance(answer, list) for answer in first)  # a raise reads [type, message]
    assert (len(queries), leaves.calls) == (918, 0)
