"""Master-monoid construction, pure-atom-count search, fixture gallery."""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

import factolab.cli as cli
import factolab.construct as construct
from factolab.classify import AtomLabel, FactorizationRelation, classify
from factolab.construct import (
    _CHECKED_FIELDS,
    Fixture,
    InvalidMasterSpec,
    MasterSpec,
    build_master_monoid,
    fixture_gallery,
    pls_example,
    verify_gallery,
)
from factolab.monoid import MonoidPresentation, validate_presentation
from helpers import reference_pls_spec


# ---------------------------------------------------------------------------
# MasterSpec admissibility
# ---------------------------------------------------------------------------


def test_master_spec_accepts_documented_examples():
    assert MasterSpec((3,), (2,)).kernel_vector() == (3, -2)
    assert MasterSpec((1, 1, 1), (1, 1)).kernel_vector() == (1, 1, 1, -1, -1)
    assert MasterSpec((1, 2), (2,)).long_count == 2


@pytest.mark.parametrize(
    "a, b",
    [
        ((), (2,)),  # empty side
        ((3,), ()),
        ((3, 0), (2,)),  # non-positive entry
        ((3,), (-2,)),
        ((2, 2), (2,)),  # joint gcd 2
        ((2,), (3,)),  # long side not longer
        ((1, 1), (2,)),  # equal lengths are not enough
        ((4,), (1,)),  # a lone short atom of multiplicity 1 is no atom
    ],
)
def test_master_spec_rejects_inadmissible(a, b):
    with pytest.raises(InvalidMasterSpec):
        MasterSpec(a, b)


def test_master_spec_rejects_non_integers():
    with pytest.raises(InvalidMasterSpec):
        MasterSpec((Fraction(3, 1), ), (2,))
    with pytest.raises(InvalidMasterSpec):
        MasterSpec((3.0,), (2,))


# ---------------------------------------------------------------------------
# build_master_monoid
# ---------------------------------------------------------------------------


def test_build_3_over_2_is_scaled_2_3():
    p = build_master_monoid(MasterSpec((3,), (2,)))
    assert p.ambient_dim == 1
    assert p.generators == ((Fraction(1),), (Fraction(3, 2),))
    report = classify(p)
    assert report.kernel_basis == ((3, -2),)
    assert report.master == FactorizationRelation((3, 0), (0, 2))
    assert report.is_lfm and not report.is_ufm


def test_build_places_requested_relation_as_master():
    spec = MasterSpec((1, 1, 1), (1, 1))
    p = build_master_monoid(spec)
    assert p.ambient_dim == 4
    assert p.generators[4] == (
        Fraction(1),
        Fraction(1),
        Fraction(1),
        Fraction(-1),
    )
    report = classify(p)
    assert report.kernel_rank == 1
    assert report.master == FactorizationRelation(
        (1, 1, 1, 0, 0), (0, 0, 0, 1, 1)
    )
    assert report.purely_long == (0, 1, 2)
    assert report.purely_short == (3, 4)
    assert report.labels.count(AtomLabel.NEITHER) == 0


def test_build_is_pointed_and_normalized():
    spec = MasterSpec((1, 2), (2,))
    p = build_master_monoid(spec)
    grading = validate_presentation(p)
    assert min(grading.grade(g) for g in p.generators) >= 1
    # classify would raise NotNormalized if any generator failed to be an atom
    assert classify(p).kernel_basis == ((1, 2, -2),)


def test_build_round_trips_all_small_specs():
    checked = 0
    for m, n in itertools.product((1, 2), repeat=2):
        for a in itertools.product(range(1, 4), repeat=m):
            for b in itertools.product(range(1, 4), repeat=n):
                try:
                    spec = MasterSpec(a, b)
                except InvalidMasterSpec:
                    continue
                report = classify(build_master_monoid(spec))
                left = (*a, *(0,) * n)
                right = (*(0,) * m, *b)
                assert report.master == FactorizationRelation(left, right)
                assert len(report.purely_long) == m
                assert len(report.purely_short) == n
                assert report.prime == ()
                checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# pls_example
# ---------------------------------------------------------------------------


def test_pls_example_1_1_is_the_3_over_2_monoid():
    p = pls_example(1, 1)
    assert p.generators == ((Fraction(1),), (Fraction(3, 2),))


def test_pls_example_3_2_uses_all_unit_multiplicities():
    p = pls_example(3, 2)
    assert p.atom_count == 5
    assert p.generators[4] == (
        Fraction(1),
        Fraction(1),
        Fraction(1),
        Fraction(-1),
    )


def test_pls_example_2_1_and_1_2():
    assert classify(pls_example(2, 1)).master == FactorizationRelation(
        (1, 2, 0), (0, 0, 2)
    )
    assert classify(pls_example(1, 2)).master == FactorizationRelation(
        (3, 0, 0), (0, 1, 1)
    )


def test_pls_example_counts_sweep():
    for long_count, short_count in itertools.product(range(1, 5), repeat=2):
        p = pls_example(long_count, short_count)
        report = classify(p)
        assert len(report.purely_long) == long_count
        assert len(report.purely_short) == short_count
        assert p.atom_count == long_count + short_count
        assert report.prime == ()
        assert AtomLabel.NEITHER not in report.labels
        assert report.master is not None


def test_pls_example_matches_the_reference_search():
    for long_count, short_count in itertools.product(range(1, 7), repeat=2):
        spec = MasterSpec(*reference_pls_spec(long_count, short_count))
        assert pls_example(long_count, short_count) == build_master_monoid(spec)


def test_pls_example_rejects_zero_counts():
    with pytest.raises(ValueError):
        pls_example(0, 1)
    with pytest.raises(ValueError):
        pls_example(1, 0)


def test_pls_example_is_deterministic():
    assert pls_example(2, 2) == pls_example(2, 2)


# ---------------------------------------------------------------------------
# fixture gallery
# ---------------------------------------------------------------------------


def test_gallery_is_clean_at_default_truncation():
    assert verify_gallery() == []


def test_gallery_names_are_unique_and_stable():
    gallery = fixture_gallery()
    names = [f.name for f in gallery]
    assert len(names) == len(set(names)) == 6
    assert names[0] == "lfm-pair-2-3"
    assert "pure-pair-with-neither-cloud-4" in names


@pytest.mark.parametrize("k", [2, 3, 5])
def test_gallery_verdicts_stable_under_truncation(k):
    gallery = fixture_gallery(truncation=k)
    assert verify_gallery(gallery) == []
    default = {f.name.rsplit("-", 1)[0]: f for f in fixture_gallery()}
    for fixture in gallery:
        stem = fixture.name.rsplit("-", 1)[0]
        if stem not in default:  # untruncated fixtures keep their full name
            continue
        base = default[stem].expected
        for field in ("is_ufm", "is_lfm", "is_hfm", "is_plsm",
                      "purely_long", "purely_short", "prime", "master"):
            assert fixture.expected[field] == base[field], (fixture.name, field)


def test_gallery_rejects_tiny_truncation():
    with pytest.raises(ValueError):
        fixture_gallery(truncation=1)


def test_verify_gallery_reports_mismatches():
    bad = Fixture(
        name="deliberately-wrong",
        presentation=MonoidPresentation.from_values([2, 3]),
        expected={"is_ufm": True, "kernel_rank": 1},
    )
    lines = verify_gallery([bad])
    assert len(lines) == 1
    assert "deliberately-wrong" in lines[0] and "is_ufm" in lines[0]


def test_verify_gallery_flags_unknown_fields():
    odd = Fixture(
        name="odd-field",
        presentation=MonoidPresentation.from_values([2, 3]),
        expected={"no_such_field": 1},
    )
    assert any("unknown expected field" in line for line in verify_gallery([odd]))


def test_gallery_ranks_scale_with_truncation():
    for k in (2, 3, 4):
        by_name = {f.name: f for f in fixture_gallery(truncation=k)}
        assert by_name[f"pure-pair-with-neither-cloud-{k}"].expected[
            "kernel_rank"
        ] == k
        assert by_name[f"signed-neither-cloud-{k}"].expected[
            "kernel_rank"
        ] == 2 * k
        assert by_name[f"half-factorial-strip-{k}"].expected[
            "kernel_rank"
        ] == k - 1


# ---------------------------------------------------------------------------
# pinned outputs of the gallery and the master builder
# ---------------------------------------------------------------------------


GALLERY_STDOUT_SHA256 = {
    2: "6e5afdf13b49637da6925cd95b245ea99985bff91514b0ab02656a5554f4939e",
    3: "682a325ff211be49cc0ce26e929db30d27016f9b33794c1b9d95b484e7464f10",
    4: "23ac9962b6d8405e9d831e7fc96061b6d161e68c1692e40e271b1dc5e10257ab",
    48: "18e298deaf00133ace4dd490deb311eaae982f25553fb474cfd3efec0d5d60c0",
}


@pytest.mark.parametrize("k", sorted(GALLERY_STDOUT_SHA256))
def test_gallery_stdout_is_pinned(k, capsys):
    assert cli.main(["gallery", "--k", str(k)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GALLERY_STDOUT_SHA256[k]


def test_master_sweep_presentations_are_pinned():
    """Every admissible spec with sides in {1..4}^{1..3}, hashed in order."""
    sides = [t for n in (1, 2, 3) for t in itertools.product(range(1, 5), repeat=n)]
    digest, count = hashlib.sha256(), 0
    for a, b in itertools.product(sides, sides):
        try:
            spec = MasterSpec(a, b)
        except InvalidMasterSpec:
            continue
        count += 1
        digest.update(json.dumps(build_master_monoid(spec).to_json_dict(), sort_keys=True).encode())
    assert count == 2939
    assert digest.hexdigest() == "49942eb9742b5f5631bc13fc79c5191a7bee9acb155dbc1e46738860e966b04e"


@pytest.mark.parametrize("k", [2, 4, 48])
def test_every_fixture_expects_exactly_the_checked_fields_in_order(k):
    for fixture in fixture_gallery(k):
        assert tuple(fixture.expected) == _CHECKED_FIELDS, fixture.name


def test_a_flipped_verdict_is_reported_by_every_fixture(monkeypatch):
    real = construct.classify
    monkeypatch.setattr(construct, "classify", lambda p: real(p)._replace(is_ufm=not real(p).is_ufm))
    lines = verify_gallery(fixture_gallery())
    assert len(lines) == 6
    assert [line.split(":")[0] for line in lines] == [f.name for f in fixture_gallery()]
    assert all(": is_ufm expected False, got True" in line for line in lines)
