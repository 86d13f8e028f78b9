"""Properties of the package source itself."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "factolab"


def _is_assertion(node: ast.AST) -> bool:
    """An assert statement, or a raise of AssertionError, bare or called."""
    if isinstance(node, ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"
    return isinstance(node, ast.Assert)


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check written as one vanishes;
    # an internal defect raises InternalContradiction, not AssertionError
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if _is_assertion(node)
    ]
    assert found == []


def test_no_floating_point_in_the_package():
    # every number is an int or a Fraction: a float name or constant would
    # round where the package promises exact results
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if (isinstance(node, ast.Name) and node.id == "float")
        or (isinstance(node, ast.Constant) and isinstance(node.value, float))
    ]
    assert found == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py is skipped: its imports are the package's re-exports
    modules = [p for p in sorted(PACKAGE.rglob("*.py")) if p.name != "__init__.py"]
    modules += sorted(Path(__file__).resolve().parent.glob("*.py"))
    assert len(modules) > 10
    assert [entry for path in modules for entry in _unused_imports(path)] == []


def _fresh(code: str) -> list[str]:
    """Run ``code`` in a new interpreter, which must load neither
    ``dataclasses`` nor ``inspect``; the names of the modules it loaded."""
    code += "\nimport sys; print(*sorted(sys.modules), file=sys.stderr)"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = result.stderr.splitlines()[-1].split()
    # dataclasses, with the inspect, ast and dis it pulls in, costs every CLI call about 10 ms
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)
    return loaded


def test_import_loads_neither_construct_nor_semiring():
    loaded = _fresh("import factolab")
    assert "factolab.classify" in loaded
    assert "factolab.construct" not in loaded and "factolab.semiring" not in loaded


def test_lazy_names_resolve():
    loaded = _fresh(
        "import factolab\n"
        "namespace = {}\n"
        "exec('from factolab import *', namespace)\n"
        "assert sorted(set(namespace) - {'__builtins__'}) == sorted(factolab.__all__)\n"
        "assert all(namespace[name] is getattr(factolab, name) for name in factolab.__all__)\n"
        "from factolab.semiring import natural_atom_test\n"
        "assert factolab.natural_atom_test is natural_atom_test\n"
        "assert callable(factolab.classify) and factolab.classify.__module__ == 'factolab.classify'\n"
        "assert not hasattr(factolab, 'no_such_name')\n"
    )
    assert "factolab.construct" in loaded and "factolab.semiring" in loaded


def test_lazy_table_matches_the_layer_name_lists():
    import factolab
    from factolab import construct, semiring

    expected = {name: "construct" for name in construct.__all__}
    expected |= {name: "semiring" for name in semiring.__all__ if name != "InternalContradiction"}
    assert factolab._LAZY == expected


@pytest.mark.parametrize("argv, absent", [
    (["analyze", "{p}"], {"construct", "semiring"}),
    (["factorize", "{p}", "--element", "12"], {"construct", "semiring"}),
    (["evidence", "{p}", "--bound", "6"], {"construct", "semiring"}),
    (["gallery", "--k", "3"], {"semiring"}),
    (["construct-master", "--long", "3", "--short", "2"], {"semiring"}),
    (["pls-example", "1", "1"], {"semiring"}),
    (["semiring-atom", "{poly}"], {"construct"}),
    (["algebra-witness", "2", "3"], {"construct"}),
    (["case1", "{p}", "0", "1"], {"construct"}),
])
def test_subcommand_loads_only_its_layers(tmp_path, argv, absent):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"dim": 1, "generators": [["2"], ["3"]]}))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"coeff_domain": "N", "monoid": "N0", "terms": [["0", "2"], ["1", "2"], ["2", "1"]]}))
    argv = [arg.format(p=p, poly=poly) for arg in argv]
    loaded = _fresh(f"import factolab.cli\nassert factolab.cli.main({argv!r}) == 0")
    assert "factolab.cli" in loaded
    assert {f"factolab.{layer}" for layer in absent}.isdisjoint(loaded)


def _record_cases():
    """Per record class: the class, its fields, one compared field with another
    value, and the field left out of ``==`` and ``hash`` with another value."""
    from factolab import (AlgebraWitness, ClassificationReport, FactorizationRelation, Fixture, Grading,
                          LatticeBasis, MasterSpec, MonoidPresentation, SemiringPolynomial, algebra_witness,
                          classify)

    p23 = MonoidPresentation.from_values([2, 3])
    return {
        "LatticeBasis": (LatticeBasis, {"dim": 2, "vectors": ((3, -2),)}, ("vectors", ((2, -3),)), None),
        "Grading": (Grading, {"weights": (Fraction(1), Fraction(3, 2))}, ("weights", (Fraction(1),)), None),
        "MonoidPresentation": (MonoidPresentation, {"ambient_dim": 1, "generators": p23.generators, "label": "p"},
                               ("label", None), None),
        "FactorizationRelation": (FactorizationRelation, {"left": (3, 0), "right": (0, 2)},
                                  ("right", (0, 3)), None),
        "ClassificationReport": (ClassificationReport, classify(p23)._asdict(), ("is_lfm", False), None),
        "MasterSpec": (MasterSpec, {"long_side": (3,), "short_side": (2,)}, ("short_side", (1, 1)), None),
        "Fixture": (Fixture, {"name": "pair", "presentation": p23, "expected": {"is_lfm": True}},
                    ("name", "other"), ("expected", {})),
        "SemiringPolynomial": (SemiringPolynomial, {"index_terms": ((1, 1), (0, 2)), "coeff_domain": "N",
                                                    "exponent_monoid": None}, ("coeff_domain", "Q"), None),
        "AlgebraWitness": (AlgebraWitness, algebra_witness(2, 3)._asdict(), ("c", 99), None),
    }


@pytest.mark.parametrize("name", ["LatticeBasis", "Grading", "MonoidPresentation", "FactorizationRelation",
                                  "ClassificationReport", "MasterSpec", "Fixture", "SemiringPolynomial",
                                  "AlgebraWitness"])
def test_records_compare_hash_and_refuse_assignment(name):
    cls, fields, (changed, value), ignored = _record_cases()[name]
    first, second = cls(**fields), cls(**fields)
    assert first == second and not first != second
    assert first != cls(**{**fields, changed: value})
    if name == "ClassificationReport":  # its witnesses are a dict, so it has no hash
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
    if name == "AlgebraWitness":  # numerical is read off the monoid, not stored
        assert first.numerical is first.monoid.rank_one[1] and hash(first) == hash(tuple(first))
    if ignored:
        other = cls(**{**fields, ignored[0]: ignored[1]})
        assert other == first and hash(other) == hash(first)
    with pytest.raises(AttributeError):
        setattr(first, changed, value)
    assert getattr(first, changed) == fields[changed]


def test_records_cache_their_derived_forms():
    from factolab import MonoidPresentation, SemiringPolynomial

    p = MonoidPresentation.from_values([Fraction(1, 2), Fraction(1, 3)])
    assert p.integer_form is p.integer_form
    f = SemiringPolynomial.from_terms([(Fraction(1, 2), 3), (0, 1)], "N", p)
    assert f.terms is f.terms and f.terms == ((Fraction(1, 2), Fraction(3)), (0, Fraction(1)))
