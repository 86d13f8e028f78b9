"""Command-line interface.

Every subcommand reads JSON (from a file argument or stdin via ``-``) and/or
simple flags.  Its handler returns one JSON document and prints nothing;
``main`` writes that document to stdout (``indent=2, sort_keys=True``) and
maps the outcome to an exit code:

* 0 — success,
* 1 — bad input: unreadable file, malformed JSON (reported with line and
  column), or a value the library rejects,
* 2 — a usage error reported by argparse (unknown subcommand, missing or
  malformed argument), or ``gallery`` ran but at least one fixture disagreed
  with its expected classification (its document lists them under
  ``mismatches``),
* 3 — a search ran out of its step budget,
* 130 — interrupted (Ctrl-C), reported as one ``error: interrupted`` line,
* 141 — stdout was closed before the document was written, as by
  ``| head``; nothing is printed, and the code is the one a shell gives a
  process that SIGPIPE ends.

The gallery truncation defaults to 4 and can be set with the
``FACTOLAB_TRUNCATION_K`` environment variable; an explicit ``--k`` flag
overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

# construct and semiring are imported in the handlers that use them, so the
# other subcommands start without compiling either layer
from .classify import classify, relation_evidence
from .monoid import (
    BudgetExceeded,
    MonoidPresentation,
    enumerate_factorizations,
    normalize_atoms,
)
from .linalg import excerpt, format_rational, parse_rational

TRUNCATION_ENV = "FACTOLAB_TRUNCATION_K"


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _load_presentation(path: str, normalize: bool) -> MonoidPresentation:
    presentation = MonoidPresentation.from_json_dict(_read_json(path))
    if normalize:
        presentation = normalize_atoms(presentation)
    return presentation


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its JSON document
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> dict:
    presentation = _load_presentation(args.presentation, args.normalize)
    report = classify(presentation)
    return report.to_json_dict()


def _cmd_factorize(args) -> dict:
    presentation = _load_presentation(args.presentation, args.normalize)
    element = [parse_rational(part) for part in args.element.split(",")]
    factorizations = enumerate_factorizations(presentation, element)
    return {
        "element": [format_rational(x) for x in element],
        "factorizations": [list(z) for z in factorizations],
        "lengths": sorted({sum(z) for z in factorizations}),
    }


def _classified(presentation: MonoidPresentation) -> dict:
    report = classify(presentation)
    return {"presentation": presentation.to_json_dict(), "report": report.to_json_dict()}


def _cmd_construct_master(args) -> dict:
    from .construct import MasterSpec, build_master_monoid

    return _classified(build_master_monoid(MasterSpec(tuple(args.long), tuple(args.short))))


def _cmd_pls_example(args) -> dict:
    from .construct import pls_example

    return _classified(pls_example(args.purely_long, args.purely_short))


def _resolve_truncation(flag: Optional[int]) -> int:
    if flag is not None:
        return flag
    raw = os.environ.get(TRUNCATION_ENV)
    if raw is None:
        return 4
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"environment variable {TRUNCATION_ENV}={excerpt(repr(raw))} is not an integer"
        )


def _cmd_gallery(args) -> dict:
    from .construct import fixture_gallery, verify_gallery

    truncation = _resolve_truncation(args.k)
    gallery = fixture_gallery(truncation=truncation)
    mismatches = verify_gallery(gallery)
    return {
        "truncation": truncation,
        "fixtures": [
            {
                "name": fixture.name,
                "presentation": fixture.presentation.to_json_dict(),
                "expected": fixture.expected,
            }
            for fixture in gallery
        ],
        "mismatches": mismatches,
    }


def _cmd_semiring_atom(args) -> dict:
    from .semiring import SemiringPolynomial, natural_atom_test

    poly = SemiringPolynomial.from_json_dict(_read_json(args.polynomial))
    is_atom, witness = natural_atom_test(poly)
    return {
        "is_atom": is_atom,
        "witness": (
            None
            if witness is None
            else {
                "factor": witness[0].to_json_dict(),
                "cofactor": witness[1].to_json_dict(),
            }
        ),
    }


def _cmd_algebra_witness(args) -> dict:
    from .semiring import algebra_witness

    witness = algebra_witness(args.a, args.b)
    payload = witness._asdict()
    for key in ("a1", "a2", "product", "monoid"):
        payload[key] = payload[key].to_json_dict()
    for key in ("z1", "z2"):
        payload[key] = [{"factor": poly.to_json_dict(), "multiplicity": mult} for poly, mult in payload[key]]
    return {**payload, "factorization_length": witness.factorization_length}


def _cmd_case1(args) -> dict:
    from .semiring import case1_relation

    presentation = _load_presentation(args.presentation, normalize=False)
    relation = case1_relation(presentation, args.i, args.j)
    payload = relation.to_json_dict()
    payload["element"] = format_rational(presentation.evaluate(relation.left)[0])
    return payload


def _cmd_evidence(args) -> dict:
    presentation = _load_presentation(args.presentation, args.normalize)
    relations = relation_evidence(presentation, args.bound)
    return {"bound": args.bound, "relations": [r.to_json_dict() for r in relations]}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factolab",
        description=(
            "Exact factorization-theory workbench: classify finitely "
            "generated pointed monoids, construct extremal examples, and "
            "verify monoid-semiring witnesses."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def presentation_arg(p):
        p.add_argument(
            "presentation",
            help="path to a presentation JSON file, or - for stdin",
        )

    def normalize_flag(p):
        p.add_argument(
            "--normalize",
            action="store_true",
            help="drop duplicate and non-atom generators before working",
        )

    p = sub.add_parser("analyze", help="classify a monoid presentation")
    presentation_arg(p)
    normalize_flag(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("factorize", help="enumerate factorizations of an element")
    presentation_arg(p)
    p.add_argument(
        "--element",
        required=True,
        help="comma-separated rational coordinates, e.g. 12 or 0,2,2",
    )
    normalize_flag(p)
    p.set_defaults(handler=_cmd_factorize)

    p = sub.add_parser(
        "construct-master",
        help="build a monoid whose master relation has given multiplicities",
    )
    p.add_argument("--long", type=int, nargs="+", required=True,
                   help="multiplicities of the long side")
    p.add_argument("--short", type=int, nargs="+", required=True,
                   help="multiplicities of the short side")
    p.set_defaults(handler=_cmd_construct_master)

    p = sub.add_parser(
        "pls-example",
        help="smallest monoid with the given pure-atom counts",
    )
    p.add_argument("purely_long", type=int)
    p.add_argument("purely_short", type=int)
    p.set_defaults(handler=_cmd_pls_example)

    p = sub.add_parser(
        "gallery",
        help="classify the fixture gallery and diff against expectations",
    )
    p.add_argument(
        "--k",
        type=int,
        default=None,
        help=f"truncation size (default 4, or ${TRUNCATION_ENV})",
    )
    p.set_defaults(handler=_cmd_gallery)

    p = sub.add_parser(
        "semiring-atom",
        help="decide atomicity of a polynomial over natural coefficients",
    )
    p.add_argument(
        "polynomial",
        help="path to a polynomial JSON file, or - for stdin",
    )
    p.set_defaults(handler=_cmd_semiring_atom)

    p = sub.add_parser(
        "algebra-witness",
        help="equal-length double factorization in a monoid algebra",
    )
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(handler=_cmd_algebra_witness)

    p = sub.add_parser(
        "case1",
        help="canonical unbalanced relation between two monomial atoms",
    )
    presentation_arg(p)
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(handler=_cmd_case1)

    p = sub.add_parser(
        "evidence",
        help="all irredundant relations up to a grading bound",
    )
    presentation_arg(p)
    p.add_argument("--bound", type=int, required=True)
    normalize_flag(p)
    p.set_defaults(handler=_cmd_evidence)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        document = args.handler(args)
        print(json.dumps(document, indent=2, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the
        # interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except json.JSONDecodeError as exc:
        print(
            f"error: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}",
            file=sys.stderr,
        )
        return 1
    except (OSError, ValueError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetExceeded) else 1
    return 2 if document.get("mismatches") else 0


if __name__ == "__main__":
    sys.exit(main())
