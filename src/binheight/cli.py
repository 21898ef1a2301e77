"""Command line front end.

Six subcommands (rank, snf, jacobian, polyomino, bedge, hibi) read a JSON
object from a file or stdin and print a report, human-readable by default or
as canonical JSON with --json.  JSON reports are byte-identical across runs
on the same input: keys sorted, no timestamps, the input echoed only through
its sha256.

Exit codes: 0 success, 1 for any domain failure (the exception class name
goes to stderr), 2 for malformed argv, unreadable files, or JSON that does
not parse.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Any, Sequence

from .bedge import Graph, edge_presentation
from .bedge import height_report as bedge_height_report
from .binomial import BinomialPresentation, height_bounds
from .errors import DomainError, MalformedInput, OutputTooLarge, unprintable_digits
from .hibi import Poset
from .hibi import isolated_singularity_verdict as hibi_isolated
from .hibi import presentation as hibi_presentation
from .linalg import (
    DEFAULT_ENUMERATION_CAP,
    IntegerMatrix,
    smith_normal_form,
)
from .polyomino import (
    CellCollection,
    ascii_art,
    fills_bounding_box,
)
from .polyomino import height_report as poly_height_report
from .polyomino import isolated_singularity_verdict as poly_isolated
from .toric import (
    ToricConfiguration,
    ToricIdealPresentation,
    isolated_singularity_by_jacobian,
    jacobian_generators,
)

__all__ = ["entrypoint"]


class _InputError(Exception):
    """File or JSON-parse failure; maps to exit code 2."""


def _read_payload(path: str) -> tuple[dict, str]:
    try:
        if path == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                raw = fh.read()
    except OSError as e:
        raise _InputError(f"cannot read {path}: {e}") from None
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as e:
        raise _InputError(f"input is not valid JSON: {e}") from None
    except ValueError as e:  # bad UTF-8, or an integer past the digit limit
        raise _InputError(f"input cannot be read: {e}") from None
    if not isinstance(payload, dict):
        raise MalformedInput("top-level JSON value must be an object")
    return payload, hashlib.sha256(raw).hexdigest()


def _get(data: dict, key: str):
    if key not in data:
        raise MalformedInput(f"missing input field {key!r}")
    return data[key]


def _as_int(x: Any, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise MalformedInput(f"{what} must be an integer, got {x!r}")
    return x


def _int_list(x: Any, what: str) -> list[int]:
    if not isinstance(x, list):
        raise MalformedInput(f"{what} must be a list, got {x!r}")
    return [_as_int(v, f"entry of {what}") for v in x]


def _int_rows(data: dict, key: str) -> list[list[int]]:
    raw = _get(data, key)
    if not isinstance(raw, list):
        raise MalformedInput(f"field {key!r} must be a list of rows")
    return [_int_list(r, f"row of {key!r}") for r in raw]


def _str_list(data: dict, key: str) -> list[str]:
    raw = _get(data, key)
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise MalformedInput(f"field {key!r} must be a list of strings")
    return list(raw)


def _check_printable(values: Sequence[int]) -> None:
    """Refuse a Smith transform entry too long for str() and json.dumps."""
    digits = unprintable_digits(max(map(abs, values), default=0))
    if digits:
        raise OutputTooLarge(
            f"a Smith transform entry has {digits} decimal digits; the interpreter "
            f"converts at most {sys.get_int_max_str_digits()} (sys.get_int_max_str_digits)"
        )


def _vector_text(v: Sequence[int]) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def _print_text(report: dict, out) -> None:
    """Print each leaf under its dotted key path, in the report's order."""
    stack = list(reversed(report.items()))
    while stack:
        key, value = stack.pop()
        if isinstance(value, dict):
            stack.extend(reversed([(f"{key}.{k}", v) for k, v in value.items()]))
        elif key.endswith("picture") and isinstance(value, list):
            print(f"{key}:", file=out)
            for line in value:
                print(f"  {line}", file=out)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            print(f"{key}: " + " ".join(_vector_text(v) for v in value), file=out)
        elif isinstance(value, list):
            print(f"{key}: " + " ".join(str(v) for v in value), file=out)
        else:
            print(f"{key}: {value}", file=out)


def _binomial_presentation_from(data: dict) -> BinomialPresentation:
    gens = _int_rows(data, "generators")
    if "variables" in data:
        names = _str_list(data, "variables")
        return BinomialPresentation(
            n=len(names),
            variable_names=tuple(names),
            generators=tuple(tuple(g) for g in gens),
        )
    if not gens:
        raise MalformedInput(
            "either 'variables' or at least one generator is required"
        )
    return BinomialPresentation.with_default_names([tuple(g) for g in gens])


def _cmd_rank(args, data: dict) -> tuple[dict, list[str]]:
    pres = _binomial_presentation_from(data)
    rep = height_bounds(pres, unmixed=args.unmixed)
    results = {
        "variables": list(pres.variable_names),
        "generator_count": len(pres.generators),
        "span_dim": rep.span_dim,
        "unmixed_asserted": rep.unmixed,
        "lattice_basis": [list(b) for b in rep.basis],
        "elementary_divisors": list(rep.elementary_divisors),
        "statement": rep.statement(),
    }
    return results, []


def _cmd_snf(args, data: dict) -> tuple[dict, list[str]]:
    m = IntegerMatrix.from_rows(_int_rows(data, "matrix"))
    dec = smith_normal_form(m)
    _check_printable(dec.u.entries + dec.v.entries)
    product = dec.u @ m @ dec.v
    verified = product.entries == dec.diagonal(m.rows, m.cols).entries
    results = {
        "shape": [m.rows, m.cols],
        "rank": len(dec.divisors),
        "divisors": list(dec.divisors),
        "u": [list(dec.u.row(i)) for i in range(dec.u.rows)],
        "v": [list(dec.v.row(i)) for i in range(dec.v.rows)],
        "transform_verified": verified,
    }
    return results, []


def _toric_presentation_from(data: dict) -> ToricIdealPresentation:
    a_rows = _int_rows(data, "A")
    names = tuple(_str_list(data, "names")) if "names" in data else None
    config = ToricConfiguration(
        matrix=IntegerMatrix.from_rows(a_rows), column_names=names
    )
    gens = tuple(tuple(g) for g in _int_rows(data, "generators"))
    return ToricIdealPresentation(config=config, generators=gens)


def _cmd_jacobian(args, data: dict) -> tuple[dict, list[str]]:
    pres = _toric_presentation_from(data)
    rep = jacobian_generators(
        pres, modulus=args.mod, reduce=args.reduce, cap=args.cap
    )
    results: dict[str, Any] = {
        "h": rep.h,
        "input_generators": len(pres.generators),
        "jacobian_generators": [list(u) for u in rep.generators],
        "reduced": rep.reduced,
        "modulus": args.mod,
    }
    caveats = []
    if args.isolated:
        iso = isolated_singularity_by_jacobian(pres, cap=args.cap)
        results["isolated"] = {
            "verdict": iso.verdict,
            "method": iso.method,
            "zero_ideal": iso.zero_ideal,
            "note": iso.note,
        }
        caveats.append(iso.caveat)
    return results, caveats


def _cmd_polyomino(args, data: dict) -> tuple[dict, list[str]]:
    cells = _int_rows(data, "cells")
    for c in cells:
        if len(c) != 2:
            raise MalformedInput(f"cell {c!r} is not a coordinate pair")
    collection = CellCollection.of(cells)
    rep = poly_height_report(collection, cap=args.cap)
    connected = rep.connected
    results: dict[str, Any] = {
        "cell_count": rep.cell_count,
        "connected": connected,
        "simple": rep.simple if connected else None,
        "rectangle": fills_bounding_box(collection),
        "interval_count": len(rep.presentation.generators),
        "span_dim": rep.bounds.span_dim,
        "statement": rep.statement(),
        "picture": ascii_art(collection, cap=args.cap).split("\n"),
    }
    caveats = []
    if args.presentation:
        pres = rep.presentation
        results["presentation"] = {
            "variables": list(pres.variable_names),
            "generators": [list(g) for g in pres.generators],
        }
    if args.isolated:
        verdict = poly_isolated(collection, assume_prime=args.assume_prime)
        results["isolated"] = {
            "status": verdict.status,
            "rectangle": verdict.rectangle,
            "simple": verdict.simple,
            "note": verdict.note,
        }
        caveats.append(verdict.caveat)
    return results, caveats


def _cmd_bedge(args, data: dict) -> tuple[dict, list[str]]:
    g = Graph.of(_as_int(_get(data, "n"), "field 'n'"), _int_rows(data, "edges"))
    rep = bedge_height_report(g, cap=args.cap)
    results: dict[str, Any] = {
        "n": rep.n,
        "edge_count": rep.edge_count,
        "components": rep.components,
        "span_dim": rep.span_dim,
        "height": rep.height,
        "bigheight": rep.bigheight,
        "height_witness": list(rep.height_witness),
        "bigheight_witness": list(rep.bigheight_witness),
        "unmixed": rep.unmixed,
        "cut_sets": [list(w) for w in rep.cut_sets],
        "statement": rep.statement(),
    }
    if args.presentation:
        pres = edge_presentation(g)
        results["presentation"] = {
            "variables": list(pres.variable_names),
            "generators": [list(v) for v in pres.generators],
        }
    return results, []


def _cmd_hibi(args, data: dict) -> tuple[dict, list[str]]:
    elements = tuple(_str_list(data, "elements"))
    covers = _get(data, "covers")
    if not isinstance(covers, list) or not all(
        isinstance(c, list) and len(c) == 2 for c in covers
    ):
        raise MalformedInput("field 'covers' must be a list of two-element lists")
    poset = Poset(elements=elements, covers=tuple((str(a), str(b)) for a, b in covers))
    pres = hibi_presentation(poset, cap=args.cap)
    results: dict[str, Any] = {
        "element_count": len(poset.elements),
        "ideal_count": len(pres.ideals),
        "relation_count": len(pres.toric.generators),
        "height": pres.height,
    }
    caveats = []
    if args.presentation:
        results["presentation"] = {
            "variables": list(pres.names),
            "generators": [list(v) for v in pres.toric.generators],
            "configuration": [
                list(pres.toric.config.matrix.row(i))
                for i in range(pres.toric.config.matrix.rows)
            ],
        }
    if args.isolated or args.jacobian_crosscheck:
        verdict = hibi_isolated(poset)
        results["isolated"] = {
            "status": verdict.status,
            "components": [list(c) for c in verdict.components],
            "chain_components": verdict.chain_components,
            "note": verdict.note,
        }
        caveats.append(verdict.caveat)
    if args.jacobian_crosscheck:
        iso = isolated_singularity_by_jacobian(pres.toric, cap=args.cap)
        effective = iso.verdict or iso.zero_ideal
        results["jacobian_crosscheck"] = {
            "verdict": iso.verdict,
            "method": iso.method,
            "zero_ideal": iso.zero_ideal,
            "effective_isolated": effective,
            "agrees": effective == (results["isolated"]["status"] == "isolated"),
        }
    return results, caveats


_COMMANDS = {
    "rank": _cmd_rank,
    "snf": _cmd_snf,
    "jacobian": _cmd_jacobian,
    "polyomino": _cmd_polyomino,
    "bedge": _cmd_bedge,
    "hibi": _cmd_hibi,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binheight",
        description=(
            "Exact height bounds and singularity checks for binomial ideals."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "input",
        nargs="?",
        default="-",
        help="JSON input file, or - for stdin (default)",
    )
    common.add_argument(
        "--json", action="store_true", help="emit the report as canonical JSON"
    )
    common.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ENUMERATION_CAP,
        help="bound on enumeration sizes (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "rank",
        parents=[common],
        help="exponent span dimension of a binomial presentation",
    )
    p.add_argument(
        "--unmixed",
        action="store_true",
        help="assert the ideal is unmixed, turning the bound into an equality",
    )

    sub.add_parser("snf", parents=[common], help="Smith normal form with transforms")

    p = sub.add_parser(
        "jacobian",
        parents=[common],
        help="Jacobian ideal generators of a toric presentation",
    )
    p.add_argument("--mod", type=int, default=None, help="work modulo this prime")
    p.add_argument(
        "--reduce",
        action="store_true",
        help="drop generators divisible by another generator",
    )
    p.add_argument(
        "--isolated", action="store_true", help="decide isolatedness of the singular locus"
    )

    p = sub.add_parser(
        "polyomino",
        parents=[common],
        help="height report for the inner 2-minors of a cell collection",
    )
    p.add_argument(
        "--presentation",
        action="store_true",
        help="include the variables and exponent vectors",
    )
    p.add_argument(
        "--isolated", action="store_true", help="run the rectangle criterion"
    )
    p.add_argument(
        "--assume-prime",
        action="store_true",
        help="assert primality for collections with holes",
    )

    p = sub.add_parser(
        "bedge",
        parents=[common],
        help="height and bigheight of the edge binomials of a graph",
    )
    p.add_argument(
        "--presentation",
        action="store_true",
        help="include the variables and exponent vectors",
    )

    p = sub.add_parser(
        "hibi",
        parents=[common],
        help="ideal-lattice presentation and singularity check of a poset",
    )
    p.add_argument(
        "--presentation",
        action="store_true",
        help="include ideals, relations, and the configuration",
    )
    p.add_argument(
        "--isolated", action="store_true", help="run the chain-component criterion"
    )
    p.add_argument(
        "--jacobian-crosscheck",
        action="store_true",
        help="decide isolatedness independently through the Jacobian ideal",
    )
    return parser


def entrypoint(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, digest = _read_payload(args.input)
        results, caveats = _COMMANDS[args.command](args, payload)
    except _InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    report = {
        "command": args.command,
        "input_sha256": digest,
        "results": results,
        "caveats": caveats,
        "status": "ok",
    }
    if args.json:
        sys.stdout.write(
            json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        )
    else:
        _print_text(report, sys.stdout)
    return 0
