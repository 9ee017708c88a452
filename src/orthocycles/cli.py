"""Command line surface: generate, verify, catalog, search, heffter.

Design files are JSON with sorted keys and one-space indent, cycles written
over display labels in canonical sorted order, so equal pairs always produce
byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 usage / format / IO error,
3 inadmissible or unsatisfiable order, 4 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

from .catalog import (cycle_length, get_ingredient, json_array, json_object, list_ingredients,
                      spec_from_dict, verify_catalog)
from .construct import NotAdmissibleError, UnsatisfiableError, construct_pair, no_pair_reason
from .core import GraphSpec, OrthogonalPair, complete
from .heffter import check_simple, parse_array, validate_heffter
from .search import SearchBudget, search_pair
from .verify import VerificationReport, verify_pair

FORMAT_VERSION = 1
# the JSON text of one value, as json.dumps writes it inside a document
_encode = json.JSONEncoder().encode


# ------------------------------------------------------------- design files

def _array(items, pad: str) -> str:
    """JSON array of already encoded items, laid out as json.dumps(indent=1)
    lays out an array whose line is indented by pad."""
    if not items:
        return "[]"
    return f"[\n{pad} " + f",\n{pad} ".join(items) + f"\n{pad}]"


def design_text(pair: OrthogonalPair, length: int) -> str:
    """Serialize a pair as a deterministic, human-diffable JSON document.

    The text is json.dumps(doc, indent=1, sort_keys=True) + "\n" byte for
    byte; each label is encoded once and every cycle is a join of the
    encoded labels of its vertices."""
    spec = pair.spec
    text = list(map(_encode, spec.labels))
    at = text.__getitem__
    g = [f'  "kind": {_encode(spec.kind)}', f'  "labels": {_array(text, "  ")}',
         f'  "v": {spec.v}']
    if spec.kind == "complete_minus_hole":
        g.insert(0, f'  "hole": {_array(list(map(at, sorted(spec.hole))), "  ")}')
    if spec.kind == "multipartite":
        parts = [_array(list(map(at, part)), "   ") for part in spec.parts]
        g.insert(2, f'  "parts": {_array(parts, "  ")}')
    sep = ",\n    "
    first, second = (
        _array([f"[\n    {sep.join(map(at, c))}\n   ]" if c else "[]" for c in system.cycles], "  ")
        for system in (pair.first, pair.second))
    meta = {str(k): v for k, v in pair.first.meta}
    meta["length"] = length
    meta_text = json.dumps(meta, indent=1, sort_keys=True).replace("\n", "\n ")
    spec_text = ",\n".join(g)
    return (f'{{\n "format_version": {FORMAT_VERSION},\n "meta": {meta_text},\n'
            f' "spec": {{\n{spec_text}\n }},\n'
            f' "systems": {{\n  "first": {first},\n  "second": {second}\n }}\n}}\n')


class DesignSystem(NamedTuple):
    """One system of a design file: its cycles as vertex-id tuples in the
    order written, not canonicalised, so that a loop or repeated vertex
    reaches the verifier as a reported defect instead of failing the load."""

    spec: GraphSpec
    cycles: tuple
    meta: tuple = ()


def _json_int(value, name: str) -> int:
    # bool is a subclass of int, but true is not a count
    if type(value) is not int:
        raise ValueError(f"{name} is not a JSON integer: {value!r}")
    return value


def load_design(text: str) -> tuple[OrthogonalPair, int]:
    """Parse a design file back into a pair of DesignSystems and its cycle
    length.  A file written by design_text reads back to the same bytes.

    Raises ValueError on a structural problem (bad JSON, missing fields,
    unknown labels); the cycles themselves are left to the verifier.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    try:
        json_object(doc, "the design file")
        if doc["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {doc['format_version']}")
        spec = spec_from_dict(json_object(doc["spec"], "spec"))
        if _json_int(doc["spec"].get("v", spec.v), "spec.v") != spec.v:
            raise ValueError("declared vertex count disagrees with the labels")
        meta = json_object(doc.get("meta", {}), "meta")
        length = _json_int(meta.get("length", 0), "meta.length")
        systems = []
        for name in ("first", "second"):
            cycles = json_array(json_object(doc["systems"], "systems")[name],
                                f"systems.{name}", nested=True)
            systems.append(DesignSystem(spec, tuple(map(spec.ids, cycles)),
                                        tuple(sorted(meta.items()))))
        return OrthogonalPair(spec, *systems), length
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed design file: missing or bad field {exc}") from None


def _emit(text: str, out: str | None) -> int:
    """Write text to the file out, or to stdout if out is None, and return
    the exit code: 2 if the file cannot be written, else 0."""
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        Path(out).write_text(text)
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        return 2
    return 0


def _print_report(report: VerificationReport) -> None:
    if report.ok:
        print("ok: both systems decompose the host and the pair is orthogonal")
        return
    for (tag, e), d in sorted(report.edge_deficits.items())[:20]:
        print(f"{tag} system, edge {e}: covered {d:+d} times relative to the host")
    for (tag, i), reason in report.bad_cycles[:20]:
        print(f"{tag} system, {'cycle count' if i is None else f'cycle {i}'}: {reason}")
    if report.max_cross_intersection > 1:
        i, j = report.witness
        print(f"first system cycle {i} and second system cycle {j} share "
              f"{report.max_cross_intersection} edges")
    total = len(report.edge_deficits) + len(report.bad_cycles)
    if total > 40:
        print(f"({total} defects in total)")


def _reason(kind: str, detail: str) -> None:
    print(json.dumps({"reason": kind, "detail": detail}))


# ----------------------------------------------------------------- commands

def cmd_generate(args) -> int:
    try:
        pair = construct_pair(args.length, args.order)
    except UnsatisfiableError as exc:
        _reason("unsatisfiable", str(exc))
        return 3
    except NotAdmissibleError as exc:
        _reason("not admissible", str(exc))
        return 3
    return _emit(design_text(pair, args.length), args.out)


def cmd_verify(args) -> int:
    try:
        pair, length = load_design(Path(args.path).read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot load {args.path}: {exc}", file=sys.stderr)
        return 2
    if length < 3:
        print(f"cannot load {args.path}: meta.length missing or bad", file=sys.stderr)
        return 2
    report = verify_pair(pair, length)
    _print_report(report)
    return 0 if report.ok else 1


def cmd_catalog(args) -> int:
    if args.action == "list":
        for key, citation in list_ingredients():
            print(f"{key:12s} {citation}")
        return 0
    if args.action == "verify":
        bad = 0
        for key, report in verify_catalog():
            status = "ok" if report.ok else "FAIL"
            print(f"{key:12s} {status}")
            bad += not report.ok
        return 1 if bad else 0
    # dump
    if args.key is None:
        print("catalog dump needs a key", file=sys.stderr)
        return 2
    try:
        pair = get_ingredient(args.key)
        length = cycle_length(args.key)
    except KeyError:
        print(f"no catalog entry {args.key!r}", file=sys.stderr)
        return 2
    return _emit(design_text(pair, length), args.out)


def cmd_search(args) -> int:
    try:
        budget = SearchBudget(max_nodes=args.budget, seed=args.seed)
    except ValueError as exc:
        print(f"bad search budget: {exc}", file=sys.stderr)
        return 2
    try:
        result = search_pair(complete(args.order), args.length, budget)
    except ValueError as exc:
        _reason("not admissible", str(exc))
        return 3
    if result.status == "unsatisfiable":
        _reason("unsatisfiable", no_pair_reason(args.length, args.order))
        return 3
    if result.status == "exhausted":
        _reason("budget exhausted",
                f"no pair within {args.budget} nodes; retry with a larger --budget")
        return 4
    return _emit(design_text(result.pair, args.length), args.out)


def cmd_heffter(args) -> int:
    try:
        array = parse_array(Path(args.path).read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot load {args.path}: {exc}", file=sys.stderr)
        return 2
    if args.action == "validate":
        report = validate_heffter(array)
        if report.ok:
            print(f"ok: {array.rows}x{array.cols} array, "
                  f"modulus {array.modulus}, symbols 1..{array.symbol_count}")
            return 0
        for d in report.defects:
            print(d)
        return 1
    # simple
    try:
        result = check_simple(array)
    except ValueError as exc:
        print(str(exc))
        return 1
    for i, order in enumerate(result.rows):
        print(f"row {i}: {order if order is not None else 'no simple order'}")
    for j, order in enumerate(result.cols):
        print(f"column {j}: {order if order is not None else 'no simple order'}")
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orthocycles",
        description="construct, search, and verify pairs of orthogonal cycle systems")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="construct a verified pair and write a design file")
    g.add_argument("--length", type=int, required=True, help="cycle length (5..9)")
    g.add_argument("--order", type=int, required=True, help="number of vertices")
    g.add_argument("--out", default=None, help="output path (default: stdout)")
    g.set_defaults(fn=cmd_generate)

    v = sub.add_parser("verify", help="check a design file's decomposition and orthogonality")
    v.add_argument("path")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("catalog", help="list, verify, or dump the embedded ingredient store")
    c.add_argument("action", choices=("list", "verify", "dump"))
    c.add_argument("key", nargs="?", default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_catalog)

    s = sub.add_parser("search", help="run the seeded backtracking search for a pair")
    s.add_argument("--length", type=int, required=True)
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--budget", type=int, default=1_000_000, help="node budget")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_search)

    h = sub.add_parser("heffter", help="validate an array file or find simple orderings")
    h.add_argument("action", choices=("validate", "simple"))
    h.add_argument("path")
    h.set_defaults(fn=cmd_heffter)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
