"""Command-line surface.

    isoprod analyze  <file> [--json] [--cache DIR]  full pipeline on a structure file
    isoprod chartab  <file|name> [--cache DIR]      print/export a character table
    isoprod validate <file>                         spherical/disjointness checks only
    isoprod search   <file> [--bound N] [--limit K] [--json]
    isoprod catalog  [--entry NAME] [--assert] [--json] [--cache DIR]

Exit codes: 0 success, 1 assertion/validation failure, 2 usage error.
The character-table cache directory can also be set with ISOPROD_CACHE.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as cat
from . import chartab as ct
from . import surface as sf
from .chartab import CacheError, CharacterTableError
from .groups import GroupError
from .ramification import (
    DEFAULT_SEARCH_BOUND,
    RamificationError,
    check_search_options,
    find_structures,
)
from .structfile import ParseError, parse_structure_file
from .surface import SurfaceError


def _load_file(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SystemExit(f"error: {exc}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (data[:exc.start].decode("utf-8") + "x").splitlines()  # x: the bad byte
        raise ParseError(f"not UTF-8 text ({exc.reason}, byte 0x{data[exc.start]:02x})",
                         len(lines), len(lines[-1])) from None
    return parse_structure_file(text)


def _check_expectations(sfile, analysis) -> list[str]:
    problems = []
    want_genus = sfile.expectations.get("genus")
    if want_genus and analysis.genera != tuple(want_genus):
        problems.append(f"genus = {analysis.genera}, expected {tuple(want_genus)}")
    want_type = sfile.expectations.get("type")
    if want_type and analysis.surface_type != want_type:
        problems.append(f"type = {analysis.surface_type}, expected {want_type}")
    return problems


def cmd_analyze(args) -> int:
    sfile = _load_file(args.file)
    group = sfile.build()
    structure = sfile.structure(group)
    table = ct.cached_character_table(group, args.cache)
    analysis = sf.analyze(structure, table)
    report = sf.analysis_report(analysis, name=args.file)
    problems = _check_expectations(sfile, analysis)
    if problems:
        report["failures"] = problems
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(sf.render_report(report))
    return 1 if problems else 0


def cmd_chartab(args) -> int:
    try:
        entry = cat.entry_by_name(args.source)
    except KeyError:
        sfile = _load_file(args.source)
        group = sfile.build()
    else:
        if not entry.shipped:
            print(f"error: catalog entry {entry.name!r} ships no group recipe",
                  file=sys.stderr)
            return 1
        group = cat.realize_structure(entry).group
    table = ct.cached_character_table(group, args.cache)
    sys.stdout.write(ct.render_table(table))
    return 0


def cmd_validate(args) -> int:
    sfile = _load_file(args.file)
    group = sfile.build()
    try:
        structure = sfile.structure(group)
    except (RamificationError, ParseError) as exc:
        print(f"invalid: {exc}")
        return 1
    g1, g2 = structure.genera()
    print(f"valid: disjoint pair of types {list(structure.t1.signature)} / "
          f"{list(structure.t2.signature)}, genera ({g1}, {g2})")
    return 0


def cmd_search(args) -> int:
    sfile = _load_file(args.file)
    if sfile.type_pair is None:
        print("error: search needs a `types = ([...], [...])` line", file=sys.stderr)
        return 2
    check_search_options(args.limit, args.bound)
    group = sfile.build(order_bound=args.bound)
    structures, limited = find_structures(group, sfile.type_pair,
                                          limit=args.limit, bound=args.bound)
    doc = {
        "group": group.recipe,
        "types": [list(sfile.type_pair[0]), list(sfile.type_pair[1])],
        "count": len(structures),
        "limited": limited,
        "structures": [
            {"C": s.t1.words(), "D": s.t2.words(), "genera": list(s.genera())}
            for s in structures
        ],
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(sf.render_report(doc))
    return 0


def cmd_catalog(args) -> int:
    names = [args.entry] if args.entry else None
    try:
        results = cat.run_catalog(names, cache_dir=args.cache)
    except KeyError as exc:  # an unknown --entry name
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json:
        sys.stdout.write(cat.catalog_json(results))
    else:
        sys.stdout.write(cat.render_catalog(results))
    if args.enforce and any(not r.ok for r in results):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoprod",
        description="exact invariants of surfaces isogenous to a product",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline on a structure file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("chartab", help="print a character table")
    p.add_argument("source", help="structure file or catalog entry name")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=cmd_chartab)

    p = sub.add_parser("validate", help="spherical/disjointness checks only")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("search", help="enumerate structures of a given type pair")
    p.add_argument("file", help="structure file with group and types lines")
    p.add_argument("--bound", type=int, default=DEFAULT_SEARCH_BOUND)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("catalog", help="run the built-in catalog")
    p.add_argument("--entry", default=None)
    p.add_argument("--assert", dest="enforce", action="store_true",
                   help="exit 1 if any entry misses its expected row")
    p.add_argument("--json", action="store_true")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, GroupError, RamificationError, CacheError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CharacterTableError, SurfaceError) as exc:
        print(f"internal error (engine defect): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
