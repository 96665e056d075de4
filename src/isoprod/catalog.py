"""The built-in catalog.

One entry per known family of regular unmixed higher-product quotients
with chi(O_S) = 2: five entries ship a working structure, each as a
fixture that holds its two tuples, so the catalog searches nothing (the
two over PSL(2,F7) hold the first structure that the search of
`psl2f7_a.search` or `psl2f7_b.search` finds); the remaining rows are
type-only -- their group, order, small-group id, genera and type are
recorded and reported with status `structure not shipped`.

`run_catalog` analyzes every selected entry, compares the results with
the recorded expectations, and collects mismatches instead of raising,
so a single bad entry cannot hide the others.  One run builds each
distinct fixture group once (fixtures of one group carry one recipe text,
the memo's key), reads or computes its table once and its Galois orbits
once, and shares them between the entries on that group.  The memo lives
for one `run_catalog` call: no state crosses runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from . import chartab as ct
from . import surface as sf
from .groups import FiniteGroup
from .ramification import RamificationStructure
from .structfile import StructureFile, parse_structure_file


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    group_label: str
    order: int
    small_group_id: str
    genera: tuple[int, int]
    surface_type: str
    fixture: str | None = None      # package data file with the two tuples

    @property
    def shipped(self) -> bool:
        return self.fixture is not None


def _fixture_text(filename: str) -> str:
    return resources.files("isoprod.data").joinpath(filename).read_text()


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("PSL2F7xZ2-17-43", "PSL(2,F7) x Z2", 336, "<336,209>", (17, 43), "a"),
    CatalogEntry("Z2^3:S4-49-9", "(Z2)^3 x| S4", 192, "<192,955>", (49, 9), "a"),
    CatalogEntry("PSL2F7-a", "PSL(2,F7)", 168, "<168,42>", (49, 8), "a",
                 fixture="psl2f7_a.struct"),
    CatalogEntry("PSL2F7-b", "PSL(2,F7)", 168, "<168,42>", (17, 22), "a",
                 fixture="psl2f7_b.struct"),
    CatalogEntry("Z2^4:D5-5-81", "(Z2)^4 x| D5", 160, "<160,234>", (5, 81), "a"),
    CatalogEntry("G128-36", "G(128,36)", 128, "<128,36>", (17, 17), "b",
                 fixture="g128_36.struct"),
    CatalogEntry("S5-9-31", "S5", 120, "<120,34>", (9, 31), "a"),
    CatalogEntry("Z2^4:D3-5-49", "(Z2)^4 x|_phi D3", 96, "<96,195>", (5, 49), "c"),
    CatalogEntry("Z2^4:D3-25-9", "(Z2)^4 x|_psi D3", 96, "<96,227>", (25, 9), "a"),
    CatalogEntry("Z2^3:D4-9-17", "(Z2)^3 x| D4", 64, "<64,73>", (9, 17), "a"),
    CatalogEntry("U42-9-17", "U(4,2)", 64, "<64,138>", (9, 17), "a"),
    CatalogEntry("A5-13-11", "A5", 60, "<60,5>", (13, 11), "a"),
    CatalogEntry("A5-41-4", "A5", 60, "<60,5>", (41, 4), "a"),
    CatalogEntry("A5-9-16", "A5", 60, "<60,5>", (9, 16), "a"),
    CatalogEntry("A5-5-31", "A5", 60, "<60,5>", (5, 31), "a"),
    CatalogEntry("S4xZ2-5-25", "S4 x Z2", 48, "<48,48>", (5, 25), "a"),
    CatalogEntry("S4xZ2-9-13", "S4 x Z2", 48, "<48,48>", (9, 13), "a"),
    CatalogEntry("S4xZ2-13-9", "S4 x Z2", 48, "<48,48>", (13, 9), "a"),
    CatalogEntry("S4xZ2-3-49", "S4 x Z2", 48, "<48,48>", (3, 49), "a"),
    CatalogEntry("Z2^3xZ4", "(Z2)^3 x| Z4", 32, "<32,22>", (9, 9), "d",
                 fixture="z2cubed_z4.struct"),
    CatalogEntry("D4xZ2^2-9-9", "D4 x (Z2)^2", 32, "<32,46>", (9, 9), "a"),
    CatalogEntry("Z2^4:Z2-17-5", "(Z2)^4 x| Z2", 32, "<32,27>", (17, 5), "a"),
    CatalogEntry("Z2^4:Z2-9-9", "(Z2)^4 x| Z2", 32, "<32,27>", (9, 9), "a"),
    CatalogEntry("S4-5-13", "S4", 24, "<24,12>", (5, 13), "a"),
    CatalogEntry("S4-3-25", "S4", 24, "<24,12>", (3, 25), "a"),
    CatalogEntry("D4xZ2-9-5", "D4 x Z2", 16, "<16,11>", (9, 5), "a"),
    CatalogEntry("Z2^2:Z4-9-5", "(Z2)^2 x| Z4", 16, "<16,3>", (9, 5), "a"),
    CatalogEntry("Z2^4-9-5", "(Z2)^4", 16, "<16,14>", (9, 5), "a"),
    CatalogEntry("D4xZ2-3-17", "D4 x Z2", 16, "<16,11>", (3, 17), "a"),
    CatalogEntry("Z3xZ3", "(Z3)^2", 9, "<9,2>", (7, 4), "c",
                 fixture="z3xz3.struct"),
    CatalogEntry("Z2^3-5-5", "(Z2)^3", 8, "<8,5>", (5, 5), "a"),
    CatalogEntry("Z2^3-3-9", "(Z2)^3", 8, "<8,5>", (3, 9), "a"),
)


def entry_by_name(name: str) -> CatalogEntry:
    for entry in CATALOG:
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")


class _RunMemo:
    """What the entries of one catalog run share: each distinct fixture
    group, keyed by its recipe text (the string `build_group` reads), and
    each such group's table and Galois orbits.  A failed build or table is
    not kept, so every entry that needs it fails on its own."""

    def __init__(self):
        self.groups: dict[str, FiniteGroup] = {}
        self.tables: dict[FiniteGroup, tuple] = {}  # group -> (table, orbits)

    def group(self, sfile: StructureFile) -> FiniteGroup:
        recipe = "\n".join(sfile.group_lines)
        group = self.groups.get(recipe)
        if group is None:
            group = self.groups[recipe] = sfile.build()
        return group

    def table(self, group: FiniteGroup, cache_dir) -> tuple:
        found = self.tables.get(group)
        if found is None:
            table = ct.cached_character_table(group, cache_dir)
            found = self.tables[group] = (table, ct.galois_orbits(table))
        return found


def realize_structure(entry: CatalogEntry, memo: _RunMemo | None = None
                      ) -> RamificationStructure:
    """Build the entry's structure from its fixture's two tuples, on the
    run's group for the fixture's recipe when a run memo is given; nothing
    is searched."""
    if not entry.shipped:
        raise KeyError(f"catalog entry {entry.name!r} ships no structure")
    sfile = parse_structure_file(_fixture_text(entry.fixture))
    return sfile.structure(None if memo is None else memo.group(sfile))


@dataclass(frozen=True)
class CatalogResult:
    entry: CatalogEntry
    report: dict | None           # None for a shipped row that failed
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _check_expectations(entry: CatalogEntry, analysis) -> list[str]:
    problems = []

    def check(label, got, want):
        if got != want:
            problems.append(f"{entry.name}: {label} = {got}, expected {want}")

    check("order", analysis.structure.group.order, entry.order)
    check("genera", analysis.genera, entry.genera)
    check("chi", analysis.invariants.chi, 2)
    check("e", analysis.invariants.euler, 8)
    check("K2", analysis.invariants.k_squared, 16)
    check("q", analysis.invariants.irregularity, 0)
    check("type", analysis.surface_type, entry.surface_type)
    check("dim Z", analysis.dimension_z.total, 4)
    return problems


def run_entry(entry: CatalogEntry, cache_dir=None,
              memo: _RunMemo | None = None) -> CatalogResult:
    if not entry.shipped:
        report = {
            "name": entry.name,
            "group": entry.group_label,
            "order": entry.order,
            "small_group_id": entry.small_group_id,
            "expected_genera": list(entry.genera),
            "expected_type": entry.surface_type,
            "status": "structure not shipped",
        }
        return CatalogResult(entry, report, ())
    memo = memo or _RunMemo()
    try:
        structure = realize_structure(entry, memo)
        table, orbits = memo.table(structure.group, cache_dir)
        analysis = sf.analyze(structure, table, orbits)
    except ct.CacheError:
        raise  # not the entry's failure: no entry can use the cache
    except Exception as exc:  # per-entry failures are collected, not fatal
        return CatalogResult(entry, None, (f"{entry.name}: {exc}",))
    report = sf.analysis_report(analysis, name=entry.name)
    report["small_group_id"] = entry.small_group_id
    report["status"] = "analyzed"
    return CatalogResult(entry, report, tuple(_check_expectations(entry, analysis)))


def run_catalog(names=None, cache_dir=None) -> list[CatalogResult]:
    selected = list(CATALOG)
    if names:
        wanted = set(names)
        unknown = wanted - {e.name for e in CATALOG}
        if unknown:
            raise KeyError(f"unknown catalog entries: {sorted(unknown)}")
        selected = [e for e in selected if e.name in wanted]
    memo = _RunMemo()  # one run's groups and tables; it dies with the run
    return [run_entry(e, cache_dir, memo) for e in selected]


def catalog_document(results) -> dict:
    """Single self-describing document for a catalog run."""
    reports = [r.report for r in results if r.report is not None]
    return {
        "catalog": reports,
        "failures": [m for r in results for m in r.mismatches],
        "entries": len(results),
        "analyzed": sum(1 for report in reports if report["status"] == "analyzed"),
    }


def render_catalog(results) -> str:
    doc = catalog_document(results)
    lines = []
    for report in doc["catalog"]:
        lines.append("=" * 60)
        lines.append(sf.render_report(report))
    lines.append("=" * 60)
    lines.append(f"entries: {doc['entries']}  analyzed: {doc['analyzed']}  "
                 f"failures: {len(doc['failures'])}")
    for m in doc["failures"]:
        lines.append(f"FAIL {m}")
    return "\n".join(lines) + "\n"


def catalog_json(results) -> str:
    return json.dumps(catalog_document(results), indent=2, sort_keys=False) + "\n"
