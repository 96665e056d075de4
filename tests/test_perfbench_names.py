"""The benchmark's tracer wraps program functions by name: a rename that
loses one makes every traced benchmark run fail, so the names are pinned
here by loading `perfbench/tracing.py` as it is."""

import importlib
import importlib.util
from importlib import resources
from pathlib import Path

import pytest

from isoprod import chartab as ct
from isoprod import cli
from isoprod import groups as gr
from isoprod import ramification as rm
from isoprod import surface as sf
from isoprod.structfile import parse_structure_file

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("cyclotomic", "groups", "chartab", "ramification", "surface",
           "structfile", "catalog", "cli")


def _load_tracing():
    for name in MODULES:  # the tracer looks the wrapped names up in these
        importlib.import_module(f"isoprod.{name}")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.fixture
def tracer():
    tracing = _load_tracing()
    t = tracing.Tracer()
    t.install()
    try:
        yield tracing, t
    finally:
        t.uninstall()


def test_tracer_installs_and_restores():
    original = ct.character_table
    t = _load_tracing().Tracer()
    t.install()  # raises TraceError if a wrapped name is missing
    try:
        assert ct.character_table is not original
    finally:
        t.uninstall()
    assert ct.character_table is original


def test_tracer_counts_arithmetic_and_dixon_prime(tracer):
    tracing, t = tracer
    table = ct.character_table(gr.symmetric_group(4))
    for orbit in ct.galois_orbits(table):
        ct.rational_idempotent(table, orbit)
    counters = t.counters()
    assert counters[tracing.ARITH_COUNTER] > 0
    assert counters[tracing.DIXON_COUNTER] > 0
    assert counters["chartab.character_table.calls"] == 1
    assert counters["chartab.rational_idempotent.calls"] > 0


def test_analyze_spans_survive_warm_caches():
    """The benchmark traces `analyze` after untraced passes over the same
    table, so a cache that skips a wrapped function on a warm pass would
    read as a span with zero calls: the traced run must still see each one."""
    sfile = parse_structure_file(
        resources.files("isoprod.data").joinpath("z3xz3.struct").read_text())
    structure = sfile.structure()
    table = ct.character_table(structure.group)
    orbits = ct.galois_orbits(table)

    def one_pass():
        sf.render_report(sf.analysis_report(sf.analyze(structure, table, orbits)))

    one_pass()
    tracing = _load_tracing()
    t = tracing.Tracer()
    t.install()
    try:
        one_pass()
    finally:
        t.uninstall()
    counters = t.counters()
    home = [name for name, spec in tracing.SPANS.items() if spec[3] == "analyze"]
    assert "chartab.trivial_restriction_multiplicity" in home
    assert [name for name in home if not counters[f"{name}.calls"]] == []


def test_catalog_spans_survive_warm_caches(tmp_path, monkeypatch, capsys):
    """The benchmark's `catalog` op runs the CLI cold and then warm into one
    cache: a run memo that skips a wrapped function (`parse_table` on the
    warm run, `realize_structure` for a group already built) would read as a
    span with zero calls and fail the traced run, so each one must be seen,
    and the warm run must hit the cache."""
    monkeypatch.setenv("ISOPROD_CACHE", str(tmp_path / "cache"))
    tracing = _load_tracing()
    t = tracing.Tracer()
    t.install()
    try:
        for _ in ("cold", "warm"):
            assert cli.main(["catalog", "--assert", "--json"]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    counters = t.counters()
    home = [name for name, spec in tracing.SPANS.items() if spec[3] == "catalog"]
    assert {"chartab.parse_table", "catalog.realize_structure",
            "catalog.run_entry", "cli.main"} <= set(home)
    assert [name for name in home if not counters[f"{name}.calls"]] == []
    assert t.hit_ratio() > 0


def test_search_spans_see_a_full_search(tracer):
    """A traced `search` run fails on a span of its own with no calls, so a
    search that stops calling `sigma_set` or `validate_spherical` (for
    instance by trusting tuples it has already checked) must show up here."""
    tracing, t = tracer
    sfile = parse_structure_file(
        resources.files("isoprod.data").joinpath("psl2f7_a.search").read_text())
    assert len(rm.search_structures(sfile.build(), sfile.type_pair)) == 4032
    counters = t.counters()
    home = [name for name, spec in tracing.SPANS.items() if spec[3] == "search"]
    assert {"ramification.validate_spherical", "ramification.sigma_set",
            "groups.closure"} <= set(home)
    assert [name for name in home if not counters[f"{name}.calls"]] == []
