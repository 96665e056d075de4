import json
from importlib import resources

import pytest

from isoprod import catalog as cat
from isoprod import chartab as ct
from isoprod import cli
from isoprod.ramification import RamificationError
from isoprod.structfile import ParseError, parse_structure_file


def fixture_text(name):
    return resources.files("isoprod.data").joinpath(name).read_text()


def fixture_path(name, tmp_path):
    p = tmp_path / name
    p.write_text(fixture_text(name))
    return str(p)


def test_shipped_z3z3_fixture_matches_expected_tuples():
    sfile = parse_structure_file(fixture_text("z3xz3.struct"))
    group = sfile.build()
    structure = sfile.structure(group)
    lab = {l: i for i, l in enumerate(group.labels)}
    assert structure.t1.entries == tuple(
        lab[x] for x in [(1, 1), (2, 1), (1, 1), (1, 2), (1, 1)]
    )
    assert structure.t2.entries == tuple(
        lab[x] for x in [(0, 2), (0, 1), (1, 0), (2, 0)]
    )
    assert sfile.expectations == {"genus": (7, 4), "type": "c"}


def test_empty_file_rejected_at_origin():
    with pytest.raises(ParseError) as err:
        parse_structure_file("")
    assert err.value.line == 1 and err.value.column == 1


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_structure_file("group = abelian 3 3\nwibble = 1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_structure_file("group = abelian 3 3\ntuple C = []\n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="unknown expect"):
        parse_structure_file("group = cyclic 2\nexpect chi = 2\n")
    with pytest.raises(ParseError, match="duplicate group"):
        parse_structure_file("group = cyclic 2\ngroup = cyclic 3\n")


def test_unknown_recipe_and_alias_errors():
    with pytest.raises(ParseError, match="frobnicate"):
        parse_structure_file("group = frobnicate 3\n").build()
    text = "group = abelian 3 3\ntuple C = [a*b]\ntuple D = [g1]\n"
    sfile = parse_structure_file(text)
    group = sfile.build()
    with pytest.raises(ParseError, match="undefined generator alias"):
        sfile.structure(group)


def test_product_not_identity_names_offending_tuple():
    text = (
        "group = abelian 3 3\n"
        "tuple C = [g1, g2]\n"
        "tuple D = [g2^2, g2, g1, g1^2]\n"
    )
    sfile = parse_structure_file(text)
    with pytest.raises(RamificationError, match="identity"):
        sfile.structure()


def test_cli_validate_ok_and_failure(tmp_path, capsys):
    path = fixture_path("z3xz3.struct", tmp_path)
    assert cli.main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "(7, 4)" in out

    self_paired = tmp_path / "self.struct"
    self_paired.write_text(
        "group = abelian 3 3\n"
        "tuple C = [g2^2, g2, g1, g1^2]\n"
        "tuple D = [g2^2, g2, g1, g1^2]\n"
    )
    assert cli.main(["validate", str(self_paired)]) == 1
    out = capsys.readouterr().out
    assert "not disjoint" in out


def test_cli_analyze_text_and_json_agree(tmp_path, capsys):
    path = fixture_path("z3xz3.struct", tmp_path)
    assert cli.main(["analyze", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] == "c"
    assert doc["dim_Z"]["total"] == 4
    assert doc["curves"]["C"]["genus"] == 7
    assert cli.main(["analyze", path]) == 0
    text = capsys.readouterr().out
    for token in ("type: c", "genus: 7", "genus: 4", "total: 4", "chi: 2"):
        assert token in text


def test_cli_analyze_expectation_failure_sets_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.struct"
    bad.write_text(fixture_text("z3xz3.struct").replace("(7, 4)", "(7, 5)"))
    assert cli.main(["analyze", str(bad)]) == 1
    assert "expected (7, 5)" in capsys.readouterr().out


def test_cli_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.struct"
    p.write_text("tuple C = [g1]\n")
    assert cli.main(["analyze", str(p)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_usage_error_exit_code(capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()


def test_cli_chartab_and_cache(tmp_path, capsys):
    path = fixture_path("z3xz3.struct", tmp_path)
    cache = tmp_path / "cache"
    assert cli.main(["chartab", path, "--cache", str(cache)]) == 0
    out1 = capsys.readouterr().out
    assert out1.startswith(ct.FIXTURE_VERSION)
    assert len(list(cache.iterdir())) == 1
    # by catalog name, served from the same cache
    assert cli.main(["chartab", "Z3xZ3", "--cache", str(cache)]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    # a type-only entry has no recipe to print
    assert cli.main(["chartab", "A5-13-11"]) == 1


def test_cli_search(tmp_path, capsys):
    search_file = tmp_path / "z3.search"
    search_file.write_text(
        "group = abelian 3 3\ntypes = ([3, 3, 3], [3, 3, 3])\n"
    )
    assert cli.main(["search", str(search_file), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 0  # sigma sets of two triangle systems always meet

    psl = tmp_path / "psl.search"
    psl.write_text(fixture_text("psl2f7_a.search"))
    assert cli.main(["search", str(psl), "--limit", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 1 and doc["limited"] is True
    assert doc["structures"][0]["genera"] == [49, 8]
    # --bound also bounds building: PSL(2,7) has order 168
    assert cli.main(["search", str(psl), "--bound", "100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err

    missing_types = tmp_path / "none.search"
    missing_types.write_text("group = cyclic 2\n")
    assert cli.main(["search", str(missing_types)]) == 2


def test_catalog_shape_and_assert_mode(capsys):
    results = cat.run_catalog()
    assert len(results) == len(cat.CATALOG) == 32
    analyzed = [r for r in results if r.entry.shipped]
    assert len(analyzed) == 5
    assert all(r.ok for r in results)
    type_only = [r for r in results if not r.entry.shipped]
    assert all(r.report["status"] == "structure not shipped" for r in type_only)
    # single-entry selection
    one = cat.run_catalog(["G128-36"])
    assert len(one) == 1 and one[0].report["type"] == "b"
    with pytest.raises(KeyError):
        cat.run_catalog(["NoSuchEntry"])


def test_catalog_cli_json_and_text_agree(capsys):
    assert cli.main(["catalog", "--entry", "Z3xZ3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == []
    report = doc["catalog"][0]
    assert report["type"] == "c" and report["small_group_id"] == "<9,2>"
    assert cli.main(["catalog", "--entry", "Z3xZ3"]) == 0
    text = capsys.readouterr().out
    assert "type: c" in text and "failures: 0" in text


def test_catalog_deterministic_output(capsys):
    assert cli.main(["catalog"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["catalog"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_catalog_table_rows_match_expectations():
    # Table rows: orders descending, shipped entries carry the right genera
    orders = [e.order for e in cat.CATALOG]
    assert orders == sorted(orders, reverse=True)
    shipped = {e.name: e for e in cat.shipped_entries()}
    assert shipped["Z3xZ3"].genera == (7, 4)
    assert shipped["G128-36"].genera == (17, 17)
    assert shipped["Z2^3xZ4"].genera == (9, 9)
    assert shipped["PSL2F7-a"].genera == (49, 8)
    assert shipped["PSL2F7-b"].genera == (17, 22)
    types = [e.surface_type for e in cat.CATALOG]
    assert types.count("b") == 1 and types.count("d") == 1 and types.count("c") == 2
    assert types.count("a") == 28
