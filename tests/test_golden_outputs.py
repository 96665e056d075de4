"""CLI outputs compared byte for byte with the files under tests/golden/.

Each case runs `isoprod.cli.main` in a scratch directory that holds copies
of the shipped fixtures, so file names in the reports do not depend on where
the suite runs.  A case's stdout is stored in `<name>.out` and every exit
code in `exit_codes.json`.

After a change that is meant to alter an output, regenerate the files with

    PYTHONPATH=src python tests/test_golden_outputs.py

and review the diff.  `FULL_SEARCH_DIGESTS` (sha256 of a full search's
output) and `TABLE_DIGESTS` (sha256 of `render_table` for a few groups) are
kept in this file and are not rewritten by that command.
"""

import functools
import hashlib
import json
import os
from importlib import resources
from pathlib import Path

import pytest

from isoprod import chartab as ct
from isoprod import cli
from isoprod import groups as gr
from conftest import assert_int_coordinates

GOLDEN = Path(__file__).with_name("golden")

STRUCT_FILES = ("z3xz3.struct", "g128_36.struct", "z2cubed_z4.struct")
SEARCH_FILES = ("psl2f7_a.search", "psl2f7_b.search")
# written beside the shipped files: a type pair that Riemann-Hurwitz refuses
# for PSL(2,7), so `search` ends in an error
EXTRA_FILES = {
    "impossible_types.search": "group = perm (1 2 3 4 5 6 7), (1 8)(2 7)(3 4)(5 6)\n"
                               "types = ([2, 3], [7, 7, 7])\n",
}

CASES = {
    "catalog_assert": ["catalog", "--assert"],
    "catalog_assert_json": ["catalog", "--assert", "--json"],
    **{f"analyze_{name}": ["analyze", name] for name in STRUCT_FILES},
    **{f"analyze_json_{name}": ["analyze", name, "--json"] for name in STRUCT_FILES},
    **{f"chartab_{name}": ["chartab", name] for name in STRUCT_FILES},
    **{f"search_json_limit5_{name}": ["search", name, "--json", "--limit", "5"]
       for name in SEARCH_FILES},
    **{f"search_limit1_{name}": ["search", name, "--limit", "1"] for name in SEARCH_FILES},
    **{f"chartab_{name}": ["chartab", name] for name in SEARCH_FILES},
    "search_impossible_types": ["search", "impossible_types.search"],
}


def _write_fixtures(directory: Path) -> None:
    data = resources.files("isoprod.data")
    for name in STRUCT_FILES + SEARCH_FILES:
        (directory / name).write_text(data.joinpath(name).read_text())
    for name, text in EXTRA_FILES.items():
        (directory / name).write_text(text)


def _expected_exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, tmp_path, monkeypatch, capsys):
    _write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ISOPROD_CACHE", raising=False)
    code = cli.main(CASES[name])
    out = capsys.readouterr().out
    assert code == _expected_exit_codes()[name]
    assert out == (GOLDEN / f"{name}.out").read_text()


# sha256 of the stdout of the unlimited `search psl2f7_a.search` (all 4,032
# structures), as text and as JSON; too long to keep as golden files
FULL_SEARCH_DIGESTS = {
    "text": "fe453d41e9808710ba0adb2a9d4205f004c17afa0347a0f5180061273e5ccbc1",
    "json": "6f97fca4d24a5c82262afbcec62d7347a53047984757faa6ba999871e4d4d40d",
}


@pytest.mark.parametrize("form", sorted(FULL_SEARCH_DIGESTS))
def test_full_search_output_digest(form, tmp_path, monkeypatch, capsys):
    _write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = ["search", "psl2f7_a.search"] + (["--json"] if form == "json" else [])
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FULL_SEARCH_DIGESTS[form]


# sha256 of `render_table` for groups whose nonlinear part needs the
# eigenspace split: large dihedral complements, repeated eigenvalues, and
# the irrational values of A5; and for the 360 classes of Z360, whose values
# span 24 conductors
TABLE_DIGESTS = {
    "cyclic 360": "5a33dcd370490e524becd04c53ace94636dbb0e999929f8be9b329b6c8275118",
    "dihedral 300": "ef0f9eac2e08c95d0c3ef01703940f2a75d5160854e0752d19e860777fd7aee6",
    "dihedral 24": "fedc7a64eecd5d639c0fc561b84270f34025799c5384b2457d917cdb31e0251a",
    "dihedral 48": "260d434f482cf83e962ea1456bbebe20e7972f5f09c2f15040193cd7873a3e78",
    "symmetric 4": "1c045014b55ffa2d34cfb9808f0be138bf7f796cd1e24cd5922e205bc8174b2b",
    "alternating 5": "e5bb5d98838024af885a8f2eb94730a98191e05f627d44c1614c9dd0be3eeac5",
    "symmetric 5": "65af357cca9b81c149e699ceca1d7faba05b9d91f1de5ece043d5d290dbfea3a",
}


@functools.lru_cache(maxsize=None)
def _digest_table(recipe):
    return ct.character_table(gr.build_group(f"group = {recipe}"))


@pytest.mark.parametrize("recipe", sorted(TABLE_DIGESTS))
def test_render_table_digest(recipe):
    table = _digest_table(recipe)
    assert hashlib.sha256(ct.render_table(table).encode()).hexdigest() == TABLE_DIGESTS[recipe]


@pytest.mark.parametrize("recipe", sorted(TABLE_DIGESTS))
def test_digest_table_coordinates_are_ints(recipe):
    assert_int_coordinates(_digest_table(recipe))


def _regenerate() -> None:
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    os.environ.pop("ISOPROD_CACHE", None)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        _write_fixtures(Path(scratch))
        os.chdir(scratch)
        try:
            for name, argv in sorted(CASES.items()):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    codes[name] = cli.main(argv)
                (GOLDEN / f"{name}.out").write_text(buf.getvalue())
        finally:
            os.chdir(cwd)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
