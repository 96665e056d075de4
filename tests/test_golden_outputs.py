"""CLI outputs compared byte for byte with the files under tests/golden/.

Each case runs `isoprod.cli.main` in a scratch directory that holds copies
of the shipped fixtures, so file names in the reports do not depend on where
the suite runs.  A case's stdout is stored in `<name>.out` and every exit
code in `exit_codes.json`.

After a change that is meant to alter an output, regenerate the files with

    PYTHONPATH=src python tests/test_golden_outputs.py

and review the diff.
"""

import json
import os
from importlib import resources
from pathlib import Path

import pytest

from isoprod import cli

GOLDEN = Path(__file__).with_name("golden")

STRUCT_FILES = ("z3xz3.struct", "g128_36.struct", "z2cubed_z4.struct")
SEARCH_FILES = ("psl2f7_a.search", "psl2f7_b.search")

CASES = {
    "catalog_assert": ["catalog", "--assert"],
    "catalog_assert_json": ["catalog", "--assert", "--json"],
    **{f"analyze_json_{name}": ["analyze", name, "--json"] for name in STRUCT_FILES},
    **{f"chartab_{name}": ["chartab", name] for name in STRUCT_FILES},
    **{f"search_json_limit5_{name}": ["search", name, "--json", "--limit", "5"]
       for name in SEARCH_FILES},
    **{f"search_limit1_{name}": ["search", name, "--limit", "1"] for name in SEARCH_FILES},
}


def _write_fixtures(directory: Path) -> None:
    data = resources.files("isoprod.data")
    for name in STRUCT_FILES + SEARCH_FILES:
        (directory / name).write_text(data.joinpath(name).read_text())


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
