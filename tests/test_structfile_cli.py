import dataclasses
import errno
import json
import os
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoprod import catalog as cat
from isoprod import chartab as ct
from isoprod import cli
from isoprod import groups as gr
from isoprod import ramification as rm
from isoprod.cyclotomic import CyclotomicNumber, parse_cyclotomic
from isoprod.groups import GroupError
from isoprod.ramification import RamificationError
from isoprod.structfile import ParseError, StructureFile, parse_structure_file
from algebra_oracle import shipped_entries


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


Z3Z3_LINES = fixture_text("z3xz3.struct").splitlines()


@pytest.mark.parametrize("extra, message, column", [
    ("expect genus = (7, 4)", "duplicate expect genus line", 1),
    ("expect type = a", "duplicate expect type line", 1),
    ("tuple D = [g1, g1^2]", "duplicate tuple 'D'", 1),
    ("  tuple E = [g1]", r"unknown tuple 'E' \(want C or D\)", 9),
])
def test_a_repeated_line_or_a_stray_tuple_is_refused_at_its_line(extra, message, column):
    """A second `expect` line of one kind, a second tuple of one label and a
    tuple that is neither C nor D are refused where they stand, not taken
    over the first or ignored."""
    text = "\n".join(Z3Z3_LINES + [extra]) + "\n"
    with pytest.raises(ParseError, match=message) as err:
        parse_structure_file(text)
    assert (err.value.line, err.value.column) == (len(Z3Z3_LINES) + 1, column)


def test_a_repeated_types_line_is_refused_at_its_line():
    text = fixture_text("psl2f7_a.search")
    assert parse_structure_file(text).type_pair is not None
    lines = text.splitlines()
    (types,) = [line for line in lines if line.startswith("types")]
    with pytest.raises(ParseError, match="duplicate types line") as err:
        parse_structure_file("\n".join(lines + ["# again", types]))
    assert err.value.line == len(lines) + 2


@pytest.mark.parametrize("command, index, extra, error", [
    # the second genus line is the fixture's own (7, 4), now at line 8
    ("analyze", 6, "expect genus = (1, 1)", "line 8, column 1: duplicate expect genus line"),
    ("validate", 8, "expect type = c", "line 9, column 1: duplicate expect type line"),
    ("validate", 6, "tuple E = [g1]", "line 7, column 7: unknown tuple 'E' (want C or D)"),
])
def test_cli_refuses_a_repeated_line_or_a_stray_tuple(tmp_path, capsys, command, index,
                                                       extra, error):
    """Each command reports the line that repeats an earlier one or names a
    third tuple as a positioned error with exit code 1, and prints no result."""
    path = tmp_path / "z3xz3.struct"
    path.write_text("\n".join(Z3Z3_LINES[:index] + [extra] + Z3Z3_LINES[index:]) + "\n")
    assert cli.main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")


def test_unknown_recipe_and_alias_errors():
    with pytest.raises(ParseError, match="frobnicate"):
        parse_structure_file("group = frobnicate 3\n").build()
    text = "group = abelian 3 3\ntuple C = [a*b]\ntuple D = [g1]\n"
    sfile = parse_structure_file(text)
    group = sfile.build()
    with pytest.raises(ParseError, match="undefined generator alias"):
        sfile.structure(group)


def test_id_cannot_be_redefined_as_an_alias():
    """Every word reads `id` as the identity, so `gen id = ...` would be
    accepted and then ignored: it is refused as already defined, at its
    line, like a redefined generator; the file builds without it."""
    tuples = "tuple C = [a*b, a^2*b, a*b, a*b^2, a*b]\ntuple D = [b^2, b, a, a^2]\n"
    valid = "group = abelian 3 3\ngen a = g1\ngen b = g2\n" + tuples
    assert parse_structure_file(valid).structure().genera() == (7, 4)
    for line in ("gen id = g1", "gen id = id", "gen g1 = g2"):
        sfile = parse_structure_file(
            f"group = abelian 3 3\n{line}\ngen a = g1\ngen b = g2\n" + tuples)
        with pytest.raises(ParseError, match=r"alias '(id|g1)' is already defined") as err:
            sfile.structure()
        assert err.value.line == 2


def test_product_not_identity_names_offending_tuple():
    text = (
        "group = abelian 3 3\n"
        "tuple C = [g1, g2]\n"
        "tuple D = [g2^2, g2, g1, g1^2]\n"
    )
    sfile = parse_structure_file(text)
    with pytest.raises(ParseError, match="tuple C: product .* not the identity") as err:
        sfile.structure()
    assert err.value.line == 2
    text = (
        "group = abelian 3 3\n"
        "tuple C = [g1, g2, g1^2*g2^2]\n"
        "tuple D = [g1, g1, g1]\n"
    )
    with pytest.raises(ParseError, match="tuple D: the entries do not generate") as err:
        parse_structure_file(text).structure()
    assert err.value.line == 3
    assert isinstance(err.value.__cause__, RamificationError)


SHIPPED_FILES = ("z3xz3.struct", "g128_36.struct", "z2cubed_z4.struct",
                 "psl2f7_a.search", "psl2f7_b.search")


def _edit(text):
    """One truncation, insertion, replacement or deletion of a character."""
    chars = st.one_of(st.sampled_from("0123456789g=*^-,()[] \n#"), st.characters())
    options = [
        st.integers(0, len(text)).map(lambda i: text[:i]),
        st.tuples(st.integers(0, len(text)), chars).map(
            lambda ic: text[:ic[0]] + ic[1] + text[ic[0]:]),
    ]
    if text:
        options += [
            st.tuples(st.integers(0, len(text) - 1), chars).map(
                lambda ic: text[:ic[0]] + ic[1] + text[ic[0] + 1:]),
            st.integers(0, len(text) - 1).map(lambda i: text[:i] + text[i + 1:]),
        ]
    return st.one_of(options)


@settings(max_examples=200, deadline=5000, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_structure_files_are_rejected_or_build(data):
    text = fixture_text(data.draw(st.sampled_from(SHIPPED_FILES)))
    for _ in range(data.draw(st.integers(1, 3))):
        text = data.draw(_edit(text))
    try:
        sfile = parse_structure_file(text)
        group = sfile.build()
    except ParseError as exc:
        assert exc.line >= 1 and exc.column >= 1
        return
    except GroupError:
        return
    assert isinstance(sfile, StructureFile)
    assert 1 <= group.order <= gr.DEFAULT_ORDER_BOUND


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
    assert out == ("invalid: line 3, column 1: the two systems are not disjoint: "
                   "the diagonal action is not free\n")  # at the tuple D line


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


def test_cli_unreadable_file_is_an_error(tmp_path, capsys):
    """A structure file that cannot be opened is reported like any other user
    error: `main` returns 1 and prints one `error:` line, raising nothing."""
    missing, directory = tmp_path / "missing.struct", tmp_path / "a-directory"
    directory.mkdir()
    for path, code in ((missing, errno.ENOENT), (directory, errno.EISDIR)):
        for command in ("analyze", "validate", "search", "chartab"):
            assert cli.main([command, str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: [Errno {code}] {os.strerror(code)}: '{path}'\n"


def test_cli_inconsistent_group_is_a_positioned_error(tmp_path, capsys):
    p = tmp_path / "inconsistent.struct"
    p.write_text("group = polycyclic 2 3 2\nrel g2^g1 = g2^2*g3\n")
    assert cli.main(["chartab", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1, column 1: ") and "engine defect" not in err


def test_alternating_index_below_one_is_refused(tmp_path, capsys):
    """`alternating n` with n < 1 is refused as `symmetric n` is, by
    `build_group` and by the CLI with exit code 1."""
    for recipe in ("alternating 0", "alternating -3"):
        with pytest.raises(GroupError, match="alternating index must be >= 1"):
            gr.build_group(f"group = {recipe}")
        p = tmp_path / "small.struct"
        p.write_text(f"group = {recipe}\n")
        assert cli.main(["chartab", str(p)]) == 1, recipe
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 1, column 1: ")
        assert "alternating index must be >= 1" in captured.err
    assert gr.build_group("group = alternating 1").order == 1


def test_oversized_recipes_are_refused_before_building(tmp_path, capsys, monkeypatch):
    """A recipe's order (or a permutation point) above the bound is refused
    from its numbers alone: no label list, permutation or table is built,
    so neither time nor memory grows with the numbers."""
    def unreachable(*args, **kwargs):
        raise AssertionError("an oversized recipe reached the group builder")

    recipes = ["cyclic 2049", "dihedral 1025", "abelian" + " 2" * 12, "symmetric 7",
               "alternating 8", "perm (1 2049)", "perm (1 1000000), (2 3 4)"]
    with monkeypatch.context() as m:
        m.setattr(gr.FiniteGroup, "__init__", unreachable)
        m.setattr(gr, "_cycles_to_perm", unreachable)
        for recipe in recipes:
            p = tmp_path / "big.struct"
            p.write_text(f"group = {recipe}\n")
            assert cli.main(["chartab", str(p)]) == 1, recipe
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: line 1, column 1: "), recipe
    assert gr.build_group("group = perm (1 2048)").order == 2
    assert gr.build_group("group = symmetric 6").order == 720

    # a product reads the order of a cyclic/dihedral/abelian/symmetric/
    # alternating/polycyclic factor from its numbers and bounds the other
    # factor by 2048 // that order: neither factor is built, and the refusal
    # names the user's bound.  A second factor whose order cannot be read
    # (a permutation group) is bounded by 2048 // |K| once K is built.
    built = []
    real_init = gr.FiniteGroup.__init__

    def recording(self, *args, **kwargs):  # records the groups built in full
        real_init(self, *args, **kwargs)
        built.append(kwargs["recipe"])

    products = ["product [cyclic 2048] [cyclic 2048]",
                "semidirect [cyclic 2048] [cyclic 2048]\nact g2: g1 -> g1^5",
                "product [cyclic 64] [dihedral 32]",
                "product [product [cyclic 64] [cyclic 64]] [cyclic 2]",
                "product [symmetric 7] [cyclic 2]",
                "product [perm (1 2 3 4 5 6 7 8), (1 2)] [alternating 5]",
                "product [cyclic 2048] [perm (1 2)]"]
    with monkeypatch.context() as m:
        m.setattr(gr.FiniteGroup, "__init__", recording)
        for recipe in products:
            built.clear()
            p = tmp_path / "big.struct"
            p.write_text(f"group = {recipe}\n")
            assert cli.main(["chartab", str(p)]) == 1, recipe
            captured = capsys.readouterr()
            assert captured.err == ("error: line 1, column 1: group order exceeds "
                                    "the bound 2048\n"), recipe
            want = ["cyclic 2048"] if recipe.endswith("[perm (1 2)]") else []
            assert built == want, (recipe, built)
    # a factor's permutation points stay bounded by the user's bound alone
    assert gr.build_group("group = product [cyclic 1024] [perm (3 4)]").order == 2048


def test_relation_exponents_stay_below_the_relative_order(tmp_path, capsys):
    """Relation words are in normal form: g2^3 in `polycyclic 2 3` is refused,
    and g2^1000000 before it is expanded into a million-letter word."""
    for word in ("g2^3", "g2^1000000"):
        with pytest.raises(GroupError, match="relative order 3"):
            gr.build_group(f"group = polycyclic 2 3\nrel g1^2 = {word}")
    with pytest.raises(GroupError, match="relative order 3"):
        gr.build_group("group = polycyclic 2 3\nrel g2^g1 = g2^4")
    assert gr.build_group("group = polycyclic 2 3\nrel g1^2 = g2^2").order == 6
    p = tmp_path / "rel.struct"
    p.write_text("group = polycyclic 2 3\nrel g1^2 = g2^1000000\n")
    assert cli.main(["chartab", str(p)]) == 1
    assert capsys.readouterr().err.startswith("error: line 2, column 1: ")


def test_recipe_line_errors_name_their_file_line(tmp_path, capsys):
    """A faulty `rel` or `act` line is reported at its own file line; an
    error of the recipe as a whole stays at the `group` line."""
    cases = [
        ("group = polycyclic 2 3\nrel g1^2 = g2^5\n", 2, "relative order 3"),
        ("# S3\n\ngroup = polycyclic 2 3\ngen a = g1\nrel g2^g1 = g2^2\n"
         "rel g1^2 = g2^5\n", 6, "relative order 3"),
        ("group = polycyclic 2 2\nrel g2^g1 = g2\nrel g1^g2 = g1\n", 3, "needs j < i"),
        ("group = polycyclic 2 2\nrel g1^2 = g1\n", 2, "later generators"),
        ("group = semidirect [cyclic 7] [cyclic 3]\nact g2: g1 -> g1^2\n"
         "act g9: g1 -> g1\n", 3, "unknown generators"),
        ("group = cyclic 3\nrel g1^3 = id\n", 2, "extra recipe lines"),
        # a product shares the semidirect recipe branch but reads no act line
        ("group = product [cyclic 2] [cyclic 2]\nact g3: g1 -> g1\n", 2,
         "unexpected extra recipe lines for 'product'"),
        ("group = product [cyclic 2] [cyclic 2]\nact g3 -> ?\n", 2,
         "unexpected extra recipe lines for 'product'"),
        ("# header\ngroup = polycyclic 2 3 2\nrel g2^g1 = g2^2*g3\n", 2,
         "not associative"),
    ]
    for text, lineno, message in cases:
        p = tmp_path / "bad.struct"
        p.write_text(text)
        assert cli.main(["chartab", str(p)]) == 1, text
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {lineno}, column 1: "), (text, err)
        assert message in err, (text, err)


def test_hostile_polycyclic_presentation_is_refused(tmp_path, capsys):
    """Ten generators of order 2 with g_j^g_i = g_j*g_(i+1)*...*g10 for
    every i < j: collecting its words took about a minute before the table
    was refused.  It ends in a positioned error, without a traceback."""
    lines = ["group = polycyclic " + " ".join(["2"] * 10)]
    lines += [f"rel g{j}^g{i} = " + "*".join(f"g{m}" for m in [j, *range(i + 1, 11)])
              for i in range(1, 11) for j in range(i + 1, 11)]
    p = tmp_path / "hostile.struct"
    p.write_text("\n".join(lines) + "\n")
    assert cli.main(["validate", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1, column 1: ")
    assert "not associative" in captured.err and "Traceback" not in captured.err


def test_non_utf8_file_is_a_positioned_error(tmp_path, capsys):
    p = tmp_path / "latin1.struct"
    p.write_bytes(b"group = cyclic 3\n\xff")
    for command in ("analyze", "search"):
        assert cli.main([command, str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 2, column 1: not UTF-8 text")
    # the bad byte's column counts the characters before it on its line
    p.write_bytes("group = cyclic 3\r\ntuple C = [\u00e9".encode() + b"\xe9]\n")
    assert cli.main(["analyze", str(p)]) == 1
    assert capsys.readouterr().err.startswith("error: line 2, column 13: ")


def test_non_ascii_digits_are_rejected(tmp_path, capsys):
    three, seven = "\u0663", "\u0667"  # Arabic-Indic 3 and 7
    recipes = [
        f"group = cyclic {seven}",
        f"group = abelian {three} 3",
        f"group = perm (1 2 {three})",
        f"group = polycyclic 2 {three}",
        f"group = polycyclic 3 3\nrel g2^g{chr(0x661)} = g2",
        f"group = polycyclic 3 3\nrel g1^{three} = id",
        f"group = semidirect [cyclic 7] [cyclic 3]\nact g{chr(0x662)}: g1 -> g1^2",
        f"group = semidirect [cyclic 7] [cyclic 3]\nact g2: g1 -> g1^{chr(0x662)}",
    ]
    for recipe in recipes:
        with pytest.raises(GroupError):
            gr.build_group(recipe)
        gr.build_group(recipe.translate({0x661: "1", 0x662: "2", 0x663: "3", 0x667: "7"}))
    z3 = gr.build_group("group = cyclic 3")
    with pytest.raises(GroupError):
        gr.parse_word(f"g1^{three}", gr.default_aliases(z3), z3)

    # (file, original line, replacement, line number of the error)
    cases = [
        ("z3xz3.struct", "group = abelian 3 3", f"group = abelian {three} 3", 2),
        ("z3xz3.struct", "expect genus = (7, 4)", f"expect genus = ({seven}, 4)", 7),
        ("z3xz3.struct", "tuple D = [b^2, b, a, a^2]", f"tuple D = [b^2, b, a, a^{chr(0x662)}]", 6),
        ("psl2f7_a.search", "types = ([7, 7, 7], [3, 3, 4])",
         f"types = ([{three},3,3],[3,3,3])", 3),
    ]
    for name, line, replacement, lineno in cases:
        text = fixture_text(name)
        assert line in text
        bad = text.replace(line, replacement)
        with pytest.raises(ParseError) as err:
            sfile = parse_structure_file(bad)
            sfile.structure(sfile.build())
        assert err.value.line == lineno
        path = tmp_path / name
        path.write_text(bad)
        command = "search" if name.endswith(".search") else "analyze"
        assert cli.main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: line {lineno}, ")


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


# one A5 structure of type ((2, 5, 5), (3, 3, 3, 3))
A5_STRUCT = """group = alternating 5
tuple C = [g1*g2^2, g2, g2^2*g1^2]
tuple D = [g1, g1^2, g1^2*g2, g2^4*g1]
"""


def _swap_degree_3_rows_on_order_5_class(text, group):
    """A5's cached table with the values of its two degree-3 rows swapped on
    the first class of order 5: every column keeps its sum weighted by
    chi(1), which is all `parse_table`'s column check sees."""
    k = next(i for i, c in enumerate(group.conjugacy_classes) if c.element_order == 5)
    lines = text.splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.startswith("char 3 ;")]
    assert len(at) == 2
    a, b = (lines[i][5:].rstrip("\n").split(" ; ") for i in at)
    a[k], b[k] = b[k], a[k]
    for i, values in zip(at, (a, b)):
        lines[i] = "char " + " ; ".join(values) + "\n"
    return "".join(lines)


def test_cache_with_swapped_irrational_values_is_recomputed(tmp_path, capsys):
    path = tmp_path / "a5.struct"
    path.write_text(A5_STRUCT)
    clean, damaged = tmp_path / "clean", tmp_path / "damaged"
    assert cli.main(["analyze", str(path), "--cache", str(clean)]) == 0
    want = capsys.readouterr().out
    [cached] = clean.iterdir()
    good = cached.read_text()
    group = gr.build_group("group = alternating 5")
    bad = _swap_degree_3_rows_on_order_5_class(good, group)
    assert bad != good
    damaged.mkdir()
    (damaged / cached.name).write_text(bad)
    assert cli.main(["analyze", str(path), "--cache", str(damaged)]) == 0
    captured = capsys.readouterr()
    assert captured.out == want and captured.err == ""
    assert (damaged / cached.name).read_text() == good

    # the damaged rows themselves: the column sums pass, the Galois check does not
    rows = [ct.Character(group, tuple(parse_cyclotomic(v) for v in line[5:].split(";")))
            for line in bad.splitlines() if line.startswith("char ")]
    table = ct.CharacterTable(group, rows)
    for k in range(len(group.conjugacy_classes)):
        column = CyclotomicNumber.sum(chi.values[0] * chi.values[k] for chi in rows)
        assert column == (group.order if k == 0 else 0)
    with pytest.raises(ct.CharacterTableError):
        ct.galois_orbits(table)
    with pytest.raises(ct.CharacterTableError):
        ct.parse_table(bad, group)
    swapped = next(chi for chi in rows if chi.degree == 3)
    with pytest.raises(ct.CharacterTableError, match="irrational"):
        ct.frobenius_schur(swapped)


def test_cli_unusable_cache_is_an_error(tmp_path, capsys, monkeypatch):
    path = fixture_path("z3xz3.struct", tmp_path)
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("not a directory\n")
    # a directory where the table's cache file goes: it can be neither read
    # nor replaced
    group = parse_structure_file(fixture_text("z3xz3.struct")).build()
    blocked = tmp_path / "blocked"
    (blocked / f"chartab-{ct.group_fingerprint(group)}.txt").mkdir(parents=True)
    commands = (["chartab", path], ["analyze", path], ["catalog", "--entry", "Z3xZ3"])
    for cache in (not_a_dir, blocked):
        for argv in commands:
            assert cli.main(argv + ["--cache", str(cache)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and "cache directory" in captured.err
    assert not_a_dir.read_text() == "not a directory\n"

    # a directory that cannot be written to, or whose file cannot be replaced
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    for module, name in ((ct.tempfile, "mkstemp"), (ct.os, "replace")):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, refuse)
            for argv in commands:
                cache = tmp_path / f"cache-{name}"
                assert cli.main(argv + ["--cache", str(cache)]) == 1
                err = capsys.readouterr().err
                assert err.startswith("error:") and "Permission denied" in err
                assert [p.name for p in cache.iterdir()] == []


def test_cli_search(tmp_path, capsys):
    search_file = tmp_path / "z3.search"
    search_file.write_text(
        "group = abelian 3 3\ntypes = ([3, 3, 3], [3, 3, 3])\n"
    )
    assert cli.main(["search", str(search_file), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 0  # sigma sets of two triangle systems always meet

    # "limited" means another structure exists beyond the first K: this type
    # pair has exactly 3456 structures
    z33 = tmp_path / "z33.search"
    z33.write_text("group = abelian 3 3\ntypes = ([3, 3, 3, 3], [3, 3, 3, 3])\n")
    cases = [([], 3456, False), (["--limit", "3456"], 3456, False),
             (["--limit", "3455"], 3455, True)]
    for extra, count, limited in cases:
        assert cli.main(["search", str(z33), "--json", *extra]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["count"], doc["limited"]) == (count, limited)

    psl = tmp_path / "psl.search"
    psl.write_text(fixture_text("psl2f7_a.search"))
    assert cli.main(["search", str(psl), "--limit", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 1 and doc["limited"] is True
    assert doc["structures"][0]["genera"] == [49, 8]
    for limit in ("0", "-3"):
        assert cli.main(["search", str(psl), "--limit", limit, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "limit" in captured.err
    # --bound also bounds building: PSL(2,7) has order 168
    assert cli.main(["search", str(psl), "--bound", "100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err

    missing_types = tmp_path / "none.search"
    missing_types.write_text("group = cyclic 2\n")
    assert cli.main(["search", str(missing_types)]) == 2


def test_cli_search_refuses_bounds_below_one(tmp_path, capsys):
    """`--bound 0` is not the default bound, and `--bound -5` is not a bound
    on permutation points: both are refused before the group is built."""
    psl = fixture_path("psl2f7_a.search", tmp_path)
    for bound in ("0", "-5"):
        assert cli.main(["search", psl, "--bound", bound]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the search bound must be at least 1\n"
    with pytest.raises(RamificationError, match="bound must be at least 1"):
        rm.find_structures(gr.cyclic_group(2), ([2, 2], [2, 2]), bound=0)


@pytest.mark.parametrize("side, message", [
    ("[6]", "a spherical system needs >= 2 entries, got 1"),
    ("[1, 6, 6]", "branching orders must be >= 2: (1, 6, 6)"),
])
def test_search_types_without_systems_are_positioned_errors(tmp_path, capsys,
                                                            side, message):
    """A type no spherical system has is refused at its `types` line, in the
    words of `validate_spherical` and `genus`, on either side."""
    for pair in (f"({side}, [6, 6])", f"([6, 6], {side})"):
        p = tmp_path / "bad.search"
        p.write_text(f"group = cyclic 6\n# a comment\ntypes = {pair}\n")
        assert cli.main(["search", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 3, column 1: {message}\n"
    signature = [int(x) for x in side.strip("[]").split(",")]
    for pair in ((signature, [6, 6]), ([6, 6], signature)):
        with pytest.raises(RamificationError) as exc:
            rm.find_structures(gr.cyclic_group(6), pair)
        assert str(exc.value) == message


def test_cli_search_refuses_types_inconsistent_with_the_order(tmp_path, capsys):
    """A type that Riemann-Hurwitz refuses for |G| is an error, not `count: 0`."""
    psl = fixture_text("psl2f7_a.search").splitlines()[1]
    for types, bad in (("([2, 3], [7, 7, 7])", "[2, 3]"), ("([7, 7, 7], [2, 3])", "[2, 3]")):
        p = tmp_path / "impossible.search"
        p.write_text(f"{psl}\ntypes = {types}\n")
        for extra in ([], ["--json"], ["--limit", "1"]):
            assert cli.main(["search", str(p), *extra]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: type {bad} is inconsistent with a group "
                                    "of order 168 (genus would be -69)\n")


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


def test_catalog_cli_unknown_entry_is_a_usage_error(capsys):
    assert cli.main(["catalog", "--entry", "NOPE"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown catalog entries: ['NOPE']\n"


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


def test_fixture_expectations_match_their_catalog_rows():
    """Each shipped row's fixture is a data file, and its `expect genus` and
    `expect type` lines record the same facts as the `genera` and
    `surface_type` of the row.  A data file may be named by no row (the
    `.search` files are read by the `search` command)."""
    entries = shipped_entries()
    fixtures = {p.name for p in resources.files("isoprod.data").iterdir()
                if p.name.endswith((".struct", ".search"))}
    named = [e.fixture for e in entries]
    assert len(named) == len(set(named)) == 5
    assert set(named) <= fixtures
    for entry in entries:
        expectations = parse_structure_file(fixture_text(entry.fixture)).expectations
        assert tuple(expectations["genus"]) == entry.genera, entry.name
        assert expectations["type"] == entry.surface_type, entry.name


@pytest.mark.parametrize("name", ["psl2f7_a", "psl2f7_b"])
def test_frozen_psl_structures_are_the_first_hits_of_their_searches(name):
    """`<name>.struct` holds the first structure that the search of
    `<name>.search` finds, over the same group recipe, with the same
    expectations."""
    frozen = parse_structure_file(fixture_text(name + ".struct"))
    searched = parse_structure_file(fixture_text(name + ".search"))
    assert frozen.group_lines == searched.group_lines
    assert frozen.expectations == searched.expectations
    group = searched.build()
    (first,) = rm.search_structures(group, searched.type_pair, limit=1)
    assert frozen.structure(group) == first


def test_catalog_table_rows_match_expectations():
    # Table rows: orders descending, shipped entries carry the right genera
    orders = [e.order for e in cat.CATALOG]
    assert orders == sorted(orders, reverse=True)
    shipped = {e.name: e for e in shipped_entries()}
    assert shipped["Z3xZ3"].genera == (7, 4)
    assert shipped["G128-36"].genera == (17, 17)
    assert shipped["Z2^3xZ4"].genera == (9, 9)
    assert shipped["PSL2F7-a"].genera == (49, 8)
    assert shipped["PSL2F7-b"].genera == (17, 22)
    types = [e.surface_type for e in cat.CATALOG]
    assert types.count("b") == 1 and types.count("d") == 1 and types.count("c") == 2
    assert types.count("a") == 28


def test_catalog_rows_verify_their_order(monkeypatch, capsys):
    """Every row's order is the order in its small-group id, and `--assert`
    checks the built group's order on a shipped row: the Z3xZ3 row built on
    the order-32 fixture of Z2^3xZ4 fails with an order line."""
    for entry in cat.CATALOG:
        m = re.fullmatch(r"<([0-9]+),[0-9]+>", entry.small_group_id)
        assert m and int(m.group(1)) == entry.order, entry.name
    row = dataclasses.replace(cat.entry_by_name("Z3xZ3"), fixture="z2cubed_z4.struct")
    monkeypatch.setattr(cat, "CATALOG", (row,))
    assert cli.main(["catalog", "--entry", "Z3xZ3", "--assert"]) == 1
    assert "\nFAIL Z3xZ3: order = 32, expected 9\n" in capsys.readouterr().out


def _record_calls(monkeypatch, calls, owner, name, subject):
    """Wrap `owner.name` so that each call appends `subject(*args)` to
    `calls[name]`."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.setdefault(name, []).append(subject(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_catalog_run_reports_what_each_entry_reports_alone(tmp_path, warm):
    """Sharing groups and tables between the entries of one run changes no
    report and no mismatch: each entry run alone, on a cache as cold or as
    warm as the run's, gives the same result."""
    shared = tmp_path / "shared"
    if warm:
        cat.run_catalog(cache_dir=str(shared))
    results = cat.run_catalog(cache_dir=str(shared))
    assert len(results) == len(cat.CATALOG)
    for i, result in enumerate(results):
        cache = shared if warm else tmp_path / f"alone-{i}"
        alone = cat.run_entry(result.entry, str(cache))
        assert (alone.report, alone.mismatches) == (result.report, result.mismatches)


def test_a_catalog_run_builds_and_tables_each_distinct_group_once(tmp_path, monkeypatch):
    """PSL2F7-a and PSL2F7-b carry one recipe: a run builds the 4 distinct
    groups of the 5 shipped rows once each, and computes or reads one table
    and one orbit list per group; a warm run parses 4 cache files, where
    the entries run one by one parse 5."""
    calls = {}
    _record_calls(monkeypatch, calls, StructureFile, "build",
                  lambda sfile, *args: "\n".join(sfile.group_lines))
    _record_calls(monkeypatch, calls, ct, "cached_character_table",
                  lambda group, *args: group)
    _record_calls(monkeypatch, calls, ct, "galois_orbits", lambda table: table.group)
    _record_calls(monkeypatch, calls, ct, "parse_table", lambda text, group: group)
    cache = str(tmp_path / "cache")
    for run in ("cold", "warm"):
        calls.clear()
        results = cat.run_catalog(cache_dir=cache)
        assert all(r.ok for r in results) and len(shipped_entries()) == 5
        assert len(calls["build"]) == len(set(calls["build"])) == 4, run
        groups = calls["cached_character_table"]
        assert len({id(g) for g in groups}) == len(groups) == 4, run
        assert calls["galois_orbits"] == groups, run
        assert len(calls.get("parse_table", [])) == (0 if run == "cold" else 4)
    calls.clear()
    for entry in shipped_entries():
        cat.run_entry(entry, cache)
    assert len(calls["build"]) == len(calls["parse_table"]) == 5


def test_a_failing_table_fails_each_entry_of_its_group(tmp_path, monkeypatch):
    """A table that fails is not kept for the run: both PSL(2,7) rows report
    the failure, the other shipped rows are analyzed, the summary counts
    only those, and an unusable cache still ends the whole run."""
    real = ct.cached_character_table
    refused = []

    def refusing(group, cache_dir=None):
        if group.order == 168:
            refused.append(group)
            raise failure[0]
        return real(group, cache_dir)

    monkeypatch.setattr(ct, "cached_character_table", refusing)
    failure = [ct.CharacterTableError("table refused")]
    results = cat.run_catalog(cache_dir=str(tmp_path / "cache"))
    assert len(refused) == 2 and refused[0] is refused[1]
    by_name = {r.entry.name: r for r in results}
    for name in ("PSL2F7-a", "PSL2F7-b"):
        assert by_name[name].report is None
        assert by_name[name].mismatches == (f"{name}: table refused",)
    analyzed = sorted(r.entry.name for r in results
                      if r.report is not None and r.report["status"] == "analyzed")
    assert analyzed == ["G128-36", "Z2^3xZ4", "Z3xZ3"]
    assert cat.catalog_document(results)["analyzed"] == 3
    assert "analyzed: 3  failures: 2" in cat.render_catalog(results)
    assert [r.entry.name for r in results if not r.ok] == ["PSL2F7-a", "PSL2F7-b"]
    failure[0] = ct.CacheError("unusable cache directory")
    with pytest.raises(ct.CacheError):
        cat.run_catalog(cache_dir=str(tmp_path / "cache"))
