"""Program-wide guards: no definition under `src/isoprod` that nothing but
the tests reads, no module but `groups` that reads a group's private
members, no module but `cyclotomic` that builds a cyclotomic number past
its canonical form or reads the text of one, no reference cycle that
keeps a group alive, and a test run that reports a failing property test
as a failure."""

import ast
import gc
import re
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import isoprod
from isoprod import catalog as cat
from isoprod import chartab as ct
from isoprod import cli
from isoprod import groups as gr
from isoprod import ramification as rm
from isoprod import surface as sf

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "isoprod"
PERFBENCH = ROOT / "perfbench"
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _names_used(node) -> list[str]:
    """The names read in `node`'s subtree, as `ast.Name` ids and
    `ast.Attribute` attributes (docstrings and other strings are not read)."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
    return out


def _perfbench_names() -> set[str]:
    """Every name the benchmark reads, string constants included, so the
    dotted names in `tracing.SPANS` (e.g. "FiniteGroup.closure") count."""
    out = set()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out.update(_names_used(tree))
        for n in ast.walk(tree):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                out.update(_IDENTIFIER.findall(n.value))
    return out


def unused_definitions() -> list[str]:
    """The functions, methods and classes defined under `src/isoprod` that
    nothing in the program reads outside their own body, that the benchmark
    does not name, and that are neither exported nor a dunder nor `main`.

    Uses are matched by name only: a definition counts as used when any
    definition of that name is read, so a `Character.galois` or a
    `Character.conjugate` would pass on the uses of `CyclotomicNumber.galois`
    and `FiniteGroup.conjugate`."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    uses: dict[str, int] = {}
    for tree in trees.values():
        for name in _names_used(tree):
            uses[name] = uses.get(name, 0) + 1
    exempt = set(isoprod.__all__) | {"main"} | _perfbench_names()
    unused = []
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            own = _names_used(node).count(name)  # recursion is no use
            if uses.get(name, 0) == own:
                unused.append(f"{filename}:{node.lineno} {name}")
    return unused


def test_every_src_definition_is_read_by_the_program():
    assert unused_definitions() == []


def private_group_reads() -> list[str]:
    """The reads of a `_`-prefixed `FiniteGroup` member -- a method, a
    cached property or a `self._name` attribute of the class -- in every
    module under `src/isoprod` but `groups.py`, as "file:line name".
    Members are matched by name only, as in `unused_definitions`."""
    groups = ast.parse((SRC / "groups.py").read_text(encoding="utf-8"))
    (cls,) = [n for n in groups.body
              if isinstance(n, ast.ClassDef) and n.name == "FiniteGroup"]
    members = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    members |= {n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "self"}
    private = {m for m in members if m.startswith("_") and not m.startswith("__")}
    reads = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "groups.py":
            continue
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Attribute) and n.attr in private:
                reads.append(f"{path.name}:{n.lineno} {n.attr}")
    return reads


def test_only_groups_reads_the_private_members_of_a_group():
    assert private_group_reads() == []


def raw_cyclotomic_constructions(path: Path) -> list[str]:
    """The calls of the bare `CyclotomicNumber(...)` constructor in the
    module at `path`, as "file:line"; the constructor wraps a vector that
    is already canonical, and nothing checks that it is."""
    return [f"{path.name}:{n.lineno}"
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(n, ast.Call) and "CyclotomicNumber" in (
                getattr(n.func, "id", None), getattr(n.func, "attr", None))]


def test_only_cyclotomic_calls_the_raw_constructor():
    """Every value outside `cyclotomic` reaches its canonical form, the
    minimal conductor, through `from_terms`, `from_rational` or arithmetic."""
    assert raw_cyclotomic_constructions(SRC / "cyclotomic.py")  # the scan sees calls
    assert [call for path in sorted(SRC.glob("*.py")) if path.name != "cyclotomic.py"
            for call in raw_cyclotomic_constructions(path)] == []


def literal_syntax_strings(path: Path) -> list[str]:
    """The string constants of the module at `path`, docstrings aside, that
    spell the `z(N)` of a cyclotomic literal or a pattern for it, as
    "file:line"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    return [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and id(n) not in docstrings and ("z(" in n.value or "z\\(" in n.value)]


def test_only_cyclotomic_knows_the_literal_syntax():
    """`cyclotomic.read_literal` is the one reader of the text that
    `render_cyclotomic` writes; no other module scans that text itself."""
    assert literal_syntax_strings(SRC / "cyclotomic.py")  # the scan sees the syntax
    assert [s for path in sorted(SRC.glob("*.py")) if path.name != "cyclotomic.py"
            for s in literal_syntax_strings(path)] == []


def test_groups_are_freed_without_the_cyclic_collector():
    """With the cyclic garbage collector off, a group, with everything built
    on it, is freed by reference counting alone as soon as the last
    reference goes: no class, memo or generator refers back to it."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        s4 = gr.symmetric_group(4)
        table = ct.character_table(s4)
        orbits = ct.galois_orbits(table)
        idempotents = [ct.rational_idempotent(table, o) for o in orbits]
        text = ct.render_table(table)
        z3z3 = cat.realize_structure(cat.entry_by_name("Z3xZ3"))
        analysis = sf.analyze(z3z3, ct.character_table(z3z3.group))
        psl = cat.realize_structure(cat.entry_by_name("PSL2F7-a"))  # parses psl2f7_a.struct
        found = rm.search_structures(psl.group, ((7, 7, 7), (3, 3, 4)))
        # a limited search leaves its lazy sides suspended, holding systems
        limited = [rm.search_structures(psl.group, ((7, 7, 7), (3, 3, 4)), limit=k)
                   for k in (1, 7)]
        assert text and analysis.surface_type == "c" and len(found) == 4032
        assert [len(s) for s in limited] == [1, 7]
        refs = [weakref.ref(g) for g in (s4, z3z3.group, psl.group)]
        del s4, table, orbits, idempotents, text, z3z3, analysis, psl, found, limited
        assert [r() for r in refs] == [None, None, None]
    finally:
        if was_enabled:
            gc.enable()


def test_cli_calls_leave_no_cyclic_garbage(tmp_path, capsys):
    """`main` reuses one argument parser, so with the cyclic collector off a
    `catalog` and an `analyze` call leave nothing for it to collect."""
    fixture = tmp_path / "z3xz3.struct"
    fixture.write_text(cat._fixture_text("z3xz3.struct"))
    calls = (["catalog", "--entry", "Z3xZ3"], ["analyze", str(fixture)])
    for argv in calls:  # warm-up: the parser and the lazy imports
        assert cli.main(argv) == 0
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for argv in calls:
            assert cli.main(argv) == 0
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_a_failing_property_test_is_a_plain_failure(tmp_path):
    """Under this repository's pytest settings, which turn warnings into
    errors, a failing Hypothesis test is reported as one failure and the
    tests after it still run.  Its failure report imports libcst, which
    warns on a deprecated alias; unfiltered, that warning is raised inside
    the plugin hook and ends the run with INTERNALERROR (exit code 3)."""
    (tmp_path / "test_property.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_after():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output, output
