"""The structure-file grammar.

A structure file declares a group, optional generator aliases, and the
data to run on it: two generating tuples (for analysis), or a pair of
types (for searches), plus optional expectations asserted after the
analysis.  Lines, in any order after the group block:

    # comment
    group = <recipe>           one recipe line; `rel`/`act` lines may follow
    rel g2^g1 = g2*g3          polycyclic relations (after a polycyclic group)
    act g4: g1 -> g1*g3        semidirect action (after a semidirect group)
    gen a = g1*g2^2            alias definition
    tuple C = [w1, w2, ...]    entries as words in aliases/generators
    tuple D = [w1, w2, ...]
    types = ([7,7,7], [3,3,4]) type pair for a search
    expect genus = (7, 4)
    expect type = c

Words are products of aliases and integer powers, e.g. g1*g2^-1*g4^2.
Each of the `group`, `tuple C`, `tuple D`, `types`, `expect genus` and
`expect type` lines may appear once, and a tuple is labelled C or D.
Parsing stops at the first error, reported with line and column (a tuple
that is no spherical system at its line, a non-disjoint pair at tuple D).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .groups import (
    FiniteGroup,
    GroupError,
    build_group,
    default_aliases,
    parse_word,
)
from .ramification import (
    RamificationError,
    RamificationStructure,
    check_type,
    validate_spherical,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass
class StructureFile:
    group_lines: list[str]
    group_linenos: list[int]                     # file line of each group line
    aliases: list[tuple[str, str, int]]          # (name, word, line number)
    tuples: dict[str, tuple[list[str], int]]     # label -> (words, line number)
    type_pair: tuple[tuple[int, ...], tuple[int, ...]] | None
    expectations: dict[str, object] = field(default_factory=dict)

    # -- realization against a built group

    def build(self, order_bound=None) -> FiniteGroup:
        kwargs = {} if order_bound is None else {"order_bound": order_bound}
        try:
            return build_group("\n".join(self.group_lines), **kwargs)
        except GroupError as exc:
            raise ParseError(str(exc), self.group_linenos[exc.recipe_line]) from exc

    def alias_table(self, group: FiniteGroup) -> dict[str, int]:
        """The generators g1, g2, ... and the file's aliases, by name; `id`
        names the identity in every word, so it is taken too."""
        table = default_aliases(group)
        for name, word, line in self.aliases:
            if name in table or name == "id":
                raise ParseError(f"alias {name!r} is already defined", line)
            try:
                table[name] = parse_word(word, table, group)
            except GroupError as exc:
                raise ParseError(str(exc), line) from exc
        return table

    def tuple_entries(self, label: str, group: FiniteGroup,
                      aliases: dict[str, int]) -> list[int]:
        words, line = self.tuples[label]
        entries = []
        for w in words:
            try:
                entries.append(parse_word(w, aliases, group))
            except GroupError as exc:
                raise ParseError(f"tuple {label}: {exc}", line) from exc
        return entries

    def structure(self, group: FiniteGroup | None = None) -> RamificationStructure:
        group = group or self.build()
        aliases = self.alias_table(group)
        for label in ("C", "D"):
            if label not in self.tuples:
                raise ParseError(f"missing `tuple {label} = [...]` line", 1)
        systems = []
        for label in ("C", "D"):
            entries = self.tuple_entries(label, group, aliases)
            try:
                systems.append(validate_spherical(group, entries))
            except RamificationError as exc:
                raise ParseError(f"tuple {label}: {exc}", self.tuples[label][1]) from exc
        try:
            return RamificationStructure(*systems)
        except RamificationError as exc:  # not disjoint: reported at tuple D
            raise ParseError(str(exc), self.tuples["D"][1]) from exc


_TUPLE_RE = re.compile(r"tuple\s+([A-Za-z]\w*)\s*=\s*\[(.*)\]\s*$")
_GEN_RE = re.compile(r"gen\s+([A-Za-z_]\w*)\s*=\s*(.+)$")
_EXPECT_GENUS_RE = re.compile(r"expect\s+genus\s*=\s*\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)\s*$")
_EXPECT_TYPE_RE = re.compile(r"expect\s+type\s*=\s*([a-d])\s*$")
_TYPES_RE = re.compile(r"types\s*=\s*\(\s*\[([0-9,\s]*)\]\s*,\s*\[([0-9,\s]*)\]\s*\)\s*$")


def _type_list(body: str, lineno: int) -> tuple[int, ...]:
    """One side of a `types` line, refused at that line when it is no type
    of a spherical system."""
    items = [x.strip() for x in body.split(",") if x.strip()]
    if not items:
        raise ParseError("empty type list", lineno)
    try:
        signature = tuple(int(x) for x in items)
    except ValueError as exc:
        raise ParseError(f"bad type list {body!r}", lineno) from exc
    try:
        check_type(signature)
    except RamificationError as exc:
        raise ParseError(str(exc), lineno) from exc
    return signature


def parse_structure_file(text: str) -> StructureFile:
    lines = text.splitlines()
    group_lines: list[str] = []
    group_linenos: list[int] = []
    aliases: list[tuple[str, str, int]] = []
    tuples: dict[str, tuple[list[str], int]] = {}
    type_pair = None
    expectations: dict[str, object] = {}

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword = line.split()[0].split("=")[0]
        if keyword == "group":
            if group_lines:
                raise ParseError("duplicate group line", lineno,
                                 raw.index("group") + 1)
            if "=" not in line:
                raise ParseError("group line needs `group = <recipe>`", lineno)
            group_lines.append(line)
            group_linenos.append(lineno)
        elif keyword in ("rel", "act"):
            if not group_lines:
                raise ParseError(f"{keyword} line before the group line", lineno)
            group_lines.append(line)
            group_linenos.append(lineno)
        elif keyword == "gen":
            m = _GEN_RE.match(line)
            if not m:
                raise ParseError("malformed gen line (want `gen a = word`)", lineno)
            aliases.append((m.group(1), m.group(2).strip(), lineno))
        elif keyword == "tuple":
            m = _TUPLE_RE.match(line)
            if not m:
                raise ParseError(
                    "malformed tuple line (want `tuple C = [w1, w2, ...]`)", lineno
                )
            label = m.group(1)
            if label not in ("C", "D"):
                raise ParseError(f"unknown tuple {label!r} (want C or D)", lineno,
                                 len(raw) - len(raw.lstrip()) + m.start(1) + 1)
            if label in tuples:
                raise ParseError(f"duplicate tuple {label!r}", lineno)
            words = [w.strip() for w in m.group(2).split(",") if w.strip()]
            if not words:
                raise ParseError(f"tuple {label} is empty", lineno,
                                 raw.index("[") + 1)
            tuples[label] = (words, lineno)
        elif keyword == "types":
            if type_pair is not None:
                raise ParseError("duplicate types line", lineno)
            m = _TYPES_RE.match(line)
            if not m:
                raise ParseError(
                    "malformed types line (want `types = ([m1,...], [m1,...])`)",
                    lineno,
                )
            type_pair = (_type_list(m.group(1), lineno), _type_list(m.group(2), lineno))
        elif keyword == "expect":
            if m := _EXPECT_GENUS_RE.match(line):
                kind, value = "genus", (int(m.group(1)), int(m.group(2)))
            elif m := _EXPECT_TYPE_RE.match(line):
                kind, value = "type", m.group(1)
            else:
                raise ParseError("unknown expect line (genus or type)", lineno)
            if kind in expectations:
                raise ParseError(f"duplicate expect {kind} line", lineno)
            expectations[kind] = value
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno,
                             len(raw) - len(raw.lstrip()) + 1)

    if not group_lines:
        raise ParseError("missing group line", 1, 1)
    return StructureFile(group_lines, group_linenos, aliases, tuples, type_pair,
                         expectations)
