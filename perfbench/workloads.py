"""The four isoprod workloads: seeded inputs, one op each, and its checks.

`WORKLOADS[name](iso, rng)` builds a workload's inputs from a seeded
`random.Random` and returns its op list (one pass).  Each `Op` has a
`run` that makes only program calls (this is what is timed) and a `check`
that verifies the output with an invariant the benchmark computes itself.
`check` returns `(facts, problems)`: `facts` is a small JSON-able dict of
deterministic results (digests, counts) and `problems` a list of failed
checks.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256
from typing import Any, Callable


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[dict, list[str]]]


def digest(*parts) -> str:
    h = sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# seeded relabelings


def _prime_of(q: int) -> int:
    return next(p for p in range(2, q + 1) if q % p == 0)


def abelian_recipe(rng, prime_powers) -> str:
    """A seeded presentation of the abelian group with these elementary
    divisors: coprime divisors are merged into factors at random and the
    factors shuffled, so the group stays the same up to isomorphism."""
    blocks: list[dict[int, int]] = []
    for q in rng.sample(list(prime_powers), len(prime_powers)):
        p = _prime_of(q)
        options = [b for b in blocks if p not in b] + [None]
        block = rng.choice(options)
        if block is None:
            blocks.append({p: q})
        else:
            block[p] = q
    factors = [math.prod(b.values()) for b in blocks]
    rng.shuffle(factors)
    if len(factors) == 1:
        return f"cyclic {factors[0]}"
    return "abelian " + " ".join(map(str, factors))


_CYCLE_RE = re.compile(r"\(([\d\s]+)\)")


def parse_perm_recipe(recipe: str) -> list[list[list[int]]]:
    """Cycles of each generator of a `perm (...)(...), (...)` recipe."""
    body = recipe.split("perm", 1)[1]
    return [[[int(x) for x in c.split()] for c in _CYCLE_RE.findall(part)]
            for part in body.split(",")]


def relabel_perm(rng, generators) -> str:
    """Conjugate the permutation points by a seeded permutation and shuffle
    the generator order: the same group, with other element indices."""
    points = sorted({x for gen in generators for cyc in gen for x in cyc})
    image = dict(zip(points, rng.sample(points, len(points))))
    gens = ["".join("(" + " ".join(str(image[x]) for x in cyc) + ")" for cyc in gen)
            for gen in generators]
    rng.shuffle(gens)
    return "perm " + ", ".join(gens)


A5_GENERATORS = [[[1, 2, 3, 4, 5]], [[1, 2, 3]]]


def _search_file(iso, name: str):
    text = (iso.data_dir / name).read_text(encoding="utf-8")
    sfile = iso.structfile.parse_structure_file(text)
    recipe = sfile.group_lines[0].split("=", 1)[1].strip()
    return parse_perm_recipe(recipe), sfile.type_pair


def _warm(group):
    """Fill the group's lazy caches, as any user of a built group pays once."""
    group.conjugacy_classes
    group.class_of
    group.element_orders
    group.exponent
    return group


# ---------------------------------------------------------------------------
# tables: Dixon engine, Galois orbits, idempotents, export


# Elementary divisors (abelian) or n (dihedral).  The seed picks the
# presentation of each abelian group and six of the small groups; the
# medium and large groups are always present, so every seed does about
# the same work and the op-latency median falls among the same groups.
TABLES_SMALL = [(8,), (2, 5), (4, 3), (2, 2, 2), (2, 2, 2, 2), (2, 2, 4),
                6, 8, 10, 12]
TABLES_MEDIUM = [(2, 9), (4, 5), (2, 2, 2, 3), (2, 3, 3), (3, 3, 3),
                 (2, 2, 2, 2, 2), 15, 20, 24]
TABLES_LARGE = [(2, 3, 5), (4, 7), (2, 2, 2, 2, 3), (2, 4, 4), (2, 2, 8),
                32, 36, 48]
TABLES_SMALL_PICKS = 6


def _zoo_recipe(rng, spec) -> str:
    if isinstance(spec, int):
        return f"dihedral {spec}"
    return abelian_recipe(rng, spec)


def tables(iso, rng) -> list[Op]:
    small = rng.sample(TABLES_SMALL, TABLES_SMALL_PICKS)
    recipes = [_zoo_recipe(rng, s) for s in small + TABLES_MEDIUM + TABLES_LARGE]
    ops = [_table_op(iso, r, irrational=False) for r in recipes]
    psl_gens, _ = _search_file(iso, "psl2f7_a.search")
    gens = rng.choice([A5_GENERATORS, psl_gens])
    ops.append(_table_op(iso, relabel_perm(rng, gens), irrational=True))
    rng.shuffle(ops)
    return ops


def _table_op(iso, recipe: str, irrational: bool) -> Op:
    def run():
        ct = iso.chartab
        group = iso.groups.build_group(recipe)
        table = ct.character_table(group)
        orbits = ct.galois_orbits(table)
        idempotents = [ct.rational_idempotent(table, o) for o in orbits]
        return group, table, orbits, idempotents, ct.render_table(table)

    def check(out):
        group, table, orbits, idempotents, text = out
        problems = []
        if sum(chi.degree ** 2 for chi in table) != group.order:
            problems.append("sum of squared degrees != |G|")
        if len(table) != len(group.conjugacy_classes):
            problems.append("row count != class count")
        if sorted(i for o in orbits for i in o.indices) != list(range(len(table))):
            problems.append("Galois orbits do not partition the rows")
        # the rational idempotents sum to the identity (element 0) of Q[G]
        total = [sum(c) for c in zip(*(e.coefficients for e in idempotents))]
        if total != [1] + [0] * (group.order - 1):
            problems.append("rational idempotents do not sum to 1")
        if irrational and all(v.is_rational for chi in table for v in chi.values):
            problems.append("expected an irrational character value")
        facts = {"digest": digest(text, [o.indices for o in orbits],
                                  [e.coefficients for e in idempotents]),
                 "classes": len(table)}
        return facts, problems

    return Op(recipe, run, check)


# ---------------------------------------------------------------------------
# search: enumeration, Sigma sets, canonical keys


# Structure counts recorded at the seed commit; relabeling never changes them.
SEARCH_COUNTS = {"A5 (2,5,5)/(3,3,3,3)": 6480,
                 "PSL(2,7) psl2f7_a": 4032,
                 "PSL(2,7) psl2f7_b": 4032}


def search(iso, rng) -> list[Op]:
    ops = [_search_op(iso, "A5 (2,5,5)/(3,3,3,3)",
                      relabel_perm(rng, A5_GENERATORS), ((2, 5, 5), (3, 3, 3, 3)))]
    for name in ("psl2f7_a", "psl2f7_b"):
        gens, type_pair = _search_file(iso, name + ".search")
        ops.append(_search_op(iso, f"PSL(2,7) {name}", relabel_perm(rng, gens),
                              type_pair))
    rng.shuffle(ops)
    return ops


def _search_op(iso, label: str, recipe: str, type_pair) -> Op:
    group = _warm(iso.groups.build_group(recipe))

    def run():
        return iso.ramification.search_structures(group, type_pair)

    def check(found):
        problems = []
        if len(found) != SEARCH_COUNTS[label]:
            problems.append(f"{len(found)} structures, recorded "
                            f"{SEARCH_COUNTS[label]}")
        keys = [s.t1.entries + s.t2.entries for s in found]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            problems.append("structures not strictly sorted by canonical key")
        return {"digest": digest(recipe, keys), "structures": len(found)}, problems

    return Op(label, run, check)


# ---------------------------------------------------------------------------
# analyze: Broughton, dim Z, quotients over one shared table


ANALYZE_PER_TYPE_PAIR = 100


def riemann_hurwitz(order: int, signature) -> int:
    g = 1 - order + Fraction(order, 2) * sum(1 - Fraction(1, m) for m in signature)
    if g.denominator != 1:
        raise ValueError(f"non-integral genus for {signature}")
    return int(g)


def analyze(iso, rng) -> list[Op]:
    psl_gens, _ = _search_file(iso, "psl2f7_a.search")
    group = _warm(iso.groups.build_group(relabel_perm(rng, psl_gens)))
    table = iso.chartab.character_table(group)
    orbits = iso.chartab.galois_orbits(table)
    ops = []
    for name in ("psl2f7_a", "psl2f7_b"):
        _, type_pair = _search_file(iso, name + ".search")
        found = iso.ramification.search_structures(group, type_pair,
                                                   limit=ANALYZE_PER_TYPE_PAIR)
        if len(found) != ANALYZE_PER_TYPE_PAIR:
            raise RuntimeError(f"{name}: set-up found {len(found)} structures")
        ops += [_analyze_op(iso, f"{name} #{i}", s, type_pair, table, orbits)
                for i, s in enumerate(found)]
    rng.shuffle(ops)
    return ops


def _analyze_op(iso, label: str, structure, type_pair, table, orbits) -> Op:
    def run():
        sf = iso.surface
        analysis = sf.analyze(structure, table, orbits)
        return analysis, sf.render_report(sf.analysis_report(analysis))

    def check(out):
        analysis, text = out
        problems = []
        order = structure.group.order
        genera = tuple(riemann_hurwitz(order, sig) for sig in type_pair)
        if tuple(analysis.genera) != genera:
            problems.append(f"genera {analysis.genera}, type gives {genera}")
        chi = Fraction((genera[0] - 1) * (genera[1] - 1), order)
        # q = 0: e = 4 chi, p_g = chi - 1, h11 = e - 2 - 2 p_g
        p_g = chi - 1
        h11 = 4 * chi - 2 - 2 * p_g
        inv = analysis.invariants
        if (inv.irregularity, inv.geometric_genus, inv.hodge_diamond[2][1]) != (0, p_g, h11):
            problems.append(f"q, p_g, h11 = {inv.irregularity}, {inv.geometric_genus}, "
                            f"{inv.hodge_diamond[2][1]}, expected 0, {p_g}, {h11}")
        if analysis.dimension_z.total != h11 - 2 + 2 * p_g:
            problems.append(f"dim Z = {analysis.dimension_z.total}, "
                            f"expected {h11 - 2 + 2 * p_g}")
        return {"digest": digest(text), "dim_z": analysis.dimension_z.total}, problems

    return Op(label, run, check)


# ---------------------------------------------------------------------------
# catalog: the CLI end to end, table cache write path then read path


CATALOG_OPS_PER_PASS = 3
CATALOG_ARGV = ["catalog", "--assert", "--json"]


def catalog(iso, rng) -> list[Op]:
    # The catalog takes no input to draw: the seed only names cache dirs.
    tag = rng.randrange(16 ** 6)
    return [_catalog_op(iso, iso.work_dir / f"cache-{tag:06x}-{i}")
            for i in range(CATALOG_OPS_PER_PASS)]


def _run_cli(iso, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = iso.cli.main(list(argv))
    return code, buf.getvalue()


def _catalog_op(iso, cache_dir) -> Op:
    def run():
        shutil.rmtree(cache_dir, ignore_errors=True)
        saved = os.environ.get("ISOPROD_CACHE")
        os.environ["ISOPROD_CACHE"] = str(cache_dir)
        try:
            cold = _run_cli(iso, CATALOG_ARGV)
            written = sorted(p.name for p in cache_dir.iterdir())
            warm = _run_cli(iso, CATALOG_ARGV)
        finally:
            if saved is None:
                del os.environ["ISOPROD_CACHE"]
            else:
                os.environ["ISOPROD_CACHE"] = saved
        return cold, warm, written

    def check(out):
        (cold_code, cold_doc), (warm_code, warm_doc), written = out
        shutil.rmtree(cache_dir, ignore_errors=True)
        problems = []
        if cold_code or warm_code:
            problems.append(f"exit codes {cold_code}, {warm_code}")
        if cold_doc != warm_doc:
            problems.append("cold and warm catalog documents differ")
        if not written:
            problems.append("cold run wrote no cache file")
        try:
            failures = json.loads(cold_doc)["failures"]
        except (ValueError, KeyError) as exc:
            failures = [f"unreadable catalog document: {exc!r}"]
        problems += [f"catalog: {f}" for f in failures]
        return {"digest": digest(cold_doc), "cache_files": len(written)}, problems

    return Op("catalog --assert --json", run, check)


# Percentile reported as op_ms_tail: the highest of 50, 75, 90, 95, 99, 99.9
# with at least 10 samples beyond it at the seed commit (2 CPUs, 22 s runs:
# about 110 tables ops, 6 searches, 2000 analyze ops, 19 catalog ops), or
# the maximum where none qualifies.  It is fixed, not re-chosen per run, so
# that commits compare at one percentile.
TAIL_PERCENTILE = {"tables": 75.0, "search": 100.0, "analyze": 99.0,
                   "catalog": 100.0}

WORKLOADS = {"tables": tables, "search": search, "analyze": analyze,
             "catalog": catalog}
