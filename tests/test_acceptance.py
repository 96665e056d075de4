"""Acceptance criteria, one test per criterion.

Each test prints one PASS line once its assertions hold, so a verbose
run reads as a checklist.  All comparisons are exact; the only
tolerances anywhere are the two wall-clock ceilings (10 s per character
table, 5 min for the full catalog run).
"""

import random
import time
from fractions import Fraction

import pytest

from isoprod import catalog as cat
from isoprod import chartab as ct
from isoprod import cli
from isoprod import groups as gr
from isoprod import ramification as rm
from isoprod import surface as sf
from isoprod.cyclotomic import CyclotomicNumber, zeta
from algebra_oracle import (
    inner_product,
    is_central,
    is_self_dual,
    multiply,
    row_index,
    shipped_entries,
)
from conftest import structure_keys
from search_oracle import naive_structure_keys


def rat(x):
    return CyclotomicNumber.from_rational(x)


def _row_key(row):
    return tuple(v.sort_key() for v in row)


@pytest.fixture(scope="module")
def shipped():
    """name -> (entry, analysis) for the five shipped catalog entries."""
    out = {}
    for entry in shipped_entries():
        structure = cat.realize_structure(entry)
        table = ct.character_table(structure.group)
        out[entry.name] = (entry, sf.analyze(structure, table))
    return out


# -- criterion 1: character tables of Q8 and PSL(2,F7) ----------------------


def test_criterion_1_character_tables():
    t0 = time.monotonic()
    q8 = gr.polycyclic_group([2, 2, 2], powers={0: (2,), 1: (2,)},
                             conjugates={(1, 0): (1, 2)})
    tq = ct.character_table(q8)
    q8_seconds = time.monotonic() - t0
    one, minus = rat(1), rat(-1)
    expected_q8 = sorted([
        (one, one, one, one, one),
        (one, one, one, minus, minus),
        (one, one, minus, one, minus),
        (one, one, minus, minus, one),
        (rat(2), rat(-2), rat(0), rat(0), rat(0)),
    ], key=_row_key)
    got_q8 = sorted((tuple(chi.values) for chi in tq), key=_row_key)
    assert got_q8 == expected_q8
    assert q8_seconds < 10.0

    t0 = time.monotonic()
    psl = gr.build_group("group = perm (1 2 3 4 5 6 7), (1 8)(2 7)(3 4)(5 6)")
    tp = ct.character_table(psl)
    psl_seconds = time.monotonic() - t0
    xi = zeta(7) + zeta(7, 2) + zeta(7, 4)
    xibar = xi.galois(-1)
    assert xi + xibar == -1 and xi * xibar == 2
    expected_psl = sorted([
        (one, one, one, one, one, one),
        (rat(3), minus, rat(0), one, xi, xibar),
        (rat(3), minus, rat(0), one, xibar, xi),
        (rat(6), rat(2), rat(0), rat(0), minus, minus),
        (rat(7), minus, one, minus, rat(0), rat(0)),
        (rat(8), rat(0), minus, rat(0), one, one),
    ], key=_row_key)
    got_psl = sorted((tuple(chi.values) for chi in tp), key=_row_key)
    assert got_psl == expected_psl
    assert psl_seconds < 10.0
    print(f"\nACCEPTANCE 1: PASS  Q8 and PSL(2,F7) tables exact "
          f"({q8_seconds:.2f}s / {psl_seconds:.2f}s)")


# -- criterion 2: Broughton reproduction on (Z3)^2 ---------------------------


PAPER_CHI_EXPONENTS = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1),
                       (2, 1), (0, 2), (1, 2), (2, 2)]
PAPER_TAU_ORBITS = [(0,), (1, 2), (3, 6), (4, 8), (5, 7)]  # 0-based chi indices


def test_criterion_2_broughton_vectors(shipped):
    _, analysis = shipped["Z3xZ3"]
    group = analysis.structure.group
    table = analysis.table
    reps = [group.labels[c.representative] for c in group.conjugacy_classes]
    row_of_paper = []
    for ia, ib in PAPER_CHI_EXPONENTS:
        values = tuple(
            zeta(3, (ia * x + ib * y) % 3) for (x, y) in reps
        )
        row_of_paper.append(row_index(table, ct.Character(group, values)))
    # the Galois-orbit pairing matches the published tau decomposition
    orbit_positions = []
    for members in PAPER_TAU_ORBITS:
        rows = tuple(sorted(row_of_paper[i] for i in members))
        pos = next(
            i for i, o in enumerate(analysis.broughton_c.orbits) if o.indices == rows
        )
        orbit_positions.append(pos)

    complex_c = [analysis.broughton_c.complex_multiplicities[r] for r in row_of_paper]
    complex_d = [analysis.broughton_d.complex_multiplicities[r] for r in row_of_paper]
    assert complex_c == [0, 3, 3, 3, 1, 0, 3, 0, 1]
    assert complex_d == [0, 0, 0, 0, 2, 2, 0, 2, 2]
    rational_c = [analysis.broughton_c.rational_multiplicities[p]
                  for p in orbit_positions]
    rational_d = [analysis.broughton_d.rational_multiplicities[p]
                  for p in orbit_positions]
    assert rational_c == [0, 3, 3, 1, 0]
    assert rational_d == [0, 0, 0, 2, 2]
    print("\nACCEPTANCE 2: PASS  (Z3)^2 multiplicity vectors exact")


# -- criterion 3: the shipped table rows and the catalog gate ----------------


EXPECTED_ROWS = {
    "Z3xZ3": ((7, 4), "c"),
    "G128-36": ((17, 17), "b"),
    "Z2^3xZ4": ((9, 9), "d"),
    "PSL2F7-a": ((49, 8), "a"),
    "PSL2F7-b": ((17, 22), "a"),
}


def test_criterion_3_table_rows_and_catalog_gate(shipped, capsys):
    for name, (genera, kind) in EXPECTED_ROWS.items():
        _, analysis = shipped[name]
        assert analysis.genera == genera, name
        assert analysis.invariants.chi == 2, name
        assert analysis.invariants.euler == 8, name
        assert analysis.invariants.k_squared == 16, name
        assert analysis.surface_type == kind, name
    t0 = time.monotonic()
    code = cli.main(["catalog", "--assert"])
    elapsed = time.monotonic() - t0
    capsys.readouterr()
    assert code == 0
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 3: PASS  five shipped rows exact; "
          f"catalog --assert exit 0 in {elapsed:.1f}s")


# -- criterion 4: quotient analyses of the three special cases ---------------


def test_criterion_4_quotient_analyses(shipped):
    _, b = shipped["G128-36"]
    qa = b.quotients[0]
    assert qa.kernel.order == 16
    assert qa.quotient_name == "Q8"
    assert qa.genera == (2, 2)

    _, c = shipped["Z3xZ3"]
    qa = c.quotients[0]
    assert qa.kernel.order == 3
    assert qa.quotient_name == "Z3"
    assert qa.genera == (1, 2)

    _, d = shipped["Z2^3xZ4"]
    assert len(d.quotients) == 2
    for qa in d.quotients:
        assert qa.kernel.order == 8
        assert qa.quotient_name == "Z4"
        assert qa.genera == (1, 1)
    assert d.quotients[0].kernel.members != d.quotients[1].kernel.members
    print("\nACCEPTANCE 4: PASS  kernels, quotient groups and quotient genera exact")


# -- criterion 5: dim Z breakdowns -------------------------------------------


EXPECTED_BREAKDOWNS = {
    "Z3xZ3": [(1, 2, 2)],
    "G128-36": [(1, 1, 4)],
    "Z2^3xZ4": [(1, 1, 2), (1, 1, 2)],
    "PSL2F7-a": [(2, 2, 1)],
    "PSL2F7-b": [(2, 2, 1)],
}


def test_criterion_5_dim_z_breakdowns(shipped):
    for name, expected in EXPECTED_BREAKDOWNS.items():
        _, analysis = shipped[name]
        assert analysis.dimension_z.total == 4, name
        got = sorted(
            (c.n_c, c.n_d, c.tensor_multiplicity)
            for c in analysis.dimension_z.contributions
        )
        assert got == sorted(expected), name
    print("\nACCEPTANCE 5: PASS  dim Z = 4 with the published per-orbit breakdowns")


# -- criterion 6: property suites ---------------------------------------------


def _random_small_groups():
    rng = random.Random(20260810)
    zoo = []
    for _ in range(4):
        zoo.append(gr.cyclic_group(rng.randint(2, 48)))
    for _ in range(3):
        zoo.append(gr.dihedral_group(rng.randint(2, 24)))
    for _ in range(3):
        parts = [rng.choice([2, 2, 3, 4, 5]) for _ in range(rng.randint(1, 3))]
        zoo.append(gr.abelian_group(parts))
    zoo.append(gr.symmetric_group(rng.choice([3, 4])))
    zoo.append(gr.alternating_group(rng.choice([4, 5])))
    assert all(g.order <= 96 for g in zoo)
    return zoo


def test_criterion_6_property_suites(shipped):
    catalog_groups = [an.structure.group for _, an in shipped.values()]
    tables = {}
    for g in catalog_groups:
        tables.setdefault(g.recipe, (g, ct.character_table(g)))
    for g in _random_small_groups():
        tables.setdefault(g.recipe, (g, ct.character_table(g)))

    for group, table in tables.values():
        k = len(group.conjugacy_classes)
        assert sum(chi.degree ** 2 for chi in table) == group.order
        for i, a in enumerate(table):
            for j, b in enumerate(table):
                assert inner_product(table, a, b) == (1 if i == j else 0)
        for orbit in ct.galois_orbits(table):
            q = ct.rational_idempotent(table, orbit)
            assert multiply(q, q).coefficients == q.coefficients
            assert is_central(q)

    # Broughton invariants over every shipped structure
    for _, analysis in shipped.values():
        table = analysis.table
        for bt, system in ((analysis.broughton_c, analysis.structure.t1),
                           (analysis.broughton_d, analysis.structure.t2)):
            assert sum(
                m * table[i].degree
                for i, m in enumerate(bt.complex_multiplicities)
            ) == 2 * system.genus()
            assert bt.complex_multiplicities[table.trivial_index] == 0
            for i, chi in enumerate(table):
                if is_self_dual(chi):
                    assert bt.complex_multiplicities[i] % 2 == 0

    # sigma-set brute-force oracle at order <= 128
    for _, analysis in shipped.values():
        group = analysis.structure.group
        if group.order > 128:
            continue
        for system in (analysis.structure.t1, analysis.structure.t2):
            brute = set()
            for e in system.entries:
                x = 0
                for _ in range(group.element_orders[e]):
                    for t in range(group.order):
                        brute.add(group.conjugate(x, t))
                    x = group.mul(x, e)
            classes = group.conjugacy_classes
            assert frozenset(x for k in rm.sigma_set(system)
                             for x in classes[k].members) == frozenset(brute)

    # search completeness: pruned enumeration equals naive enumeration
    def digest(it):
        count, acc = 0, 0
        for key in it:
            count += 1
            acc = (acc + hash(key)) & 0xFFFFFFFFFFFFFFFF
        return count, acc

    z3z3 = gr.abelian_group([3, 3])
    for pair in (((3, 3, 3, 3), (3, 3, 3, 3)), ((3, 3, 3, 3, 3), (3, 3, 3, 3))):
        assert digest(structure_keys(z3z3, pair)) == digest(
            naive_structure_keys(z3z3, pair)
        )
    z2cubed = gr.abelian_group([2, 2, 2])
    for pair in (((2, 2, 2, 2), (2, 2, 2, 2)), ((2,) * 6, (2,) * 6)):
        assert digest(structure_keys(z2cubed, pair)) == digest(
            naive_structure_keys(z2cubed, pair)
        )
    print("\nACCEPTANCE 6: PASS  orthogonality, Broughton, idempotent, sigma "
          "and search-completeness suites")


# -- criterion 7: Picard verdicts ---------------------------------------------


def test_criterion_7_picard_verdicts(shipped):
    for name, (_, analysis) in shipped.items():
        verdict = analysis.picard
        if analysis.surface_type in ("b", "d"):
            assert verdict.rho == 4, name
            assert verdict.possibilities == (4,)
        else:
            assert analysis.surface_type in ("a", "c")
            assert verdict.rho is None, name
            assert verdict.possibilities == (2, 3, 4)
    print("\nACCEPTANCE 7: PASS  Picard number 4 for types b/d, "
          "undetermined {2,3,4} for a/c")
