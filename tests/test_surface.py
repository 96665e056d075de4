import json
from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest

from isoprod import chartab as ct
from isoprod import groups as gr
from isoprod import ramification as rm
from isoprod import surface as sf
from isoprod.cyclotomic import CyclotomicNumber, render_cyclotomic
from isoprod.structfile import parse_structure_file
from algebra_oracle import is_self_dual, row_index, value_on_element
from test_chartab import count_restriction_misses, rational_inner_product


@pytest.fixture(scope="module")
def z3z3_analysis(z3z3_label, tables):
    group, lab = z3z3_label
    tc = rm.validate_spherical(
        group, [lab[x] for x in [(1, 1), (2, 1), (1, 1), (1, 2), (1, 1)]]
    )
    td = rm.validate_spherical(group, [lab[x] for x in [(0, 2), (0, 1), (1, 0), (2, 0)]])
    return sf.analyze(rm.RamificationStructure(tc, td), tables[group.recipe])


@pytest.fixture(scope="module")
def g128_analysis(g128, tables):
    al = gr.default_aliases(g128)
    w = lambda s: gr.parse_word(s, al, g128)
    tc = rm.validate_spherical(g128, [w("g1*g2*g4*g6"), w("g1*g4*g5*g6"), w("g2*g3*g4*g7")])
    td = rm.validate_spherical(g128, [w("g1*g2*g3*g6*g7"), w("g2*g5*g7"), w("g1*g3*g4*g7")])
    return sf.analyze(rm.RamificationStructure(tc, td), tables[g128.recipe])


@pytest.fixture(scope="module")
def z2z4_analysis(z2cubed_z4, tables):
    al = gr.default_aliases(z2cubed_z4)
    w = lambda s: gr.parse_word(s, al, z2cubed_z4)
    tc = rm.validate_spherical(
        z2cubed_z4, [w("g1*g4^2"), w("g1*g2*g3*g4^2"), w("g2*g4"), w("g3*g4^3")]
    )
    td = rm.validate_spherical(
        z2cubed_z4, [w("g1*g2"), w("g1"), w("g1*g4^3"), w("g1*g2*g3*g4")]
    )
    return sf.analyze(rm.RamificationStructure(tc, td), tables[z2cubed_z4.recipe])


@pytest.fixture(scope="module")
def psl_analyses(psl27, tables):
    table = tables[psl27.recipe]
    orbits = ct.galois_orbits(table)
    out = []
    for types in (([7, 7, 7], [3, 3, 4]), ([3, 3, 7], [4, 4, 4])):
        structure = rm.search_structures(psl27, types, limit=1)[0]
        out.append(sf.analyze(structure, table, orbits))
    return out


def all_analyses(z3z3_analysis, g128_analysis, z2z4_analysis, psl_analyses):
    return [z3z3_analysis, g128_analysis, z2z4_analysis, *psl_analyses]


def test_broughton_z3z3_multisets(z3z3_analysis):
    an = z3z3_analysis
    assert sorted(an.broughton_c.complex_multiplicities) == sorted(
        (0, 3, 3, 3, 1, 0, 3, 0, 1)
    )
    assert sorted(an.broughton_d.complex_multiplicities) == sorted(
        (0, 0, 0, 0, 2, 2, 0, 2, 2)
    )
    assert sorted(an.broughton_c.rational_multiplicities) == [0, 0, 1, 3, 3]
    assert sorted(an.broughton_d.rational_multiplicities) == [0, 0, 0, 2, 2]


def test_broughton_psl_rational_vectors(psl_analyses):
    a1, a2 = psl_analyses
    # orbits sorted by first row index: trivial, degree-3 pair, 6, 7, 8
    assert a1.broughton_d.rational_multiplicities == (0, 0, 0, 0, 2)
    assert a2.broughton_d.rational_multiplicities == (0, 0, 0, 4, 2)
    assert a1.broughton_c.rational_multiplicities == (0, 3, 6, 4, 2)
    assert a2.broughton_c.rational_multiplicities == (0, 1, 2, 0, 2)


def test_broughton_dimension_and_parity_invariants(
    z3z3_analysis, g128_analysis, z2z4_analysis, psl_analyses
):
    for an in all_analyses(z3z3_analysis, g128_analysis, z2z4_analysis, psl_analyses):
        table = an.table
        for bt, system in ((an.broughton_c, an.structure.t1),
                           (an.broughton_d, an.structure.t2)):
            mults = bt.complex_multiplicities
            assert sum(m * table[i].degree for i, m in enumerate(mults)) \
                == 2 * system.genus()
            assert mults[table.trivial_index] == 0
            for i, chi in enumerate(table):
                if is_self_dual(chi):
                    assert mults[i] % 2 == 0
                # multiplicity is constant along each orbit
            for orbit in bt.orbits:
                assert len({mults[i] for i in orbit.indices}) == 1


def test_surface_invariants_reject_non_integral_chi():
    from types import SimpleNamespace

    fake = SimpleNamespace(
        genera=lambda: (3, 4), group=SimpleNamespace(order=5)
    )
    with pytest.raises(sf.SurfaceError, match="not an integer"):
        sf.surface_invariants(fake)


def test_surface_invariants(z3z3_analysis, g128_analysis, z2z4_analysis, psl_analyses):
    for an in all_analyses(z3z3_analysis, g128_analysis, z2z4_analysis, psl_analyses):
        inv = an.invariants
        assert inv.chi == 2 and inv.euler == 8 and inv.k_squared == 16
        assert inv.irregularity == 0 and inv.geometric_genus == 1
        assert inv.hodge_diamond == ((1,), (0, 0), (1, 4, 1), (0, 0), (1,))


def test_genera(z3z3_analysis, g128_analysis, z2z4_analysis, psl_analyses):
    assert z3z3_analysis.genera == (7, 4)
    assert g128_analysis.genera == (17, 17)
    assert z2z4_analysis.genera == (9, 9)
    assert psl_analyses[0].genera == (49, 8)
    assert psl_analyses[1].genera == (17, 22)


def test_dim_z_breakdowns(z3z3_analysis, g128_analysis, z2z4_analysis, psl_analyses):
    def shape(an):
        return sorted(
            (c.n_c, c.n_d, c.tensor_multiplicity) for c in an.dimension_z.contributions
        )

    assert z3z3_analysis.dimension_z.total == 4
    assert shape(z3z3_analysis) == [(1, 2, 2)]
    assert shape(g128_analysis) == [(1, 1, 4)]
    assert shape(z2z4_analysis) == [(1, 1, 2), (1, 1, 2)]
    assert shape(psl_analyses[0]) == [(2, 2, 1)]
    assert shape(psl_analyses[1]) == [(2, 2, 1)]
    for an in all_analyses(z3z3_analysis, g128_analysis, z2z4_analysis, psl_analyses):
        assert an.dimension_z.total == 4


def test_dim_z_tensor_multiplicity_is_the_inner_product(
    z3z3_analysis, g128_analysis, z2z4_analysis, psl_analyses
):
    """Each contribution's trivial multiplicity in V (x) V, which `dim_z`
    reads as s^2 * f, is the inner product of the orbit's rational character
    with itself."""
    for an in all_analyses(z3z3_analysis, g128_analysis, z2z4_analysis, psl_analyses):
        for c in an.dimension_z.contributions:
            assert c.tensor_multiplicity == rational_inner_product(an.table, c.orbit, c.orbit)
        for c in an.dimension_z.contributions:
            assert c.product % 2 == 0


def test_dim_z_zero_on_disjoint_supports(z3z3_analysis):
    # synthetic tables with disjoint supports contribute nothing
    bc = z3z3_analysis.broughton_c
    orbits = bc.orbits
    left = sf.BroughtonTable(bc.system, bc.table, bc.complex_multiplicities,
                             orbits, (0, 1, 0, 0, 0))
    right = sf.BroughtonTable(bc.system, bc.table, bc.complex_multiplicities,
                              orbits, (0, 0, 2, 0, 0))
    assert sf.dim_z(left, right).total == 0


def test_classification(z3z3_analysis, g128_analysis, z2z4_analysis, psl_analyses):
    assert z3z3_analysis.surface_type == "c"
    assert g128_analysis.surface_type == "b"
    assert z2z4_analysis.surface_type == "d"
    assert psl_analyses[0].surface_type == "a"
    assert psl_analyses[1].surface_type == "a"
    for an in all_analyses(z3z3_analysis, g128_analysis, z2z4_analysis, psl_analyses):
        assert an.diagnosis is None


def test_out_of_regime_structure_reports_unclassified(z3z3_label, tables):
    group, _ = z3z3_label
    # a disjoint pair of two length-5 systems has chi = 4: valid input,
    # outside the classification regime
    structure = rm.search_structures(group, ([3] * 5, [3] * 5), limit=1)[0]
    an = sf.analyze(structure, tables[group.recipe])
    assert an.invariants.chi == 4
    assert an.genera == (7, 7)
    assert an.dimension_z.total == 12
    assert an.surface_type == "unclassified"
    assert "chi" in an.diagnosis
    assert an.picard is None
    report = sf.analysis_report(an)
    assert report["diagnosis"] == an.diagnosis
    assert "picard" not in report


def test_unclassified_diagnostics(z3z3_analysis):
    bad = sf.SurfaceInvariants(3, 12, 24, 0, 2, ((1,), (0, 0), (2, 8, 2), (0, 0), (1,)))
    kind, why = sf.classify_type(z3z3_analysis.dimension_z, bad)
    assert kind == "unclassified" and "chi" in why
    ok = z3z3_analysis.invariants
    empty = sf.DimZ(0, ())
    kind, why = sf.classify_type(empty, ok)
    assert kind == "unclassified" and "dim Z" in why


def test_quotient_analyses(z3z3_analysis, g128_analysis, z2z4_analysis):
    qa = z3z3_analysis.quotients[0]
    assert qa.kernel.order == 3
    assert qa.quotient_name == "Z3"
    assert qa.genera == (1, 2)

    qb = g128_analysis.quotients[0]
    assert qb.kernel.order == 16
    assert qb.quotient_name == "Q8"
    assert qb.genera == (2, 2)

    assert len(z2z4_analysis.quotients) == 2
    for qd in z2z4_analysis.quotients:
        assert qd.kernel.order == 8
        assert qd.quotient_name == "Z4"
        assert qd.genera == (1, 1)
        # the two kernels are distinct subgroups
    k1, k2 = (qa.kernel.members for qa in z2z4_analysis.quotients)
    assert k1 != k2


def test_quotient_consistency_replays_invariant_dimensions(
    z3z3_analysis, g128_analysis, z2z4_analysis
):
    """n(tau) on the original curve equals the multiplicity of the descended
    orbit computed on the quotient system over G/H."""
    for an in (z3z3_analysis, g128_analysis, z2z4_analysis):
        group = an.structure.group
        for contrib, qa in zip(an.dimension_z.contributions, an.quotients):
            quot = qa.system_c.quotient
            q = quot.group
            qtable = ct.character_table(q)
            qorbits = ct.galois_orbits(qtable)
            # descend one constituent: chi'(pi(g)) = chi(g)
            chi = an.table[contrib.orbit.indices[0]]
            section = {}
            for i in range(group.order):
                section.setdefault(quot.project(i), i)
            values = tuple(
                value_on_element(chi, section[cls.representative])
                for cls in q.conjugacy_classes
            )
            row = row_index(qtable, ct.Character(q, values))
            orbit_pos, orbit = next(
                (pos, o) for pos, o in enumerate(qorbits) if row in o.indices
            )
            for side, n_full in (("c", contrib.n_c), ("d", contrib.n_d)):
                qs = qa.system_c if side == "c" else qa.system_d
                bt = sf.broughton(qs.system, qtable, qorbits)
                assert bt.rational_multiplicities[orbit_pos] == n_full


def test_picard_verdicts(z3z3_analysis, g128_analysis, z2z4_analysis, psl_analyses):
    assert g128_analysis.picard.rho == 4
    assert z2z4_analysis.picard.rho == 4
    for an in (z3z3_analysis, *psl_analyses):
        assert an.picard.rho is None
        assert an.picard.possibilities == (2, 3, 4)
        assert "CM" in an.picard.note or "complex multiplication" in an.picard.note
    with pytest.raises(sf.SurfaceError):
        sf.picard_verdict("unclassified")


def test_schur_source_surfaced_in_report(g128_analysis):
    report = sf.analysis_report(g128_analysis, name="x")
    contrib = report["dim_Z"]["contributions"][0]
    assert contrib["orbit"]["schur_index"] == 2
    assert "policy" in contrib["orbit"]["schur_index_source"]


def test_report_is_json_serializable(z3z3_analysis):
    report = sf.analysis_report(z3z3_analysis, name="z3z3")
    encoded = json.dumps(report)
    assert json.loads(encoded) == report
    text = sf.render_report(report)
    assert "type: c" in text
    assert "total: 4" in text


def test_broughton_defect_detection(tables, z3z3_label, tmp_path):
    group, lab = z3z3_label
    table = tables[group.recipe]
    # a corrupted class function: non-integral restriction average
    real_row = next(c for c in table if not c.values[1].is_rational)
    values = list(real_row.values)
    values[0] = CyclotomicNumber.from_rational(Fraction(1, 2))
    bad = ct.Character(group, tuple(values))
    with pytest.raises(ct.CharacterTableError):
        ct.trivial_restriction_multiplicity(bad, lab[(1, 1)])
    # chi(g^2) replaced by chi(g): the restriction sum over <g> is irrational.
    # l_g reads mean traces, so such a row must never reach it: written to a
    # cache file, it is refused by `parse_table` and the table is recomputed
    g = lab[(1, 1)]
    chi = next(c for c in table if not value_on_element(c, g).is_rational)
    values = list(chi.values)
    values[group.class_of[group.power(g, 2)]] = value_on_element(chi, g)
    rows = [values if row is chi else row.values for row in table]
    text = ct._header(group) + "".join(
        "char " + " ; ".join(map(render_cyclotomic, row)) + "\n" for row in rows)
    assert text != ct.render_table(table)
    with pytest.raises(ct.CharacterTableError):
        ct.parse_table(text, group)
    path = tmp_path / f"chartab-{ct.group_fingerprint(group)}.txt"
    path.write_text(text)
    recomputed = ct.cached_character_table(group, str(tmp_path))
    assert [row.values for row in recomputed] == [row.values for row in table]
    assert path.read_text() == ct.render_table(table)


def test_restriction_sums_once_per_character_and_class(psl27):
    """Two analyses of one PSL(2,7) structure over one fresh table read each
    (row, class) restriction at most once: at most 6 x 6 l_g memo misses in
    all, and none in the second pass."""
    table = ct.character_table(psl27)
    orbits = ct.galois_orbits(table)
    (structure,) = rm.search_structures(psl27, ((7, 7, 7), (3, 3, 4)), limit=1)
    misses = count_restriction_misses(table)
    first = sf.analysis_report(sf.analyze(structure, table, orbits))
    after_first = len(misses)
    second = sf.analysis_report(sf.analyze(structure, table, orbits))
    assert first == second
    assert 0 < after_first == len(misses) <= len(table) * len(psl27.conjugacy_classes)


def test_analysis_closes_nothing_outside_the_kernel_spans(shipped_structures, monkeypatch):
    """`quotient_system` takes generation in G/H from the projection, so an
    analysis calls `FiniteGroup.closure` only where `RationalCharacter.kernel`
    spans a nontrivial kernel: never inside `quotient_system`, and not at all
    for the trivial kernels of PSL(2,7), on every shipped structure and on
    100 structures of each shipped search's type pair."""
    stack: list[str] = []  # the counted callers running, innermost last
    entered, closures = Counter(), Counter()

    def within(name, function):
        def wrapper(*args):
            entered[name] += 1
            stack.append(name)
            try:
                return function(*args)
            finally:
                stack.pop()
        return wrapper

    closure = gr.FiniteGroup.closure

    def counting_closure(self, gens):
        closures[stack[-1] if stack else "elsewhere"] += 1
        return closure(self, gens)

    monkeypatch.setattr(gr.FiniteGroup, "closure", counting_closure)
    monkeypatch.setattr(ct.RationalCharacter, "kernel",
                        within("kernel", ct.RationalCharacter.kernel))
    monkeypatch.setattr(sf, "quotient_system", within("quotient_system", rm.quotient_system))
    for name, structures, table, orbits in shipped_structures:
        entered.clear()
        closures.clear()
        contributing = sum(len(sf.analyze(s, table, orbits).quotients) for s in structures)
        assert entered["quotient_system"] == 2 * contributing > 0, name
        assert closures["quotient_system"] == closures["elsewhere"] == 0, (name, closures)
        # the shipped structures' kernels are nontrivial, PSL(2,7)'s trivial
        assert (closures["kernel"] > 0) == name.endswith(".struct"), (name, closures)


# ---------------------------------------------------------------------------
# cross-path oracles on the five shipped `.struct` fixtures


@pytest.fixture(scope="module")
def shipped_struct_analyses():
    """(file name, analysis) of each shipped `.struct` fixture, over its own
    group and character table."""
    data = resources.files("isoprod.data")
    names = sorted(f.name for f in data.iterdir() if f.name.endswith(".struct"))
    assert len(names) == 5, names
    out = []
    for name in names:
        structure = parse_structure_file(data.joinpath(name).read_text()).structure()
        table = ct.character_table(structure.group)
        out.append((name, sf.analyze(structure, table, ct.galois_orbits(table))))
    return out


def _invariant_parts(analysis):
    """What both a swap of the curves and a Hurwitz move keep."""
    return analysis.dimension_z.total, analysis.surface_type, analysis.picard


def test_quotient_genera_are_the_dimensions_of_the_kernel_invariants(shipped_struct_analyses):
    """For each contributing orbit with kernel H, H^1(C/H) is the
    H-invariant part of H^1(C): an irreducible of the normal H is either
    fixed pointwise or has no fixed vector, so 2 g(C/H) is the sum of
    n_C(chi) chi(1) over the chi with H <= ker chi, read element by element;
    the same for D.  `quotient_system` takes the genera from the projected
    systems instead."""
    cases = 0
    for name, an in shipped_struct_analyses:
        for qa in an.quotients:
            rows = [i for i, chi in enumerate(an.table)
                    if all(value_on_element(chi, h) == chi.degree for h in qa.kernel.members)]
            for b, genus in zip((an.broughton_c, an.broughton_d), qa.genera):
                n = b.complex_multiplicities
                assert 2 * genus == sum(n[i] * an.table[i].degree for i in rows), name
                cases += 1
    assert cases == 12, cases


def test_swapping_the_curves_swaps_their_data(shipped_struct_analyses):
    """The structure (D, C) has the genera, the complex Broughton vectors and
    the quotient genera of (C, D) swapped, over the same kernels, and the
    same dim Z, type and Picard verdict."""
    for name, an in shipped_struct_analyses:
        s = an.structure
        swapped = sf.analyze(rm.RamificationStructure(s.t2, s.t1), an.table,
                             an.broughton_c.orbits)
        assert swapped.genera == an.genera[::-1], name
        assert swapped.broughton_c.complex_multiplicities == \
            an.broughton_d.complex_multiplicities, name
        assert swapped.broughton_d.complex_multiplicities == \
            an.broughton_c.complex_multiplicities, name
        assert [(q.kernel, q.genera) for q in swapped.quotients] == \
            [(q.kernel, q.genera[::-1]) for q in an.quotients], name
        assert _invariant_parts(swapped) == _invariant_parts(an), name


def test_broughton_on_each_quotient_is_broughton_on_the_inflated_rows(
        shipped_struct_analyses):
    """For each contributing orbit with kernel H, Broughton's formula on G,
    read on the chi with H <= ker chi, equals Broughton's formula on G/H
    for `quotient_system`'s system, with G/H's table inflated to G's
    classes: the restriction of an inflated character to <g> is one to
    <gH>, and an entry in H adds chi(1) to both chi(1)(r - 2) and the sum of
    the l_g, so dropping it changes nothing.  The same for D."""
    cases = 0
    for name, an in shipped_struct_analyses:
        reps = [c.representative for c in an.structure.group.conjugacy_classes]
        for qa in an.quotients:
            quot = qa.system_c.quotient
            table = ct.character_table(quot.group)
            orbits = ct.galois_orbits(table)
            inflated = [tuple(value_on_element(psi, quot.projection[r]) for r in reps)
                        for psi in table]
            rows = [i for i, chi in enumerate(an.table)
                    if all(value_on_element(chi, h) == chi.degree for h in qa.kernel.members)]
            assert len(rows) == len(inflated)
            assert {an.table[i].values for i in rows} == set(inflated), name
            for b, qs in ((an.broughton_c, qa.system_c), (an.broughton_d, qa.system_d)):
                on_quotient = sf.broughton(qs.system, table, orbits)
                want = dict(zip(inflated, on_quotient.complex_multiplicities))
                got = {an.table[i].values: b.complex_multiplicities[i] for i in rows}
                assert got == want, name
                cases += 1
    assert cases == 12, cases


def _hurwitz_move(system, i):
    """(.., g_i, g_i+1, ..) -> (.., g_i g_i+1 g_i^-1, g_i, ..), the braid move
    at the 0-based position i, validated again."""
    group = system.group
    t = list(system.entries)
    t[i], t[i + 1] = group.mul(group.mul(t[i], t[i + 1]), group.inverse(t[i])), t[i]
    return rm.validate_spherical(group, t)


def test_every_hurwitz_move_keeps_the_analysis(shipped_struct_analyses):
    """The braid move at each position i, on C or on D, keeps the tuple's
    product, generation and classes, so the moved structure has the same
    genera, both Broughton vectors, dim Z, type and Picard verdict."""
    moves = 0
    for name, an in shipped_struct_analyses:
        s = an.structure
        moved_structures = (
            [rm.RamificationStructure(_hurwitz_move(s.t1, i), s.t2)
             for i in range(s.t1.length - 1)]
            + [rm.RamificationStructure(s.t1, _hurwitz_move(s.t2, i))
               for i in range(s.t2.length - 1)])
        for moved in moved_structures:
            assert (moved.t1, moved.t2) != (s.t1, s.t2), name
            after = sf.analyze(moved, an.table, an.broughton_c.orbits)
            assert after.genera == an.genera, name
            for b_after, b in ((after.broughton_c, an.broughton_c),
                               (after.broughton_d, an.broughton_d)):
                assert b_after.complex_multiplicities == b.complex_multiplicities, name
                assert b_after.rational_multiplicities == b.rational_multiplicities, name
            assert _invariant_parts(after) == _invariant_parts(an), name
            moves += 1
    assert moves == 25, moves
