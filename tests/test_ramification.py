import functools
import hashlib
import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest

from isoprod import groups as gr
from isoprod import ramification as rm
from isoprod import surface as sf
from isoprod.structfile import parse_structure_file
from algebra_oracle import full_subgroup, subgroup, trivial_subgroup
from conftest import structure_keys, systems_of_type
from search_oracle import backtracking_systems_of_type, canonical_key, naive_structure_keys


def entries(group, labels, lab):
    return [lab[x] for x in labels]


def sigma_elements(system):
    """`sigma_set` expanded from class indices to the elements of the classes."""
    classes = system.group.conjugacy_classes
    return frozenset(x for k in rm.sigma_set(system) for x in classes[k].members)


def conjugates_of_powers(group, e):
    """Every t x t^-1 with x a power of e, by brute force."""
    x, out = 0, set()
    for _ in range(group.element_orders[e]):
        out.update(group.conjugate(x, t) for t in range(group.order))
        x = group.mul(x, e)
    return out


def from_class_representatives(group, signature):
    """The backtracking enumeration's tuples of `signature` whose first
    entry is a conjugacy class representative, in its order."""
    reps = {c.representative for c in group.conjugacy_classes}
    return (t for t in backtracking_systems_of_type(group, signature) if t[0] in reps)


@pytest.fixture(scope="module")
def z3z3_structure(z3z3_label):
    group, lab = z3z3_label
    tc = rm.validate_spherical(
        group, entries(group, [(1, 1), (2, 1), (1, 1), (1, 2), (1, 1)], lab)
    )
    td = rm.validate_spherical(group, entries(group, [(0, 2), (0, 1), (1, 0), (2, 0)], lab))
    return rm.RamificationStructure(tc, td)


def test_validate_spherical(z3z3_label):
    group, lab = z3z3_label
    td = rm.validate_spherical(group, entries(group, [(0, 2), (0, 1), (1, 0), (2, 0)], lab))
    assert td.signature == (3, 3, 3, 3)
    with pytest.raises(rm.RamificationError, match="generate"):
        rm.validate_spherical(group, entries(group, [(1, 0), (2, 0)], lab))
    with pytest.raises(rm.RamificationError, match="identity"):
        rm.validate_spherical(group, entries(group, [(1, 0), (0, 1), (2, 0)], lab))
    with pytest.raises(rm.RamificationError, match=">= 2"):
        rm.validate_spherical(group, entries(group, [(1, 1)], lab))
    with pytest.raises(rm.RamificationError, match="order-1"):
        rm.validate_spherical(
            group, entries(group, [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)], lab)
        )


def _word_in_error(group, entries, pattern):
    """The word that `validate_spherical`'s refusal of `entries` names,
    read back to an element."""
    with pytest.raises(rm.RamificationError) as err:
        rm.validate_spherical(group, entries)
    m = re.fullmatch(pattern, str(err.value))
    assert m, str(err.value)
    return gr.parse_word(m.group(1), gr.default_aliases(group), group)


def test_spherical_errors_name_the_element_as_a_word(z3z3, psl27, g128):
    """The identity-entry and the product refusals name the element at
    fault as a word in g1..gk, which `parse_word` maps back to it, in an
    abelian, a permutation and a polycyclic group."""
    identity = r"entry \d+ \((\S+)\) is the identity \(order-1 entries are not allowed\)"
    product = r"product of the entries is (\S+), not the identity"
    for group in (z3z3, psl27, g128):
        g = group.generators[0]
        assert _word_in_error(group, [g, 0, group.inverse(g)], identity) == 0
        for x in range(1, group.order, 3):
            if group.mul(x, g) != 0:
                assert _word_in_error(group, [x, g], product) == group.mul(x, g)


def test_identity_refusal_names_the_first_identity_position(z3z3, psl27):
    """An identity entry is refused at its 1-based position, the first one
    when there are several, and before a product that is not the identity;
    an index out of range is refused before either."""
    for group in (z3z3, psl27):
        g = group.generators[0]
        cases = [([0, g, group.inverse(g)], 1), ([g, 0, group.inverse(g)], 2),
                 ([g, group.inverse(g), 0], 3), ([g, 0, g, 0], 2), ([g, g, 0, 0, g], 3)]
        for entries, pos in cases:
            with pytest.raises(rm.RamificationError) as err:
                rm.validate_spherical(group, entries)
            assert str(err.value) == (
                f"entry {pos} (id) is the identity (order-1 entries are not allowed)")
        with pytest.raises(rm.RamificationError, match="out of range"):
            rm.validate_spherical(group, [0, g, group.order])


def test_validate_g128_tuples(g128):
    al = gr.default_aliases(g128)
    tc = rm.validate_spherical(g128, [
        gr.parse_word(w, al, g128)
        for w in ("g1*g2*g4*g6", "g1*g4*g5*g6", "g2*g3*g4*g7")
    ])
    assert tc.signature == (4, 4, 4)
    assert tc.genus() == 17


def test_genus_formula():
    assert rm.genus(9, [3, 3, 3, 3, 3]) == 7
    assert rm.genus(9, [3, 3, 3, 3]) == 4
    assert rm.genus(128, [4, 4, 4]) == 17
    assert rm.genus(168, [7, 7, 7]) == 49
    assert rm.genus(168, [3, 3, 4]) == 8
    assert rm.genus(168, [3, 3, 7]) == 17
    assert rm.genus(168, [4, 4, 4]) == 22
    with pytest.raises(rm.RamificationError):
        rm.genus(9, [2])  # non-integral
    with pytest.raises(rm.RamificationError):
        rm.genus(9, [3, 1])  # order-1 branching
    with pytest.raises(rm.RamificationError):
        rm.genus(12, [2, 2])  # negative


def test_genus_matches_fraction_formula():
    """Riemann-Hurwitz in integers gives the value and the refusals of the
    plain sum of Fractions, message included, over orders 1-200 and every
    signature of length at most 4 with entries 2-12."""
    seen = Counter()
    for r in range(5):
        for signature in itertools.combinations_with_replacement(range(2, 13), r):
            # g = 1 - d + sum_i (d / 2 m_i)(m_i - 1) = 1 + d c
            c = sum((Fraction(m - 1, 2 * m) for m in signature), Fraction(-1))
            for order in range(1, 201):
                g = Fraction(c.denominator + order * c.numerator, c.denominator)
                try:
                    got = rm.genus(order, signature)
                except rm.RamificationError as exc:
                    assert g.denominator != 1 or g < 0, (order, signature)
                    assert str(exc) == (
                        f"type {list(signature)} is inconsistent with a group of "
                        f"order {order} (genus would be {g})")
                    seen["refused"] += 1
                else:
                    assert type(got) is int and got == g, (order, signature)
                    seen["valid"] += 1
    assert seen["valid"] > 1000 and seen["refused"] > 1000, seen


def test_sigma_sets(z3z3_label):
    group, lab = z3z3_label
    t2 = rm.validate_spherical(group, entries(group, [(0, 2), (0, 1), (1, 0), (2, 0)], lab))
    assert 0 in rm.sigma_set(t2)
    assert sigma_elements(t2) == frozenset(
        {0, lab[(0, 1)], lab[(0, 2)], lab[(1, 0)], lab[(2, 0)]}
    )
    t1 = rm.validate_spherical(
        group, entries(group, [(1, 1), (2, 1), (1, 1), (1, 2), (1, 1)], lab)
    )
    assert sigma_elements(t1) == frozenset(
        {0, lab[(1, 1)], lab[(2, 2)], lab[(2, 1)], lab[(1, 2)]}
    )
    # a system containing a generator of a cyclic group has full sigma set
    z6 = gr.cyclic_group(6)
    t = rm.validate_spherical(z6, [1, z6.inverse(1)])
    assert sigma_elements(t) == frozenset(range(6))


def test_sigma_closure_properties(g128, z3z3_structure):
    al = gr.default_aliases(g128)
    tc = rm.validate_spherical(g128, [
        gr.parse_word(w, al, g128)
        for w in ("g1*g2*g4*g6", "g1*g4*g5*g6", "g2*g3*g4*g7")
    ])
    for system in (tc, z3z3_structure.t1):
        group = system.group
        sigma = sigma_elements(system)
        for x in sigma:
            for g in group.generators:
                assert group.conjugate(x, g) in sigma
            assert group.power(x, 2) in sigma
            assert group.power(x, 3) in sigma


def test_sigma_brute_force_oracle(g128, z3z3_structure, z2cubed_z4):
    """g is in Sigma(T) iff g = t * entry^k * t^-1 for some t, entry, k."""
    al = gr.default_aliases(z2cubed_z4)
    systems = [
        z3z3_structure.t1,
        z3z3_structure.t2,
        rm.validate_spherical(z2cubed_z4, [
            gr.parse_word(w, al, z2cubed_z4)
            for w in ("g1*g4^2", "g1*g2*g3*g4^2", "g2*g4", "g3*g4^3")
        ]),
    ]
    al128 = gr.default_aliases(g128)
    systems.append(rm.validate_spherical(g128, [
        gr.parse_word(w, al128, g128)
        for w in ("g1*g2*g4*g6", "g1*g4*g5*g6", "g2*g3*g4*g7")
    ]))
    for system in systems:
        group = system.group
        assert group.order <= 128
        brute = set().union(*(conjugates_of_powers(group, e) for e in system.entries))
        assert sigma_elements(system) == frozenset(brute)


def test_sigma_classes_match_brute_force(g128, z2cubed_z4, psl27):
    """Sigma as a class set, expanded to elements, is the set of conjugates
    of powers of the entries, for every tuple of several types: class 0 is
    {id}, so class sets meet only in 0 exactly when the Sigma-sets meet only
    in id."""
    cases = [(gr.symmetric_group(4), (2, 3, 4)), (gr.symmetric_group(4), (2, 2, 2, 3)),
             (gr.alternating_group(5), (2, 5, 5)), (psl27, (3, 3, 4)),
             (z2cubed_z4, (2, 2, 4, 4)), (g128, (4, 4, 4))]
    for group, signature in cases:
        brute = {e: conjugates_of_powers(group, e) for e in range(group.order)}
        classes = group.conjugacy_classes
        assert classes[0].members == (0,)
        count = 0
        for t in itertools.islice(systems_of_type(group, signature, False), 400):
            sigma = set().union(*(brute[e] for e in t))
            ks = rm._sigma_classes(group, t)
            assert 0 in ks
            assert set().union(*(classes[k].members for k in ks)) == sigma
            assert sigma_elements(rm.validate_spherical(group, t)) == frozenset(sigma)
            count += 1
        assert count > 20, (group.recipe, signature)


def test_disjointness(z3z3_structure):
    assert rm.is_disjoint(z3z3_structure.t1, z3z3_structure.t2)
    assert rm.is_disjoint(z3z3_structure.t2, z3z3_structure.t1)  # symmetric
    assert not rm.is_disjoint(z3z3_structure.t1, z3z3_structure.t1)
    with pytest.raises(rm.RamificationError, match="not disjoint"):
        rm.RamificationStructure(z3z3_structure.t1, z3z3_structure.t1)


def test_disjointness_g128(g128):
    al = gr.default_aliases(g128)
    w = lambda s: gr.parse_word(s, al, g128)
    tc = rm.validate_spherical(g128, [w("g1*g2*g4*g6"), w("g1*g4*g5*g6"), w("g2*g3*g4*g7")])
    td = rm.validate_spherical(g128, [w("g1*g2*g3*g6*g7"), w("g2*g5*g7"), w("g1*g3*g4*g7")])
    assert rm.is_disjoint(tc, td)


def test_is_disjoint_matches_element_sets(psl27, z2cubed_z4):
    """On class sets, `is_disjoint` gives the verdict of the element-level
    Sigma-sets built by brute force, both ways, on seeded pairs of systems."""
    cases = [(gr.symmetric_group(4), [(2, 2, 3, 3), (4, 4, 4, 4), (2, 3, 4)]),
             (gr.alternating_group(5), [(2, 5, 5), (3, 3, 3, 3)]),
             (psl27, [(7, 7, 7), (3, 3, 4)]),
             (z2cubed_z4, [(2, 2, 4, 4), (2, 2, 2, 2, 4)])]
    rng = random.Random(2015)
    for group, signatures in cases:
        # three seeded systems from each Sigma class set, so every pair of
        # class sets that occurs is tried
        by_sigma = {}
        for signature in signatures:
            for t in systems_of_type(group, signature, first_entry_reps=False):
                by_sigma.setdefault(rm._sigma_classes(group, t), []).append(t)
        systems = [rm.validate_spherical(group, t) for ts in by_sigma.values()
                   for t in rng.sample(ts, min(3, len(ts)))]
        brute = {e: conjugates_of_powers(group, e) for e in range(group.order)}
        elements = [set().union(*(brute[e] for e in s.entries)) for s in systems]
        verdicts = Counter()
        for (s1, e1), (s2, e2) in itertools.product(zip(systems, elements), repeat=2):
            want = e1 & e2 == {0}
            assert rm.is_disjoint(s1, s2) == want
            verdicts[want] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0, (group.recipe, verdicts)


def test_quotient_systems(z3z3_label, z3z3_structure):
    group, lab = z3z3_label
    h = subgroup(group, [lab[(2, 1)]])
    qc = rm.quotient_system(z3z3_structure.t1, group.quotient(h))
    assert qc.genus == 1
    assert qc.system.signature == (3, 3, 3)
    assert len(qc.dropped) == 2
    qd = rm.quotient_system(z3z3_structure.t2, group.quotient(h))
    assert qd.genus == 2
    assert qd.system.signature == (3, 3, 3, 3)
    assert qd.dropped == ()


def test_quotient_system_g128(g128):
    al = gr.default_aliases(g128)
    w = lambda s: gr.parse_word(s, al, g128)
    tc = rm.validate_spherical(g128, [w("g1*g2*g4*g6"), w("g1*g4*g5*g6"), w("g2*g3*g4*g7")])
    h = subgroup(g128, [w("g7"), w("g6"), w("g3*g4"), w("g4*g5")])
    qc = rm.quotient_system(tc, g128.quotient(h))
    assert qc.quotient.group.order == 8
    assert gr.identify_q8(qc.quotient.group)
    assert qc.genus == 2


def test_quotient_round_trip(z3z3_structure, z3z3_label):
    group, _ = z3z3_label
    t1 = z3z3_structure.t1
    q = rm.quotient_system(t1, group.quotient(trivial_subgroup(group)))
    assert q.genus == t1.genus()
    assert q.dropped == ()
    # quotient by the full group: genus 0, no system survives
    q = rm.quotient_system(t1, group.quotient(full_subgroup(group)))
    assert q.genus == 0 and q.system is None
    # a genus-zero two-point quotient is legitimate, not an error
    z4 = gr.cyclic_group(4)
    t = rm.validate_spherical(z4, [1, 1, 2])
    sub = subgroup(z4, [2])
    q = rm.quotient_system(t, z4.quotient(sub))
    assert q.genus == 0 and len(q.system.entries) == 2


# small groups whose systems of these types project to G/H with two, three
# and more survivors, over every normal subgroup H
TWO_SURVIVOR_CASES = (("symmetric 3", (2, 2, 3)), ("cyclic 6", (2, 3, 6)),
                      ("dihedral 4", (2, 2, 2, 4)), ("alternating 4", (2, 3, 3)))


def _systems_and_normal_quotients(recipe, signature):
    """Every system of `signature` over the group of `recipe` (first entry a
    class representative), with the quotients by all normal subgroups."""
    group = gr.build_group(f"group = {recipe}")
    n = group.order
    subgroups = [subgroup(group, h) for h in
                 {group.closure([x, y]) for x in range(n) for y in range(x, n)}]
    quotients = [group.quotient(h) for h in subgroups if group.is_normal(h)]
    systems = [rm.validate_spherical(group, entries) for entries
               in from_class_representatives(group, signature)]
    return systems, quotients


def test_two_survivors_give_genus_zero():
    """When exactly two images survive in G/H they are x and x^-1, which
    generate a cyclic G/H of order o(x), and the quotient curve has genus 0:
    every system of these types, projected to every normal subgroup."""
    two = 0
    for recipe, signature in TWO_SURVIVOR_CASES:
        systems, quotients = _systems_and_normal_quotients(recipe, signature)
        for system in systems:
            for quot in quotients:
                q = rm.quotient_system(system, quot)
                if q.system is None or q.system.length != 2:
                    continue
                two += 1
                x, y = q.system.entries
                assert y == quot.group.inverse(x)
                assert quot.group.element_orders[x] == quot.group.order
                assert q.genus == 0
    assert two > 20, two


def _assert_projection_matches_validation(system, quot):
    """`quotient_system` builds its system from the projection alone; the
    slow path validates the surviving images in G/H, closure and all, and
    must give the same entries, type and genus."""
    got = rm.quotient_system(system, quot)
    images = [quot.project(e) for e in system.entries]
    assert got.dropped == tuple(i for i, x in enumerate(images) if x == 0)
    if quot.group.order == 1:
        assert got.system is None and got.genus == 0
        return
    want = rm.validate_spherical(quot.group, [x for x in images if x != 0])
    assert got.system.group is want.group
    assert (got.system.entries, got.system.signature) == (want.entries, want.signature)
    assert got.genus == want.genus()


def test_quotient_systems_match_the_validating_oracle(shipped_structures):
    """Projection against validation: on the quotient by each contributing
    kernel of every shipped structure and of 100 structures of each shipped
    search's type pair, and on every normal quotient of the two-survivor
    groups."""
    checked = 0
    for _, structures, table, orbits in shipped_structures:
        for structure in structures:
            for qa in sf.analyze(structure, table, orbits).quotients:
                quot = structure.group.quotient(qa.kernel)
                for system in (structure.t1, structure.t2):
                    _assert_projection_matches_validation(system, quot)
                    checked += 1
    for recipe, signature in TWO_SURVIVOR_CASES:
        systems, quotients = _systems_and_normal_quotients(recipe, signature)
        for system in systems:
            for quot in quotients:
                _assert_projection_matches_validation(system, quot)
                checked += 1
    assert checked > 800, checked


def test_quotient_system_refuses_a_system_of_another_group(z3z3_structure, z3z3_label):
    """A system is projected only by a quotient of its own group: another
    group's quotient, even an isomorphic copy, is refused by name."""
    group, lab = z3z3_label
    other, z2 = gr.abelian_group([3, 3]), gr.cyclic_group(2)
    h = subgroup(other, [lab[(2, 1)]])
    for quot in (other.quotient(h), other.quotient(trivial_subgroup(other)),
                 other.quotient(full_subgroup(other)), z2.quotient(trivial_subgroup(z2))):
        with pytest.raises(rm.RamificationError, match="quotient's group"):
            rm.quotient_system(z3z3_structure.t1, quot)
    assert rm.quotient_system(z3z3_structure.t1,
                              group.quotient(subgroup(group, [lab[(2, 1)]]))).genus == 1


def test_search_z2_empty():
    z2 = gr.cyclic_group(2)
    assert rm.search_structures(z2, ([2, 2], [2, 2])) == []


def test_search_bounds():
    z2 = gr.cyclic_group(2)
    with pytest.raises(rm.RamificationError, match="bound"):
        rm.search_structures(z2, ([2, 2], [2, 2]), bound=1)
    with pytest.raises(rm.RamificationError, match="capped"):
        rm.search_structures(z2, ([2] * 7, [2, 2]))
    for limit in (0, -3):
        with pytest.raises(rm.RamificationError, match="limit"):
            rm.search_structures(z2, ([2, 2], [2, 2]), limit=limit)


def test_search_finds_example_structure(z3z3_label, z3z3_structure):
    group, _ = z3z3_label
    key = canonical_key(z3z3_structure)
    assert any(
        k == key
        for k in structure_keys(group, ((3, 3, 3, 3, 3), (3, 3, 3, 3)))
    )


def test_search_psl_types_nonempty(psl27):
    res = rm.search_structures(psl27, ([7, 7, 7], [3, 3, 4]), limit=1)
    assert len(res) == 1
    assert res[0].genera() == (49, 8)
    res = rm.search_structures(psl27, ([3, 3, 7], [4, 4, 4]), limit=1)
    assert res[0].genera() == (17, 22)


def test_search_results_sorted_and_valid(z3z3_label):
    group, _ = z3z3_label
    res = rm.search_structures(group, ([3, 3, 3, 3], [3, 3, 3, 3]))
    keys = [canonical_key(s) for s in res]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    for s in res[:10]:
        assert rm.is_disjoint(s.t1, s.t2)


def _keys_digest(it):
    count, acc = 0, 0
    for key in it:
        count += 1
        acc = (acc + hash(key)) & 0xFFFFFFFFFFFFFFFF
    return count, acc


def test_search_completeness_z3z3_small_type(z3z3_label):
    group, _ = z3z3_label
    pruned = sorted(structure_keys(group, ((3, 3, 3, 3), (3, 3, 3, 3))))
    naive = sorted(
        naive_structure_keys(group, ((3, 3, 3, 3), (3, 3, 3, 3)))
    )
    assert pruned == naive
    assert len(pruned) == 3456


def test_search_completeness_z3z3_full_type(z3z3_label):
    group, _ = z3z3_label
    types = ((3, 3, 3, 3, 3), (3, 3, 3, 3))
    assert _keys_digest(structure_keys(group, types)) == _keys_digest(
        naive_structure_keys(group, types)
    )


def test_search_completeness_z2cubed():
    group = gr.abelian_group([2, 2, 2])
    # no structure with a length-4 side exists: both digests must agree on empty
    types = ((2, 2, 2, 2), (2, 2, 2, 2))
    assert _keys_digest(structure_keys(group, types)) == (0, 0)
    assert _keys_digest(naive_structure_keys(group, types)) == (0, 0)
    # the minimal nonempty case: both sides of length 6
    types = ((2,) * 6, (2,) * 6)
    digest = _keys_digest(structure_keys(group, types))
    assert digest[0] > 0
    assert digest == _keys_digest(naive_structure_keys(group, types))


def test_canonical_key_matches_brute_force(q8, psl27):
    """The coset-restricted minimum equals the minimum over all of G."""
    groups = [
        gr.build_group("perm (1 2 3 4), (1 2)"),
        gr.alternating_group(5),
        psl27,
        q8,
        gr.build_group("dihedral 12"),
    ]
    rng = random.Random(2015)
    for group in groups:
        assert not group.is_abelian
        for _ in range(3000):
            e1 = [rng.randrange(group.order) for _ in range(rng.randint(1, 5))]
            e2 = [rng.randrange(group.order) for _ in range(rng.randint(1, 5))]
            cat = tuple(e1) + tuple(e2)
            want = min(
                tuple(group.conjugate(e, t) for e in cat) for t in range(group.order)
            )
            assert group.min_conjugate(tuple(e1) + tuple(e2)) == want


def test_search_completeness_s4():
    group = gr.build_group("perm (1 2 3 4), (1 2)")
    types = ((2, 2, 3, 3), (4, 4, 4, 4))
    pruned = sorted(structure_keys(group, types))
    assert pruned == sorted(naive_structure_keys(group, types))
    assert len(pruned) == 3456


def _canonicalise_every_pair(group, type_pair):
    """The search before side 1 was cut to centraliser-minimal tuples: every
    Sigma-disjoint pair of the two sides is canonicalised, and each key is
    kept at its first visit."""
    buckets = []
    sides = (from_class_representatives(group, type_pair[0]),
             systems_of_type(group, type_pair[1], first_entry_reps=False))
    for side in sides:
        by_sigma = {}
        for t in side:
            by_sigma.setdefault(rm._sigma_classes(group, t), []).append(t)
        buckets.append(by_sigma)
    seen = set()
    for s1, side1 in buckets[0].items():
        for s2, side2 in buckets[1].items():
            if s1 & s2 != {0}:
                continue
            for t1, t2 in itertools.product(side1, side2):
                key = group.min_conjugate(t1 + t2)
                if key not in seen:
                    seen.add(key)
                    yield key


@pytest.mark.parametrize("recipe, types, count", [
    ("abelian 3 3", ((3, 3, 3, 3, 3), (3, 3, 3, 3)), None),
    ("perm (1 2 3 4), (1 2)", ((2, 2, 3, 3), (4, 4, 4, 4)), None),
    ("abelian 2 2 2", ((2,) * 6, (2,) * 6), None),
    ("alternating 5", ((2, 5, 5), (3, 3, 3, 3)), None),
    ("perm (1 2 3 4 5 6 7), (1 8)(2 7)(3 4)(5 6)", ((7, 7, 7), (3, 3, 4)), None),
    ("perm (1 2 3 4 5 6 7), (1 8)(2 7)(3 4)(5 6)", ((3, 3, 7), (4, 4, 4)), None),
    # non-abelian with centre Z2: the conjugators fixing t1 are not only 1
    ("product [perm (1 2 3 4), (1 2)] [cyclic 2]", ((2, 2, 2, 3), (4, 4, 4, 4)), 5000),
])
def test_minimal_first_tuples_keep_keys_and_order(recipe, types, count):
    """Keeping only the least first tuple of each C_G(r) orbit yields the
    keys of the canonicalise-every-pair search, in the same order."""
    group = gr.build_group(recipe)
    pruned = list(itertools.islice(structure_keys(group, types), count))
    assert pruned
    assert pruned == list(itertools.islice(_canonicalise_every_pair(group, types), count))


def _backtracked_source(group, entries):
    """The tuple whose backtracking found `entries`: `entries` itself when it
    starts at its class representative r, else t^-1 entries t for the
    transversal element t with t^-1 e t = r, e its first entry."""
    first = entries[0]
    r = group.conjugacy_classes[group.class_of[first]].representative
    if first == r:
        return entries
    t = group._transversal[0][first]
    t_inv = group.inverse(t)
    source = tuple(group.mul(group.mul(t_inv, x), t) for x in entries)
    assert source[0] == r
    return source


def _assert_read_tuples_validated_once(monkeypatch, name, limit):
    """A search of the case `name` calls `validate_spherical` exactly once on
    each tuple that it reads from backtracking (one that starts at a class
    representative), as it reads it, and never on a conjugate; every
    returned system is the one `validate_spherical` builds from its entries,
    and holds its entries' class set.  Returns the validated tuples and the
    returned systems by entries."""
    group, types = _search_case(name)
    calls, read = [], []
    validate, enumerate_systems = rm.validate_spherical, rm._systems_of_type

    def counting(group, entries, generates=None):
        calls.append(tuple(entries))
        return validate(group, entries, generates)

    def reading(*args):
        for system in enumerate_systems(*args):
            read.append(system.entries)
            yield system

    monkeypatch.setattr(rm, "validate_spherical", counting)
    monkeypatch.setattr(rm, "_systems_of_type", reading)
    found = rm.search_structures(group, types, limit=limit)
    monkeypatch.undo()
    assert len(found) == (KEY_STREAM_DIGESTS[name][0] if limit is None else limit)
    reps = {c.representative for c in group.conjugacy_classes}
    assert calls == [t for t in read if t[0] in reps]
    assert len(calls) == len(set(calls))
    returned = {system.entries: system for s in found for system in (s.t1, s.t2)}
    for entries, system in returned.items():
        assert system == rm.validate_spherical(group, entries)  # entries, signature
        assert "sigma" in system.__dict__
        assert system.sigma == rm._sigma_classes(group, entries)
    return calls, returned


def test_search_validates_each_distinct_tuple_once(monkeypatch):
    """A full search validates the backtracked source of each returned tuple
    once and no conjugate: (calls, distinct returned tuples) per case.  On A5
    that is 60 calls, against 1,086 when every distinct tuple was validated
    and 2 x 6,480 when every structure was."""
    counts = {}
    for name in sorted(KEY_STREAM_DIGESTS):
        calls, returned = _assert_read_tuples_validated_once(monkeypatch, name, None)
        group = _search_case(name)[0]
        assert set(calls) == {_backtracked_source(group, t) for t in returned}
        counts[name] = len(calls), len(returned)
    assert counts == {"A5 (2,5,5)/(3,3,3,3)": (60, 1086), "psl2f7_a": (42, 2018),
                      "psl2f7_b": (22, 678)}


@pytest.mark.parametrize("limit", [1, 7, 100])
def test_limited_search_validates_only_what_it_returns(monkeypatch, limit):
    """A limited search validates each tuple it reads from backtracking once,
    as it reads it, and no conjugate; what it returns is validated."""
    for name in sorted(KEY_STREAM_DIGESTS):
        _assert_read_tuples_validated_once(monkeypatch, name, limit)


def test_non_integer_entries_are_refused_at_their_position(z3z3):
    """A float, a numeric string or a bool is not an element index, although
    `int` would turn each into one; the first such entry is refused by its
    1-based position, before any range check."""
    assert rm.validate_spherical(z3z3, (1, 2, 8)).entries == (1, 2, 8)
    cases = [((1.7, 2.7, 8.7), 1, "1.7"), (("1", "2", "8"), 1, "'1'"),
             ((True, 2, 8), 1, "True"), ((1, 2.0, 8), 2, "2.0"),
             ((1, 2, False, -1), 3, "False"), ((z3z3.order, None), 2, "None")]
    for entries, pos, shown in cases:
        with pytest.raises(rm.RamificationError) as err:
            rm.validate_spherical(z3z3, entries)
        assert str(err.value) == f"entry {pos} ({shown}) is not an element index"


def test_generation_test_matches_closure(monkeypatch, z3z3, q8, psl27, g128,
                                         z2cubed_z4):
    """The memoised generation test answers as a closure does, on seeded
    random entry lists; asked again, it answers from its memo alone."""
    from test_acceptance import _random_small_groups

    rng = random.Random(1707)
    answers = Counter()
    for group in [z3z3, q8, psl27, g128, z2cubed_z4] + _random_small_groups():
        full = frozenset(range(group.order))
        lists = [[rng.randrange(group.order) for _ in range(rng.randint(1, 4))]
                 for _ in range(40)]
        want = [group.closure(t) == full for t in lists]
        generates = rm._SearchMemo(group).generates
        assert [generates(t) for t in lists] == want
        with monkeypatch.context() as m:
            m.setattr(gr.FiniteGroup, "closure", None)  # a memo miss would fail
            assert [generates(t[::-1]) for t in lists] == want
        answers.update(want)
    assert answers[True] > 0 and answers[False] > 0, answers


def test_memoised_generation_still_refuses_a_non_generating_tuple():
    """x, x^-1 multiply to one but generate only <x>: a memo that has already
    answered for that entry set still refuses it, and a generating tuple
    validates as it does without the memo."""
    a5 = gr.alternating_group(5)
    memo = rm._SearchMemo(a5)
    generates = memo.generates
    x = a5.element_orders.index(5)
    pair = (x, a5.inverse(x))
    assert not generates(pair)
    for test in (generates, None):
        with pytest.raises(rm.RamificationError, match="do not generate"):
            rm.validate_spherical(a5, pair, test)
    t = next(rm._systems_of_type(a5, (2, 5, 5), True, memo))
    assert rm.validate_spherical(a5, t.entries, generates) == rm.validate_spherical(
        a5, t.entries) == t


def test_system_sigma_is_computed_once_and_is_no_field(psl27):
    """`system.sigma` is the class set of its entries, `sigma_set` reads it,
    and it takes no part in equality or hashing."""
    for t in itertools.islice(systems_of_type(psl27, (3, 3, 4), False), 50):
        system, twin = rm.validate_spherical(psl27, t), rm.validate_spherical(psl27, t)
        assert system.sigma == rm._sigma_classes(psl27, t)
        assert rm.sigma_set(system) is system.sigma
        assert "sigma" not in twin.__dict__
        assert system == twin and hash(system) == hash(twin)
        twin.__dict__["sigma"] = frozenset()
        assert system == twin and hash(system) == hash(twin)


def test_generation_memo_lives_for_one_search(monkeypatch):
    """Each search makes its own generation memo and keeps none on the group:
    a second full search on the same group object makes as many closures as
    the first, and neither makes more than the distinct entry sets it tested
    (a traced run of the same search needs its closure calls)."""
    sfile = parse_structure_file(
        resources.files("isoprod.data").joinpath("psl2f7_a.search").read_text())
    group = sfile.build()
    tested, closures = [], []
    real_init, real_test = rm._SearchMemo.__init__, rm._SearchMemo.generates
    real_closure = gr.FiniteGroup.closure

    def recording_init(self, group):
        real_init(self, group)
        self.tested = set()
        tested.append(self.tested)

    def recorded(self, entries):
        self.tested.add(frozenset(entries))
        return real_test(self, entries)

    def counting(self, gens):
        closures[-1] += 1
        return real_closure(self, gens)

    monkeypatch.setattr(rm._SearchMemo, "__init__", recording_init)
    monkeypatch.setattr(rm._SearchMemo, "generates", recorded)
    monkeypatch.setattr(gr.FiniteGroup, "closure", counting)
    for _ in range(2):
        closures.append(0)
        assert len(rm.search_structures(group, sfile.type_pair)) == 4032
    assert len(tested) == 2
    assert 0 < closures[0] == closures[1]
    assert all(calls <= len(sets) for calls, sets in zip(closures, tested))


def test_sigma_is_computed_once_per_bucketed_tuple(monkeypatch):
    """One search computes each tuple's Sigma class set once: the buckets
    and the result hold one system per tuple, so a full `psl2f7_a` search
    makes no more `_sigma_classes` calls than systems it buckets, and every
    system it returns still holds its own entries' class set."""
    sfile = parse_structure_file(
        resources.files("isoprod.data").joinpath("psl2f7_a.search").read_text())
    group = sfile.build()
    counts = {"sigma": 0, "bucketed": 0}
    real_sigma, real_init = rm._sigma_classes, rm._SigmaBuckets.__init__

    def counting_sigma(group, entries):
        counts["sigma"] += 1
        return real_sigma(group, entries)

    def counting_init(self, side):
        def counted():
            for system in side:
                counts["bucketed"] += 1
                yield system

        real_init(self, counted())

    monkeypatch.setattr(rm, "_sigma_classes", counting_sigma)
    monkeypatch.setattr(rm._SigmaBuckets, "__init__", counting_init)
    found = rm.search_structures(group, sfile.type_pair)
    assert len(found) == 4032
    assert 0 < counts["sigma"] <= counts["bucketed"], counts
    monkeypatch.undo()
    for s in found[::97]:
        for system in (s.t1, s.t2):
            assert system.sigma == rm._sigma_classes(group, system.entries)


def _list_disjoint_pairs(group, side1, side2):
    """The pairing before it read its sides lazily: both sides are read in
    full and bucketed by Sigma before the first pair.  It computes every
    Sigma of `group` itself, from the systems' entries, and tests each
    bucket pair's class sets itself."""
    by_sigma1, by_sigma2 = {}, {}
    for side, by_sigma in ((side1, by_sigma1), (side2, by_sigma2)):
        for t in side:
            by_sigma.setdefault(rm._sigma_classes(group, t.entries), []).append(t)
    for s1, group1 in by_sigma1.items():
        for s2, group2 in by_sigma2.items():
            if s1 & s2 != {0}:
                continue
            for t1 in group1:
                for t2 in group2:
                    yield t1, t2


def _sampled_type_pairs(group, rng):
    """A few type pairs whose sides are types of spherical systems of the
    group, from random tuples of length 3 (and 4 up to order 24): the first
    and last type found, in both orders, and the middle one twice."""
    found = set()
    for length in (3, 4) if group.order <= 24 else (3,):
        for _ in range(200):
            entries = [rng.randrange(1, group.order) for _ in range(length - 1)]
            prod = 0
            for e in entries:
                prod = group.mul(prod, e)
            try:
                system = rm.validate_spherical(group, entries + [group.inverse(prod)])
            except rm.RamificationError:
                continue
            found.add(system.signature)
    types = sorted(found)
    if not types:
        return []
    first, mid, last = types[0], types[len(types) // 2], types[-1]
    return sorted({(first, last), (last, first), (mid, mid)})


def test_lazy_pairing_matches_list_pairing(monkeypatch, z3z3, q8, psl27, g128,
                                           z2cubed_z4):
    """The lazily filled Sigma buckets give the key stream of the list-based
    pairing, so every limited search keeps its keys and its `limited`."""
    from test_acceptance import _random_small_groups

    a5, s4 = gr.alternating_group(5), gr.symmetric_group(4)
    s4z2 = gr.build_group("product [symmetric 4] [cyclic 2]")
    cases = [
        (z3z3, ((3, 3, 3, 3), (3, 3, 3, 3))), (z3z3, ((3, 3, 3), (3, 3, 3))),
        (q8, ((4, 4, 4), (4, 4, 4))),
        (psl27, ((7, 7, 7), (3, 3, 4))), (psl27, ((3, 3, 7), (4, 4, 4))),
        (psl27, ((4, 4, 4), (7, 7, 7))),
        (g128, ((4, 4, 4), (4, 4, 4))), (z2cubed_z4, ((2, 2, 4, 4), (2, 2, 4, 4))),
        (a5, ((2, 5, 5), (3, 3, 3, 3))), (a5, ((3, 3, 3, 3), (2, 5, 5))),
        (s4, ((2, 2, 3, 3), (4, 4, 4, 4))), (s4z2, ((2, 2, 2, 3), (4, 4, 4, 4))),
    ]
    rng = random.Random(1412)
    for group in _random_small_groups():
        cases += [(group, types) for types in _sampled_type_pairs(group, rng)]
    nonempty = 0
    for group, types in cases:
        with monkeypatch.context() as m:
            m.setattr(rm, "_disjoint_pairs", functools.partial(_list_disjoint_pairs, group))
            want = list(structure_keys(group, types))
        assert list(structure_keys(group, types)) == want, (group.recipe, types)
        nonempty += bool(want)
        # a full search of the largest pairs (up to 294,912 structures) is
        # left to the key stream above
        for limit in (1, 2, 7, 100) + ((None,) if len(want) <= 50_000 else ()):
            found, limited = rm.find_structures(group, types, limit=limit)
            assert [canonical_key(s) for s in found] == sorted(want[:limit])
            assert limited == (limit is not None and len(want) > limit)
    assert nonempty >= 9, nonempty


def _seeded_types(group, length, rng, count):
    """Up to `count` distinct types of spherical systems of `group` with
    `length` entries, from random product-one tuples."""
    found = []
    for _ in range(300):
        entries = [rng.randrange(1, group.order) for _ in range(length - 1)]
        prod = 0
        for e in entries:
            prod = group.mul(prod, e)
        try:
            signature = rm.validate_spherical(group, entries + [group.inverse(prod)]).signature
        except rm.RamificationError:
            continue
        if signature not in found:
            found.append(signature)
            if len(found) == count:
                break
    return found


def test_side_two_streams_as_backtracking_from_every_first_entry(monkeypatch, z3z3, q8, psl27,
                                                                  g128, z2cubed_z4):
    """Side 2 (conjugates of the batches that start at class representatives)
    yields the stream of the backtracking over every first entry, tuple for
    tuple and in order, on seeded types of length 2-4 (and 5-6 on the small
    groups): in full, or its first 3000 tuples where it is longer.  Building
    a conjugate's system calls no `closure`, no `_sigma_classes` and no
    `validate_spherical`, and the system holds its entries' class set."""
    from test_acceptance import _random_small_groups

    building = [False]
    real_batch = rm._conjugate_batch

    def refused_while_building(real):
        def guarded(*args):
            assert not building[0], real.__name__
            return real(*args)
        return guarded

    def watched_batch(*args):
        batch = real_batch(*args)
        while True:
            building[0] = True
            system = next(batch, None)
            building[0] = False
            if system is None:
                return
            built.append(system)
            yield system

    monkeypatch.setattr(gr.FiniteGroup, "closure", refused_while_building(gr.FiniteGroup.closure))
    monkeypatch.setattr(rm, "_sigma_classes", refused_while_building(rm._sigma_classes))
    monkeypatch.setattr(rm, "validate_spherical", refused_while_building(rm.validate_spherical))
    monkeypatch.setattr(rm, "_conjugate_batch", watched_batch)
    rng = random.Random(2112)
    compared, conjugated = Counter(), Counter()
    for group in [z3z3, q8, psl27, g128, z2cubed_z4, gr.alternating_group(5)] + \
            _random_small_groups():
        reps = {c.representative for c in group.conjugacy_classes}
        for length in (2, 3, 4) + ((5, 6) if group.order <= 24 else ()):
            for signature in _seeded_types(group, length, rng, 2):
                built = []
                got = list(itertools.islice(
                    rm._systems_of_type(group, signature, False, rm._SearchMemo(group)),
                    3000))
                want = list(itertools.islice(
                    backtracking_systems_of_type(group, signature), 3000))
                assert [system.entries for system in got] == want, (group.recipe, signature)
                conjugates = [system for system in got if system.entries[0] not in reps]
                assert conjugates == built
                for system in conjugates:
                    assert "sigma" in system.__dict__
                    assert system.sigma == rm._sigma_classes(group, system.entries)
                compared[length] += 1
                conjugated[group.recipe] += len(conjugates)
    # only a cyclic group has a spherical system of length 2
    assert compared[2] >= 5 and all(compared[n] >= 10 for n in (3, 4, 5, 6)), compared
    for group in (q8, psl27, g128, z2cubed_z4):
        assert conjugated[group.recipe] > 0, group.recipe


# sha256 of the discovery-order key stream (the pairs of
# `iter_structure_pairs`, joined) and of the sorted keys
# `find_structures(..., limit=k)` returns, with its `limited`, recorded
# before side 2 was found by conjugation
KEY_STREAM_DIGESTS = {
    "A5 (2,5,5)/(3,3,3,3)": (
        6480, "41dd66ddd194eecd0d81f7efb49148e940ffb0ba9207b4d7cfa66ebc93e25422", {
            1: "5b93bec0b121a83e9e3998dc84a544809825ee7afd263d38791067861e2f74a4",
            7: "ea719f0cac10a1a27c06467534def87fe8a2f2aa10cf10172a11039849fc2e9d",
            100: "e3a355c4b65271652cf5d10d5a178359467fdb16bdef282d79ed6418a50f5c3d"}),
    "psl2f7_a": (
        4032, "ac4cefbf97fe27755308cc16cbd64d901d298c6da69fc030b8877bbdd6c64436", {
            1: "f437fe1641c4ab14904cdbdc701c0ee330e3adc9794cd094e503c5ef409045bf",
            7: "4deded757a385eea04d37c591ddc7b44af858d9b5d14c4038d029fb0722d9b19",
            100: "cfc1e42db81ecba66e62292d52c4b723a32d896ba830abb31aab770138647a59"}),
    "psl2f7_b": (
        4032, "f8960e70add498702886e4b537fe5e13f1ea429c8f8d432560d0258aed89ef3b", {
            1: "536ac88e603f457bc7059cf410808ec4c7e386aed0eea068695d2d7bf6a44812",
            7: "18fcf00755441d0410c434cc33231cb2282be6613e968f6f44306ef7ebf2e74b",
            100: "eb8b854c8e7e104516fe7c6bad5248fe5b05e11dce5a9f48c00b58e3051b758f"}),
}


def _search_case(name):
    if name.startswith("A5"):
        return gr.alternating_group(5), ((2, 5, 5), (3, 3, 3, 3))
    if name.startswith("Z3xZ3"):  # the type pair of z3xz3.struct
        return gr.abelian_group([3, 3]), ((3, 3, 3, 3, 3), (3, 3, 3, 3))
    if name.startswith("Z2^3"):
        return gr.abelian_group([2, 2, 2]), ((2,) * 6, (2,) * 6)
    sfile = parse_structure_file(
        resources.files("isoprod.data").joinpath(name + ".search").read_text())
    return sfile.build(), sfile.type_pair


def _stream_digest(keys):
    return hashlib.sha256("\n".join(",".join(map(str, k)) for k in keys).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(KEY_STREAM_DIGESTS))
def test_key_stream_and_limited_results_are_pinned(name):
    group, types = _search_case(name)
    count, stream, limited = KEY_STREAM_DIGESTS[name]
    keys = list(structure_keys(group, types))
    assert len(keys) == count
    assert _stream_digest(keys) == stream
    for k, want in limited.items():
        found, was_limited = rm.find_structures(group, types, limit=k)
        assert was_limited
        assert _stream_digest(canonical_key(s) for s in found) == want


@pytest.mark.parametrize("name, limit, count, examined, disjoint", [
    ("Z3xZ3 (3,3,3,3,3)/(3,3,3,3)", None, 11520, 110, 6),
    ("A5 (2,5,5)/(3,3,3,3)", None, 6480, 1, 1),
    ("psl2f7_a", None, 4032, 1, 1), ("psl2f7_b", None, 4032, 1, 1),
    # 680,400 structures in full; the first 20,000 pair one side-1 bucket
    # with three side-2 buckets, of the 280 bucket pairs examined
    ("Z2^3 (2^6)/(2^6)", 20000, 20000, 280, 3),
])
def test_search_checks_disjointness_once_per_sigma_bucket_pair(monkeypatch, name, limit,
                                                               count, examined, disjoint):
    """A search runs `is_disjoint` once per pair of Sigma buckets that its
    pairing examines, each verdict is that of the element-level Sigma-sets,
    and the bucket pairs of the structures it returns are exactly those found
    disjoint.  A structure built without the check equals, and hashes as,
    the checked one."""
    group, types = _search_case(name)
    verdicts = []
    real = rm.is_disjoint

    def counting(t1, t2):
        verdict = real(t1, t2)
        verdicts.append((t1, t2, verdict))
        return verdict

    monkeypatch.setattr(rm, "is_disjoint", counting)
    found = rm.search_structures(group, types, limit=limit)
    monkeypatch.undo()
    assert len(found) == count
    pairs = [(t1.sigma, t2.sigma) for t1, t2, _ in verdicts]
    assert len(pairs) == len(set(pairs)) == examined
    brute = {}
    for t1, t2, verdict in verdicts:
        sigmas = [brute.setdefault(t.entries, frozenset().union(
            *(conjugates_of_powers(group, e) for e in t.entries))) for t in (t1, t2)]
        assert verdict == (sigmas[0] & sigmas[1] == {0})
    proved = {pair for pair, (_, _, verdict) in zip(pairs, verdicts) if verdict}
    assert len(proved) == disjoint
    assert {(s.t1.sigma, s.t2.sigma) for s in found} == proved
    assert all(rm.is_disjoint(s.t1, s.t2) for s in found)
    for s in found[::7]:
        unchecked = rm.RamificationStructure._proved(s.t1, s.t2)
        for built in (s, unchecked):
            want = rm.RamificationStructure(s.t1, s.t2)
            assert built == want and hash(built) == hash(want)


def test_checks_run_only_on_tuples_from_class_representatives(monkeypatch):
    """A full `psl2f7_a` search closes each entry set at most once, and only
    entry sets of product-one tuples of a side's type that start at a class
    representative; it computes Sigma at most once per such tuple, and for
    no other.  The tuples that start elsewhere inherit both."""
    group, types = _search_case("psl2f7_a")
    reps = {c.representative for c in group.conjugacy_classes}
    from_reps = set()
    for signature in types:
        for rest in itertools.product(range(1, group.order), repeat=len(signature) - 2):
            for r in reps:
                prod = r
                for e in rest:
                    prod = group.mul(prod, e)
                t = (r,) + rest + (group.inverse(prod),)
                if sorted(group.element_orders[e] for e in t) == sorted(signature):
                    from_reps.add(t)
    closed, sigmas = [], []
    real_closure, real_sigma = gr.FiniteGroup.closure, rm._sigma_classes

    def counting_closure(self, gens):
        closed.append(frozenset(gens))
        return real_closure(self, gens)

    def counting_sigma(group, entries):
        sigmas.append(tuple(entries))
        return real_sigma(group, entries)

    monkeypatch.setattr(gr.FiniteGroup, "closure", counting_closure)
    monkeypatch.setattr(rm, "_sigma_classes", counting_sigma)
    found = rm.search_structures(group, types)
    monkeypatch.undo()
    assert len(found) == 4032
    assert 0 < len(closed) == len(set(closed))
    assert set(closed) <= {frozenset(t) for t in from_reps}
    assert 0 < len(sigmas) == len(set(sigmas))
    assert set(sigmas) <= from_reps
    # side 2 starts at every element, so most of its tuples were not checked
    t2s = {s.t2.entries for s in found}
    assert len(t2s - from_reps) > len(t2s & from_reps)


@pytest.fixture
def pulled(monkeypatch):
    """Counts of the systems each started side enumeration yields, by type."""
    counts = {}
    real = rm._systems_of_type

    def counting(group, signature, first_entry_reps, memo):
        counts.setdefault(tuple(signature), 0)
        for system in real(group, signature, first_entry_reps, memo):
            counts[tuple(signature)] += 1
            yield system

    monkeypatch.setattr(rm, "_systems_of_type", counting)
    return counts


def test_limited_search_reads_only_the_tuples_it_needs(psl27, pulled):
    for types, total in ((((7, 7, 7), (3, 3, 4)), 2018), (((3, 3, 7), (4, 4, 4)), 678)):
        pulled.clear()
        assert len(rm.search_structures(psl27, types, limit=1)) == 1
        assert sum(pulled.values()) <= 3, pulled
        pulled.clear()
        rm.search_structures(psl27, types)
        assert sum(pulled.values()) == total, pulled


def test_empty_first_side_never_starts_the_second(pulled):
    # Riemann-Hurwitz admits four involutions over Z6 (genus 1), but Z6 has
    # only one involution, so no such tuple generates it
    assert rm.find_structures(gr.cyclic_group(6), ((2, 2, 2, 2), (6, 6))) == ([], False)
    assert pulled == {(2, 2, 2, 2): 0}


def test_types_inconsistent_with_the_order_are_refused_before_enumerating(psl27, pulled):
    cases = [
        (gr.cyclic_group(6), ((2, 2), (6, 6)), "type [2, 2] is inconsistent with a group "
                                              "of order 6 (genus would be -2)"),
        (psl27, ((2, 3), (7, 7, 7)), "type [2, 3] is inconsistent with a group "
                                     "of order 168 (genus would be -69)"),
        (psl27, ((7, 7, 7), (2, 3, 5)), "type [2, 3, 5] is inconsistent with a group "
                                        "of order 168 (genus would be -9/5)"),
    ]
    for group, types, message in cases:
        with pytest.raises(rm.RamificationError) as info:
            rm.find_structures(group, types, limit=1)
        assert str(info.value) == message
        with pytest.raises(rm.RamificationError):
            rm.search_structures(group, types)
    assert pulled == {}
