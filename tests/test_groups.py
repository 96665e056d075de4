import math

import pytest

from isoprod import chartab as ct
from isoprod import groups as gr


def test_recipe_orders():
    assert gr.cyclic_group(1).order == 1
    assert gr.cyclic_group(12).order == 12
    assert gr.dihedral_group(6).order == 12
    assert gr.symmetric_group(4).order == 24
    assert gr.alternating_group(5).order == 60
    assert gr.abelian_group([2, 2, 2]).order == 8
    assert gr.direct_product(gr.cyclic_group(3), gr.symmetric_group(3)).order == 18


def test_build_group_text_recipes(g128, z2cubed_z4, psl27):
    assert g128.order == 128
    assert z2cubed_z4.order == 32
    assert psl27.order == 168
    assert gr.build_group("group = cyclic 1").order == 1
    assert gr.build_group("group = product [cyclic 2] [dihedral 3]").order == 12
    with pytest.raises(gr.GroupError):
        gr.build_group("group = frobnicate 7")
    with pytest.raises(gr.GroupError):
        gr.build_group("group = cyclic 5000")  # exceeds the default bound
    with pytest.raises(gr.GroupError):
        gr.build_group("")


def test_inconsistent_polycyclic_rejected():
    # g2^g1 = g2*g3 conflicts with g3 = id unless g3 exists; reference to an
    # out-of-range generator must fail fast
    with pytest.raises(gr.GroupError):
        gr.polycyclic_group([2, 2], conjugates={(1, 0): (1, 2)})
    with pytest.raises(gr.GroupError):
        gr.polycyclic_group([2, 2], powers={0: (0,)})


def test_group_axioms_exhaustively_on_small_groups(q8, z3z3):
    for g in (q8, z3z3, gr.dihedral_group(4), gr.symmetric_group(3)):
        n = g.order
        assert all(g.mul(0, i) == i == g.mul(i, 0) for i in range(n))
        assert all(
            g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
            for a in range(n) for b in range(n) for c in range(n)
        )
        assert all(g.mul(i, g.inverse(i)) == 0 for i in range(n))


def test_associativity_exhaustive_up_to_256(g128, z2cubed_z4):
    for g in (g128, z2cubed_z4):
        assert g.order <= 256
        t = g._mul
        n = g.order
        for a in range(n):
            row_a = t[a]
            for b in range(n):
                ab = row_a[b]
                row_b = t[b]
                row_ab = t[ab]
                assert all(row_ab[c] == row_a[row_b[c]] for c in range(n))


def test_conjugacy_classes(q8, z3z3, psl27):
    sizes = sorted(c.size for c in q8.conjugacy_classes)
    assert sizes == [1, 1, 2, 2, 2]
    assert len(z3z3.conjugacy_classes) == 9
    assert all(c.size == 1 for c in z3z3.conjugacy_classes)
    orders = sorted(c.element_order for c in psl27.conjugacy_classes)
    assert orders == [1, 2, 3, 4, 7, 7]
    for g in (q8, z3z3, psl27):
        assert sum(c.size for c in g.conjugacy_classes) == g.order
        assert g.conjugacy_classes[0].members == (0,)
        for cls in g.conjugacy_classes:
            members = set(cls.members)
            for x in cls.members:
                for gen in g.generators:
                    assert g.conjugate(x, gen) in members


def test_subgroups_and_quotients(z3z3_label):
    z3z3, lab = z3z3_label
    h = z3z3.subgroup([lab[(2, 1)]])
    assert h.order == 3
    assert {z3z3.labels[i] for i in h.members} == {(0, 0), (2, 1), (1, 2)}
    assert z3z3.is_normal(h)
    q = z3z3.quotient(h)
    assert q.group.order == 3
    assert gr.is_cyclic(q.group)
    # projection is a homomorphism, exhaustively
    for a in range(z3z3.order):
        for b in range(z3z3.order):
            assert q.project(z3z3.mul(a, b)) == q.group.mul(q.project(a), q.project(b))
    # quotient by the whole group is trivial
    assert z3z3.quotient(z3z3.full_subgroup()).group.order == 1


def test_quotient_by_non_normal_rejected():
    s3 = gr.symmetric_group(3)
    transposition = next(i for i in range(6) if s3.element_orders[i] == 2)
    h = s3.subgroup([transposition])
    assert h.order == 2
    assert not s3.is_normal(h)
    with pytest.raises(gr.GroupError):
        s3.quotient(h)


def test_quotient_projection_is_homomorphism_g128(g128):
    al = gr.default_aliases(g128)
    h = g128.subgroup([gr.parse_word(w, al, g128)
                       for w in ("g7", "g6", "g3*g4", "g4*g5")])
    q = g128.quotient(h)
    for a in range(g128.order):
        for b in range(g128.order):
            assert q.project(g128.mul(a, b)) == q.group.mul(q.project(a), q.project(b))


def test_semidirect_quotients_are_cyclic_of_order_four(z2cubed_z4):
    al = gr.default_aliases(z2cubed_z4)
    w = lambda s: gr.parse_word(s, al, z2cubed_z4)
    h1 = z2cubed_z4.subgroup([w("g1"), w("g3"), w("g2*g4^2")])
    h2 = z2cubed_z4.subgroup([w("g1*g2"), w("g3"), w("g2*g4^2")])
    for h in (h1, h2):
        assert h.order == 8
        q = z2cubed_z4.quotient(h)
        assert q.group.order == 4 and gr.is_cyclic(q.group)


def test_kernel_of_character(z3z3, tables):
    table = tables[z3z3.recipe]
    triv = table[table.trivial_index]
    assert gr.kernel_of_character(z3z3, triv.values).order == z3z3.order
    # the row with kernel of order 3 equal to <(2,1)>
    lab = {l: i for i, l in enumerate(z3z3.labels)}
    target = {0, lab[(2, 1)], lab[(1, 2)]}
    kernels = [
        frozenset(gr.kernel_of_character(z3z3, chi.values).members) for chi in table
    ]
    assert frozenset(target) in kernels


def test_kernel_of_g128_quaternionic_character(g128, tables):
    table = tables[g128.recipe]
    al = gr.default_aliases(g128)
    expected = g128.subgroup([
        gr.parse_word(w, al, g128) for w in ("g7", "g6", "g3*g4", "g4*g5")
    ])
    assert expected.order == 16
    deg2 = [chi for chi in table if chi.degree == 2]
    kernels = {
        frozenset(gr.kernel_of_character(g128, chi.values).members) for chi in deg2
    }
    assert expected.members in kernels
    ker = gr.kernel_of_character(
        g128,
        next(chi for chi in deg2
             if frozenset(gr.kernel_of_character(g128, chi.values).members)
             == expected.members).values,
    )
    q = g128.quotient(ker)
    assert q.group.order == 8 and gr.identify_q8(q.group)


def test_identify_q8(q8):
    assert gr.identify_q8(q8)
    assert not gr.identify_q8(gr.abelian_group([2, 2, 2]))
    d4 = gr.dihedral_group(4)
    assert sum(1 for o in d4.element_orders if o == 2) == 5
    assert not gr.identify_q8(d4)
    with pytest.raises(gr.GroupError):
        gr.identify_q8(gr.cyclic_group(6))


def test_describe_group(q8):
    assert gr.describe_group(gr.cyclic_group(1)) == "trivial"
    assert gr.describe_group(gr.cyclic_group(4)) == "Z4"
    assert gr.describe_group(q8) == "Q8"
    assert gr.describe_group(gr.abelian_group([2, 2])).startswith("abelian")
    assert gr.describe_group(gr.symmetric_group(4)).startswith("nonabelian")


def test_words_evaluate_back(psl27):
    al = gr.default_aliases(psl27)
    for i in range(0, psl27.order, 17):
        assert gr.parse_word(psl27.word(i), al, psl27) == i


def test_exponent_and_orders(psl27, g128):
    assert psl27.exponent == 84
    assert g128.exponent == 4
    assert math.lcm(*set(psl27.element_orders)) == 84
