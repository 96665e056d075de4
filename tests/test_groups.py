import contextlib
import math
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_oracle import (breadth_first, cayley_table, collected_polycyclic_table,
                            contains_trivial, full_subgroup, subgroup, trivial_subgroup)
from conftest import G128_RECIPE, PSL27_RECIPE, Z2CUBED_Z4_RECIPE
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


def test_non_associative_recipes_rejected():
    # accepted once as a "nonabelian group of order 12" with 288 triples
    # (ab)c != a(bc): g2^g1 = g2^2*g3 is not an automorphism of <g2, g3>
    with pytest.raises(gr.GroupError):
        gr.polycyclic_group([2, 3, 2], conjugates={(1, 0): (1, 1, 2)})
    # g2 has order 9 and g2^g1 = g2^2 has order 6 mod 9; all 18 normal forms
    # are reached and every element has a two-sided inverse in the table the
    # Cayley graph gives, so only the associativity check, on the rows of
    # the generators, rejects this one
    with pytest.raises(gr.GroupError):
        gr.polycyclic_group([2, 3, 3], powers={1: (2,)}, conjugates={(1, 0): (1, 1)})
    # squaring is an automorphism of Z7 of order 3, not 2
    with pytest.raises(gr.GroupError):
        gr.build_group("group = semidirect [cyclic 7] [cyclic 2]\n"
                       "act g2: g1 -> g1^2")


def test_generator_that_does_not_multiply_as_itself_is_rejected():
    """Check (a): under x*1 = x + 3 on Z/4 the BFS enumerates Z4, whose
    table is associative, but the element labelled 1 multiplies as x + 1,
    so the words of the elements would not read back.  Every recipe's
    identity fixes its generator labels, where (a) holds by construction."""
    with pytest.raises(gr.GroupError, match="not associative"):
        gr.FiniteGroup(0, lambda a, b: (a + 3 * b) % 4, [1], "contrived")
    assert gr.FiniteGroup(0, lambda a, b: (a + b) % 4, [1, 3], "cyclic 4").order == 4


def test_overlapping_cycles_are_rejected():
    """A point in two cycles defines no permutation; naming such a map used
    to follow it forever and run out of memory."""
    for recipe in ("perm (1 2 3 4 5 6 7), (1 8)(2 1)(3 4)(5 6)", "perm (1 2 1)",
                   "perm (1 2)(2 3)"):
        with pytest.raises(gr.GroupError, match="disjoint"):
            gr.build_group(recipe)
    assert gr.build_group("perm (1 2)(3 4), (1 3)").order == 8


def _per_pair_table(identity, label_mul, generators,
                    order_bound=gr.DEFAULT_ORDER_BOUND):
    """BFS enumeration, then `label_mul` on every pair of elements: the
    table fill that the Cayley-graph fill replaced, kept as its oracle."""
    elems, index, parents, _ = breadth_first(identity, label_mul, generators, order_bound)
    table = []
    for x in elems:
        row = []
        for y in elems:
            k = index.get(label_mul(x, y))
            if k is None:
                raise gr.GroupError("multiplication escapes the enumerated set")
            row.append(k)
        table.append(row)
    inv = [row.index(0) for row in table]
    if any(table[j][i] != 0 for i, j in enumerate(inv)):
        raise gr.GroupError("two-sided inverses missing")
    return {"labels": elems, "_parents": parents,
            "generators": tuple(index[g] for g in generators),
            "_mul": table, "_inv": inv}


@contextlib.contextmanager
def _checked_against_per_pair_oracle():
    """Compare every FiniteGroup built inside the block with the every-edge
    oracle, which must reach the same verdict (the same GroupError, or the
    same group), and every group accepted with the per-pair oracle; yields
    the list of groups built."""
    built = []
    real_init = gr.FiniteGroup.__init__

    def init(self, identity, label_mul, generators, recipe,
             order_bound=gr.DEFAULT_ORDER_BOUND):
        generators = list(generators)
        try:
            edge_checked = cayley_table(identity, label_mul, generators, order_bound)
        except gr.GroupError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                real_init(self, identity, label_mul, generators, recipe, order_bound)
            raise
        real_init(self, identity, label_mul, generators, recipe, order_bound)
        for attr, value in edge_checked.items():
            assert getattr(self, attr) == value, (recipe, attr)
        try:
            expected = _per_pair_table(identity, label_mul, generators, order_bound)
        except ValueError as exc:  # GroupError included
            raise AssertionError(f"the oracle rejects an accepted group: {exc}") from exc
        for attr, value in expected.items():
            assert getattr(self, attr) == value, (recipe, attr)
        built.append(self)

    with mock.patch.object(gr.FiniteGroup, "__init__", init):
        yield built


def _assert_associative(group):
    t = group._mul
    for row_a in t:
        for b, row_b in enumerate(t):
            assert t[row_a[b]] == list(map(row_a.__getitem__, row_b))


def test_cayley_table_matches_per_pair_oracle(g128, z3z3_label, psl27):
    recipes = [
        "cyclic 12", "abelian 2 6 3", "dihedral 5", "symmetric 4", "alternating 5",
        PSL27_RECIPE, "product [cyclic 2] [dihedral 3]",
        "semidirect [cyclic 7] [cyclic 3]\nact g2: g1 -> g1^2", Z2CUBED_Z4_RECIPE,
        "polycyclic 2 2 2\nrel g1^2 = g3\nrel g2^2 = g3\nrel g2^g1 = g2*g3",
        G128_RECIPE,
    ]
    z3z3, lab = z3z3_label
    al = gr.default_aliases(g128)
    g128_kernel = subgroup(g128, [gr.parse_word(w, al, g128)
                                  for w in ("g7", "g6", "g3*g4", "g4*g5")])
    with _checked_against_per_pair_oracle() as built:
        for recipe in recipes:
            gr.build_group(recipe)
        quotients = [
            g128.quotient(g128_kernel),
            g128.quotient(subgroup(g128, [al["g6"], al["g7"]])),
            z3z3.quotient(subgroup(z3z3, [lab[(2, 1)]])),
            psl27.quotient(trivial_subgroup(psl27)),
        ]
    assert [q.group.order for q in quotients] == [8, 32, 3, 168]
    # the two factors of each of the three products are built (and checked)
    # too; the quotient by the trivial subgroup is G itself and builds nothing
    assert len(built) == len(recipes) + 6 + len(quotients) - 1


def test_quotient_by_trivial_subgroup_is_the_group(g128, z3z3, psl27):
    for group in (g128, z3z3, psl27, gr.build_group("group = cyclic 1")):
        quot = group.quotient(trivial_subgroup(group))
        assert quot.group is group
        assert quot.projection == tuple(range(group.order))
        assert quot.kernel.members == frozenset({0})


# Recipes whose relations or actions are drawn at random; most do not define
# a group, so both outcomes of build_group are exercised.
@st.composite
def _polycyclic_recipes(draw):
    orders = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    k = len(orders)

    def word(first, head=None):
        """A power of g_head (if given) times a word in g_first..g_k."""
        atoms = []
        if head is not None:
            atoms.append(f"g{head + 1}^{draw(st.integers(0, orders[head] - 1))}")
        if first < k:
            tail = draw(st.lists(st.integers(first, k - 1), max_size=3))
            atoms += [f"g{g + 1}^{draw(st.integers(1, orders[g] - 1))}" for g in tail]
        return "*".join(atoms) or "id"

    pivots = [(i, None) for i in range(k)] + [(i, j) for i in range(k) for j in range(i)]
    lines = ["group = polycyclic " + " ".join(map(str, orders))]
    for i, j in draw(st.lists(st.sampled_from(pivots), max_size=4, unique=True)):
        if j is None:
            lines.append(f"rel g{i + 1}^{orders[i]} = {word(i + 1)}")
        else:
            lines.append(f"rel g{i + 1}^g{j + 1} = {word(j + 1, head=i)}")
    return "\n".join(lines)


# (recipe, the orders of its generators)
_K_FACTORS = [("cyclic 3", (3,)), ("cyclic 5", (5,)), ("cyclic 7", (7,)), ("cyclic 8", (8,)),
              ("abelian 2 2", (2, 2)), ("abelian 3 3", (3, 3)), ("dihedral 4", (4, 2)),
              ("symmetric 3", (2, 3))]
# (recipe, number of generators)
_H_FACTORS = [("cyclic 2", 1), ("cyclic 3", 1), ("cyclic 4", 1), ("cyclic 6", 1),
              ("abelian 2 2", 2)]


@st.composite
def _semidirect_recipes(draw):
    """Each generator of H acts by a unit power of each generator of K, or by
    conjugation with a power of one of them, or by images drawn freely.  The
    first two are automorphisms of every K here, so whether they respect
    H's relations is left to the associativity check."""
    k_recipe, k_orders = draw(st.sampled_from(_K_FACTORS))
    h_recipe, nh = draw(st.sampled_from(_H_FACTORS))
    nk = len(k_orders)
    lines = [f"group = semidirect [{k_recipe}] [{h_recipe}]"]
    for j in range(nh):
        act = f"act g{nk + j + 1}: g"
        kind = draw(st.sampled_from(("power", "inner", "free")))
        if kind == "power":
            for i, n in enumerate(k_orders):
                e = draw(st.sampled_from([e for e in range(1, n) if math.gcd(e, n) == 1]))
                lines.append(f"{act}{i + 1} -> g{i + 1}^{e}")
        elif kind == "inner":
            m, a = draw(st.integers(1, nk)), draw(st.integers(1, 3))
            lines += [f"{act}{i + 1} -> g{m}^-{a}*g{i + 1}*g{m}^{a}" for i in range(nk)]
        else:
            for i in range(nk):
                if draw(st.booleans()):
                    atoms = draw(st.lists(st.tuples(st.integers(1, nk), st.integers(1, 4)),
                                          min_size=1, max_size=2))
                    image = "*".join(f"g{g}^{e}" for g, e in atoms)
                    lines.append(f"{act}{i + 1} -> {image}")
    return "\n".join(lines)


@settings(max_examples=200, deadline=5000, derandomize=True, database=None)
@given(data=st.data())
def test_build_group_rejects_or_builds_an_associative_group(data):
    recipe = data.draw(st.one_of(_polycyclic_recipes(), _semidirect_recipes()))
    with _checked_against_per_pair_oracle():
        try:
            group = gr.build_group(recipe)
        except gr.GroupError:
            return
    _assert_associative(group)


@st.composite
def _polycyclic_presentations(draw):
    """(orders, powers, conjugates) with relation words of any letters
    after the pivot, in any order and with any exponents."""
    orders = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    k = len(orders)
    pivots = [(i, None) for i in range(k - 1)] + [
        (i, j) for i in range(k) for j in range(i)]
    powers, conjugates = {}, {}
    for i, j in draw(st.lists(st.sampled_from(pivots), max_size=6, unique=True)
                     if pivots else st.just([])):
        after = i if j is None else j
        word = tuple(draw(st.lists(st.integers(after + 1, k - 1), max_size=4)))
        if j is None:
            powers[i] = word
        else:
            conjugates[(i, j)] = (i,) * draw(st.integers(0, 2)) + word
    return orders, powers, conjugates


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_polycyclic_presentations())
def test_polycyclic_tables_match_the_collection_oracle(presentation):
    """The tables built from the conjugation action equal those that
    collection builds, or both builders refuse the presentation."""
    try:
        expected = collected_polycyclic_table(*presentation)
    except gr.GroupError:
        with pytest.raises(gr.GroupError):
            gr.polycyclic_group(*presentation)
        return
    group = gr.polycyclic_group(*presentation)
    assert (group.labels, group._mul, group._inv) == (
        expected["labels"], expected["_mul"], expected["_inv"])


def test_label_mul_is_called_once_per_element_and_generator():
    calls = []
    real_init = gr.FiniteGroup.__init__

    def init(self, identity, label_mul, generators, recipe,
             order_bound=gr.DEFAULT_ORDER_BOUND):
        def counted(a, b):
            calls.append(None)
            return label_mul(a, b)
        real_init(self, identity, counted, generators, recipe, order_bound)

    with mock.patch.object(gr.FiniteGroup, "__init__", init):
        for recipe, expected in ((G128_RECIPE, 128 * 7), (PSL27_RECIPE, 168 * 2)):
            calls.clear()
            group = gr.build_group(recipe)
            assert len(calls) == group.order * len(group.generators) == expected


def test_large_relative_orders_build_the_dihedral_group():
    """Collection needed about |G| rewrites per product here and did not
    finish within 100 s; the conjugation action builds it in well under a
    second."""
    group = gr.build_group("group = polycyclic 2 1024\nrel g2^g1 = g2^1023")
    dihedral = gr.dihedral_group(1024)
    assert group.order == 2048
    assert (sorted(c.size for c in group.conjugacy_classes)
            == sorted(c.size for c in dihedral.conjugacy_classes))
    assert sorted(group.element_orders) == sorted(dihedral.element_orders)


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
    h = subgroup(z3z3, [lab[(2, 1)]])
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
    assert z3z3.quotient(full_subgroup(z3z3)).group.order == 1


def test_quotient_by_non_normal_rejected():
    s3 = gr.symmetric_group(3)
    transposition = next(i for i in range(6) if s3.element_orders[i] == 2)
    h = subgroup(s3, [transposition])
    assert h.order == 2
    assert not s3.is_normal(h)
    with pytest.raises(gr.GroupError):
        s3.quotient(h)


def test_quotient_projection_is_homomorphism_g128(g128):
    al = gr.default_aliases(g128)
    h = subgroup(g128, [gr.parse_word(w, al, g128)
                        for w in ("g7", "g6", "g3*g4", "g4*g5")])
    q = g128.quotient(h)
    for a in range(g128.order):
        for b in range(g128.order):
            assert q.project(g128.mul(a, b)) == q.group.mul(q.project(a), q.project(b))


def test_semidirect_quotients_are_cyclic_of_order_four(z2cubed_z4):
    al = gr.default_aliases(z2cubed_z4)
    w = lambda s: gr.parse_word(s, al, z2cubed_z4)
    h1 = subgroup(z2cubed_z4, [w("g1"), w("g3"), w("g2*g4^2")])
    h2 = subgroup(z2cubed_z4, [w("g1*g2"), w("g3"), w("g2*g4^2")])
    for h in (h1, h2):
        assert h.order == 8
        q = z2cubed_z4.quotient(h)
        assert q.group.order == 4 and gr.is_cyclic(q.group)


def test_kernel_of_character(z3z3, tables):
    orbits = ct.galois_orbits(tables[z3z3.recipe])
    triv = next(o for o in orbits if contains_trivial(o))
    assert triv.kernel().order == z3z3.order
    # the orbit with kernel of order 3 equal to <(2,1)>
    lab = {l: i for i, l in enumerate(z3z3.labels)}
    target = frozenset({0, lab[(2, 1)], lab[(1, 2)]})
    assert target in [o.kernel().members for o in orbits]


def test_kernel_of_g128_quaternionic_character(g128, tables):
    al = gr.default_aliases(g128)
    expected = subgroup(g128, [
        gr.parse_word(w, al, g128) for w in ("g7", "g6", "g3*g4", "g4*g5")
    ])
    assert expected.order == 16
    kernels = [o.kernel() for o in ct.galois_orbits(tables[g128.recipe])
               if o.complex_degree == 2]
    assert expected.members in [k.members for k in kernels]
    ker = next(k for k in kernels if k.members == expected.members)
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


def test_words_evaluate_back(psl27, g128, z2cubed_z4):
    """A word is the one way an element is shown: `parse_word` reads it back
    in a permutation, a polycyclic, a semidirect, a product and a quotient
    group."""
    product = gr.build_group("group = product [cyclic 2] [dihedral 3]")
    al = gr.default_aliases(g128)
    quotient = g128.quotient(subgroup(g128, [al["g6"], al["g7"]])).group
    samples = [(psl27, range(0, psl27.order, 17))] + [
        (group, range(group.order)) for group in (g128, z2cubed_z4, product, quotient)
    ]
    for group, elements in samples:
        al = gr.default_aliases(group)
        for i in elements:
            assert gr.parse_word(group.word(i), al, group) == i, group.recipe


def test_exponent_and_orders(psl27, g128):
    assert psl27.exponent == 84
    assert g128.exponent == 4
    assert math.lcm(*set(psl27.element_orders)) == 84


def _reference_closure(group, gens):
    members = {0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = group.mul(x, g)
                if y not in members:
                    members.add(y)
                    new.append(y)
        frontier = new
    return members


def test_closure_matches_reference_bfs(psl27, g128, q8):
    rng = random.Random(128)
    for group in (psl27, g128, q8):
        assert group.closure([]) == frozenset({0})
        sizes = set()
        for _ in range(400):
            gens = [rng.randrange(group.order) for _ in range(rng.randint(1, 4))]
            gens += rng.choices(gens, k=rng.randint(0, 3))  # duplicates
            rng.shuffle(gens)
            got = group.closure(gens)
            assert isinstance(got, frozenset)
            assert got == _reference_closure(group, gens)
            sizes.add(len(got))
        assert group.order in sizes and len(sizes) > 2  # whole group and proper ones
