"""Shared group/table fixtures (session-scoped: tables are reused)."""

from fractions import Fraction

import pytest

from isoprod import chartab as ct
from isoprod import groups as gr
from isoprod import ramification as rm

G128_RECIPE = """
group = polycyclic 2 2 2 2 2 2 2
rel g1^2 = g4
rel g2^2 = g5
rel g2^g1 = g2*g3
rel g3^g1 = g3*g6
rel g3^g2 = g3*g7
rel g4^g2 = g4*g6
rel g5^g1 = g5*g7
"""

Z2CUBED_Z4_RECIPE = """
group = semidirect [abelian 2 2 2] [cyclic 4]
act g4: g1 -> g1*g3
act g4: g2 -> g2
act g4: g3 -> g3
"""

PSL27_RECIPE = "group = perm (1 2 3 4 5 6 7), (1 8)(2 7)(3 4)(5 6)"


@pytest.fixture(scope="session")
def z3z3():
    return gr.abelian_group([3, 3])


@pytest.fixture(scope="session")
def z3z3_label(z3z3):
    return z3z3, {lab: i for i, lab in enumerate(z3z3.labels)}


@pytest.fixture(scope="session")
def q8():
    return gr.polycyclic_group(
        [2, 2, 2], powers={0: (2,), 1: (2,)}, conjugates={(1, 0): (1, 2)}
    )


@pytest.fixture(scope="session")
def psl27():
    return gr.build_group(PSL27_RECIPE)


@pytest.fixture(scope="session")
def g128():
    return gr.build_group(G128_RECIPE)


@pytest.fixture(scope="session")
def z2cubed_z4():
    return gr.build_group(Z2CUBED_Z4_RECIPE)


@pytest.fixture(scope="session")
def tables(z3z3, q8, psl27, g128, z2cubed_z4):
    return {
        g.recipe: ct.character_table(g)
        for g in (z3z3, q8, psl27, g128, z2cubed_z4)
    }


def table_for(tables, group):
    return tables[group.recipe]


def assert_int_coordinates(table):
    """Every coordinate of every value of `table`, and of the table that
    `parse_table` reads back from its text, is an int: never a Fraction, a
    float or a bool.  A rational value still reads as a Fraction."""
    for read in (table, ct.parse_table(ct.render_table(table), table.group)):
        for chi in read:
            for v in chi.values:
                assert all(type(c) is int for c in v.coefficients), (table.group.recipe, v)
                if v.is_rational:
                    assert type(v.as_rational()) is Fraction


def systems_of_type(group, signature, first_entry_reps):
    """The search's tuple enumeration, with fresh memos."""
    return rm._systems_of_type(group, signature, first_entry_reps, rm._SearchMemo(group))


def structure_keys(group, type_pair):
    """The search's key stream, with fresh memos, as one search makes them."""
    return (t1 + t2 for t1, t2 in
            rm.iter_structure_pairs(group, type_pair, rm._SearchMemo(group)))
