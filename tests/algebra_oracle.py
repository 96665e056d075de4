"""Oracles for the algebra: plain definitions, element by element, that the
tests check the program's tables, orbits, idempotents and subgroups
against.  The program itself never needs them.
"""

from fractions import Fraction

from isoprod import catalog as cat
from isoprod import chartab as ct
from isoprod.cyclotomic import CyclotomicNumber
from isoprod.groups import Subgroup

# -- characters


def value_on_element(chi, i):
    """chi(g) for the element index g = i."""
    return chi.values[chi.group.class_of[i]]


def galois(chi, t):
    """chi^sigma_t, value by value."""
    return ct.Character(chi.group, tuple(v.galois(t) for v in chi.values))


def conjugate(chi):
    """The complex conjugate (dual) character."""
    return galois(chi, -1)


def is_self_dual(chi):
    return chi == conjugate(chi)


def is_real(x):
    """True iff the cyclotomic number x equals its complex conjugate."""
    return x == x.galois(-1)


def inner_product(table, chi, psi):
    """<chi, psi> = (1/|G|) sum |C| chi(C) conj(psi(C)); must be rational."""
    total = CyclotomicNumber.sum(
        chi.values[k] * psi.values[k].galois(-1) * cls.size
        for k, cls in enumerate(table.group.conjugacy_classes)
    )
    return total.as_rational() / table.group.order


def row_index(table, chi):
    """The position of the class function chi among the table's rows."""
    for i, row in enumerate(table):
        if row == chi:
            return i
    raise ct.CharacterTableError("class function is not a row of this table")


def contains_trivial(orbit):
    return orbit.table.trivial_index in orbit.indices


# -- the group algebra Q[G]


def central_idempotent(table, i):
    """The central idempotent attached to row i, with cyclotomic coefficients
    (dim/|G|) * sum_g chi(g) g, as a coefficient list over the elements."""
    group = table.group
    chi = table[i]
    scale = Fraction(chi.degree, group.order)
    return [value_on_element(chi, g) * scale for g in range(group.order)]


def multiply(a, b):
    """The product a * b of two `GroupAlgebraElement`s, by the definition
    (a b)(h) = sum_g a(g) b(g^-1 h)."""
    group = a.group
    n = group.order
    out = [Fraction(0)] * n
    for i, x in enumerate(a.coefficients):
        if not x:
            continue
        ii = group.inverse(i)
        for h in range(n):
            y = b.coefficients[group.mul(ii, h)]
            if y:
                out[h] += x * y
    return ct.GroupAlgebraElement(group, tuple(out))


def delta(group, i):
    """The basis element of Q[G] at the element index i."""
    coeffs = [Fraction(0)] * group.order
    coeffs[i] = Fraction(1)
    return ct.GroupAlgebraElement(group, tuple(coeffs))


def is_central(x):
    """True iff x commutes with every generator of its group."""
    for g in x.group.generators:
        d = delta(x.group, g)
        if multiply(x, d).coefficients != multiply(d, x).coefficients:
            return False
    return True


# -- subgroups


def subgroup(group, gens):
    """The subgroup generated by the element indices `gens`."""
    gens = tuple(dict.fromkeys(int(g) for g in gens))
    return Subgroup(group, group.closure(gens), gens)


def trivial_subgroup(group):
    return Subgroup(group, frozenset({0}), ())


def full_subgroup(group):
    return Subgroup(group, frozenset(range(group.order)), group.generators)


# -- the catalog


def shipped_entries():
    """The catalog entries that ship a structure."""
    return [e for e in cat.CATALOG if e.shipped]
