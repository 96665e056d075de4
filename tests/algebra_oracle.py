"""Oracles for the algebra: plain definitions, element by element, that the
tests check the program's groups, tables, orbits, idempotents and subgroups
against.  The program itself never needs them.
"""

import math
from fractions import Fraction

from isoprod import catalog as cat
from isoprod import chartab as ct
from isoprod import groups as gr
from isoprod.cyclotomic import CyclotomicNumber
from isoprod.groups import Subgroup

# -- groups


def breadth_first(identity, label_mul, generators, order_bound=gr.DEFAULT_ORDER_BOUND):
    """The BFS of `FiniteGroup.__init__`: (elements, their index, the BFS
    tree parents[x] = (parent, generator position), right[gpos][x] = x*g)."""
    index = {identity: 0}
    elems = [identity]
    parents = [(-1, -1)]
    right = [[] for _ in generators]
    queue = 0
    while queue < len(elems):
        x = elems[queue]
        for gpos, g in enumerate(generators):
            y = label_mul(x, g)
            k = index.get(y)
            if k is None:
                if len(elems) >= order_bound:
                    raise gr.OrderBoundError(order_bound)
                k = index[y] = len(elems)
                elems.append(y)
                parents.append((queue, gpos))
            right[gpos].append(k)
        queue += 1
    return elems, index, parents, right


def cayley_table(identity, label_mul, generators, order_bound=gr.DEFAULT_ORDER_BOUND):
    """A group's BFS enumeration and table, as `FiniteGroup.__init__` builds
    them, with associativity proved on every Cayley edge, O(k |G|^2) for k
    generators: each edge y -> z = y*g that is not a BFS tree edge must
    satisfy column z = right[g] o column y, that is (x*y)*g = x*(y*g) for
    all x.  Returns the attributes the group gets (labels, _parents,
    generators, _mul, _inv); raises the GroupError that it must raise."""
    elems, index, parents, right = breadth_first(identity, label_mul, generators,
                                                 order_bound)
    n = len(elems)
    cols = [list(range(n))]
    for p, gpos in parents[1:]:
        cols.append(list(map(right[gpos].__getitem__, cols[p])))
    for gpos, rg in enumerate(right):
        for y, z in enumerate(rg):
            if parents[z] != (y, gpos) and cols[z] != list(map(rg.__getitem__, cols[y])):
                raise gr.GroupError("multiplication is not associative "
                                    "(inconsistent construction)")
    table = [list(row) for row in zip(*cols)]
    inv = [row.index(0) if 0 in row else -1 for row in table]
    if any(j < 0 or table[j][i] != 0 for i, j in enumerate(inv)):
        raise gr.GroupError("two-sided inverses missing (inconsistent construction)")
    return {"labels": elems, "_parents": parents,
            "generators": tuple(index[g] for g in generators),
            "_mul": table, "_inv": inv}


_COLLECT_STEP_BOUND = 200_000


def collect(orders, powers, conjugates, word):
    """Normal form (exponent tuple) of a word, a list of generator
    positions, in the polycyclic presentation with relative orders
    `orders`, power words `powers[i]` and conjugate words
    `conjugates[(i, j)]` (defaults id and g_i).

    Collection from the left: repeatedly rewrite the leftmost violation,
    either a descent g_i g_j with i > j (swap via the conjugation relation)
    or a full power run (replace via the power relation)."""
    w = list(word)
    for _ in range(_COLLECT_STEP_BOUND):
        violation = None
        run_start, run_len = 0, 0
        for t in range(len(w)):
            if run_len and w[t] == w[run_start]:
                run_len += 1
            else:
                run_start, run_len = t, 1
            if run_len == orders[w[run_start]]:
                violation = ("power", run_start, w[run_start])
                break
            if t + 1 < len(w) and w[t] > w[t + 1]:
                violation = ("swap", t, None)
                break
        if violation is None:
            exps = [0] * len(orders)
            for g in w:
                exps[g] += 1
            return tuple(exps)
        kind, t, g = violation
        if kind == "power":
            w[t:t + orders[g]] = list(powers.get(g, ()))
        else:
            i, j = w[t], w[t + 1]
            w[t:t + 2] = [j] + list(conjugates.get((i, j), (i,)))
    raise gr.GroupError("collection failed to terminate: inconsistent relations")


def collected_polycyclic_table(orders, powers, conjugates,
                               order_bound=gr.DEFAULT_ORDER_BOUND):
    """`cayley_table` of the polycyclic presentation, with label
    multiplication by collection; a GroupError unless the table has all
    prod(orders) normal forms."""
    if math.prod(orders) > order_bound:
        raise gr.OrderBoundError(order_bound)
    k = len(orders)

    def expand(exps):
        return [g for g, e in enumerate(exps) for _ in range(e)]

    def mul(a, b):
        return collect(orders, powers, conjugates, expand(a) + expand(b))

    gens = [tuple(int(j == i) for j in range(k)) for i in range(k)]
    out = cayley_table((0,) * k, mul, gens, order_bound)
    if len(out["labels"]) != math.prod(orders):
        raise gr.GroupError("inconsistent polycyclic relations")
    return out


# -- characters


def value_on_element(chi, i):
    """chi(g) for the element index g = i."""
    return chi.values[chi.group.class_of[i]]


def restriction_multiplicity(chi, g):
    """l_g(chi), the multiplicity of the trivial character in chi restricted
    to <g>: (1/o(g)) sum_t chi(g^t) over the elements g^t of <g>, added as
    one exact cyclotomic number, which must be a non-negative integer."""
    group = chi.group
    powers = [0]
    while (x := group.mul(powers[-1], g)) != 0:
        powers.append(x)
    total = CyclotomicNumber.sum(value_on_element(chi, x) for x in powers)
    q = (total * Fraction(1, len(powers))).as_integer()
    assert q >= 0
    return q


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
