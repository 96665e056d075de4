"""Fully enumerated finite groups.

A group is built from a recipe (cyclic, dihedral, symmetric, alternating,
abelian, permutation generators, direct/semidirect products, or a
polycyclic presentation), enumerated by breadth-first search from its
generators, and stored with a full multiplication table on element
indices.  Index 0 is always the identity, and the BFS order is
deterministic, so element indices, conjugacy-class order and every
report derived from them are reproducible.

The recipe's label multiplication is called only by the BFS, once per
(element, generator) pair.  Associativity is proved on the generators
alone, in O(k^2 |G|) for k generators: the column of each generator's
element must be its right multiplication, and the row of each generator's
element must commute with every right multiplication (see
`FiniteGroup.__init__`).  So a recipe that does not define a group is
rejected with a GroupError instead of yielding a table that is not one.
Every other row is then composed once, in C, from its BFS parent's row and
a generator's row (one `itemgetter` per generator; rows are lists).

One walk, `_along_tree`, builds every map that follows a BFS tree: the
generator and Cayley rows, a polycyclic level's left multiplications, an
automorphism extended from generator images and a semidirect product's
action table.  No other module reads a group's tables.

The classes of the powers of an element are read from one cached table,
`FiniteGroup.power_classes`, whose row k (the classes of r^0..r^(o(r)-1) for
the representative r of class k) serves every member of class k: class power
maps, the Dixon lift, l_g and Sigma-sets all read it, and so does the square
histogram `square_classes` that the Frobenius-Schur indicator reads.

Polycyclic presentations are the only finitely presented input accepted
(general coset enumeration is deliberately out of scope).  They are not
collected: the right multiplications by the generators are built level by
level from the conjugation action on the subgroup chain
G_i = <g_i, ..., g_k>, in O(k sum |G_i|) work plus the relation lengths,
and a table that passes the associativity checks proves the presentation
consistent (see `polycyclic_group`).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

DEFAULT_ORDER_BOUND = 2048


class GroupError(ValueError):
    """Malformed recipe, inconsistent presentation, or exceeded bound.

    `recipe_line` is the line of the recipe at fault, counting its nonblank,
    non-comment lines from 0: 0 is the `group` line, k its k-th `rel` or
    `act` line."""

    recipe_line = 0


class OrderBoundError(GroupError):
    """A group order above the order bound."""

    def __init__(self, order_bound: int):
        super().__init__(f"group order exceeds the bound {order_bound}")


# ---------------------------------------------------------------------------
# core group object


def _along_tree(parents, root, steps) -> list:
    """A map carried along a BFS tree: out[0] is `root`, and out[x] is
    steps[j](out[p]) for each tree edge x = p * g_j, that is parents[x] =
    (p, j), where every parent comes before its children."""
    out = [root]
    for p, j in parents[1:]:
        out.append(steps[j](out[p]))
    return out


class FiniteGroup:
    """A finite group with a full multiplication table on indices 0..n-1."""

    def __init__(self, identity, label_mul, generators, recipe,
                 order_bound=DEFAULT_ORDER_BOUND):
        """Enumerate the closure of `generators` under `label_mul` by BFS and
        fill the multiplication table from the Cayley graph.

        `identity` and `generators` are labels.  An element is shown only as
        its word in the declared generators (`word`), which `parse_word`
        reads back.

        `label_mul` is called only on (element, generator) pairs: the BFS
        records right[j][x] = x*g_j.  The table they define has as column y
        (x -> x*y) the right[j] along the BFS word of y, applied in turn, since
        x*(p*g_j) = (x*p)*g_j; its row x follows the tree edges from x.

        Associativity is proved in O(k^2 |G|) for k generators by two checks:
        (a) the column of each generator's element h_j equals right[j], and
        (b) the row of each distinct generator element commutes with every
        right[j], that is (h*y)*g_j = h*(y*g_j) for all y.  Let S be the set
        of x whose row commutes with every right[j]; the table is
        associative exactly when S is all of G.  A map that commutes with
        every right[j] is fixed by its value at 0, since the BFS tree reaches
        every element from 0 along right[j] edges, and every row follows the
        tree edges.  So for x, x' in S the composite row_x o row_x' commutes
        with every right[j] and takes 0 to x*x', as row_(x*x') does; the two
        agree, and x*x' is in S.  S contains 0 and, by (b), every generator
        element; by (a) each element is the table product of its BFS path's
        generator elements, so S is G.  A failed check means the recipe does
        not define a group.  In every recipe label_mul(identity, g) is g, so
        the BFS reaches each generator's element from 0 by that generator's
        own edge, or it is an earlier generator's label with the same right
        list, and (a) holds.  The checks read only those columns and rows;
        then row y, for y = p*g_j = p*h_j by (a), is built once as
        row_p o row_(h_j), since (p*h_j)*z = p*(h_j*z): one
        `operator.itemgetter(*row_(h_j))` per generator reads row_p at every
        entry of row_(h_j) in C, and the result is stored as a list.
        """
        index = {identity: 0}
        elems = [identity]
        parents = [(-1, -1)]  # (parent index, generator position), BFS words
        gen_labels = list(generators)
        right = [[] for _ in gen_labels]  # right[gpos][x]: index of x * g
        queue = 0
        while queue < len(elems):
            x = elems[queue]
            for gpos, g in enumerate(gen_labels):
                y = label_mul(x, g)
                k = index.get(y)
                if k is None:
                    if len(elems) >= order_bound:
                        raise OrderBoundError(order_bound)
                    k = index[y] = len(elems)
                    elems.append(y)
                    parents.append((queue, gpos))
                right[gpos].append(k)
            queue += 1
        n = len(elems)
        self.order = n
        self.labels = elems
        self.recipe = recipe
        self.recipe_tail: tuple[str, ...] = ()  # `rel`/`act` lines, set by build_group
        self.generators = tuple(index[g] for g in gen_labels)
        self._parents = parents
        self._words: dict[int, str] = {}  # the memo of `word`
        columns_ok, rows = True, {}
        steps = [rg.__getitem__ for rg in right]
        for h, rg in zip(self.generators, right):
            rows[h] = _along_tree(parents, h, steps)  # h*(p*g_j) = (h*p)*g_j
            col = list(range(n))
            while h:  # along the BFS word of h, last letter first
                h, gpos = parents[h]
                col = list(map(col.__getitem__, right[gpos]))
            columns_ok = columns_ok and col == rg  # (a)
        if not (columns_ok and all(  # (b)
                list(map(rg.__getitem__, row)) == list(map(row.__getitem__, rg))
                for row in rows.values() for rg in right)):
            raise GroupError("multiplication is not associative "
                             "(inconsistent construction)")
        compose = [lambda row, get=operator.itemgetter(*rows[h]): list(get(row))
                   for h in self.generators]
        self._mul = table = _along_tree(parents, list(range(n)), compose)
        inv = []
        for row in table:  # one scan finds 0 or shows it is missing
            try:
                inv.append(row.index(0))
            except ValueError:
                inv.append(-1)
        self._inv = inv
        if any(j < 0 or table[j][i] != 0 for i, j in enumerate(inv)):
            raise GroupError("two-sided inverses missing (inconsistent construction)")

    # -- basic operations

    def mul(self, i: int, j: int) -> int:
        return self._mul[i][j]

    def inverse(self, i: int) -> int:
        return self._inv[i]

    def conjugate(self, i: int, by: int) -> int:
        """by^-1 * i * by."""
        t = self._mul
        return t[t[self._inv[by]][i]][by]

    def power(self, i: int, e: int) -> int:
        if e < 0:
            return self.power(self._inv[i], -e)
        out, base = 0, i
        while e:
            if e & 1:
                out = self._mul[out][base]
            base = self._mul[base][base]
            e >>= 1
        return out

    def element_order(self, i: int) -> int:
        n, x = 1, i
        while x != 0:
            x = self._mul[x][i]
            n += 1
        return n

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        return tuple(self.element_order(i) for i in range(self.order))

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.element_orders)

    @cached_property
    def is_abelian(self) -> bool:
        gens = self.generators
        return all(self._mul[a][b] == self._mul[b][a] for a in gens for b in gens)

    def word(self, i: int) -> str:
        """`i` as a product of the declared generators (from its BFS path),
        spelt once per element and group."""
        found = self._words.get(i)
        if found is None:
            found = self._words[i] = self._spell(i)
        return found

    def _spell(self, i: int) -> str:
        if i == 0:
            return "id"
        gens = []
        while i != 0:
            parent, gpos = self._parents[i]
            gens.append(gpos)
            i = parent
        gens.reverse()
        parts = []
        for gpos in gens:
            if parts and parts[-1][0] == gpos:
                parts[-1][1] += 1
            else:
                parts.append([gpos, 1])
        return "*".join(
            f"g{g + 1}" if e == 1 else f"g{g + 1}^{e}" for g, e in parts
        )

    def __repr__(self):
        return f"FiniteGroup({self.recipe!r}, order={self.order})"

    # -- conjugacy classes

    @cached_property
    def conjugacy_classes(self) -> tuple["ConjugacyClass", ...]:
        """Partition into classes, ordered by (element order, smallest member)."""
        n = self.order
        seen = [False] * n
        raw = []
        for i in range(n):
            if seen[i]:
                continue
            orbit = {i}
            stack = [i]
            while stack:
                x = stack.pop()
                for g in self.generators:
                    y = self.conjugate(x, g)
                    if y not in orbit:
                        orbit.add(y)
                        stack.append(y)
            for x in orbit:
                seen[x] = True
            raw.append(tuple(sorted(orbit)))
        raw.sort(key=lambda c: (self.element_orders[c[0]], c[0]))
        return tuple(
            ConjugacyClass(c[0], c, self.element_orders[c[0]]) for c in raw
        )

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        out = [-1] * self.order
        for k, cls in enumerate(self.conjugacy_classes):
            for i in cls.members:
                out[i] = k
        return tuple(out)

    @cached_property
    def power_classes(self) -> tuple[tuple[int, ...], ...]:
        """power_classes[k][t] is the class of r^t for the representative r of
        class k, 0 <= t < o(r); the row serves every member g = x^-1 r x of
        class k, since g^t = x^-1 r^t x.  One multiplication per entry."""
        mul, class_of = self._mul, self.class_of
        rows = []
        for cls in self.conjugacy_classes:
            r, x, row = cls.representative, 0, []
            for _ in range(cls.element_order):
                row.append(class_of[x])
                x = mul[x][r]
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def square_classes(self) -> tuple[tuple[int, int], ...]:
        """(j, number of g with g^2 in class j) for each class j that holds a
        square, in order of first appearance: class k adds |C_k| to class
        power_classes[k][2 % o(C_k)]."""
        counts: dict[int, int] = {}
        for cls, row in zip(self.conjugacy_classes, self.power_classes):
            j = row[2 % len(row)]
            counts[j] = counts.get(j, 0) + cls.size
        return tuple(counts.items())

    def class_power_map(self, k: int, e: int) -> int:
        """Class index of (representative of class k) ** e."""
        row = self.power_classes[k]
        return row[e % len(row)]

    @cached_property
    def _transversal(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(to_rep, centralisers): to_rep[x] is one t with t^-1 x t the
        representative r of x's class, and centralisers[k] is C_G(r) for the
        representative r of class k.  One pass over G per class."""
        mul, inv = self._mul, self._inv
        to_rep = [-1] * self.order
        centralisers = []
        for cls in self.conjugacy_classes:
            r = cls.representative
            cent = []
            for t in range(self.order):
                x = mul[mul[t][r]][inv[t]]  # t r t^-1, so t^-1 x t = r
                if to_rep[x] < 0:
                    to_rep[x] = t
                if x == r:
                    cent.append(t)
            centralisers.append(tuple(cent))
        return tuple(to_rep), tuple(centralisers)

    def min_conjugate(self, entries) -> tuple[int, ...]:
        """Lexicographically least tuple t^-1 entries t over all t in G,
        for a nonempty tuple `entries`.

        Its first entry is the smallest member of the class of entries[0],
        which is the class representative r, so only the conjugators sending
        entries[0] to r compete: one coset t0 C_G(r), not all of G."""
        entries = tuple(entries)
        if self.is_abelian:
            return entries
        mul, inv = self._mul, self._inv
        to_rep, centralisers = self._transversal
        coset = mul[to_rep[entries[0]]]
        best = None
        for c in centralisers[self.class_of[entries[0]]]:
            t = coset[c]
            left = mul[inv[t]]
            cand = tuple([mul[left[e]][t] for e in entries])
            if best is None or cand < best:
                best = cand
        return best

    def conjugates_onto(self, e: int, tuples) -> list[tuple[int, ...]]:
        """The tuples t u t^-1 for u in `tuples`, for the one t with
        t^-1 e t = r, the representative of e's class, that `min_conjugate`
        reads too: tuples that start at r become tuples that start at e."""
        t = self._transversal[0][e]
        mul, left, t_inv = self._mul, self._mul[t], self._inv[t]
        return [tuple([mul[left[x]][t_inv] for x in u]) for u in tuples]

    # -- subgroups and quotients

    def closure(self, gens) -> frozenset[int]:
        """The subgroup generated by `gens` (element indices)."""
        gens = list(dict.fromkeys(gens))
        n = self.order
        seen = bytearray(n)
        seen[0] = 1
        out = [0]
        mul = self._mul
        for x in out:  # walks the elements appended below as well
            if 2 * len(out) > n:  # a subgroup of more than half of G is G
                return frozenset(range(n))
            row = mul[x]
            for g in gens:
                y = row[g]
                if not seen[y]:
                    seen[y] = 1
                    out.append(y)
        return frozenset(out)

    def derived_subgroup(self) -> "Subgroup":
        """G' as the normal closure of the commutators of the generators.

        <S> is normal once s^g lies in it for every s in S and generator g:
        conjugation by g then maps <S> into, hence onto, itself."""
        mul, inv, gens = self._mul, self._inv, self.generators
        words = list(dict.fromkeys(
            mul[mul[inv[a]][inv[b]]][mul[a][b]] for a in gens for b in gens
        ))
        members = self.closure(words)
        while True:
            extra = list(dict.fromkeys(
                y for h in words for g in gens
                if (y := self.conjugate(h, g)) not in members
            ))
            if not extra:
                return Subgroup(self, members, tuple(w for w in words if w))
            words += extra
            members = self.closure(words)

    def is_normal(self, sub: "Subgroup") -> bool:
        mem = sub.members
        return all(
            self.conjugate(h, g) in mem for h in mem for g in self.generators
        )

    def quotient(self, sub: "Subgroup") -> "QuotientGroup":
        if sub.group is not self:
            raise GroupError("subgroup belongs to a different group")
        if len(sub.members) == 1:  # G/1 is G, with the identity projection
            return QuotientGroup(self, tuple(range(self.order)), sub)
        if not self.is_normal(sub):
            raise GroupError("cannot form the quotient by a non-normal subgroup")
        members = sorted(sub.members)
        coset_of = [-1] * self.order
        reps = []
        for i in range(self.order):
            if coset_of[i] != -1:
                continue
            cid = len(reps)
            reps.append(i)
            for h in members:
                coset_of[self._mul[i][h]] = cid
        label_mul = lambda a, b: reps[coset_of[self._mul[a][b]]]
        gen_labels = []
        for g in self.generators:
            lab = reps[coset_of[g]]
            if lab != 0 and lab not in gen_labels:
                gen_labels.append(lab)
        if not gen_labels:
            gen_labels = [0]
        group = FiniteGroup(
            0, label_mul, gen_labels,
            recipe=f"quotient of ({self.recipe}) by subgroup of order {len(members)}",
            order_bound=self.order,
        )
        lookup = {lab: k for k, lab in enumerate(group.labels)}
        projection = tuple(lookup[reps[coset_of[i]]] for i in range(self.order))
        return QuotientGroup(group, projection, sub)


@dataclass(frozen=True)
class ConjugacyClass:
    representative: int
    members: tuple[int, ...]
    element_order: int

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Subgroup:
    group: FiniteGroup
    members: frozenset[int]
    gens: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class QuotientGroup:
    group: FiniteGroup
    projection: tuple[int, ...]
    kernel: Subgroup

    def project(self, i: int) -> int:
        return self.projection[i]


def identify_q8(group: FiniteGroup) -> bool:
    """True iff the group is the quaternion group of order 8."""
    if group.order != 8:
        raise GroupError(f"expected order 8, got {group.order}")
    if group.is_abelian:
        return False
    involutions = sum(1 for o in group.element_orders if o == 2)
    return involutions == 1


def is_cyclic(group: FiniteGroup) -> bool:
    """True iff some element's order is |G|.  (The exponent alone cannot
    tell: S3 has exponent 6 = |S3|.)"""
    return group.order in group.element_orders


def describe_group(group: FiniteGroup) -> str:
    """A short structural name: trivial, Z n, Q8, abelian, or order/exponent."""
    n = group.order
    if n == 1:
        return "trivial"
    if is_cyclic(group):
        return f"Z{n}"
    if n == 8 and identify_q8(group):
        return "Q8"
    if group.is_abelian:
        return f"abelian of order {n}, exponent {group.exponent}"
    return f"nonabelian of order {n}, exponent {group.exponent}"


# ---------------------------------------------------------------------------
# recipes


def _capped_order(factors, order_bound) -> int:
    """The product of `factors`, or order_bound + 1 at the first partial
    product above the bound, so `symmetric 1000000` costs nothing."""
    order = 1
    for f in factors:
        order *= f
        if order > order_bound:
            return order_bound + 1
    return order


def _check_order(factors, order_bound) -> None:
    """Refuse a group whose order, the product of `factors`, exceeds the
    bound, before anything is built."""
    if _capped_order(factors, order_bound) > order_bound:
        raise OrderBoundError(order_bound)


def cyclic_group(n: int, order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic order must be >= 1")
    _check_order([n], order_bound)
    return FiniteGroup(0, lambda a, b: (a + b) % n,
                       [1 % n] if n > 1 else [0],
                       recipe=f"cyclic {n}", order_bound=order_bound)


def abelian_group(orders, order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    orders = tuple(int(n) for n in orders)
    if not orders or any(n < 1 for n in orders):
        raise GroupError("abelian recipe needs positive cyclic orders")
    _check_order(orders, order_bound)
    identity = (0,) * len(orders)

    def mul(a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, orders))

    gens = []
    for i, n in enumerate(orders):
        if n > 1:
            gens.append(tuple(1 if j == i else 0 for j in range(len(orders))))
    if not gens:
        gens = [identity]
    return FiniteGroup(identity, mul, gens,
                       recipe="abelian " + " ".join(map(str, orders)),
                       order_bound=order_bound)


def dihedral_group(n: int, order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n."""
    if n < 1:
        raise GroupError("dihedral index must be >= 1")
    _check_order([2, n], order_bound)

    def mul(a, b):
        (i, f), (j, g) = a, b
        return ((i + (j if f == 0 else -j)) % n, f ^ g)

    return FiniteGroup((0, 0), mul, [(1 % n, 0), (0, 1)],
                       recipe=f"dihedral {n}",
                       order_bound=order_bound)


def _perm_mul(a, b):
    # apply a first, then b
    return tuple([b[x] for x in a])


def _cycles_to_perm(cycles, degree):
    points = [x for cyc in cycles for x in cyc]
    if len(set(points)) != len(points):
        # overlapping cycles would define a map that is not a bijection
        raise GroupError("the cycles of a permutation must be disjoint")
    img = list(range(degree))
    for cyc in cycles:
        for k, x in enumerate(cyc):
            img[x] = cyc[(k + 1) % len(cyc)]
    return tuple(img)


def _perm_name(p):
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def permutation_group(generators, degree=None, recipe=None,
                      order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    """Group generated by permutations given as 0-based cycle lists."""
    if not generators:
        raise GroupError("permutation recipe needs at least one generator")
    deg = degree or (1 + max((x for cycles in generators for c in cycles for x in c),
                             default=0))
    gens = [_cycles_to_perm(cycles, deg) for cycles in generators]
    identity = tuple(range(deg))
    return FiniteGroup(identity, _perm_mul, gens,
                       recipe=recipe or "perm " + ", ".join(map(_perm_name, gens)),
                       order_bound=order_bound)


def _standard_permutation_group(kind: str, n: int, factors, cycle, start: int,
                                order_bound) -> FiniteGroup:
    """`kind n`, of order prod(factors), checked against the bound before
    any point is listed: generated by `cycle` and the cycle (start ... n-1)
    on n points, or the trivial group on max(n, 1) points."""
    _check_order(factors, order_bound)
    order = math.prod(factors)
    gens = [[cycle], [list(range(start, n))]] if order > 1 else [[[0]]]
    group = permutation_group(gens, degree=max(n, 1), recipe=f"{kind} {n}",
                              order_bound=order_bound)
    assert group.order == order
    return group


def symmetric_group(n: int, order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    if n < 1:
        raise GroupError("symmetric index must be >= 1")
    return _standard_permutation_group("symmetric", n, range(2, n + 1), [0, 1], 0,
                                       order_bound)


def alternating_group(n: int, order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    if n < 1:
        raise GroupError("alternating index must be >= 1")
    return _standard_permutation_group("alternating", n, range(3, n + 1), [0, 1, 2],
                                       1 - n % 2, order_bound)  # an odd-length cycle


def _product(k: FiniteGroup, h: FiniteGroup, alpha, kind: str,
             order_bound) -> FiniteGroup:
    """K x| H on the pairs (x, y), where alpha[y] lists the images of K's
    elements under conjugation by y: (x, y)(x', y') = (x alpha[y][x'], y y')."""
    def mul(a, b):
        return (k.mul(a[0], alpha[a[1]][b[0]]), h.mul(a[1], b[1]))

    gens = [(g, 0) for g in k.generators] + [(0, g) for g in h.generators]
    return FiniteGroup((0, 0), mul, gens,
                       recipe=f"{kind} [{k.recipe}] [{h.recipe}]",
                       order_bound=order_bound)


def direct_product(k: FiniteGroup, h: FiniteGroup,
                   order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    return _product(k, h, [range(k.order)] * h.order, "product", order_bound)


def _extend_automorphism(k: FiniteGroup, gen_images: dict[int, int]) -> list[int]:
    """Extend generator images to the automorphism of k they define."""
    img = _along_tree(k._parents, 0, [lambda x, g=g: k.mul(x, gen_images[g])
                                      for g in k.generators])
    if sorted(img) != list(range(k.order)):
        raise GroupError("generator images do not define a bijection")
    for a in k.generators:
        for b in range(k.order):
            if img[k.mul(a, b)] != k.mul(img[a], img[b]):
                raise GroupError("generator images do not define an automorphism")
    return img


def semidirect_product(k: FiniteGroup, h: FiniteGroup,
                       action: dict[int, dict[int, int]],
                       order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    """K x| H where `action[h_gen][k_gen]` is the image of k_gen under
    conjugation by h_gen (indices in the respective groups)."""
    autos = []
    for hg in h.generators:
        images = action.get(hg)
        if images is None:
            raise GroupError(f"no action given for H generator index {hg}")
        autos.append(_extend_automorphism(k, images))
    alpha = _along_tree(h._parents, list(range(k.order)),
                        [lambda ap, ag=ag: list(map(ap.__getitem__, ag)) for ag in autos])
    return _product(k, h, alpha, "semidirect", order_bound)


# -- polycyclic presentations


def _check_power_relation(i: int, word, k: int) -> None:
    """Refuse g_i^{r_i} = word unless g_i exists and the word uses later
    generators only."""
    if not 0 <= i < k:
        raise GroupError(f"power relation for unknown generator {i + 1}")
    if any(g <= i or g >= k for g in word):
        raise GroupError(f"power relation for g{i + 1} must use later generators only")


def _check_conjugation_relation(i: int, j: int, word, k: int) -> None:
    """Refuse g_i^{g_j} = word unless j < i < k and the word uses generators
    after g_j only."""
    if not (0 <= j < i < k):
        raise GroupError(f"conjugation relation g{i + 1}^g{j + 1} needs j < i")
    if any(g <= j or g >= k for g in word):
        raise GroupError(
            f"conjugation relation g{i + 1}^g{j + 1} must use later generators"
        )


def polycyclic_group(relative_orders, powers=None, conjugates=None,
                     order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    """The group of the polycyclic presentation on g1..gk with the given
    relative orders r_i, power relations g_i^{r_i} = powers[i] and
    conjugation relations g_i^{g_j} = g_j^-1 g_i g_j = conjugates[(i, j)]
    for j < i (words as generator lists).  An unstated power is id and an
    unstated conjugate g_i^{g_j} is g_i.  Relation words use only
    generators after the relation's pivot (g_i for a power, g_j for a
    conjugate), as usual for a polycyclic sequence.

    The labels are the normal forms g_1^{c_1} ... g_k^{c_k}, 0 <= c_i < r_i,
    as exponent tuples, indexed in mixed radix with c_1 the top digit, so
    that G_i = <g_i, ..., g_k> is the index range [0, |G_i|).  The right
    multiplications right[j] by g_j are built from the bottom level up,
    without collection.  At level i, with h in G_(i+1) and 0 <= a < r_i:
    g_i^a h * g_j = g_i^a (h g_j) for j > i, so right[j] of G_(i+1) is
    lifted unchanged in the top digit; and g_i^a h * g_i = g_i^(a+1) phi(h)
    with phi(h) = g_i^-1 h g_i, where g_i^(r_i) phi(h) = P_i phi(h) for the
    power P_i.  phi is extended along normal forms from the images of
    g_(i+1)..g_k: phi(g_m^c h') = w_m^c phi(h') for h' in G_(m+1), with w_m
    the conjugate g_m^{g_i} (g_m by default).  Each relation word is
    evaluated once, to an element; left multiplication by an element w (by
    w_m, and by P_i) takes one pass over G_(i+1), since w (x g) = (w x) g.
    The work is O(k sum |G_i|) plus the relation lengths, so the order
    bound bounds it.  `label_mul` applies right[j] once per letter g_j of
    its right factor.

    In the table the relations hold by construction: g_i^(r_i) = P_i and
    g_m g_i = g_i w_m.  An accepted table, associative (see
    `FiniteGroup.__init__`) with all prod(r_i) normal forms, is therefore a
    group of order prod(r_i) that satisfies the relations; the presented
    group maps onto it and has at most prod(r_i) elements, since every
    word collects to a normal form.  So the presentation is consistent, its
    normal forms are distinct elements, and the table is the group's.  Any
    other table is refused with a GroupError.
    """
    orders = tuple(int(r) for r in relative_orders)
    if any(r < 2 for r in orders):
        raise GroupError("relative orders must be >= 2")
    k = len(orders)
    powers, conjugates = powers or {}, conjugates or {}
    for i, word in powers.items():
        _check_power_relation(i, word, k)
    for (i, j), word in conjugates.items():
        _check_conjugation_relation(i, j, word, k)
    _check_order(orders, order_bound)

    # over the levels built so far, G_(i+1): right[j][x] = x * g_j, and the
    # normal-form tree tree[x] = (p, j) with x = p * g_j
    right: list[list[int]] = [[] for _ in orders]
    tree = [(0, -1)]
    size = 1  # |G_(i+1)|

    def left_mul(word) -> list[int]:
        """x -> w * x on G_(i+1), for the element w that `word` evaluates to."""
        w = 0
        for g in word:
            w = right[g][w]
        return _along_tree(tree, w, [rj.__getitem__ for rj in right])

    for i in range(k - 1, -1, -1):
        r = orders[i]
        phi = [0]
        step = 1  # |G_(m+1)|
        for m in range(k - 1, i, -1):
            wm = left_mul(conjugates.get((m, i), (m,)))
            for _ in range(orders[m] - 1):
                phi += map(wm.__getitem__, phi[-step:])
            step *= orders[m]
        power = left_mul(powers.get(i, ()))
        for j in range(i + 1, k):
            rj = right[j]
            right[j] = [a * size + y for a in range(r) for y in rj]
        right[i] = ([a * size + y for a in range(1, r) for y in phi]
                    + list(map(power.__getitem__, phi)))
        tree += [(a * size + p if h else (a - 1) * size, j if h else i)
                 for a in range(1, r) for h, (p, j) in enumerate(tree[:size])]
        size *= r

    forms = list(itertools.product(*map(range, orders)))
    index = {form: x for x, form in enumerate(forms)}
    gens = [tuple(int(j == i) for j in range(k)) for i in range(k)]
    letters = {g: [rj] for g, rj in zip(gens, right)}  # the BFS's right factors

    def mul(a, b):
        x = index[a]
        for rj in letters.get(b) or [rj for rj, e in zip(right, b) for _ in range(e)]:
            x = rj[x]
        return forms[x]

    group = FiniteGroup(forms[0], mul, gens,
                        recipe="polycyclic " + " ".join(map(str, orders)),
                        order_bound=order_bound)
    if group.order != size:
        raise GroupError(
            f"inconsistent polycyclic relations: enumerated {group.order} "
            f"of {size} normal forms"
        )
    return group


# ---------------------------------------------------------------------------
# textual recipes
#
# A recipe is one `group = ...` line optionally followed by `rel`/`act`
# lines (polycyclic relations, semidirect actions).  Kinds:
#
#   cyclic N | dihedral N | symmetric N | alternating N
#   abelian N1 N2 ...
#   perm (1 2 3)(4 5), (1 6) ...          1-based cycle notation
#   product [<recipe>] [<recipe>]
#   semidirect [<recipe>] [<recipe>]      with `act gJ: gI -> word` lines
#   polycyclic R1 R2 ...                  with `rel g2^g1 = word` lines


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_WORD_ATOM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?[0-9]+))?$")


def _word_atoms(text: str, malformed: str):
    """The atoms of a word like g1*g2^-1 as (atom, name, exponent digits or
    None), none for "", "id" or "1"; a malformed atom is refused as
    `malformed` only when reached, so the caller's checks keep word order."""
    text = text.strip()
    if text in ("", "id", "1"):
        return
    for atom in text.split("*"):
        atom = atom.strip()
        m = _WORD_ATOM_RE.match(atom)
        if not m:
            raise GroupError(f"{malformed} {atom!r}")
        yield atom, m.group(1), m.group(2)


def parse_word(text: str, aliases: dict[str, int], group: FiniteGroup) -> int:
    """Evaluate a word like g1*g2^-1 to an element index."""
    out = 0
    for _, name, digits in _word_atoms(text, "malformed word atom"):
        exp = int(digits or 1)
        if name == "id":
            continue
        if name not in aliases:
            raise GroupError(f"undefined generator alias {name!r}")
        out = group.mul(out, group.power(aliases[name], exp))
    return out


def default_aliases(group: FiniteGroup) -> dict[str, int]:
    return {f"g{i + 1}": g for i, g in enumerate(group.generators)}


def _parse_gen_word_positive(text: str, orders) -> tuple[int, ...]:
    """Word over g1..gk with exponents in the normal-form range 0 <= e < r_i
    of each generator's relative order, as a flat generator list."""
    out: list[int] = []
    for atom, name, digits in _word_atoms(text, "malformed relation word atom"):
        if not name.startswith("g"):
            raise GroupError(f"malformed relation word atom {atom!r}")
        idx = int(name[1:]) - 1
        exp = int(digits or 1)
        if not 0 <= idx < len(orders):
            raise GroupError(f"unknown generator {name!r}")
        if exp < 0:
            raise GroupError("relation words must use non-negative exponents")
        if exp >= orders[idx]:
            raise GroupError(f"exponent {exp} of {name} in a relation word is not "
                             f"below its relative order {orders[idx]}")
        out.extend([idx] * exp)
    return tuple(out)


def _split_bracketed(text: str) -> tuple[list[str], str]:
    """Leading [ ... ] [ ... ] blocks (nesting allowed) and the remainder."""
    blocks = []
    i = 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i >= len(text) or text[i] != "[":
            break
        depth, start = 0, i
        while i < len(text):
            if text[i] == "[":
                depth += 1
            elif text[i] == "]":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if depth != 0:
            raise GroupError("unbalanced [ ] in recipe")
        blocks.append(text[start + 1:i])
        i += 1
    return blocks, text[i:].strip()


def build_group(recipe: str, order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    """Build a group from its textual recipe (see the module grammar)."""
    return _build_recipe(recipe, order_bound, order_bound)


def _build_recipe(recipe: str, order_bound, point_bound) -> FiniteGroup:
    """`build_group` under `order_bound`, with permutation points bounded by
    `point_bound`: the caller's bound, also inside the factors of a
    product, whose order bounds are only the share that the other leaves."""
    lines = [ln.strip() for ln in recipe.strip().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GroupError("empty group recipe")
    if not all(ln.isascii() for ln in lines):
        # `int` reads any Unicode decimal digit: `cyclic ٧` must not build Z7
        raise GroupError("group recipe must be ASCII text")
    head = lines[0]
    if head.startswith("group"):
        head = head.split("=", 1)[1].strip() if "=" in head else head[5:].strip()
    tail = lines[1:]
    kind, _, rest = head.partition(" ")
    rest = rest.strip()

    try:
        return _dispatch_recipe(kind, rest, tail, order_bound, point_bound)
    except ValueError as exc:
        if isinstance(exc, GroupError):
            raise
        raise GroupError(f"bad arguments in recipe {head!r}: {exc}") from exc


@contextmanager
def _at_recipe_line(pos: int):
    """Mark a GroupError raised in the block as one about recipe line `pos`."""
    try:
        yield
    except GroupError as exc:
        exc.recipe_line = pos
        raise


def _predicted_order(recipe: str, order_bound) -> int | None:
    """The order of a one-line cyclic, dihedral, abelian, symmetric,
    alternating or polycyclic recipe, read from its numbers as `_check_order`
    does (capped at order_bound + 1); None for any other recipe, or one whose
    numbers are malformed, which is left for its builder to refuse."""
    kind, _, rest = recipe.strip().partition(" ")
    if not rest.isascii():
        return None
    try:
        numbers = [int(x) for x in rest.split()]
    except ValueError:
        return None
    if any(x < 1 for x in numbers):
        return None
    if kind in ("cyclic", "dihedral", "symmetric", "alternating") and len(numbers) == 1:
        n = numbers[0]
        numbers = {"cyclic": [n], "dihedral": [2, n], "symmetric": range(2, n + 1),
                   "alternating": range(3, n + 1)}[kind]
    elif kind not in ("abelian", "polycyclic"):
        return None
    return _capped_order(numbers, order_bound)


def _factors(blocks, order_bound, point_bound) -> tuple[FiniteGroup, FiniteGroup]:
    """The factors K and H of a product, neither built in full when the
    product would exceed the bound: K under order_bound // |H| when H's
    order can be read from its recipe, then H under order_bound // |K|.
    A refusal names the product's bound."""
    try:
        h_order = _predicted_order(blocks[1], order_bound) or 1
        k = _build_recipe(blocks[0], order_bound // h_order, point_bound)
        return k, _build_recipe(blocks[1], order_bound // k.order, point_bound)
    except OrderBoundError:
        raise OrderBoundError(order_bound) from None


def _dispatch_recipe(kind, rest, tail, order_bound, point_bound) -> FiniteGroup:
    if kind in ("cyclic", "dihedral", "symmetric", "alternating"):
        n = int(rest)
        builder = {
            "cyclic": cyclic_group, "dihedral": dihedral_group,
            "symmetric": symmetric_group, "alternating": alternating_group,
        }[kind]
        group = builder(n, order_bound=order_bound)
    elif kind == "abelian":
        group = abelian_group([int(x) for x in rest.split()], order_bound=order_bound)
    elif kind == "perm":
        gens = []
        for part in rest.split(","):
            cycles = [
                [int(x) - 1 for x in body.split()]
                for body in _CYCLE_RE.findall(part)
            ]
            if not cycles:
                raise GroupError(f"no cycles in permutation {part.strip()!r}")
            if any(x < 0 for cyc in cycles for x in cyc):
                raise GroupError("permutation points are 1-based")
            if any(x >= point_bound for cyc in cycles for x in cyc):
                # every group within the bound acts faithfully on its own
                # elements (Cayley), so no recipe needs a larger point
                raise GroupError(f"permutation points must not exceed the order "
                                 f"bound {point_bound}")
            gens.append(cycles)
        group = permutation_group(gens, order_bound=order_bound)
    elif kind in ("product", "semidirect"):
        blocks, extra = _split_bracketed(rest)
        if len(blocks) != 2 or extra:
            raise GroupError(f"{kind} recipe needs exactly two [ ] blocks")
        k, h = _factors(blocks, order_bound, point_bound)
        nk = len(k.generators)
        action = {hg: {kg: kg for kg in k.generators} for hg in h.generators}
        for pos, ln in enumerate(tail if kind == "semidirect" else (), start=1):
            with _at_recipe_line(pos):
                if not ln.startswith("act "):
                    raise GroupError(f"unexpected line in semidirect recipe: {ln!r}")
                m = re.match(r"act\s+g([0-9]+)\s*:\s*g([0-9]+)\s*->\s*(.+)$", ln)
                if not m:
                    raise GroupError(f"malformed act line: {ln!r}")
                hpos = int(m.group(1)) - 1 - nk
                kpos = int(m.group(2)) - 1
                if not 0 <= hpos < len(h.generators) or not 0 <= kpos < nk:
                    raise GroupError(f"act line references unknown generators: {ln!r}")
                hg = h.generators[hpos]
                img = parse_word(m.group(3), default_aliases(k), k)
            action[hg][k.generators[kpos]] = img
        group = (direct_product(k, h, order_bound=order_bound) if kind == "product"
                 else semidirect_product(k, h, action, order_bound=order_bound))
    elif kind == "polycyclic":
        orders = [int(x) for x in rest.split()]
        _check_order(orders, order_bound)  # before any relation word is expanded
        nk = len(orders)
        powers: dict[int, tuple[int, ...]] = {}
        conjugates: dict[tuple[int, int], tuple[int, ...]] = {}
        for pos, ln in enumerate(tail, start=1):
            with _at_recipe_line(pos):
                if not ln.startswith("rel "):
                    raise GroupError(f"unexpected line in polycyclic recipe: {ln!r}")
                body = ln[4:]
                m = re.match(r"g([0-9]+)\s*\^\s*g([0-9]+)\s*=\s*(.+)$", body)
                if m:
                    i, j = int(m.group(1)) - 1, int(m.group(2)) - 1
                    word = _parse_gen_word_positive(m.group(3), orders)
                    _check_conjugation_relation(i, j, word, nk)
                    conjugates[(i, j)] = word
                    continue
                m = re.match(r"g([0-9]+)\s*\^\s*([0-9]+)\s*=\s*(.+)$", body)
                if m:
                    i, e = int(m.group(1)) - 1, int(m.group(2))
                    if not 0 <= i < nk or e != orders[i]:
                        raise GroupError(f"power relation exponent must match the "
                                         f"relative order: {ln!r}")
                    word = _parse_gen_word_positive(m.group(3), orders)
                    _check_power_relation(i, word, nk)
                    powers[i] = word
                    continue
                raise GroupError(f"malformed rel line: {ln!r}")
        group = polycyclic_group(orders, powers, conjugates, order_bound=order_bound)
    else:
        raise GroupError(f"unknown recipe keyword {kind!r}")

    if kind not in ("semidirect", "polycyclic") and tail:
        with _at_recipe_line(1):
            raise GroupError(f"unexpected extra recipe lines for {kind!r}")
    group.recipe_tail = tuple(tail)
    return group
