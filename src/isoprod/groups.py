"""Fully enumerated finite groups.

A group is built from a recipe (cyclic, dihedral, symmetric, alternating,
abelian, permutation generators, direct/semidirect products, or a
polycyclic presentation), enumerated by breadth-first search from its
generators, and stored with a full multiplication table on element
indices.  Index 0 is always the identity, and the BFS order is
deterministic, so element indices, conjugacy-class order and every
report derived from them are reproducible.

Polycyclic presentations are handled by collection from the left; they
are the only finitely presented input accepted (general coset
enumeration is deliberately out of scope).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

DEFAULT_ORDER_BOUND = 2048

_COLLECT_STEP_BOUND = 200_000


class GroupError(ValueError):
    """Malformed recipe, inconsistent presentation, or exceeded bound."""


# ---------------------------------------------------------------------------
# core group object


class FiniteGroup:
    """A finite group with a full multiplication table on indices 0..n-1."""

    def __init__(self, labels, label_mul, generators, recipe, names=None,
                 order_bound=DEFAULT_ORDER_BOUND):
        """Enumerate the closure of `generators` under `label_mul` by BFS.

        `labels` must contain the identity label first; `generators` are
        labels.  `names`, if given, maps a label to a display string.
        """
        identity = labels[0]
        index = {identity: 0}
        elems = [identity]
        parents = [(-1, -1)]  # (parent index, generator position), BFS words
        gen_labels = list(generators)
        queue = 0
        while queue < len(elems):
            x = elems[queue]
            for gpos, g in enumerate(gen_labels):
                y = label_mul(x, g)
                if y not in index:
                    if len(elems) >= order_bound:
                        raise GroupError(
                            f"group order exceeds the bound {order_bound}"
                        )
                    index[y] = len(elems)
                    elems.append(y)
                    parents.append((queue, gpos))
            queue += 1
        n = len(elems)
        self.order = n
        self.labels = elems
        self.recipe = recipe
        self.generators = tuple(index[g] for g in gen_labels)
        self._parents = parents
        self._names = [names(x) for x in elems] if names else [str(x) for x in elems]
        table = []
        for x in elems:
            row = []
            for y in elems:
                z = label_mul(x, y)
                k = index.get(z)
                if k is None:
                    raise GroupError("multiplication escapes the enumerated set "
                                     "(inconsistent construction)")
                row.append(k)
            table.append(row)
        self._mul = table
        inv = [-1] * n
        for i, row in enumerate(table):
            inv[i] = row.index(0)
        self._inv = inv
        if any(table[i][inv[i]] != 0 or table[inv[i]][i] != 0 for i in range(n)):
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

    def name(self, i: int) -> str:
        return self._names[i]

    def word(self, i: int) -> str:
        """`i` as a product of the declared generators (from its BFS path)."""
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

    def __len__(self):
        return self.order

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
            ConjugacyClass(self, c[0], c, self.element_orders[c[0]]) for c in raw
        )

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        out = [-1] * self.order
        for k, cls in enumerate(self.conjugacy_classes):
            for i in cls.members:
                out[i] = k
        return tuple(out)

    def class_power_map(self, k: int, e: int) -> int:
        """Class index of (representative of class k) ** e."""
        return self.class_of[self.power(self.conjugacy_classes[k].representative, e)]

    # -- subgroups and quotients

    def closure(self, gens) -> frozenset[int]:
        members = {0}
        stack = [0]
        gens = [g for g in gens]
        while stack:
            x = stack.pop()
            for g in gens:
                y = self._mul[x][g]
                if y not in members:
                    members.add(y)
                    stack.append(y)
        return frozenset(members)

    def subgroup(self, gens) -> "Subgroup":
        gens = tuple(dict.fromkeys(int(g) for g in gens))
        return Subgroup(self, self.closure(gens), gens)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, frozenset({0}), ())

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, frozenset(range(self.order)), self.generators)

    def is_normal(self, sub: "Subgroup") -> bool:
        mem = sub.members
        return all(
            self.conjugate(h, g) in mem for h in mem for g in self.generators
        )

    def quotient(self, sub: "Subgroup") -> "QuotientGroup":
        if sub.group is not self:
            raise GroupError("subgroup belongs to a different group")
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
            [0] + [r for r in reps if r != 0],
            label_mul,
            gen_labels,
            recipe=f"quotient of ({self.recipe}) by subgroup of order {len(members)}",
            names=lambda r: f"[{self._names[r]}]",
            order_bound=self.order,
        )
        lookup = {lab: k for k, lab in enumerate(group.labels)}
        projection = tuple(lookup[reps[coset_of[i]]] for i in range(self.order))
        return QuotientGroup(group, projection, sub)


@dataclass(frozen=True)
class ConjugacyClass:
    group: FiniteGroup
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

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def small_generators(self) -> tuple[int, ...]:
        """A short generating set found greedily over the sorted members."""
        gens: list[int] = []
        span = frozenset({0})
        for i in self.sorted_members():
            if i not in span:
                gens.append(i)
                span = self.group.closure(gens)
                if span == self.members:
                    break
        return tuple(gens)


@dataclass(frozen=True)
class QuotientGroup:
    group: FiniteGroup
    projection: tuple[int, ...]
    kernel: Subgroup

    def project(self, i: int) -> int:
        return self.projection[i]


# ---------------------------------------------------------------------------
# characters-as-class-functions utilities (value objects stay opaque here)


def kernel_of_character(group: FiniteGroup, values) -> Subgroup:
    """Kernel {g : chi(g) = chi(1)} of a class function given by class values."""
    deg = values[0]
    members = frozenset(
        i for i in range(group.order) if values[group.class_of[i]] == deg
    )
    sub = Subgroup(group, members, ())
    sub = Subgroup(group, members, sub.small_generators())
    if not group.is_normal(sub):
        raise GroupError("character kernel failed normality check (corrupt values)")
    return sub


def identify_q8(group: FiniteGroup) -> bool:
    """True iff the group is the quaternion group of order 8."""
    if group.order != 8:
        raise GroupError(f"expected order 8, got {group.order}")
    if group.is_abelian:
        return False
    involutions = sum(1 for o in group.element_orders if o == 2)
    return involutions == 1


def is_cyclic(group: FiniteGroup) -> bool:
    return any(o == group.order for o in group.element_orders)


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


def cyclic_group(n: int, order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic order must be >= 1")
    labels = list(range(n))
    return FiniteGroup(labels, lambda a, b: (a + b) % n,
                       [1 % n] if n > 1 else [0],
                       recipe=f"cyclic {n}", names=str, order_bound=order_bound)


def abelian_group(orders, order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    orders = tuple(int(n) for n in orders)
    if not orders or any(n < 1 for n in orders):
        raise GroupError("abelian recipe needs positive cyclic orders")
    identity = (0,) * len(orders)

    def mul(a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, orders))

    gens = []
    for i, n in enumerate(orders):
        if n > 1:
            gens.append(tuple(1 if j == i else 0 for j in range(len(orders))))
    if not gens:
        gens = [identity]
    return FiniteGroup([identity], mul, gens,
                       recipe="abelian " + " ".join(map(str, orders)),
                       names=lambda t: "(" + ",".join(map(str, t)) + ")",
                       order_bound=order_bound)


def dihedral_group(n: int, order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n."""
    if n < 1:
        raise GroupError("dihedral index must be >= 1")

    def mul(a, b):
        (i, f), (j, g) = a, b
        return ((i + (j if f == 0 else -j)) % n, f ^ g)

    return FiniteGroup([(0, 0)], mul, [(1 % n, 0), (0, 1)],
                       recipe=f"dihedral {n}",
                       names=lambda t: f"r{t[0]}" + ("s" if t[1] else ""),
                       order_bound=order_bound)


def _perm_mul(a, b):
    # apply a first, then b
    return tuple(b[x] for x in a)


def _cycles_to_perm(cycles, degree):
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
    return FiniteGroup([identity], _perm_mul, gens,
                       recipe=recipe or "perm " + ", ".join(map(_perm_name, gens)),
                       names=_perm_name, order_bound=order_bound)


def symmetric_group(n: int, order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    if n < 1:
        raise GroupError("symmetric index must be >= 1")
    if n == 1:
        return permutation_group([[[0]]], degree=1, recipe="symmetric 1",
                                 order_bound=order_bound)
    gens = [[[0, 1]], [list(range(n))]]
    g = permutation_group(gens, degree=n, recipe=f"symmetric {n}",
                          order_bound=order_bound)
    assert g.order == math.factorial(n)
    return g


def alternating_group(n: int, order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    if n < 3:
        return permutation_group([[[0]]], degree=max(n, 1),
                                 recipe=f"alternating {n}", order_bound=order_bound)
    if n % 2:
        gens = [[[0, 1, 2]], [list(range(n))]]
    else:
        gens = [[[0, 1, 2]], [list(range(1, n))]]
    g = permutation_group(gens, degree=n, recipe=f"alternating {n}",
                          order_bound=order_bound)
    assert g.order == math.factorial(n) // 2
    return g


def direct_product(k: FiniteGroup, h: FiniteGroup,
                   order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    def mul(a, b):
        return (k.mul(a[0], b[0]), h.mul(a[1], b[1]))

    gens = [(g, 0) for g in k.generators] + [(0, g) for g in h.generators]
    return FiniteGroup([(0, 0)], mul, gens,
                       recipe=f"product [{k.recipe}] [{h.recipe}]",
                       names=lambda t: f"({k.name(t[0])},{h.name(t[1])})",
                       order_bound=order_bound)


def _extend_automorphism(k: FiniteGroup, gen_images: dict[int, int]) -> list[int]:
    """Extend generator images to the automorphism of k they define."""
    img = [-1] * k.order
    img[0] = 0
    for i in range(1, k.order):
        parent, gpos = k._parents[i]
        img[i] = k.mul(img[parent], gen_images[k.generators[gpos]])
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
    auto_of_gen = {}
    for hg in h.generators:
        images = action.get(hg)
        if images is None:
            raise GroupError(f"no action given for H generator index {hg}")
        auto_of_gen[hg] = _extend_automorphism(k, images)
    alpha = [None] * h.order
    alpha[0] = list(range(k.order))
    for i in range(1, h.order):
        parent, gpos = h._parents[i]
        ag = auto_of_gen[h.generators[gpos]]
        ap = alpha[parent]
        alpha[i] = [ap[ag[x]] for x in range(k.order)]

    def mul(a, b):
        return (k.mul(a[0], alpha[a[1]][b[0]]), h.mul(a[1], b[1]))

    gens = [(g, 0) for g in k.generators] + [(0, g) for g in h.generators]
    return FiniteGroup([(0, 0)], mul, gens,
                       recipe=f"semidirect [{k.recipe}] [{h.recipe}]",
                       names=lambda t: f"({k.name(t[0])},{h.name(t[1])})",
                       order_bound=order_bound)


# -- polycyclic presentations


class PolycyclicPresentation:
    """Power/conjugate relations over generators g1..gk with relative orders.

    Unstated power relations default to g_i^{r_i} = id; unstated conjugation
    relations default to g_i^{g_j} = g_i.  Relation words must only use
    generators of index strictly larger than the relation's pivot, as usual
    for a consistent polycyclic sequence.
    """

    def __init__(self, relative_orders, powers=None, conjugates=None):
        self.orders = tuple(int(r) for r in relative_orders)
        if any(r < 2 for r in self.orders):
            raise GroupError("relative orders must be >= 2")
        k = len(self.orders)
        self.powers = {}
        for i, word in (powers or {}).items():
            if not 0 <= i < k:
                raise GroupError(f"power relation for unknown generator {i + 1}")
            if any(g <= i or g >= k for g in word):
                raise GroupError(
                    f"power relation for g{i + 1} must use later generators only"
                )
            self.powers[i] = tuple(word)
        self.conjugates = {}
        for (i, j), word in (conjugates or {}).items():
            if not (0 <= j < i < k):
                raise GroupError(
                    f"conjugation relation g{i + 1}^g{j + 1} needs j < i"
                )
            if any(g <= j or g >= k for g in word):
                raise GroupError(
                    f"conjugation relation g{i + 1}^g{j + 1} must use later generators"
                )
            self.conjugates[(i, j)] = tuple(word)

    def collect(self, word) -> tuple[int, ...]:
        """Normal form (exponent tuple) of a product of generators.

        Collection from the left: repeatedly rewrite the leftmost violation,
        either a descent g_i g_j with i > j (swap via the conjugation
        relation) or a full power run (replace via the power relation).
        """
        w = list(word)
        orders = self.orders
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
                    if violation is None:
                        violation = ("swap", t, None)
                        break
            if violation is None:
                exps = [0] * len(orders)
                for g in w:
                    exps[g] += 1
                return tuple(exps)
            kind, t, g = violation
            if kind == "power":
                w[t:t + orders[g]] = list(self.powers.get(g, ()))
            else:
                i, j = w[t], w[t + 1]
                w[t:t + 2] = [j] + list(self.conjugates.get((i, j), (i,)))
        raise GroupError("collection failed to terminate: inconsistent relations")


def polycyclic_group(relative_orders, powers=None, conjugates=None,
                     order_bound=DEFAULT_ORDER_BOUND) -> FiniteGroup:
    pres = PolycyclicPresentation(relative_orders, powers, conjugates)
    k = len(pres.orders)
    predicted = math.prod(pres.orders)
    if predicted > order_bound:
        raise GroupError(f"group order exceeds the bound {order_bound}")

    def expand(exps):
        out = []
        for g, e in enumerate(exps):
            out.extend([g] * e)
        return out

    def mul(a, b):
        return pres.collect(expand(a) + expand(b))

    identity = (0,) * k
    gens = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]

    def name(exps):
        if not any(exps):
            return "id"
        return "*".join(
            f"g{g + 1}" if e == 1 else f"g{g + 1}^{e}"
            for g, e in enumerate(exps) if e
        )

    group = FiniteGroup([identity], mul, gens,
                        recipe="polycyclic " + " ".join(map(str, pres.orders)),
                        names=name, order_bound=order_bound)
    if group.order != predicted:
        raise GroupError(
            f"inconsistent polycyclic relations: enumerated {group.order} "
            f"of {predicted} normal forms"
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
_WORD_ATOM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def parse_word(text: str, aliases: dict[str, int], group: FiniteGroup) -> int:
    """Evaluate a word like g1*g2^-1 to an element index."""
    out = 0
    text = text.strip()
    if text in ("", "id", "1"):
        return 0
    for atom in text.split("*"):
        m = _WORD_ATOM_RE.match(atom.strip())
        if not m:
            raise GroupError(f"malformed word atom {atom.strip()!r}")
        name, exp = m.group(1), int(m.group(2) or 1)
        if name == "id":
            continue
        if name not in aliases:
            raise GroupError(f"undefined generator alias {name!r}")
        out = group.mul(out, group.power(aliases[name], exp))
    return out


def default_aliases(group: FiniteGroup) -> dict[str, int]:
    return {f"g{i + 1}": g for i, g in enumerate(group.generators)}


def _parse_gen_word_positive(text: str, k: int) -> tuple[int, ...]:
    """Word over g1..gk with positive exponents, as a flat generator list."""
    out: list[int] = []
    text = text.strip()
    if text in ("", "id", "1"):
        return ()
    for atom in text.split("*"):
        m = _WORD_ATOM_RE.match(atom.strip())
        if not m or not m.group(1).startswith("g"):
            raise GroupError(f"malformed relation word atom {atom.strip()!r}")
        idx = int(m.group(1)[1:]) - 1
        exp = int(m.group(2) or 1)
        if not 0 <= idx < k:
            raise GroupError(f"unknown generator {m.group(1)!r}")
        if exp < 0:
            raise GroupError("relation words must use non-negative exponents")
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
    lines = [ln.strip() for ln in recipe.strip().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GroupError("empty group recipe")
    head = lines[0]
    if head.startswith("group"):
        head = head.split("=", 1)[1].strip() if "=" in head else head[5:].strip()
    tail = lines[1:]
    kind, _, rest = head.partition(" ")
    rest = rest.strip()

    try:
        return _dispatch_recipe(kind, rest, tail, order_bound)
    except ValueError as exc:
        if isinstance(exc, GroupError):
            raise
        raise GroupError(f"bad arguments in recipe {head!r}: {exc}") from exc


def _dispatch_recipe(kind, rest, tail, order_bound) -> FiniteGroup:
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
            gens.append(cycles)
        group = permutation_group(gens, order_bound=order_bound)
    elif kind == "product":
        blocks, extra = _split_bracketed(rest)
        if len(blocks) != 2 or extra:
            raise GroupError("product recipe needs exactly two [ ] blocks")
        group = direct_product(
            build_group(blocks[0], order_bound), build_group(blocks[1], order_bound),
            order_bound=order_bound,
        )
    elif kind == "semidirect":
        blocks, extra = _split_bracketed(rest)
        if len(blocks) != 2 or extra:
            raise GroupError("semidirect recipe needs exactly two [ ] blocks")
        k = build_group(blocks[0], order_bound)
        h = build_group(blocks[1], order_bound)
        nk = len(k.generators)
        action: dict[int, dict[int, int]] = {}
        for ln in tail:
            if not ln.startswith("act "):
                raise GroupError(f"unexpected line in semidirect recipe: {ln!r}")
            m = re.match(r"act\s+g(\d+)\s*:\s*g(\d+)\s*->\s*(.+)$", ln)
            if not m:
                raise GroupError(f"malformed act line: {ln!r}")
            hpos = int(m.group(1)) - 1 - nk
            kpos = int(m.group(2)) - 1
            if not 0 <= hpos < len(h.generators) or not 0 <= kpos < nk:
                raise GroupError(f"act line references unknown generators: {ln!r}")
            hg = h.generators[hpos]
            img = parse_word(m.group(3), default_aliases(k), k)
            action.setdefault(hg, {})[k.generators[kpos]] = img
        for hg in h.generators:
            images = action.setdefault(hg, {})
            for kg in k.generators:
                images.setdefault(kg, kg)
        group = semidirect_product(k, h, action, order_bound=order_bound)
    elif kind == "polycyclic":
        orders = [int(x) for x in rest.split()]
        nk = len(orders)
        powers: dict[int, tuple[int, ...]] = {}
        conjugates: dict[tuple[int, int], tuple[int, ...]] = {}
        for ln in tail:
            if not ln.startswith("rel "):
                raise GroupError(f"unexpected line in polycyclic recipe: {ln!r}")
            body = ln[4:]
            m = re.match(r"g(\d+)\s*\^\s*g(\d+)\s*=\s*(.+)$", body)
            if m:
                i, j = int(m.group(1)) - 1, int(m.group(2)) - 1
                conjugates[(i, j)] = _parse_gen_word_positive(m.group(3), nk)
                continue
            m = re.match(r"g(\d+)\s*\^\s*(\d+)\s*=\s*(.+)$", body)
            if m:
                i, e = int(m.group(1)) - 1, int(m.group(2))
                if not 0 <= i < nk or e != orders[i]:
                    raise GroupError(f"power relation exponent must match the "
                                     f"relative order: {ln!r}")
                powers[i] = _parse_gen_word_positive(m.group(3), nk)
                continue
            raise GroupError(f"malformed rel line: {ln!r}")
        group = polycyclic_group(orders, powers, conjugates, order_bound=order_bound)
    else:
        raise GroupError(f"unknown recipe keyword {kind!r}")

    if kind not in ("semidirect", "polycyclic") and tail:
        raise GroupError(f"unexpected extra recipe lines for {kind!r}")
    return group
