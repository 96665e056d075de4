"""Spherical systems of generators and unmixed ramification structures.

A spherical system is a tuple of group elements that generates the group
and multiplies to the identity; it encodes a Galois covering of the line
branched at one point per entry.  The stabilizer locus Sigma(T) is the
union of all conjugates of all powers of the entries; a pair of systems
with Sigma-sets meeting only in the identity defines a free diagonal
action on the product of the two covering curves.  Sigma(T) is a union of
classes, so it is kept everywhere as a set of class indices; class 0 is {id},
so Sigma-sets meet only in id exactly when their class sets meet only in 0.

The structure search enumerates ordered tuples whose entry orders match
a prescribed type, pairs the two sides through their (conjugation
invariant) Sigma-sets, and names each pair up to simultaneous conjugation
by its canonical key, the lexicographically least conjugate of the
concatenated tuple.  That minimum starts with the representative r of the
first entry's class, so it is taken over the one coset of C_G(r) that
conjugates the first entry to r, not over all of G.

The search visits each structure once and keeps no set of keys.  Side 1
starts every tuple t1 at a class representative r and keeps t1 only when
it is the least of its conjugates under C_G(r); then t1 + t2 is already
the canonical key of every Sigma-disjoint pair (t1, t2):

- the key minimises over the coset t0 C_G(r), and lexicographic order
  minimises the t1 part first;
- t1 generates G, so the conjugators that fix t1 are those of Z(G), and
  they fix t2 as well: the key is exactly t1 + t2.

Every structure is met this way: take one of its pairs whose t1 starts
at r; conjugating it by the element of C_G(r) that makes t1 least keeps r
first and keeps both Sigma-sets, so it gives a pair of the two sides.
The key order is that of the search that canonicalises every pair and
yields each key at its first visit: within a Sigma bucket, the tuples
with one pattern of entry orders come out of the enumeration in
lexicographic order, so the least member of each C_G(r) orbit comes
first, and a key is first met at the pair (least t1, t2).  The tests keep
the canonicalise-every-pair search, over all tuples, as the oracle.

A search pays for each check once.  One generation test, memoised by entry
set, serves the whole search: both sides' enumerations and the
`validate_spherical` call that builds each distinct tuple of a key, so a
tuple that the enumeration proved generating is not closed again.  So it
goes with Sigma: one class-set memo, by entry tuple, fills the Sigma
buckets and hands each key tuple's class set to its `SphericalSystem`,
whose disjointness check in `RamificationStructure` then reads it.  Both
memos are made per search and die with it; nothing is kept on the group.
A system built outside a search computes its class set once, on first use.

The pairing reads each side only as far as the keys taken need, so
`limit=k` stops after k + 1 keys.  A side's Sigma buckets are filled as
its tuples arrive: a new Sigma-set opens a bucket at the end of the bucket
list, and a tuple joins its bucket at the end.  A reader that gets past
the end of the bucket list, or of one bucket, pulls tuples until that list
grows or the side runs out.  Both lists only grow at their ends, so every
reader meets the buckets and the members in the order of a side read in
full first; the loops over them (bucket of side 1, disjoint bucket of side
2, t1, t2) are those of that full reading, and so are the key stream and
its order.  Side 2 is not started while side 1 has yielded no tuple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .groups import FiniteGroup, QuotientGroup

DEFAULT_SEARCH_BOUND = 512
MAX_TUPLE_LENGTH = 6
_ONLY_IDENTITY = frozenset({0})  # the class set of {id}


class RamificationError(ValueError):
    """Invalid spherical system, impossible type, or exceeded search bound."""


# ---------------------------------------------------------------------------
# spherical systems


@dataclass(frozen=True)
class SphericalSystem:
    """A validated generating tuple with product one; `signature` is the
    sorted multiset of entry orders (the system's type)."""

    group: FiniteGroup
    entries: tuple[int, ...]
    signature: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.entries)

    def words(self) -> list[str]:
        return [self.group.word(i) for i in self.entries]

    def genus(self) -> int:
        return genus(self.group.order, self.signature)

    @cached_property
    def sigma(self) -> frozenset[int]:
        """Sigma(T) as class indices, computed on first use; not a field, so
        equality and hashing are those of (group, entries, signature)."""
        return _sigma_classes(self.group, self.entries)


def _generation_test(group: FiniteGroup):
    """A `generates(entries)` test for `group`, memoised by entry set.  One
    search makes one and shares it; it is never kept on the group."""
    memo: dict[frozenset, bool] = {}

    def generates(entries) -> bool:
        key = frozenset(entries)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = len(group.closure(key)) == group.order
        return hit

    return generates


def _sigma_memo(group: FiniteGroup):
    """A `sigma_of(entries)` for `group`, memoised by entry tuple.  Equal
    class sets are kept as one object, so the memo holds one set per Sigma
    bucket, not one per tuple.  One search makes one and shares it; it is
    never kept on the group."""
    memo: dict[tuple[int, ...], frozenset[int]] = {}
    shared: dict[frozenset[int], frozenset[int]] = {}

    def sigma_of(entries) -> frozenset[int]:
        hit = memo.get(entries)
        if hit is None:
            sigma = _sigma_classes(group, entries)
            hit = memo[entries] = shared.setdefault(sigma, sigma)
        return hit

    return sigma_of


def validate_spherical(group: FiniteGroup, entries, generates=None) -> SphericalSystem:
    """Check the spherical-system axioms and compute the type.  `generates`
    is the generation test of the caller's search (a fresh one without)."""
    idx = tuple(int(e) for e in entries)
    _check_length(len(idx))
    for e in idx:
        if not 0 <= e < group.order:
            raise RamificationError(f"element index {e} out of range")
    orders = [group.element_orders[e] for e in idx]
    if any(o < 2 for o in orders):
        bad = idx[orders.index(1)]
        raise RamificationError(
            f"entry {group.name(bad)} is the identity (order-1 entries are not allowed)"
        )
    prod = 0
    for e in idx:
        prod = group.mul(prod, e)
    if prod != 0:
        raise RamificationError(
            f"product of the entries is {group.name(prod)}, not the identity"
        )
    if not (generates or _generation_test(group))(idx):
        raise RamificationError("the entries do not generate the group")
    return SphericalSystem(group, idx, tuple(sorted(orders)))


def genus(order: int, signature) -> int:
    """Genus of the covering curve of the line determined by a degree-`order`
    covering branched with local orders `signature`:
    g = 1 - d + sum_i (d / 2 m_i) (m_i - 1)."""
    signature = tuple(signature)
    _check_branching(signature)
    den = 2 * math.lcm(*signature)  # g = num / den, with every term an integer
    num = den * (1 - order) + sum(order * (m - 1) * (den // (2 * m)) for m in signature)
    if num % den or num < 0:
        raise RamificationError(
            f"type {list(signature)} is inconsistent with a group of order {order} "
            f"(genus would be {Fraction(num, den)})"
        )
    return num // den


def _check_length(length: int) -> None:
    if length < 2:
        raise RamificationError(f"a spherical system needs >= 2 entries, got {length}")


def _check_branching(signature: tuple[int, ...]) -> None:
    if any(m < 2 for m in signature):
        raise RamificationError(f"branching orders must be >= 2: {signature}")


def check_type(signature) -> tuple[int, ...]:
    """`signature` as a sorted type, refused when no spherical system has it:
    fewer than two entries, or a branching order below 2."""
    signature = tuple(sorted(signature))
    _check_length(len(signature))
    _check_branching(signature)
    return signature


def check_search_options(limit: int | None, bound: int) -> None:
    """Refuse a search limit or order bound below 1."""
    if limit is not None and limit < 1:
        raise RamificationError(f"the search limit must be at least 1, got {limit}")
    if bound < 1:
        raise RamificationError("the search bound must be at least 1")


def sigma_set(system: SphericalSystem) -> frozenset[int]:
    """Sigma(T) as the indices of the classes it is the union of (with 0, id)."""
    return system.sigma


def _sigma_classes(group: FiniteGroup, entries) -> frozenset[int]:
    """Sigma as class indices: the union of the entries' `power_classes` rows."""
    rows, class_of = group.power_classes, group.class_of
    return frozenset(itertools.chain.from_iterable(
        rows[k] for k in {class_of[e] for e in entries}))


def is_disjoint(t1: SphericalSystem, t2: SphericalSystem) -> bool:
    if t1.group is not t2.group:
        raise RamificationError("systems over different groups")
    return sigma_set(t1) & sigma_set(t2) == _ONLY_IDENTITY


@dataclass(frozen=True)
class RamificationStructure:
    """A disjoint pair of spherical systems over one group."""

    t1: SphericalSystem
    t2: SphericalSystem

    def __post_init__(self):
        if not is_disjoint(self.t1, self.t2):
            raise RamificationError(
                "the two systems are not disjoint: the diagonal action is not free"
            )

    @property
    def group(self) -> FiniteGroup:
        return self.t1.group

    def genera(self) -> tuple[int, int]:
        return self.t1.genus(), self.t2.genus()


@dataclass(frozen=True)
class QuotientSystem:
    """Image of a spherical system in a quotient group, with order-1 images
    dropped; `dropped` lists positions of the dropped entries."""

    quotient: QuotientGroup
    system: SphericalSystem | None  # None when the quotient is trivial
    dropped: tuple[int, ...]

    @property
    def genus(self) -> int:
        return 0 if self.system is None else self.system.genus()


def quotient_system(system: SphericalSystem, quot: QuotientGroup) -> QuotientSystem:
    """Project a system to the quotient `quot` = G/H, dropping identity images.

    A trivial quotient yields genus 0 with no system.  Otherwise the images
    still multiply to one and generate G/H (`validate_spherical` checks it),
    so at least two survive; two survivors are x and x^-1, which generate a
    cyclic G/H of order m = o(x), and genus(m, (m, m)) = 0.
    """
    q = quot.group
    if q.order == 1:
        return QuotientSystem(quot, None, tuple(range(system.length)))
    images = [quot.project(e) for e in system.entries]
    survivors = [x for x in images if x != 0]
    dropped = tuple(i for i, x in enumerate(images) if x == 0)
    return QuotientSystem(quot, validate_spherical(q, survivors), dropped)


# ---------------------------------------------------------------------------
# search


def _systems_of_type(group: FiniteGroup, signature, first_entry_reps: bool,
                     generates):
    """Yield entry tuples of the given type (product one, generating).

    Backtracking over positions; the final entry is forced by the product
    constraint, and generation is tested by `generates`, the search's
    memoised test.  When `first_entry_reps` is set, the first entry only
    runs over conjugacy class representatives (complete up to simultaneous
    conjugation).
    """
    signature = tuple(sorted(signature))
    by_order: dict[int, list[int]] = {}
    for i in range(1, group.order):
        by_order.setdefault(group.element_orders[i], []).append(i)
    if any(m not in by_order for m in set(signature)):
        return
    first_candidates: dict[int, list[int]] = {}
    for m in set(signature):
        if first_entry_reps:
            first_candidates[m] = [
                c.representative for c in group.conjugacy_classes
                if c.element_order == m
            ]
        else:
            first_candidates[m] = by_order[m]
    yield from _extend_tuples(group, generates, first_candidates, by_order,
                              [], 0, signature)


def _extend_tuples(group: FiniteGroup, generates, first_candidates, by_order,
                   prefix: list[int], prod: int, remaining: tuple[int, ...]):
    """The generating tuples of product one that extend `prefix`, whose
    product is `prod`, by entries of the orders `remaining`; `prefix` grows
    and shrinks back as the backtracking goes.  A module-level generator,
    not a closure over itself, so a search leaves no reference cycle
    holding its group and memos."""
    if len(remaining) == 1:
        last = group.inverse(prod)
        if (
            group.element_orders[last] == remaining[0]
            and generates(tuple(prefix) + (last,))
        ):
            yield tuple(prefix) + (last,)
        return
    seen_orders = set()
    rest_sorted = sorted(remaining)
    for pos, m in enumerate(rest_sorted):
        if m in seen_orders:
            continue
        seen_orders.add(m)
        rest = tuple(rest_sorted[:pos] + rest_sorted[pos + 1:])
        pool = first_candidates[m] if not prefix else by_order[m]
        for e in pool:
            prefix.append(e)
            yield from _extend_tuples(group, generates, first_candidates, by_order,
                                      prefix, group.mul(prod, e), rest)
            prefix.pop()


def iter_structure_keys(group: FiniteGroup, type_pair, generates, sigma_of):
    """Canonical keys of all structures of the given type pair, in discovery
    order, without duplicates.  Both sides share `generates` and `sigma_of`,
    the search's generation test and class-set memo."""
    a1, a2 = type_pair
    # only the least tuple of each C_G(r) orbit: see the module docstring
    side1 = (t for t in _systems_of_type(group, a1, True, generates)
             if group.min_conjugate(t) == t)
    side2 = _systems_of_type(group, a2, False, generates)
    for t1, t2 in _disjoint_pairs(side1, side2, sigma_of):
        yield t1 + t2


class _SigmaBuckets:
    """The tuples of one side grouped by Sigma class set, pulled from the
    side only as far as a reader asks: the buckets in order of first
    appearance, each bucket's members in side order."""

    def __init__(self, side, sigma_of):
        self._sigma_of = sigma_of
        self._side = iter(side)
        self._read_all = False
        self._by_sigma: dict[frozenset, list] = {}
        self._buckets: list[tuple[frozenset, list]] = []

    def _reach(self, items: list, i: int) -> bool:
        """Pull tuples until `items` (the bucket list or one bucket) has an
        item i; False when the side runs out first."""
        while len(items) <= i:
            t = next(self._side, None)
            if t is None:
                self._read_all = True
                return False
            sigma = self._sigma_of(t)
            members = self._by_sigma.get(sigma)
            if members is None:
                members = self._by_sigma[sigma] = []
                self._buckets.append((sigma, members))
            members.append(t)
        return True

    def __iter__(self):
        return iter(self.read(self._buckets))

    def read(self, items: list):
        """`items`, the bucket list or one bucket, from its first item,
        pulling tuples as the reader gets past what has been read; once the
        side has run out, `items` is complete and is read as it stands."""
        return items if self._read_all else self._pulled(items)

    def _pulled(self, items: list):
        i = 0
        while self._reach(items, i):
            yield items[i]
            i += 1


def _disjoint_pairs(side1, side2, sigma_of):
    """Every pair (t1, t2) with Sigma-sets meeting only in the identity,
    bucket by bucket, in the order of the two sides; each side is read only
    as far as the pairs taken need.  `sigma_of` is the search's class-set
    memo."""
    buckets1 = _SigmaBuckets(side1, sigma_of)
    buckets2 = _SigmaBuckets(side2, sigma_of)
    for s1, group1 in buckets1:
        for s2, group2 in buckets2:
            if s1 & s2 != _ONLY_IDENTITY:
                continue
            for t1 in buckets1.read(group1):
                for t2 in buckets2.read(group2):
                    yield t1, t2


def search_structures(group: FiniteGroup, type_pair, limit: int | None = None,
                      bound: int = DEFAULT_SEARCH_BOUND) -> list[RamificationStructure]:
    """All unmixed structures of the given type pair up to simultaneous
    conjugation, sorted by canonical key.  With `limit`, enumeration stops
    after that many distinct structures (still deterministic, but then the
    result is the first structures found rather than a global prefix)."""
    return find_structures(group, type_pair, limit, bound)[0]


def find_structures(group: FiniteGroup, type_pair, limit: int | None = None,
                    bound: int = DEFAULT_SEARCH_BOUND
                    ) -> tuple[list[RamificationStructure], bool]:
    """`search_structures`, plus whether the limit stopped the enumeration:
    True exactly when a structure beyond the first `limit` exists.  A side
    that Riemann-Hurwitz refuses for |G| raises before any enumeration."""
    a1, a2 = check_type(type_pair[0]), check_type(type_pair[1])
    check_search_options(limit, bound)
    if group.order > bound:
        raise RamificationError(
            f"group order {group.order} exceeds the search bound {bound}"
        )
    if len(a1) > MAX_TUPLE_LENGTH or len(a2) > MAX_TUPLE_LENGTH:
        raise RamificationError(
            f"tuple lengths are capped at {MAX_TUPLE_LENGTH} for searches"
        )
    for side in (a1, a2):
        genus(group.order, side)
    generates = _generation_test(group)  # memos for this search only
    sigma_of = _sigma_memo(group)
    keys = []
    limited = False
    for key in iter_structure_keys(group, (a1, a2), generates, sigma_of):
        if limit is not None and len(keys) == limit:
            limited = True  # one more key exists; it is not kept
            break
        keys.append(key)
    keys.sort()
    systems: dict[tuple[int, ...], SphericalSystem] = {}  # one per entries tuple

    def system(entries):
        found = systems.get(entries)
        if found is None:
            found = systems[entries] = validate_spherical(group, entries, generates)
            # the bucket's class set fills the `sigma` cache, as a first read would
            found.__dict__["sigma"] = sigma_of(entries)
        return found

    out = [RamificationStructure(system(key[:len(a1)]), system(key[len(a1):]))
           for key in keys]
    return out, limited
