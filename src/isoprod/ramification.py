"""Spherical systems of generators and unmixed ramification structures.

A spherical system is a tuple of group elements that generates the group
and multiplies to the identity; it encodes a Galois covering of the line
branched at one point per entry.  The stabilizer locus Sigma(T) is the
union of all conjugates of all powers of the entries; a pair of systems
with Sigma-sets meeting only in the identity defines a free diagonal
action on the product of the two covering curves.

The structure search enumerates ordered tuples whose entry orders match
a prescribed type, pairs the two sides through their (conjugation
invariant) Sigma-sets, and deduplicates pairs under simultaneous
conjugation using a lexicographically minimal canonical form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .groups import FiniteGroup, Subgroup, QuotientGroup

DEFAULT_SEARCH_BOUND = 512
MAX_TUPLE_LENGTH = 6


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


def validate_spherical(group: FiniteGroup, entries) -> SphericalSystem:
    """Check the spherical-system axioms and compute the type."""
    idx = tuple(int(e) for e in entries)
    if len(idx) < 2:
        raise RamificationError(f"a spherical system needs >= 2 entries, got {len(idx)}")
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
    if group.closure(idx) != frozenset(range(group.order)):
        raise RamificationError("the entries do not generate the group")
    return SphericalSystem(group, idx, tuple(sorted(orders)))


def genus(order: int, signature) -> int:
    """Genus of the covering curve of the line determined by a degree-`order`
    covering branched with local orders `signature`:
    g = 1 - d + sum_i (d / 2 m_i) (m_i - 1)."""
    signature = tuple(signature)
    if any(m < 2 for m in signature):
        raise RamificationError(f"branching orders must be >= 2: {signature}")
    g = Fraction(1 - order)
    for m in signature:
        g += Fraction(order, 2 * m) * (m - 1)
    if g.denominator != 1 or g < 0:
        raise RamificationError(
            f"type {list(signature)} is inconsistent with a group of order {order} "
            f"(genus would be {g})"
        )
    return int(g)


def sigma_set(system: SphericalSystem) -> frozenset[int]:
    """Union of all conjugates of all powers of the entries (contains id)."""
    return _sigma_of_entries(system.group, frozenset(system.entries))


def _sigma_of_entries(group: FiniteGroup, entries: frozenset[int]) -> frozenset[int]:
    classes = group.conjugacy_classes
    class_of = group.class_of
    out = {0}
    seen_classes = set()
    for e in entries:
        x = e
        while x != 0:
            k = class_of[x]
            if k not in seen_classes:
                seen_classes.add(k)
                out.update(classes[k].members)
            x = group.mul(x, e)
    return frozenset(out)


def is_disjoint(t1: SphericalSystem, t2: SphericalSystem) -> bool:
    if t1.group is not t2.group:
        raise RamificationError("systems over different groups")
    return sigma_set(t1) & sigma_set(t2) == {0}


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

    def canonical_key(self) -> tuple[int, ...]:
        return _canonical_pair_key(
            self.group, self.t1.entries, self.t2.entries
        )


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


def quotient_system(system: SphericalSystem, sub: Subgroup,
                    quot: QuotientGroup | None = None) -> QuotientSystem:
    """Project a system to G/H (H normal), dropping identity images.

    A projected tuple with fewer than three surviving entries can only
    describe a genus-zero quotient curve; anything else flags inconsistent
    input.  A trivial quotient yields genus 0 with no system.  Pass a
    precomputed `quot` to share one quotient group between projections.
    """
    group = system.group
    if quot is None:
        quot = group.quotient(sub)
    elif quot.kernel.members != sub.members:
        raise RamificationError("precomputed quotient has a different kernel")
    q = quot.group
    if q.order == 1:
        return QuotientSystem(quot, None, tuple(range(system.length)))
    images = [quot.project(e) for e in system.entries]
    survivors = tuple(x for x in images if x != 0)
    dropped = tuple(i for i, x in enumerate(images) if x == 0)
    prod = 0
    for x in survivors:
        prod = q.mul(prod, x)
    if prod != 0 or q.closure(survivors) != frozenset(range(q.order)):
        raise RamificationError("projection broke the spherical-system axioms")
    if len(survivors) < 3:
        orders = tuple(sorted(q.element_orders[x] for x in survivors))
        if not orders or genus(q.order, orders) > 0:
            raise RamificationError(
                f"only {len(survivors)} branch points survive in a quotient of "
                f"order {q.order}: inconsistent covering data"
            )
    projected = SphericalSystem(
        q, survivors, tuple(sorted(q.element_orders[x] for x in survivors))
    )
    return QuotientSystem(quot, projected, dropped)


# ---------------------------------------------------------------------------
# search


def _canonical_pair_key(group: FiniteGroup, e1, e2) -> tuple[int, ...]:
    """Lexicographically minimal concatenated index tuple over simultaneous
    conjugation of both tuples by all group elements."""
    cat = tuple(e1) + tuple(e2)
    if group.is_abelian:
        return cat
    best = None
    conj = group.conjugate
    for t in range(group.order):
        cand = tuple(conj(e, t) for e in cat)
        if best is None or cand < best:
            best = cand
    return best


def _systems_of_type(group: FiniteGroup, signature, first_entry_reps: bool):
    """Yield entry tuples of the given type (product one, generating).

    Backtracking over positions; the final entry is forced by the product
    constraint, and generation is memoized on the entry set.  When
    `first_entry_reps` is set, the first entry only runs over conjugacy
    class representatives (complete up to simultaneous conjugation).
    """
    signature = tuple(sorted(signature))
    r = len(signature)
    by_order: dict[int, list[int]] = {}
    for i in range(1, group.order):
        by_order.setdefault(group.element_orders[i], []).append(i)
    if any(m not in by_order for m in set(signature)):
        return
    full = frozenset(range(group.order))
    gen_cache: dict[frozenset, bool] = {}

    def generates(entries) -> bool:
        key = frozenset(entries)
        hit = gen_cache.get(key)
        if hit is None:
            hit = group.closure(key) == full
            gen_cache[key] = hit
        return hit

    first_candidates: dict[int, list[int]] = {}
    for m in set(signature):
        if first_entry_reps:
            first_candidates[m] = [
                c.representative for c in group.conjugacy_classes
                if c.element_order == m
            ]
        else:
            first_candidates[m] = by_order[m]

    prefix: list[int] = []

    def rec(prod: int, remaining: tuple[int, ...]):
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
                yield from rec(group.mul(prod, e), rest)
                prefix.pop()

    yield from rec(0, signature)


def _naive_systems_of_type(group: FiniteGroup, signature):
    """All entry tuples of the given type by plain exhaustion over G^r."""
    signature = tuple(sorted(signature))
    r = len(signature)
    full = frozenset(range(group.order))
    gen_cache: dict[frozenset, bool] = {}
    for t in itertools.product(range(group.order), repeat=r):
        if tuple(sorted(group.element_orders[e] for e in t)) != signature:
            continue
        prod = 0
        for e in t:
            prod = group.mul(prod, e)
        if prod != 0:
            continue
        key = frozenset(t)
        hit = gen_cache.get(key)
        if hit is None:
            hit = group.closure(key) == full
            gen_cache[key] = hit
        if hit:
            yield t


def iter_structure_keys(group: FiniteGroup, type_pair, naive: bool = False):
    """Canonical keys of all structures of the given type pair, in discovery
    order, without duplicates.  `naive` switches the tuple enumeration to
    plain exhaustion (the completeness oracle for the pruned search)."""
    a1, a2 = type_pair
    if naive:
        side1 = list(_naive_systems_of_type(group, a1))
        side2 = (
            side1 if tuple(sorted(a1)) == tuple(sorted(a2))
            else list(_naive_systems_of_type(group, a2))
        )
    else:
        side1 = list(_systems_of_type(group, a1, first_entry_reps=True))
        side2 = list(_systems_of_type(group, a2, first_entry_reps=False))

    by_sigma1: dict[frozenset, list] = {}
    for t in side1:
        by_sigma1.setdefault(_sigma_of_entries(group, frozenset(t)), []).append(t)
    by_sigma2: dict[frozenset, list] = {}
    for t in side2:
        by_sigma2.setdefault(_sigma_of_entries(group, frozenset(t)), []).append(t)

    only_id = frozenset({0})
    seen = set()
    for s1, group1 in by_sigma1.items():
        for s2, group2 in by_sigma2.items():
            if s1 & s2 != only_id:
                continue
            for t1 in group1:
                for t2 in group2:
                    key = _canonical_pair_key(group, t1, t2)
                    if key not in seen:
                        seen.add(key)
                        yield key


def search_structures(group: FiniteGroup, type_pair, limit: int | None = None,
                      bound: int = DEFAULT_SEARCH_BOUND) -> list[RamificationStructure]:
    """All unmixed structures of the given type pair up to simultaneous
    conjugation, sorted by canonical key.  With `limit`, enumeration stops
    after that many distinct structures (still deterministic, but then the
    result is the first structures found rather than a global prefix)."""
    a1, a2 = (tuple(sorted(type_pair[0])), tuple(sorted(type_pair[1])))
    if group.order > bound:
        raise RamificationError(
            f"group order {group.order} exceeds the search bound {bound}"
        )
    if len(a1) > MAX_TUPLE_LENGTH or len(a2) > MAX_TUPLE_LENGTH:
        raise RamificationError(
            f"tuple lengths are capped at {MAX_TUPLE_LENGTH} for searches"
        )
    keys = []
    for key in iter_structure_keys(group, (a1, a2)):
        keys.append(key)
        if limit is not None and len(keys) >= limit:
            break
    keys.sort()
    out = []
    for key in keys:
        t1 = validate_spherical(group, key[:len(a1)])
        t2 = validate_spherical(group, key[len(a1):])
        out.append(RamificationStructure(t1, t2))
    return out
