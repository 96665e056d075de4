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

Side 2 runs its first entry over every element of G but backtracks only
from class representatives.  The tuples that start at e are exactly the
conjugates t u t^-1 of the tuples u that start at the representative r of
e's class, where t^-1 e t = r (`FiniteGroup._transversal`).  The
representative is the least member of its class, so it is the first entry
of its class that the enumeration meets: its batch streams as the
backtracking finds it, and it is complete by the time another member e
comes up.  The batch of e is then the conjugated batch of r, sorted by the
enumeration's own order, the key [(o(x), x) for x in tuple].  So side 2
yields the stream of the backtracking over every first entry, tuple for
tuple and in order; the tests keep that backtracking as the oracle.

A search pays for each check once, and only on tuples that start at a
class representative.  The enumeration yields `SphericalSystem`s, never
bare tuples: a tuple that the backtracking finds becomes its system where
it is found, validated (`validate_spherical`) but not closed again, since
the enumeration proved it generating, and holding its Sigma class set.
On side 1 that happens only to the tuples that the C_G(r) filter keeps.
A conjugate t u t^-1 is built from its source system u with nothing left
to check: <t u t^-1> = t <u> t^-1 is G, conjugation keeps the product one
and the entry orders, so the signature is u's, and Sigma is a union of
classes, so the class set is u's (the same object).  Both sides share one
generation test, memoised by entry set (`_generation_test`); it is made per
search and dies with it, and nothing is kept on the group.  A system built
outside a search is closed once and computes its class set on first use;
the image of a system in a quotient G/H is not closed at all, since a
projection of a generating tuple generates G/H (`quotient_system`).

The Sigma buckets, the pairing and the result all hold those systems.  A
side's buckets are indexed by class set, and that index is the side's one
table of class sets: a system that joins a bucket is handed the class-set
object of the bucket's first member, so equal class sets of one side are
one object, and a search's memory does not grow with a copy per system.
The members of a bucket share one class set, so the pairing tests each
pair of buckets once, with `is_disjoint` on their first members, and that
is the search's one disjointness check: the result is built from the pairs
it proved (`RamificationStructure._proved`).  Every t1 has the length of side
1's type, so sorting the pairs by (t1.entries, t2.entries) sorts the keys
t1 + t2.

The pairing reads each side only as far as the pairs taken need, so
`limit=k` stops after k + 1 pairs.  A side's Sigma buckets are filled as
its systems arrive: a new Sigma-set opens a bucket at the end of the
bucket list, and a system joins its bucket at the end.  A reader that
gets past the end of the bucket list, or of one bucket, pulls systems
until that list grows or the side runs out.  Both lists only grow at their ends, so every
reader meets the buckets and the members in the order of a side read in
full first; the loops over them (bucket of side 1, disjoint bucket of side
2, t1, t2) are those of that full reading, and so are the pair stream and
its order.  Side 2 is not started while side 1 has yielded no system.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .groups import FiniteGroup, QuotientGroup

DEFAULT_SEARCH_BOUND = 512
MAX_TUPLE_LENGTH = 6
_ONLY_IDENTITY = frozenset({0})  # the class set of {id}
_INT_ONLY = frozenset({int})  # the entry types that need no conversion


class RamificationError(ValueError):
    """Invalid spherical system, impossible type, or exceeded search bound."""


# ---------------------------------------------------------------------------
# spherical systems


@dataclass(frozen=True, init=False)
class SphericalSystem:
    """A validated generating tuple with product one; `signature` is the
    sorted multiset of entry orders (the system's type)."""

    group: FiniteGroup
    entries: tuple[int, ...]
    signature: tuple[int, ...]

    def __init__(self, group: FiniteGroup, entries: tuple[int, ...],
                 signature: tuple[int, ...]):
        # the instance is frozen: the fields go straight into its dict, which
        # is cheaper than the generated __init__'s object.__setattr__ calls
        fields = self.__dict__
        fields["group"] = group
        fields["entries"] = entries
        fields["signature"] = signature

    @property
    def length(self) -> int:
        return len(self.entries)

    def words(self) -> list[str]:
        return [self.group.word(i) for i in self.entries]

    def genus(self) -> int:
        return self._genus

    @cached_property
    def _genus(self) -> int:
        """The genus, computed on first use and kept on the instance, as
        `sigma` is; not a field either."""
        return genus(self.group.order, self.signature)

    @cached_property
    def sigma(self) -> frozenset[int]:
        """Sigma(T) as class indices, computed on first use; not a field, so
        equality and hashing are those of (group, entries, signature)."""
        return _sigma_classes(self.group, self.entries)

    def _holding(self, sigma: frozenset[int]) -> SphericalSystem:
        """This system, with `sigma` as its known class set (equal to its
        own): the one place a search hands a system its Sigma instead of
        computing it, or swaps it for its bucket's equal object."""
        self.__dict__["sigma"] = sigma
        return self


def _generation_test(group: FiniteGroup):
    """The generation test of one search, memoised by entry set: a closure
    that the search makes and drops, so nothing is kept on the group."""
    generating: dict[frozenset, bool] = {}

    def generates(entries) -> bool:
        key = frozenset(entries)
        hit = generating.get(key)
        if hit is None:
            hit = generating[key] = len(group.closure(key)) == group.order
        return hit

    return generates


def validate_spherical(group: FiniteGroup, entries, generates=None) -> SphericalSystem:
    """Check the spherical-system axioms and compute the type.  `generates`
    is the generation test of the caller's search (one closure without).
    An entry that is not an integer is refused first (named by its 1-based
    position), then an index out of range, then an identity entry (named by
    its position), then a product other than the identity."""
    idx = tuple(entries)
    if set(map(type, idx)) != _INT_ONLY:
        idx = tuple(map(_element_index, itertools.count(1), idx))
    _check_length(len(idx))
    n, mul, prod = group.order, group._mul, 0
    for e in idx:
        if not 0 <= e < n:
            raise RamificationError(f"element index {e} out of range")
        prod = mul[prod][e]
    orders = list(map(group.element_orders.__getitem__, idx))
    if 1 in orders:
        raise RamificationError(
            f"entry {orders.index(1) + 1} (id) is the identity "
            "(order-1 entries are not allowed)"
        )
    if prod != 0:
        raise RamificationError(
            f"product of the entries is {group.word(prod)}, not the identity"
        )
    if not (generates(idx) if generates else len(group.closure(idx)) == group.order):
        raise RamificationError("the entries do not generate the group")
    return SphericalSystem(group, idx, tuple(sorted(orders)))


def _element_index(pos: int, entry) -> int:
    """`entry`, the 1-based `pos`-th entry of a tuple, as an element index:
    an int, or what `operator.index` takes for one, but never a bool."""
    if not isinstance(entry, bool):
        try:
            return operator.index(entry)
        except TypeError:
            pass
    raise RamificationError(f"entry {pos} ({entry!r}) is not an element index")


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


@dataclass(frozen=True, init=False)
class RamificationStructure:
    """A disjoint pair of spherical systems over one group."""

    t1: SphericalSystem
    t2: SphericalSystem

    def __init__(self, t1: SphericalSystem, t2: SphericalSystem):
        if not is_disjoint(t1, t2):
            raise RamificationError(
                "the two systems are not disjoint: the diagonal action is not free"
            )
        # frozen: the fields go straight into the dict, as in SphericalSystem
        fields = self.__dict__
        fields["t1"] = t1
        fields["t2"] = t2

    @classmethod
    def _proved(cls, t1: SphericalSystem, t2: SphericalSystem) -> RamificationStructure:
        """The structure of a pair that a search's pairing has already found
        disjoint (`_disjoint_pairs`), built without checking it again; every
        other caller goes through the checking constructor."""
        structure = cls.__new__(cls)
        fields = structure.__dict__
        fields["t1"] = t1
        fields["t2"] = t2
        return structure

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

    A trivial quotient yields genus 0 with no system.  Otherwise the system
    is built straight from the projection, with no check left to make: the
    projection is a homomorphism onto G/H, so the images of a tuple that
    multiplies to one and generates G multiply to one and generate G/H, and
    dropping identity images changes neither.  A nontrivial G/H is not
    generated by one element of product one, so at least two images
    survive; two survivors are x and x^-1, which generate a cyclic G/H of
    order m = o(x), and genus(m, (m, m)) = 0.  A system over a group other
    than G is refused.
    """
    if system.group is not quot.kernel.group:
        raise RamificationError("the system does not belong to the quotient's group")
    q = quot.group
    if q.order == 1:
        return QuotientSystem(quot, None, tuple(range(system.length)))
    images = [quot.projection[e] for e in system.entries]
    survivors = tuple(x for x in images if x)
    dropped = tuple(i for i, x in enumerate(images) if not x)
    signature = tuple(sorted(map(q.element_orders.__getitem__, survivors)))
    return QuotientSystem(quot, SphericalSystem(q, survivors, signature), dropped)


# ---------------------------------------------------------------------------
# search


def _systems_of_type(group: FiniteGroup, signature, first_entry_reps: bool,
                     generates):
    """Yield the `SphericalSystem`s of the given type, in the order of the
    key [(o(x), x) for x in entries]: the first entry's order ascending,
    then the first entry ascending, then the same for the next entries.  The
    final entry is forced by the product constraint, and generation is
    tested by the search's `generates`.  A tuple that the backtracking finds
    becomes its system there: validated through `generates`, holding its
    Sigma class set.

    When `first_entry_reps` is set (side 1), the first entry only runs over
    conjugacy class representatives r, and only the tuples least among
    their conjugates under C_G(r) are kept, and only they are validated:
    see the module docstring.  Otherwise (side 2) the first entry runs over
    every element e of G, but only the systems that start at the
    representative r of e's class are found by backtracking; those that
    start at e are their conjugates (`_conjugate_batch`).
    """
    signature = tuple(sorted(signature))
    by_order: dict[int, list[int]] = {}
    for i in range(1, group.order):
        by_order.setdefault(group.element_orders[i], []).append(i)
    if any(m not in by_order for m in set(signature)):
        return
    rank = [0] * group.order  # x's place in the order of (o(x), x)
    for i, x in enumerate(x for m in sorted(by_order) for x in by_order[m]):
        rank[x] = i
    class_of = group.class_of
    for m, rest in _each_order_once(signature):
        if first_entry_reps:
            first = [c.representative for c in group.conjugacy_classes
                     if c.element_order == m]
        else:
            first = by_order[m]
        batches: dict[int, list[SphericalSystem]] = {}  # by class of the first entry
        for e in first:
            batch = batches.get(class_of[e])
            if batch is None:
                # e is the representative: the least member of its class, so
                # the first one met; its systems stream as they are found
                batch = batches[class_of[e]] = []
                for t in _extend_tuples(group, generates, by_order, [e], e, rest):
                    if first_entry_reps and group.min_conjugate(t) != t:
                        continue
                    system = validate_spherical(group, t, generates)._holding(
                        _sigma_classes(group, t))
                    batch.append(system)
                    yield system
            else:
                yield from _conjugate_batch(group, batch, e, rank)


def _each_order_once(signature: tuple[int, ...]):
    """(m, rest) for each distinct m of the sorted `signature`, ascending,
    where rest is `signature` less one m (still sorted)."""
    for pos, m in enumerate(signature):
        if pos == 0 or signature[pos - 1] != m:
            yield m, signature[:pos] + signature[pos + 1:]


def _extend_tuples(group: FiniteGroup, generates, by_order, prefix: list[int],
                   prod: int, remaining: tuple[int, ...]):
    """The generating tuples of product one that extend `prefix`, whose
    product is `prod`, by entries of the sorted orders `remaining`; `prefix`
    grows and shrinks back as the backtracking goes.  A module-level
    generator, not a closure over itself, so a search leaves no reference
    cycle holding its group and generation test."""
    if len(remaining) == 1:
        last = group.inverse(prod)
        if (
            group.element_orders[last] == remaining[0]
            and generates(tuple(prefix) + (last,))
        ):
            yield tuple(prefix) + (last,)
        return
    for m, rest in _each_order_once(remaining):
        for e in by_order[m]:
            prefix.append(e)
            yield from _extend_tuples(group, generates, by_order,
                                      prefix, group.mul(prod, e), rest)
            prefix.pop()


def _conjugate_batch(group: FiniteGroup, batch, e: int, rank):
    """The systems that start at `e`, from the complete `batch` of those
    that start at the representative r of e's class: with t^-1 e t = r, they
    are the t u t^-1 for u in `batch`, yielded in enumeration order
    (`rank`).  Nothing is checked: <t u t^-1> = t <u> t^-1 is G, and
    conjugation keeps the product one and the entry orders, so each gets
    u's signature, and Sigma is a union of classes, so it gets u's class set
    (the same object)."""
    mul, inv = group._mul, group._inv
    t = group._transversal[0][e]
    left, t_inv = mul[t], inv[t]
    images = [(tuple([mul[left[x]][t_inv] for x in u.entries]), u) for u in batch]
    images.sort(key=lambda pair: [rank[x] for x in pair[0]])
    for image, u in images:
        yield SphericalSystem(group, image, u.signature)._holding(u.sigma)


def iter_structure_pairs(group: FiniteGroup, type_pair):
    """The pairs (t1, t2) of systems of all structures of the given type
    pair, in discovery order, without duplicates; t1.entries + t2.entries is
    the structure's canonical key.  Both sides share one generation test
    (`_generation_test`), made here for this search only; each side's Sigma
    buckets keep its one table of class sets."""
    a1, a2 = type_pair
    generates = _generation_test(group)
    return _disjoint_pairs(_systems_of_type(group, a1, True, generates),
                           _systems_of_type(group, a2, False, generates))


class _SigmaBuckets:
    """The systems of one side grouped by Sigma class set, pulled from the
    side only as far as a reader asks: the buckets, each the list of its
    members, in order of first appearance, each bucket's members in side
    order.  The index by class set is the side's one table of class sets:
    a system that joins a bucket is handed the class-set object of the
    bucket's first member, so the members of a bucket share one object."""

    def __init__(self, side):
        self._side = iter(side)
        self._read_all = False
        self._by_sigma: dict[frozenset, list] = {}
        self._buckets: list[list] = []

    def _reach(self, items: list, i: int) -> bool:
        """Pull systems until `items` (the bucket list or one bucket) has an
        item i; False when the side runs out first."""
        while len(items) <= i:
            system = next(self._side, None)
            if system is None:
                self._read_all = True
                return False
            sigma = system.sigma
            members = self._by_sigma.get(sigma)
            if members is None:
                members = self._by_sigma[sigma] = []
                self._buckets.append(members)
            elif members[0].sigma is not sigma:
                # a conjugate already holds its source's class set, which is
                # the bucket's object; a backtracked system holds its own
                system._holding(members[0].sigma)
            members.append(system)
        return True

    def __iter__(self):
        return iter(self.read(self._buckets))

    def read(self, items: list):
        """`items`, the bucket list or one bucket, from its first item,
        pulling systems as the reader gets past what has been read; once the
        side has run out, `items` is complete and is read as it stands."""
        return items if self._read_all else self._pulled(items)

    def _pulled(self, items: list):
        i = 0
        while self._reach(items, i):
            yield items[i]
            i += 1


def _disjoint_pairs(side1, side2):
    """Every pair (t1, t2) of systems with Sigma-sets meeting only in the
    identity, bucket by bucket, in the order of the two sides; each side is
    read only as far as the pairs taken need.  The members of a bucket share
    one Sigma, so each pair of buckets is tested once, by `is_disjoint` on
    its first members."""
    buckets1, buckets2 = _SigmaBuckets(side1), _SigmaBuckets(side2)
    for bucket1 in buckets1:
        for bucket2 in buckets2:
            if is_disjoint(bucket1[0], bucket2[0]):
                for t1 in buckets1.read(bucket1):
                    for t2 in buckets2.read(bucket2):
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
    that Riemann-Hurwitz refuses for |G| raises before any enumeration.

    The pairing has proved every pair disjoint, once per pair of Sigma
    buckets (`_disjoint_pairs`), so each structure is built without the
    check (`RamificationStructure._proved`).  Every t1 has the length of
    side 1's type, so sorting by (t1.entries, t2.entries) sorts the keys."""
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
    pairs = list(itertools.islice(iter_structure_pairs(group, (a1, a2)),
                                  None if limit is None else limit + 1))
    limited = limit is not None and len(pairs) > limit
    if limited:
        pairs.pop()  # one more structure exists; it is not kept
    pairs.sort(key=lambda pair: (pair[0].entries, pair[1].entries))
    return list(itertools.starmap(RamificationStructure._proved, pairs)), limited
