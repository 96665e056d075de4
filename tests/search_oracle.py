"""The slow searches that the tests compare the program's search against.

`naive_structure_keys` enumerates every tuple of G^r, canonicalises every
Sigma-disjoint pair by `min_conjugate` over the whole tuple and keeps each
key at its first visit.  It shares only the pairing (`_disjoint_pairs`)
with the program.

`backtracking_systems_of_type` is the enumeration of a search's second side
before it conjugated: it backtracks from every first entry of G and closes
every entry set itself.  The program's side 2 yields its stream, tuple for
tuple and in order.
"""

import itertools

from isoprod import ramification as rm


def naive_systems_of_type(group, signature):
    """All entry tuples of the given type by plain exhaustion over G^r."""
    signature = tuple(sorted(signature))
    full = frozenset(range(group.order))
    gen_cache = {}
    for t in itertools.product(range(group.order), repeat=len(signature)):
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
            hit = gen_cache[key] = group.closure(key) == full
        if hit:
            yield t


def backtracking_systems_of_type(group, signature):
    """The generating tuples of product one of the given type, backtracking
    over positions from every first entry: at each position the orders left
    ascending, then the elements of that order ascending; the final entry is
    forced by the product."""
    by_order = {}
    for x in range(1, group.order):
        by_order.setdefault(group.element_orders[x], []).append(x)
    full = frozenset(range(group.order))
    gen_cache = {}

    def generates(t):
        key = frozenset(t)
        if key not in gen_cache:
            gen_cache[key] = group.closure(key) == full
        return gen_cache[key]

    def extend(prefix, prod, remaining):
        if len(remaining) == 1:
            last = group.inverse(prod)
            t = tuple(prefix) + (last,)
            if group.element_orders[last] == remaining[0] and generates(t):
                yield t
            return
        for m in sorted(set(remaining)):
            rest = list(remaining)
            rest.remove(m)
            for x in by_order.get(m, ()):
                yield from extend(prefix + [x], group.mul(prod, x), rest)

    yield from extend([], 0, sorted(signature))


def naive_structure_keys(group, type_pair):
    """Canonical keys of all structures of the given type pair, in discovery
    order, without duplicates, from every pair of the validated systems of
    the exhausted sides."""
    a1, a2 = type_pair
    side1 = [rm.validate_spherical(group, t) for t in naive_systems_of_type(group, a1)]
    side2 = (
        side1 if tuple(sorted(a1)) == tuple(sorted(a2))
        else [rm.validate_spherical(group, t) for t in naive_systems_of_type(group, a2)]
    )
    seen = set()
    for t1, t2 in rm._disjoint_pairs(side1, side2):
        key = group.min_conjugate(t1.entries + t2.entries)
        if key not in seen:
            seen.add(key)
            yield key


def canonical_key(structure):
    """The lexicographically least simultaneous conjugate of t1 + t2."""
    return structure.group.min_conjugate(structure.t1.entries + structure.t2.entries)
