"""The slow structure search that the tests compare the pruned one against.

It enumerates every tuple of G^r, canonicalises every Sigma-disjoint pair
by `min_conjugate` over the whole tuple and keeps each key at its first
visit.  It shares only the pairing (`_disjoint_pairs`) with the program.
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


def naive_structure_keys(group, type_pair):
    """Canonical keys of all structures of the given type pair, in discovery
    order, without duplicates, from every pair of the exhausted sides."""
    a1, a2 = type_pair
    side1 = list(naive_systems_of_type(group, a1))
    side2 = (
        side1 if tuple(sorted(a1)) == tuple(sorted(a2))
        else list(naive_systems_of_type(group, a2))
    )
    seen = set()
    for t1, t2 in rm._disjoint_pairs(side1, side2, rm._sigma_memo(group)):
        key = group.min_conjugate(t1 + t2)
        if key not in seen:
            seen.add(key)
            yield key


def canonical_key(structure):
    """The lexicographically least simultaneous conjugate of t1 + t2."""
    return structure.group.min_conjugate(structure.t1.entries + structure.t2.entries)
