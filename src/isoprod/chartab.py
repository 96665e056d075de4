"""Exact character tables and their rational bookkeeping.

The linear characters are built directly, as the characters of the
abelian quotient G/G', with values zeta_e^a read from exponents a mod
e = exp(G).  The others come from the Burnside-Dixon method, seeded with
the linear ones as in Schneider ("Dixon's character table algorithm
revisited", J. Symb. Comput. 1990): the class-sum matrices are
simultaneously diagonalized over a prime field F_p with p = 1 (mod exp(G))
and p > 2*ceil(sqrt(|G|)), but only on the common kernel of the pairings
with the linear characters, which the nonlinear eigenvectors span.  An
abelian group needs no split at all.  The eigenvalue multiplicities, which
the bound on p makes unique, are lifted on one class of each rational
class {C^t : t prime to o(C)} and permuted by s -> s*t on the others,
since chi(C^t) has the eigenvalues of chi(C) raised to the t-th power.
The values are reassembled exactly as cyclotomic numbers of conductor
dividing the element order.

The split takes the class matrices in canonical class order, each built
only when it is reached and kept as sparse columns, and restricts M_j to
every space not yet one-dimensional.
On a restriction R of dimension d (diagonalizable: the class algebra is
semisimple mod p) the eigenvalues are the roots of the minimal polynomial
of the first unit vector, found by elimination along its Krylov vectors
(Wiedemann 1986) in O(d^3); the kernel of R - lambda is taken once per
root, and while the kernels add up to less than d the same step runs from
the first unit vector outside their span, which must meet a new root.  No
floating point, no randomization.  The result does not depend on the order
the spaces are found in: each common eigenvector is unique up to a scalar,
it is normalized by its identity-class entry, and the rows are sorted by
`Character.sort_key`, so the table is the one any complete split gives.

On top of the complex table this module computes Frobenius-Schur
indicators, the partition of the irreducibles into Galois orbits
(rational characters with a Schur-index annotation), Broughton's
restriction multiplicities l_g(chi), read at most once per class of each
character (kernels read them: g is in ker chi iff l_g(chi) = chi(1)), and
the rational central idempotents of the group algebra.

Each table holds each distinct value as one object and is keyed once by
value (`CharacterTable.value_index`): the distinct values, and every row
as a tuple of their positions.  For t prime to exp(G), chi^sigma_t(C) =
chi(C^t), so every Galois image of a row is that row with its columns
permuted by a class power map.  The index checks this once, on generators
of the unit group and with one `galois` call per distinct value each, and
refuses a table that fails it; orbits are then found on rows of ints.  An
orbit's rational character is f = |orbit| times the mean of the Galois
conjugates of its first row, sum_k c_k mu(m)/phi(m) with m = n/gcd(n, k)
for a value sum_k c_k zeta_n^k (a Ramanujan sum over phi(n)), read from
one trace per distinct value; l_g(chi) is a mean of the same traces.  Only
the indicator and a cached table's column check add values as cyclotomic
numbers; a cached table's row orthogonality is checked in F_p, on each
distinct value reduced once.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import re
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from hashlib import sha256

from .cyclotomic import (
    CyclotomicNumber,
    Rational,
    divisors,
    is_prime,
    parse_cyclotomic,
    prime_factors,
    render_cyclotomic,
)
from .groups import FiniteGroup, Subgroup


class CharacterTableError(RuntimeError):
    """Internal defect: the engine produced something non-characterlike."""


class CacheError(ValueError):
    """The character-table cache directory cannot be created or written."""


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class Character:
    """A class function with cyclotomic values, one per conjugacy class."""

    group: FiniteGroup
    values: tuple[CyclotomicNumber, ...]

    @cached_property
    def degree(self) -> int:
        return self.values[0].as_integer()

    def sort_key(self):
        return (self.degree, tuple(v.sort_key() for v in self.values))

    @cached_property
    def _trivial_multiplicities(self) -> dict[int, int]:
        return {}  # class of g -> l_g, filled by trivial_restriction_multiplicity

    def __str__(self):
        return "[" + ", ".join(str(v) for v in self.values) + "]"


class CharacterTable:
    def __init__(self, group: FiniteGroup, irreducibles):
        self.group = group
        self.irreducibles = tuple(irreducibles)
        k = len(group.conjugacy_classes)
        if len(self.irreducibles) != k:
            raise CharacterTableError(
                f"expected {k} irreducibles, got {len(self.irreducibles)}"
            )

    def __iter__(self):
        return iter(self.irreducibles)

    def __len__(self):
        return len(self.irreducibles)

    def __getitem__(self, i):
        return self.irreducibles[i]

    @cached_property
    def trivial_index(self) -> int:
        one = CyclotomicNumber.from_rational(1)
        for i, chi in enumerate(self.irreducibles):
            if all(v == one for v in chi.values):
                return i
        raise CharacterTableError("no trivial character found")

    @cached_property
    def value_index(self) -> "ValueIndex":
        """The distinct values once each, every row as a tuple of their
        positions, and the Galois action on the columns.

        For each generator t of (Z/e)^*, e = exp(G), it checks once that the
        class power map C -> C^t acts on every row as sigma_t does on its
        values, chi(C^t) = sigma_t(chi(C)): one `galois` call per distinct
        value.  The two actions then agree for every unit t, so a row with
        its columns permuted by power maps is a Galois image of it."""
        group = self.group
        classes = range(len(group.conjugacy_classes))
        ids: dict[CyclotomicNumber, int] = {}
        rows = tuple(tuple(ids.setdefault(v, len(ids)) for v in chi.values) for chi in self)
        values = tuple(ids)
        columns = []
        for t in _unit_generators(group.exponent):
            perm = tuple(group.class_power_map(k, t) for k in classes)
            image = [ids.get(v.galois(t)) for v in values]
            if any([image[i] for i in row] != [row[c] for c in perm] for row in rows):
                raise CharacterTableError(
                    f"the class power map C -> C^{t} is not the Galois action on the rows"
                )
            columns.append(perm)
        return ValueIndex(values, rows, tuple(columns))


@dataclass(frozen=True)
class ValueIndex:
    """A character table keyed by value: `rows[i][k]` is the position of
    chi_i(C_k) in `values`, and each of `galois_columns` is a class power map
    C -> C^t that `CharacterTable.value_index` has checked to be sigma_t."""

    values: tuple[CyclotomicNumber, ...]
    rows: tuple[tuple[int, ...], ...]
    galois_columns: tuple[tuple[int, ...], ...]


def _unit_generators(e: int) -> list[int]:
    """Generators of the unit group (Z/e)^*, taken greedily: each unit not
    in the subgroup of those before it joins them (none for e <= 2)."""
    gens, reached = [], {1}
    for t in range(2, e):
        if t not in reached and math.gcd(t, e) == 1:
            gens.append(t)
            # <H, t> is the union of the cosets H t^i, up to the first t^i in H
            power, grown = t, set(reached)
            while power not in reached:
                grown.update(r * power % e for r in reached)
                power = power * t % e
            reached = grown
    return gens


@dataclass(frozen=True)
class RationalCharacter:
    """A Galois orbit of complex irreducibles, i.e. an irreducible rational
    representation, annotated with its character-field degree and Schur index.

    `schur_heuristic` is True when the Schur-index policy could not certify
    the value (indicator 0, or indicator -1 with irrational real values);
    consumers must surface the flag.
    """

    table: CharacterTable
    indices: tuple[int, ...]
    schur_index: int
    schur_heuristic: bool

    @property
    def field_degree(self) -> int:
        return len(self.indices)

    @property
    def complex_degree(self) -> int:
        return self.table[self.indices[0]].degree

    @property
    def rational_dimension(self) -> int:
        return self.schur_index * self.complex_degree * self.field_degree

    @cached_property
    def rational_values(self) -> tuple[int, ...]:
        """Values of the rational character s * sum over the orbit.

        The orbit of chi is a Galois orbit (`CharacterTable.value_index`
        checked the action), so its sum at C is f = |orbit| times the mean
        of the Galois conjugates of chi(C), its `mean_trace`.
        A sum over a Galois orbit of an algebraic integer is an integer, so
        each value is an int; a table whose sum is not one is refused."""
        index = self.table.value_index
        scale = self.schur_index * len(self.indices)
        row = index.rows[self.indices[0]]
        sums = {}
        for i in set(row):  # once per distinct value
            q = index.values[i].mean_trace() * scale
            if q.denominator != 1:
                raise CharacterTableError(
                    f"orbit sum {q} is not an integer: corrupted class function")
            sums[i] = q.numerator
        return tuple(sums[i] for i in row)

    def kernel(self) -> Subgroup:
        """Common kernel of the constituents: the classes where l_g(chi) = chi(1).

        It is read from the orbit's first row alone.  Each member row is that
        row with its columns permuted by a power map C -> C^t (`galois_orbits`
        checked it), and l_g at class k sums over {C_k^s}, the same classes as
        {C_k^(st)}: every member has the same kernel.  Its generators are the
        sorted members outside the span of those before them."""
        group = self.table.group
        classes = group.conjugacy_classes
        chi = self.table[self.indices[0]]
        members = frozenset(x for c in classes
                            if trivial_restriction_multiplicity(chi, c.representative) == chi.degree
                            for x in c.members)
        gens: list[int] = []
        span = frozenset({0})
        for x in sorted(members):
            if x not in span:
                gens.append(x)
                span = group.closure(gens)
        if span != members:  # a union of classes need not be a subgroup
            raise CharacterTableError("kernel is not a subgroup (corrupt values)")
        return Subgroup(group, members, tuple(gens))


@dataclass(frozen=True)
class GroupAlgebraElement:
    """An element of Q[G], dense rational coefficients indexed by element."""

    group: FiniteGroup
    coefficients: tuple[Rational, ...]


# ---------------------------------------------------------------------------
# mod-p linear algebra helpers


def _poly_roots_mod_p(coeffs, p):
    """All roots in F_p of the polynomial with ascending coefficients."""
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def _rref_mod_p(rows, p):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [rows[i] for i in range(r)], pivots


def _kernel_mod_p(mat, p):
    """Basis of the kernel of mat (list of rows) over F_p."""
    n = len(mat[0])
    rref, pivots = _rref_mod_p(mat, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for r, c in zip(rref, pivots):
            vec[c] = (-r[f]) % p
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# the Dixon engine


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p > 2*ceil(sqrt(order))."""
    floor = 2 * math.isqrt(order - 1) + 2 if order > 1 else 2
    p = exponent + 1
    while True:
        if p > floor and is_prime(p):
            return p
        p += exponent


def _primitive_root(p: int) -> int:
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise CharacterTableError(f"no primitive root mod {p}")


def _class_matrices(group: FiniteGroup):
    """Yield the class-sum matrices M_j in canonical class order, each as
    its columns: column k of M_j is the list of nonzero (l, count) pairs
    with count = #{x in C_j : x^-1 z_k in C_l}, at most |C_j| of them.
    A matrix is built only when the split asks for it."""
    classes = group.conjugacy_classes
    class_of = group.class_of
    inv = group.inverse
    mul = group.mul
    for cls in classes:
        inverses = [inv(x) for x in cls.members]
        columns = []
        for c in classes:
            z = c.representative
            counts: dict[int, int] = {}
            for y in inverses:
                l = class_of[mul(y, z)]
                counts[l] = counts.get(l, 0) + 1
            columns.append(list(counts.items()))
        yield columns


def _krylov_minpoly(rmat, v, p):
    """Monic minimal polynomial of v under rmat over F_p, ascending
    coefficients, by elimination along the Krylov vectors v, Rv, R^2 v, ...

    Each reduced vector u is kept with the polynomial q such that u = q(R) v;
    the first R u that reduces to 0 gives the annihilating polynomial of
    least degree."""
    d = len(v)
    echelon = []  # (pivot, u with u[pivot] = 1, its polynomial q)
    u, q = list(v), [1]
    while True:
        for piv, row, poly in echelon:
            f = u[piv]
            if f:
                u = [(a - f * b) % p for a, b in zip(u, row)]
                for i, b in enumerate(poly):  # poly is shorter than q
                    q[i] = (q[i] - f * b) % p
        piv = next((i for i, a in enumerate(u) if a), None)
        if piv is None:
            lead = pow(q[-1], -1, p)
            return [(a * lead) % p for a in q]
        f = pow(u[piv], -1, p)
        u = [(a * f) % p for a in u]
        q = [(a * f) % p for a in q]
        echelon.append((piv, u, q))
        u = [sum(r * a for r, a in zip(rmat[i], u)) % p for i in range(d)]
        q = [0] + q


def _eigenspaces(rmat, p):
    """The eigenvalues of the diagonalizable d x d matrix rmat over F_p,
    each with a basis of its kernel, in order of discovery.

    The eigenvalues are the roots of the minimal polynomial of the first
    unit vector; while their kernels add up to less than d, the first unit
    vector outside their span has a component in a missing eigenspace, so
    its minimal polynomial has a new root."""
    d = len(rmat)
    found = []
    seen: set[int] = set()
    dim = 0
    start = 0
    while dim < d:
        v = [0] * d
        v[start] = 1
        roots = [lam for lam in _poly_roots_mod_p(_krylov_minpoly(rmat, v, p), p)
                 if lam not in seen]
        if not roots:
            raise CharacterTableError("eigenspace splitting lost dimensions")
        for lam in roots:
            shifted = [[(rmat[i][j] - (lam if i == j else 0)) % p for j in range(d)]
                       for i in range(d)]
            kernel = _kernel_mod_p(shifted, p)
            seen.add(lam)
            found.append((lam, kernel))
            dim += len(kernel)
        if dim < d:  # the first unit vector outside the span found so far
            pivots = set(_rref_mod_p([k for _, ks in found for k in ks], p)[1])
            start = next(i for i in range(d) if i not in pivots)
    return found


def _split_spaces(mats, p, nc, basis):
    """Common one-dimensional eigenspaces of the commuting matrices `mats`
    (as `_class_matrices` yields them) inside the invariant subspace spanned
    by the rows of `basis`."""
    spaces = [basis]
    # the identity-class matrix is the identity
    for columns in itertools.islice(mats, 1, None):
        if all(len(b) == 1 for b in spaces):
            break
        out = []
        for space in spaces:
            d = len(space)
            if d == 1:
                out.append(space)
                continue
            # restriction R: M b_a = sum_z R[z][a] b_z, read off at the pivot
            # columns of the RREF basis; M b_a is a sum of sparse columns
            rref, pivots = _rref_mod_p(space, p)
            rmat = [[0] * d for _ in range(d)]
            for a, b in enumerate(rref):
                img = [0] * nc
                for k, coef in enumerate(b):
                    if coef:
                        for l, count in columns[k]:
                            img[l] += count * coef
                for z, piv in enumerate(pivots):
                    rmat[z][a] = img[piv] % p
            eigen = _eigenspaces(rmat, p)
            if len(eigen) == 1:
                out.append(rref)
                continue
            for _, kernel in eigen:
                sub = []
                for kvec in kernel:
                    amb = [0] * nc
                    for a, coef in enumerate(kvec):
                        if coef:
                            for t, x in enumerate(rref[a]):
                                amb[t] += coef * x
                    sub.append([x % p for x in amb])
                out.append(_rref_mod_p(sub, p)[0])
        spaces = out
    # p = 1 (mod exp G), p prime to |G|: the class matrices split the centre (Dixon 1967).
    if not all(len(b) == 1 for b in spaces):
        raise CharacterTableError(
            "class matrices failed to split the class algebra (engine defect)"
        )
    return [b[0] for b in spaces]


def _linear_characters(group: FiniteGroup) -> list[list[int]]:
    """Every linear character lambda of `group`, as the exponents a with
    lambda(C_k) = zeta_e^a[k], e = exp(G).

    They are the characters of the abelian G/G', built along
    <g1> < <g1,g2> < ... of its generators.  For a generator g with g^k in H
    and k minimal, each lambda on H extends to <H, g> in k ways,
    lambda(g) = (lambda(g^k) + e*j)/k for j < k: k divides o(g), which
    divides e, and lambda(g^k) is a multiple of k as (g^k)^(o(g)/k) = 1."""
    e = group.exponent
    quo = group.quotient(group.derived_subgroup())
    ab = quo.group
    members, pos = [0], {0: 0}  # H, and each element's place in `members`
    chars = [[0]]  # chars[i][m]: exponent of the i-th character at members[m]
    for g in ab.generators:
        k, x = 1, g
        while x not in pos:
            x, k = ab.mul(x, g), k + 1
        if k == 1:
            continue
        at = pos[x]
        powers = [0]
        for _ in range(k - 1):
            powers.append(ab.mul(powers[-1], g))
        members = [ab.mul(h, y) for y in powers for h in members]  # cosets H g^i
        pos = {h: m for m, h in enumerate(members)}
        chars = [
            [(v + i * b) % e for i in range(k) for v in lam]
            for lam in chars
            for b in [(lam[at] + e * j) // k for j in range(k)]
        ]
    reps = [pos[quo.project(c.representative)] for c in group.conjugacy_classes]
    return [[lam[m] for m in reps] for lam in chars]


def character_table(group: FiniteGroup) -> CharacterTable:
    """The exact table of irreducible complex characters of `group`."""
    classes = group.conjugacy_classes
    e = group.exponent
    built: dict = {}

    def value(n, terms):
        """sum m * zeta_n^s over the sorted (s, m) pairs, built once per table;
        equal values from different (n, terms) are one object."""
        v = built.get((n, terms))
        if v is None:
            v = CyclotomicNumber.from_terms(n, dict(terms))
            v = built[n, terms] = built.setdefault(v, v)
        return v

    linear = _linear_characters(group)
    rows = [
        tuple(value(c.element_order, ((a * c.element_order // e, 1),))
              for a, c in zip(lam, classes))
        for lam in linear
    ]
    if len(linear) < len(classes):
        rows += _nonlinear_characters(group, linear, value)
    irreducibles = sorted((Character(group, r) for r in rows), key=Character.sort_key)
    table = CharacterTable(group, irreducibles)
    if sum(chi.degree ** 2 for chi in table) != group.order:
        raise CharacterTableError("degrees are inconsistent with the group order")
    return table


def _nonlinear_characters(group: FiniteGroup, linear, value) -> list[tuple]:
    """The value rows of the nonlinear irreducibles, by Dixon's method on the
    complement of the linear characters (Schneider 1990)."""
    classes = group.conjugacy_classes
    nc = len(classes)
    order = group.order
    e = group.exponent
    p = dixon_prime(order, e)
    z = pow(_primitive_root(p), (p - 1) // e, p)
    inv_class = [group.class_of[group.inverse(c.representative)] for c in classes]
    sizes = [c.size for c in classes]

    # The eigenvector of chi is omega_chi(C_k) = |C_k| chi(C_k) / chi(1), and
    # sum_k omega_chi(C_k) lambda(C_k^-1) = |G| / chi(1) [chi = lambda] with p
    # prime to |G|: the nonlinear omega_chi span the common kernel of the
    # pairings with the linear lambda.
    pairing = [[pow(z, lam[inv_class[k]], p) for k in range(nc)] for lam in linear]
    vectors = _kernel_mod_p(pairing, p)
    if len(vectors) != nc - len(linear):
        raise CharacterTableError("linear characters are dependent mod p")
    if len(vectors) > 1:
        vectors = _split_spaces(_class_matrices(group), p, nc, vectors)

    # C^t for t prime to n = o(C) is a class of the same family as C, and
    # chi(C^t) has the eigenvalues of chi(C) raised to the t: zeta_n^s -> zeta_n^(s*t).
    # So the multiplicities are lifted on the first class of each family only.
    power_classes = group.power_classes
    family = [None] * nc  # family[j] = (k, t): C_j = C_k^t, C_k the first of the family
    for k, row in enumerate(power_classes):
        if family[k] is None:
            n = len(row)
            for t in range(1, n + 1):
                if math.gcd(t, n) == 1:
                    j = row[t % n]
                    if family[j] is None:
                        family[j] = (k, t)
    leaders = [k for k in range(nc) if family[k][0] == k]
    dft = {}  # dft[n][s][t] = zeta_n^(-s*t) mod p
    for n in {classes[k].element_order for k in leaders}:
        zn = pow(z, e // n, p)
        zpow = [pow(zn, j, p) for j in range(n)]
        dft[n] = [[zpow[(-s * t) % n] for t in range(n)] for s in range(n)]

    rows = []
    for w in vectors:
        if w[0] % p == 0:
            raise CharacterTableError("eigenvector vanishes on the identity class")
        norm = pow(w[0], -1, p)
        w = [(v * norm) % p for v in w]
        # |G| / d^2 = sum_k w[k] * w[k~] / |C_k|
        s = sum(w[k] * w[inv_class[k]] * pow(sizes[k], -1, p) for k in range(nc)) % p
        dsq = (order * pow(s, -1, p)) % p
        degree = next(
            (d for d in range(1, math.isqrt(order) + 1) if (d * d) % p == dsq), None
        )
        if degree is None:
            raise CharacterTableError("no admissible degree for an eigenvector")
        theta = [(degree * w[k] * pow(sizes[k], -1, p)) % p for k in range(nc)]
        multiplicities = {}
        for k in leaders:
            n = classes[k].element_order
            at_powers = [theta[c] for c in power_classes[k]]  # theta(C^t), t < n
            ninv = pow(n, -1, p)
            terms = []
            total = 0
            for s_exp, zrow in enumerate(dft[n]):
                mult = (sum(map(operator.mul, at_powers, zrow)) * ninv) % p
                if mult >= p // 2 + 1:
                    raise CharacterTableError("eigenvalue multiplicity failed to lift")
                if mult:
                    terms.append((s_exp, mult))
                total += mult
            if total != degree:
                raise CharacterTableError("eigenvalue multiplicities do not sum "
                                          "to the degree")
            multiplicities[k] = terms
        values = []
        for j, (k, t) in enumerate(family):
            n = classes[j].element_order
            terms = sorted((s * t % n, m) for s, m in multiplicities[k])
            values.append(value(n, tuple(terms)))
        rows.append(tuple(values))
    return rows


# ---------------------------------------------------------------------------
# derived data


def frobenius_schur(chi: Character) -> int:
    """(1/|G|) sum_g chi(g^2), exactly one of -1, 0, +1."""
    # An exact cyclotomic sum, not mean traces: it is the only cyclotomic
    # arithmetic of the perfbench `tables` workload, and that workload's
    # `cyclotomic.arith.calls` counter must not read zero.
    g = chi.group
    # the number of g with g^2 in C_j, then one cyclotomic term per class C_j
    squares: dict[int, int] = {}
    for k, cls in enumerate(g.conjugacy_classes):
        j = g.class_power_map(k, 2)
        squares[j] = squares.get(j, 0) + cls.size
    total = CyclotomicNumber.sum(chi.values[j] * count for j, count in squares.items())
    if not total.is_rational:
        raise CharacterTableError(f"indicator sum {total} is irrational: corrupted class function")
    nu = total.as_rational() / g.order
    if nu not in (-1, 0, 1):
        raise CharacterTableError(f"indicator {nu} outside {{-1,0,1}}")
    return int(nu)


def _schur_index(table: CharacterTable, indices) -> tuple[int, bool]:
    """Schur-index policy: certified where the standard witnesses apply,
    otherwise 1 with a heuristic flag.

    +1 indicator -> 1; degree one -> 1 (the index divides the degree);
    -1 indicator with rational values -> 2; anything else -> (1, flagged).
    """
    chi = table[indices[0]]
    fs = frobenius_schur(chi)
    if fs == 1:
        return 1, False
    if chi.degree == 1:
        return 1, False
    if fs == -1 and all(v.is_rational for v in chi.values):
        return 2, False
    return 1, True


def galois_orbits(table: CharacterTable) -> list[RationalCharacter]:
    """Partition of the irreducibles into Galois orbits, in row order.

    chi^sigma_t(C) = chi(C^t), so an orbit is the closure of a row under the
    checked power maps of `value_index`, on rows of value positions."""
    index = table.value_index
    row_of = {row: i for i, row in enumerate(index.rows)}
    assigned = [False] * len(table)
    orbits = []
    for i in range(len(table)):
        if assigned[i]:
            continue
        members, frontier = {i}, [i]
        while frontier:
            row = index.rows[frontier.pop()]
            for perm in index.galois_columns:
                j = row_of.get(tuple([row[c] for c in perm]))
                if j is None:
                    raise CharacterTableError("Galois image is not a table row")
                if j not in members:
                    members.add(j)
                    frontier.append(j)
        members = tuple(sorted(members))
        for j in members:
            assigned[j] = True
        s, heuristic = _schur_index(table, members)
        orbits.append(RationalCharacter(table, members, s, heuristic))
    return orbits


def trivial_restriction_multiplicity(chi: Character, g: int) -> int:
    """Multiplicity of the trivial character in chi restricted to <g>, read
    once per class of g and then from chi's memo: the mean over t < o(g) of
    the mean traces of chi(g^t).  On a Galois-consistent table (each built or
    parsed one, see `value_index`) sigma_s permutes the chi(g^t), s prime to
    o(g), so their total is rational and equals the total of their traces."""
    group = chi.group
    k = group.class_of[g]
    memo = chi._trivial_multiplicities
    if k in memo:
        return memo[k]
    row = group.power_classes[k]  # the classes of g^0, ..., g^(n-1)
    q = Fraction(sum(chi.values[j].mean_trace() for j in row), len(row))
    if q.denominator != 1 or q < 0:
        raise CharacterTableError(
            f"restriction multiplicity {q} is not a non-negative integer"
        )
    memo[k] = int(q)
    return memo[k]


def rational_idempotent(table: CharacterTable, orbit: RationalCharacter) -> GroupAlgebraElement:
    """Sum of the central idempotents over a Galois orbit; coefficients are
    rational because the orbit is closed under the Galois action.  They are
    chi(1)/(s*|G|) times the values of the orbit's rational character."""
    if orbit.table is not table:
        raise CharacterTableError("orbit from a different table")
    group = table.group
    scale = Fraction(orbit.complex_degree, orbit.schur_index * group.order)
    values = orbit.rational_values
    scaled = {v: v * scale for v in set(values)}  # one Fraction per distinct value
    per_class = [scaled[v] for v in values]
    return GroupAlgebraElement(group, tuple(per_class[k] for k in group.class_of))


# ---------------------------------------------------------------------------
# plain-text export / import (cache between runs)


FIXTURE_VERSION = "isoprod-chartab 1"
_CONDUCTOR_RE = re.compile(r"z\(([0-9]+)\)")


def group_fingerprint(group: FiniteGroup) -> str:
    h = sha256()
    h.update(group.recipe.encode())
    h.update(str(group.order).encode())
    for cls in group.conjugacy_classes:
        h.update(f"{cls.element_order},{cls.size};".encode())
    return h.hexdigest()[:24]


def _header(group: FiniteGroup) -> str:
    lines = [FIXTURE_VERSION,
             f"group {group.recipe}",
             f"fingerprint {group_fingerprint(group)}",
             f"order {group.order}",
             f"classes {len(group.conjugacy_classes)}"]
    for k, cls in enumerate(group.conjugacy_classes):
        lines.append(
            f"class {k} order {cls.element_order} size {cls.size} "
            f"rep {group.word(cls.representative)}"
        )
    return "\n".join(lines) + "\n"


def render_table(table: CharacterTable) -> str:
    index = table.value_index
    literals = [render_cyclotomic(v) for v in index.values]
    return _header(table.group) + "".join(
        "char " + " ; ".join([literals[i] for i in row]) + "\n" for row in index.rows
    )


def _parse_value(literal: str, conductors: set[str]) -> CyclotomicNumber:
    # checked before any arithmetic: a huge conductor costs time quadratic in it
    for n in _CONDUCTOR_RE.findall(literal):
        if n not in conductors:
            raise CharacterTableError(f"conductor {n} does not divide the group exponent")
    try:
        return parse_cyclotomic(literal)
    except ValueError as exc:
        raise CharacterTableError(f"bad character value {literal.strip()!r}: {exc}") from exc


def parse_table(text: str, group: FiniteGroup) -> CharacterTable:
    """Read back a `render_table` text for `group`; a text that is not
    exactly such a table raises CharacterTableError."""
    header = _header(group)
    if not text.startswith(header):
        raise CharacterTableError("fixture header does not match the group")
    conductors = {str(d) for d in divisors(group.exponent)}
    parsed: dict[str, CyclotomicNumber] = {}  # a value renders to one literal
    rows = []
    for line in text[len(header):].splitlines():
        if not line.startswith("char "):
            raise CharacterTableError(f"bad character line {line[:40]!r}")
        values = []
        for literal in map(str.strip, line[5:].split(";")):
            v = parsed.get(literal)
            if v is None:
                v = parsed[literal] = _parse_value(literal, conductors)
            values.append(v)
        values = tuple(values)
        if len(values) != len(group.conjugacy_classes):
            raise CharacterTableError("wrong number of character values")
        rows.append(Character(group, values))
    table = CharacterTable(group, rows)
    # The rows are orthogonal, checked in F_p, before any exact arithmetic.
    _check_row_orthogonality(group, rows)
    # The regular character sum_i chi_i(1) chi_i is |G| on the identity class
    # and 0 elsewhere, exactly; a single altered value always breaks this.
    for k in range(len(group.conjugacy_classes)):
        total = CyclotomicNumber.sum(chi.values[0] * chi.values[k] for chi in rows)
        if total != (group.order if k == 0 else 0):
            raise CharacterTableError("fixture values fail column orthogonality")
    # Two rows of one degree swapped on a class keep every such sum; the row
    # check refuses them, and when the swapped values are irrational, so does
    # the Galois check of the value index.
    table.value_index
    return table


def _check_row_orthogonality(group: FiniteGroup, rows) -> None:
    """Refuse rows that fail sum_k |C_k| chi_i(C_k) chi_j(C_k^-1) = [i = j] |G|
    for some i <= j, checked in F_p with p = `dixon_prime`: p = 1 (mod e),
    e = exp(G), so zeta_e maps to an element z of order e, and p is prime to
    |G|.  Each distinct value is reduced once, as sum_j c_j z^(j e/n) at its
    conductor n, which divides e (`_parse_value`); a value with a
    non-integer coordinate is refused, since a character value is an
    algebraic integer.  A row norm alone misses rows of one degree swapped
    on a class of values +-1, whose squares agree."""
    classes = group.conjugacy_classes
    order, e = group.order, group.exponent
    p = dixon_prime(order, e)
    z = pow(_primitive_root(p), (p - 1) // e, p)
    zpow = [pow(z, j, p) for j in range(e)]
    residue = {}
    for v in {v for chi in rows for v in chi.values}:
        if any(c.denominator != 1 for c in v.coefficients):
            raise CharacterTableError(f"character value {v} is not an algebraic integer")
        step = e // v.conductor
        residue[v] = sum(c * zpow[j * step] for j, c in enumerate(v.coefficients)) % p
    inverse = [group.class_of[group.inverse(c.representative)] for c in classes]
    left = [[residue[v] for v in chi.values] for chi in rows]
    right = [[c.size * r[k] for c, k in zip(classes, inverse)] for r in left]
    for i, a in enumerate(left):
        for j in range(i, len(left)):
            if sum(map(operator.mul, a, right[j])) % p != (order % p if i == j else 0):
                raise CharacterTableError("fixture values fail row orthogonality")


def cached_character_table(group: FiniteGroup, cache_dir: str | None = None) -> CharacterTable:
    """Compute the table, or reuse a cache file under `cache_dir` (or the
    ISOPROD_CACHE environment variable) when present."""
    cache_dir = cache_dir or os.environ.get("ISOPROD_CACHE")
    if not cache_dir:
        return character_table(group)
    path = os.path.join(cache_dir, f"chartab-{group_fingerprint(group)}.txt")
    try:
        os.makedirs(cache_dir, exist_ok=True)
        with open(path, encoding="utf-8") as fh:
            return parse_table(fh.read(), group)
    except (FileNotFoundError, UnicodeDecodeError, CharacterTableError):
        pass  # missing, stale, foreign or damaged file: compute and (re)write
    except OSError as exc:  # e.g. no directory, or a directory at `path`
        raise _unusable_cache(cache_dir, exc) from exc
    table = character_table(group)
    text = render_table(table)
    # write aside and rename, so readers never see a partial file
    try:
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise _unusable_cache(cache_dir, exc) from exc
    return table


def _unusable_cache(cache_dir: str, exc: OSError) -> CacheError:
    return CacheError(f"unusable cache directory {cache_dir!r}: {exc.strerror or exc}")
