"""Exact character tables and their rational bookkeeping.

The table is computed by the Burnside-Dixon method: the class-sum
matrices are simultaneously diagonalized over a prime field F_p with
p = 1 (mod exp(G)) and p > 2*ceil(sqrt(|G|)), which makes the lift of
every eigenvalue multiplicity unique; the character values are then
reassembled exactly as cyclotomic numbers of conductor dividing the
element order.  No floating point, no randomization: the splitting
sequence is the class matrices in canonical class order, so repeated
runs produce identical tables.

On top of the complex table this module computes Frobenius-Schur
indicators, the partition of the irreducibles into Galois orbits
(rational characters with a Schur-index annotation), restriction
multiplicities, and the rational central idempotents of the group
algebra.
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from hashlib import sha256

from .cyclotomic import (
    ZERO,
    CyclotomicNumber,
    Rational,
    divisors,
    is_prime,
    parse_cyclotomic,
    prime_factors,
    render_cyclotomic,
)
from .groups import FiniteGroup, Subgroup, kernel_of_character


class CharacterTableError(RuntimeError):
    """Internal defect: the engine produced something non-characterlike."""


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class Character:
    """A class function with cyclotomic values, one per conjugacy class."""

    group: FiniteGroup
    values: tuple[CyclotomicNumber, ...]

    @property
    def degree(self) -> int:
        return self.values[0].as_integer()

    def value_on_element(self, i: int) -> CyclotomicNumber:
        return self.values[self.group.class_of[i]]

    def galois(self, t: int) -> "Character":
        return Character(self.group, tuple(v.galois(t) for v in self.values))

    def conjugate(self) -> "Character":
        return Character(self.group, tuple(v.conjugate() for v in self.values))

    def is_self_dual(self) -> bool:
        return self == self.conjugate()

    def sort_key(self):
        return (self.degree, tuple(v.sort_key() for v in self.values))

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

    def inner_product(self, chi: Character, psi: Character) -> Rational:
        """<chi, psi> = (1/|G|) sum |C| chi(C) conj(psi(C)); must be rational."""
        total = CyclotomicNumber.from_rational(0)
        for k, cls in enumerate(self.group.conjugacy_classes):
            total = total + chi.values[k] * psi.values[k].conjugate() * cls.size
        return (total * Fraction(1, self.group.order)).as_rational()

    def row_index(self, chi: Character) -> int:
        for i, row in enumerate(self.irreducibles):
            if row == chi:
                return i
        raise CharacterTableError("class function is not a row of this table")


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

    def contains_trivial(self) -> bool:
        return self.table.trivial_index in self.indices

    @cached_property
    def rational_values(self) -> tuple[Rational, ...]:
        """Values of the rational character s * sum over the orbit."""
        out = []
        for k in range(len(self.table.group.conjugacy_classes)):
            total = CyclotomicNumber.from_rational(0)
            for i in self.indices:
                total = total + self.table[i].values[k]
            out.append(total.as_rational() * self.schur_index)
        return tuple(out)

    def kernel(self) -> Subgroup:
        """Common kernel of the orbit's constituents."""
        chi = self.table[self.indices[0]]
        ker = kernel_of_character(self.table.group, chi.values)
        for i in self.indices[1:]:
            other = kernel_of_character(self.table.group, self.table[i].values)
            if other.members != ker.members:
                raise CharacterTableError("Galois conjugates with different kernels")
        return ker


@dataclass(frozen=True)
class GroupAlgebraElement:
    """An element of Q[G], dense rational coefficients indexed by element."""

    group: FiniteGroup
    coefficients: tuple[Rational, ...]

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        g = self.group
        n = g.order
        out = [Fraction(0)] * n
        inv = g.inverse
        mul = g.mul
        for i, a in enumerate(self.coefficients):
            if not a:
                continue
            ii = inv(i)
            for h in range(n):
                b = other.coefficients[mul(ii, h)]
                if b:
                    out[h] += a * b
        return GroupAlgebraElement(g, tuple(out))

    @staticmethod
    def delta(group: FiniteGroup, i: int) -> "GroupAlgebraElement":
        coeffs = [Fraction(0)] * group.order
        coeffs[i] = Fraction(1)
        return GroupAlgebraElement(group, tuple(coeffs))

    def is_central(self) -> bool:
        for g in self.group.generators:
            d = GroupAlgebraElement.delta(self.group, g)
            if (self * d).coefficients != (d * self).coefficients:
                return False
        return True


# ---------------------------------------------------------------------------
# mod-p linear algebra helpers


def _berkowitz_charpoly(mat, p):
    """Characteristic polynomial of mat over F_p, ascending coefficients,
    by the division-free Samuelson-Berkowitz recursion."""
    n = len(mat)
    poly = [1]  # charpoly of the empty matrix
    for k in range(1, n + 1):
        a = mat[k - 1][k - 1] % p
        row = [mat[k - 1][j] % p for j in range(k - 1)]
        col = [mat[i][k - 1] % p for i in range(k - 1)]
        sub = [[mat[i][j] % p for j in range(k - 1)] for i in range(k - 1)]
        # Toeplitz column: [-1 (deg k), a, row*col, row*sub*col, ...]
        t = [1, (-a) % p]
        vec = col
        for _ in range(k - 1):
            t.append((-sum(r * v for r, v in zip(row, vec))) % p)
            vec = [sum(sub[i][j] * vec[j] for j in range(k - 1)) % p
                   for i in range(k - 1)]
        # multiply previous poly (degree k-1) by the Toeplitz matrix
        new = [0] * (k + 1)
        for i in range(k + 1):
            acc = 0
            for j in range(min(i + 1, k)):
                acc += t[i - j] * poly[j]
            new[i] = acc % p
        poly = new
    # poly[i] is the coefficient of lambda^(n-i) with sign convention
    # det(lambda I - M); return ascending in lambda
    return poly[::-1]


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
    classes = group.conjugacy_classes
    nc = len(classes)
    class_of = group.class_of
    inv = group.inverse
    mul = group.mul
    mats = []
    for j in range(nc):
        mat = [[0] * nc for _ in range(nc)]
        members = classes[j].members
        for k in range(nc):
            z = classes[k].representative
            for x in members:
                mat[class_of[mul(inv(x), z)]][k] += 1
        mats.append(mat)
    return mats


def _split_spaces(mats, p, nc):
    """Common one-dimensional eigenspaces of the commuting matrices `mats`."""
    spaces = [[[1 if i == j else 0 for j in range(nc)] for i in range(nc)]]
    for matrix in mats[1:]:  # the identity-class matrix is the identity
        if all(len(b) == 1 for b in spaces):
            break
        out = []
        for basis in spaces:
            d = len(basis)
            if d == 1:
                out.append(basis)
                continue
            # restriction R: matrix * b_a = sum_z R[z][a] * b_z, read off via
            # the pivot columns of the RREF basis
            rref, pivots = _rref_mod_p(basis, p)
            images = []
            for b in rref:
                img = [sum(matrix[l][k] * b[k] for k in range(nc)) % p
                       for l in range(nc)]
                images.append(img)
            rmat = [[images[a][pivots[z]] for a in range(d)] for z in range(d)]
            roots = _poly_roots_mod_p(_berkowitz_charpoly(rmat, p), p)
            if len(roots) <= 1:
                out.append(rref)
                continue
            found = 0
            for lam in sorted(roots):
                shifted = [[(rmat[i][j] - (lam if i == j else 0)) % p
                            for j in range(d)] for i in range(d)]
                sub = []
                for kvec in _kernel_mod_p(shifted, p):
                    amb = [0] * nc
                    for a, coef in enumerate(kvec):
                        if coef:
                            for t in range(nc):
                                amb[t] = (amb[t] + coef * rref[a][t]) % p
                    sub.append(amb)
                found += len(sub)
                out.append(_rref_mod_p(sub, p)[0])
            if found != d:
                raise CharacterTableError("eigenspace splitting lost dimensions")
        spaces = out
    # p = 1 (mod exp G), p prime to |G|: the class matrices split the centre (Dixon 1967).
    if not all(len(b) == 1 for b in spaces):
        raise CharacterTableError(
            "class matrices failed to split the class algebra (engine defect)"
        )
    return [b[0] for b in spaces]


def character_table(group: FiniteGroup) -> CharacterTable:
    """The exact table of irreducible complex characters of `group`."""
    classes = group.conjugacy_classes
    nc = len(classes)
    order = group.order
    e = group.exponent
    p = dixon_prime(order, e)
    z = pow(_primitive_root(p), (p - 1) // e, p)

    mats = _class_matrices(group)
    vectors = _split_spaces(mats, p, nc)

    inv_class = [group.class_of[group.inverse(c.representative)] for c in classes]
    sizes = [c.size for c in classes]
    power_classes = [
        [group.class_power_map(k, t) for t in range(classes[k].element_order)]
        for k in range(nc)
    ]

    irreducibles = []
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
        values = []
        for k in range(nc):
            n = classes[k].element_order
            zn = pow(z, e // n, p)
            ninv = pow(n, -1, p)
            terms: dict[int, Fraction] = {}
            total = 0
            for s_exp in range(n):
                acc = 0
                for t in range(n):
                    acc += theta[power_classes[k][t]] * pow(zn, (-s_exp * t) % n, p)
                mult = (acc * ninv) % p
                if mult >= p // 2 + 1:
                    raise CharacterTableError("eigenvalue multiplicity failed to lift")
                if mult:
                    terms[s_exp] = Fraction(mult)
                total += mult
            if total != degree:
                raise CharacterTableError("eigenvalue multiplicities do not sum "
                                          "to the degree")
            values.append(CyclotomicNumber.from_terms(n, terms))
        irreducibles.append(Character(group, tuple(values)))

    irreducibles.sort(key=Character.sort_key)
    table = CharacterTable(group, irreducibles)
    degs = sorted(chi.degree for chi in table)
    if sum(d * d for d in degs) != order:
        raise CharacterTableError("degrees are inconsistent with the group order")
    return table


# ---------------------------------------------------------------------------
# derived data


def frobenius_schur(chi: Character) -> int:
    """(1/|G|) sum_g chi(g^2), exactly one of -1, 0, +1."""
    g = chi.group
    total = CyclotomicNumber.from_rational(0)
    for k, cls in enumerate(g.conjugacy_classes):
        total = total + chi.values[g.class_power_map(k, 2)] * cls.size
    nu = (total * Fraction(1, g.order)).as_rational()
    if nu.denominator != 1 or nu not in (-1, 0, 1):
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
    """Partition of the irreducibles into Galois orbits, in row order."""
    e = table.group.exponent
    units = [t for t in range(1, e) if math.gcd(t, e) == 1] or [1]
    index_of = {chi.values: i for i, chi in enumerate(table)}
    assigned = [False] * len(table)
    orbits = []
    for i, chi in enumerate(table):
        if assigned[i]:
            continue
        members = set()
        for t in units:
            j = index_of.get(chi.galois(t).values)
            if j is None:
                raise CharacterTableError("Galois image is not a table row")
            members.add(j)
        members = tuple(sorted(members))
        for j in members:
            assigned[j] = True
        s, heuristic = _schur_index(table, members)
        orbits.append(RationalCharacter(table, members, s, heuristic))
    return orbits


def trivial_restriction_multiplicity(chi: Character, g: int) -> int:
    """Multiplicity of the trivial character in chi restricted to <g>."""
    group = chi.group
    n = group.element_orders[g]
    total = CyclotomicNumber.from_rational(0)
    x = 0
    for _ in range(n):
        total = total + chi.value_on_element(x)
        x = group.mul(x, g)
    avg = total * Fraction(1, n)
    if not avg.is_rational:
        raise CharacterTableError(
            f"restriction average {avg} is irrational: corrupted class function"
        )
    q = avg.as_rational()
    if q.denominator != 1 or q < 0:
        raise CharacterTableError(
            f"restriction multiplicity {q} is not a non-negative integer"
        )
    return int(q)


def central_idempotent(table: CharacterTable, i: int):
    """The central idempotent attached to row i, with cyclotomic coefficients
    (dim/|G|) * sum_g chi(g) g, as a coefficient list over the elements."""
    group = table.group
    chi = table[i]
    scale = Fraction(chi.degree, group.order)
    return [
        chi.value_on_element(g) * scale for g in range(group.order)
    ]


def rational_idempotent(table: CharacterTable, orbit: RationalCharacter) -> GroupAlgebraElement:
    """Sum of the central idempotents over a Galois orbit; coefficients are
    rational because the orbit is closed under the Galois action."""
    group = table.group
    coeffs = []
    scale = Fraction(table[orbit.indices[0]].degree, group.order)
    for g in range(group.order):
        total = CyclotomicNumber.from_rational(0)
        k = group.class_of[g]
        for i in orbit.indices:
            total = total + table[i].values[k]
        coeffs.append((total * scale).as_rational())
    return GroupAlgebraElement(group, tuple(coeffs))


def tensor_trivial_multiplicity(orbit_j: RationalCharacter,
                                orbit_k: RationalCharacter) -> int:
    """Multiplicity of the trivial rational representation in the tensor
    product of two irreducible rational representations."""
    if orbit_j.table is not orbit_k.table:
        raise CharacterTableError("orbits from different tables")
    if orbit_j.indices != orbit_k.indices:
        return 0
    return orbit_j.schur_index ** 2 * orbit_j.field_degree


# ---------------------------------------------------------------------------
# plain-text export / import (cache between runs)


FIXTURE_VERSION = "isoprod-chartab 1"
_CONDUCTOR_RE = re.compile(r"z\((\d+)\)")


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
    return _header(table.group) + "".join(
        "char " + " ; ".join(render_cyclotomic(v) for v in chi.values) + "\n"
        for chi in table
    )


def _parse_value(literal: str, conductors: set[str]) -> CyclotomicNumber:
    # checked before any arithmetic: a huge conductor costs time quadratic in it
    for n in _CONDUCTOR_RE.findall(literal):
        if n not in conductors:
            raise CharacterTableError(f"conductor {n} does not divide the group exponent")
    try:
        return parse_cyclotomic(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise CharacterTableError(f"bad character value {literal.strip()!r}: {exc}") from exc


def parse_table(text: str, group: FiniteGroup) -> CharacterTable:
    """Read back a `render_table` text for `group`; a text that is not
    exactly such a table raises CharacterTableError."""
    header = _header(group)
    if not text.startswith(header):
        raise CharacterTableError("fixture header does not match the group")
    conductors = {str(d) for d in divisors(group.exponent)}
    rows = []
    for line in text[len(header):].splitlines():
        if not line.startswith("char "):
            raise CharacterTableError(f"bad character line {line[:40]!r}")
        values = tuple(_parse_value(v, conductors) for v in line[5:].split(";"))
        if len(values) != len(group.conjugacy_classes):
            raise CharacterTableError("wrong number of character values")
        rows.append(Character(group, values))
    table = CharacterTable(group, rows)
    # The regular character sum_i chi_i(1) chi_i is |G| on the identity class
    # and 0 elsewhere; a single altered value always breaks this.
    for k in range(len(group.conjugacy_classes)):
        total = sum((chi.values[0] * chi.values[k] for chi in rows), ZERO)
        if total != (group.order if k == 0 else 0):
            raise CharacterTableError("fixture values fail column orthogonality")
    return table


def cached_character_table(group: FiniteGroup, cache_dir: str | None = None) -> CharacterTable:
    """Compute the table, or reuse a cache file under `cache_dir` (or the
    ISOPROD_CACHE environment variable) when present."""
    cache_dir = cache_dir or os.environ.get("ISOPROD_CACHE")
    if not cache_dir:
        return character_table(group)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"chartab-{group_fingerprint(group)}.txt")
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_table(fh.read(), group)
    except (FileNotFoundError, UnicodeDecodeError, CharacterTableError):
        pass  # missing, stale, foreign or damaged file: compute and (re)write
    table = character_table(group)
    text = render_table(table)
    # write aside and rename, so readers never see a partial file
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return table
