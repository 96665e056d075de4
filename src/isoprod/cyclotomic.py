"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every element is kept in a canonical form: the conductor is minimized (an
element that happens to lie in a smaller cyclotomic field is rewritten
there), so equality across values coming from different computations is
plain structural equality.  Nothing in this module ever touches floating
point: a float given to a constructor is refused.

A coordinate is an `int` unless it has a real denominator, and then it is
a `Fraction`.  Z[zeta_n] is the ring of integers of Q(zeta_n), with the
power basis 1, zeta_n, ..., zeta_n^(phi(n)-1) as a Z-basis (Washington,
Introduction to Cyclotomic Fields, Thm 2.6), so every sum of roots of
unity, every character value in particular, has int coordinates; only a
user rational, a mean trace or an idempotent coefficient brings a
Fraction.  Equality, hashing, `sort_key` and rendering take an int and a
Fraction of one value alike, so the two never need normalizing.
`as_rational` still returns a Fraction, since its callers divide it.

Conductors are normalized to 1 or to N >= 3 with N != 2 (mod 4), since
Q(zeta_{2m}) = Q(zeta_m) for odd m.

The minimal conductor f of a value in Q(zeta_n) divides every conductor
whose field holds it, so it is found one prime at a time: for a prime
q | n with d the normalized conductor of n/q, the value lies in Q(zeta_d)
exactly when it is fixed by Gal(Q(zeta_n)/Q(zeta_d)) = {t : t = 1 mod d},
a cyclic group with one cached generator t.  If so the value is rewritten
over Q(zeta_d) and the descent goes on from d; when no prime passes, n = f.

The rewrite needs no linear solve.  A step has n = d*r with r a prime or 4.
If r | d then Phi_n(x) = Phi_d(x^r), so the coordinates over Q(zeta_d) are
every r-th coordinate over Q(zeta_n).  Otherwise zeta_n^k =
zeta_d^(k*u) * zeta_r^(k*w) with u = r^-1 mod d, and the relative trace,
which is phi(r) times the value, sends zeta_r^(k*w) to the Ramanujan sum
c_r(k) (r - 1 or -1 for a prime r; 2, 0, -2, 0 for r = 4):
v = (1/phi(r)) sum_k c_k c_r(k) zeta_d^(k*u).  The division is exact on an
algebraic integer, so int coordinates stay ints.

Every power sum is brought to the power basis by one routine, `_reduce`:
construction, the Galois action, this rewrite, sums and products, each
written as one power sum at the lcm of the conductors.  Its table keeps
only the nonzero coordinates of each power of zeta_n.  A sum of any number
of values is minimized once; `+` is its two-term case.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from itertools import compress

Rational = Fraction


# ---------------------------------------------------------------------------
# elementary number theory


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@functools.lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending."""
    out = []
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


def euler_phi(n: int) -> int:
    phi = n
    for p in prime_factors(n):
        phi = phi // p * (p - 1)
    return phi


def mobius(n: int) -> int:
    factors = prime_factors(n)
    if math.prod(factors) != n:
        return 0
    return -1 if len(factors) % 2 else 1


def ramanujan_sum(n: int, k: int) -> int:
    """c_n(k), the sum of zeta_n^(k*t) over the units t mod n, in closed form
    (Hoelder 1936): mu(m) * phi(n) / phi(m) with m = n / gcd(n, k)."""
    m = n // math.gcd(n, k)
    return mobius(m) * (euler_phi(n) // euler_phi(m))


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# ---------------------------------------------------------------------------
# cyclotomic polynomials and power tables


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic, exact integers."""
    if n == 1:
        return (-1, 1)
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, by exact division.
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n)[:-1]:
        den = cyclotomic_polynomial(d)
        quot = [0] * (len(num) - len(den) + 1)
        rem = list(num)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + len(den) - 1]
            quot[i] = c
            if c:
                for j, dj in enumerate(den):
                    rem[i + j] -= c * dj
        assert not any(rem), f"Phi_{d} does not divide x^{n}-1"
        num = quot
    assert len(num) == euler_phi(n) + 1 and num[-1] == 1
    return tuple(num)


@functools.lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """zeta_n^k in the basis 1, zeta, ..., zeta^(phi(n)-1), for 0 <= k < n,
    as the positions j and the coefficients c of its nonzero coordinates.
    The positions are shared objects, so a row costs two pointers per entry."""
    phi = euler_phi(n)
    poly = cyclotomic_polynomial(n)
    positions = tuple(range(phi))
    rows = [((k,), (1,)) for k in positions]
    cur = [-c for c in poly[:phi]]  # zeta^phi, as Phi_n is monic
    for _ in range(phi, n):
        rows.append((tuple(compress(positions, cur)), tuple(compress(cur, cur))))
        # multiply by zeta and reduce the overflow coefficient via Phi_n
        top = cur[phi - 1]
        cur = [0] + cur[:-1]
        if top:
            for j in range(phi):
                cur[j] -= top * poly[j]
    return tuple(rows)


def _reduce(n: int, terms) -> list[int | Fraction]:
    """Power basis coordinates of the power sum  sum c * zeta_n^k  over the
    (k, c) pairs of `terms`; exponents are taken mod n.  The table's entries
    are ints, so a coordinate is an int when every c it draws on is."""
    phi = euler_phi(n)
    table = _power_table(n)
    acc = [0] * phi
    for k, c in terms:
        if not c:
            continue
        k %= n
        if k < phi:  # zeta^k is itself a basis vector
            acc[k] += c
            continue
        for j, rj in zip(*table[k]):
            acc[j] += c * rj
    return acc


def _canonical_conductor_terms(n: int, terms: dict[int, int | Fraction]
                               ) -> tuple[int, dict[int, int | Fraction]]:
    """Fold exponents mod n and rewrite conductors 2 mod 4 down to their odd
    part; a coefficient that is not an int or a Fraction is refused."""
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    folded: dict[int, int | Fraction] = {}
    for k, c in terms.items():
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coefficient {c!r} of zeta_{n}^{k} is not an int or a Fraction")
        if c:
            k %= n
            folded[k] = folded.get(k, 0) + c
    while n == 2 or (n % 4 == 2):
        m = n // 2
        # zeta_{2m} = -zeta_m^((m+1)/2) for odd m; for n == 2, zeta_2 = -1.
        shift = 1 if m == 1 else (m + 1) // 2
        redone: dict[int, int | Fraction] = {}
        for k, c in folded.items():
            sign = -c if k % 2 else c
            kk = (k * shift) % m if m > 1 else 0
            redone[kk] = redone.get(kk, 0) + sign
        n, folded = m, redone
    return n, folded


# ---------------------------------------------------------------------------
# the number type


class CyclotomicNumber:
    """An element of some Q(zeta_N), stored at its minimal conductor.

    The coefficient vector has length phi(N) and refers to the power basis
    1, zeta_N, ..., zeta_N^(phi(N)-1) after reduction mod Phi_N.
    """

    # _hash, _sort_key and _mean_trace are filled on first use: a value is
    # immutable, and a table asks for each one many times
    __slots__ = ("conductor", "coefficients", "_hash", "_sort_key", "_mean_trace")

    def __init__(self, conductor: int, coefficients: tuple[int | Fraction, ...]):
        """Wrap a vector already in canonical form; build values with
        `from_terms`, `from_rational` or `zeta`."""
        self.conductor = conductor
        self.coefficients = coefficients

    # -- constructors

    @staticmethod
    def from_rational(q: int | Fraction) -> "CyclotomicNumber":
        """The rational q, stored as an int when it is integral; anything but
        an int or a Fraction is refused (a float is not exact)."""
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"{q!r} is not an int or a Fraction")
        return CyclotomicNumber(1, (q.numerator if q.denominator == 1 else q,))

    @staticmethod
    def from_terms(conductor: int, terms: dict[int, int | Fraction]) -> "CyclotomicNumber":
        """Reduce a power sum  sum_k c_k * zeta_conductor^k  to canonical form;
        every c_k is an int or a Fraction."""
        n, folded = _canonical_conductor_terms(conductor, terms)
        return CyclotomicNumber._minimized(n, _reduce(n, folded.items()))

    @staticmethod
    def _minimized(n: int, coeffs: list[int | Fraction]) -> "CyclotomicNumber":
        # Descend one prime at a time: the minimal conductor divides every
        # conductor whose field holds the value, so when no n/q works, n is it.
        while n > 1 and any(coeffs[1:]):
            for d, t in _descent_steps(n):
                if _galois_raw(n, coeffs, t) == coeffs:
                    coeffs, n = _rebase(n, coeffs, d), d
                    break
            else:
                return CyclotomicNumber(n, tuple(coeffs))
        return CyclotomicNumber(1, (coeffs[0],))

    # -- predicates

    @property
    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_rational(self) -> Fraction:
        """The value as a Fraction, also when it is stored as an int."""
        if self.conductor != 1:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.coefficients[0])

    def as_integer(self) -> int:
        if self.conductor != 1:
            raise ValueError(f"{self} is not rational")
        q = self.coefficients[0]  # read as it is stored: no Fraction is made
        if q.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return q.numerator

    # -- arithmetic

    @staticmethod
    def sum(values) -> "CyclotomicNumber":
        """The total of `values` (0 if none), minimized once: every value is
        lifted to the lcm of the conductors, itself canonical (never 2 mod 4),
        by one power-sum reduction."""
        values = tuple(values)
        m = math.lcm(*(v.conductor for v in values))
        return CyclotomicNumber._minimized(m, _reduce(m, (
            (k * (m // v.conductor), c) for v in values for k, c in enumerate(v.coefficients)
        )))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicNumber.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.conductor, tuple(-c for c in self.coefficients))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1:
            # a nonzero rational multiple keeps the minimal conductor
            q = self.coefficients[0]
            if not q:
                return ZERO
            return CyclotomicNumber(other.conductor, tuple(q * c for c in other.coefficients))
        if other.conductor == 1:
            return other * self
        # an lcm of canonical conductors is itself canonical (never 2 mod 4);
        # zeta_f1^i * zeta_f2^j = zeta_m^(i*a + j*b), one power sum reduced once
        m = math.lcm(self.conductor, other.conductor)
        a, b = m // self.conductor, m // other.conductor
        terms: dict[int, int | Fraction] = {}
        for i, x in enumerate(self.coefficients):
            if x:
                for j, y in enumerate(other.coefficients):
                    if y:
                        k = i * a + j * b
                        terms[k] = terms.get(k, 0) + x * y
        return CyclotomicNumber._minimized(m, _reduce(m, terms.items()))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError(f"negative exponent {e}: cyclotomic numbers are not inverted")
        out = CyclotomicNumber.from_rational(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- Galois action

    def galois(self, t: int) -> "CyclotomicNumber":
        """Image under the field automorphism zeta_N -> zeta_N^t, gcd(t, N) = 1."""
        n = self.conductor
        t %= n if n > 1 else 1
        if n == 1:
            return self
        if math.gcd(t, n) != 1:
            raise ValueError(f"{t} is not a unit modulo the conductor {n}")
        # a field automorphism keeps the minimal conductor
        return CyclotomicNumber(n, tuple(_galois_raw(n, self.coefficients, t)))

    def mean_trace(self) -> int | Fraction:
        """The mean of the images of the value under Gal(Q(zeta_N)/Q), the
        trace divided by phi(N); it is the same over every field Q(zeta_N)
        that holds the value.  The images of zeta_N^k add up to the Ramanujan
        sum c_N(k), so no cyclotomic number is built.  An int when the mean
        is integral."""
        try:
            return self._mean_trace
        except AttributeError:
            n = self.conductor
            self._mean_trace = _divide(sum(c * ramanujan_sum(n, k) for k, c in
                                           enumerate(self.coefficients) if c), euler_phi(n))
            return self._mean_trace

    # -- comparisons, hashing, rendering

    def __bool__(self):
        return any(self.coefficients)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.conductor == other.conductor
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        # a rational value equals its int or Fraction, so it hashes as one
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.coefficients[0] if self.conductor == 1
                              else (self.conductor, self.coefficients))
            return self._hash

    def sort_key(self):
        """Deterministic total order key (no arithmetic meaning)."""
        try:
            return self._sort_key
        except AttributeError:
            self._sort_key = (
                self.conductor,
                tuple((c.numerator, c.denominator) for c in self.coefficients),
            )
            return self._sort_key

    def __repr__(self):
        return f"CyclotomicNumber({self})"

    def __str__(self):
        return render_cyclotomic(self)


def _coerce(x):
    if isinstance(x, CyclotomicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CyclotomicNumber.from_rational(x)
    return NotImplemented


def _galois_raw(n: int, coeffs, t: int) -> list[int | Fraction]:
    return _reduce(n, ((k * t, c) for k, c in enumerate(coeffs)))


@functools.lru_cache(maxsize=None)
def _descent_steps(n: int) -> tuple[tuple[int, int], ...]:
    """For each prime q | n, the canonical conductor d of n/q and a generator
    t of Gal(Q(zeta_n)/Q(zeta_d)) = {t unit mod n : t = 1 (mod d)}: a value
    of Q(zeta_n) lies in Q(zeta_d) exactly when sigma_t fixes it.

    For canonical n that group is Z/q, (Z/q)^* or (Z/4)^*, so it is cyclic,
    of order phi(n)/phi(d), and t generates it when t^(order/l) != 1 for every
    prime l dividing the order.  The first such t is taken.
    """
    steps = []
    for q in prime_factors(n):
        d = n // q
        if d % 4 == 2:  # Q(zeta_2m) = Q(zeta_m) for odd m, and Q(zeta_2) = Q
            d //= 2
        size = euler_phi(n) // euler_phi(d)
        steps.append((d, next(
            t for t in range(1, n, d) if math.gcd(t, n) == 1
            and all(pow(t, size // l, n) != 1 for l in prime_factors(size))
        )))
    return tuple(steps)


def _divide(c: int | Fraction, m: int) -> int | Fraction:
    """c / m exactly: an int when m divides c, else a Fraction."""
    q, rest = divmod(c, m)
    return Fraction(c, m) if rest else q


def _rebase(n: int, coeffs: list[int | Fraction], d: int) -> list[int | Fraction]:
    """Rewrite a vector of Q(zeta_n) known to lie in Q(zeta_d) in the smaller
    basis, for a descent step n = d*r with r a prime or 4."""
    r = n // d
    if d % r == 0:
        # Phi_n(x) = Phi_d(x^r): the basis of Q(zeta_d) is every r-th one of Q(zeta_n)
        return coeffs[::r]
    # zeta_n^k = zeta_d^(k*u) * zeta_r^(k*w) with u = r^-1 mod d, w = d^-1 mod r.
    # Tracing down to Q(zeta_d) sends zeta_r^(k*w) to the Ramanujan sum c_r(k)
    # and the value itself to phi(r) times the value.  The division is exact
    # on an algebraic integer, whose coordinates are all ints.
    ramanujan = [ramanujan_sum(r, k) for k in range(r)]
    phi_r = euler_phi(r)
    u = pow(r, -1, d)
    acc = _reduce(d, ((k * u, c * ramanujan[k % r]) for k, c in enumerate(coeffs)))
    return [_divide(c, phi_r) for c in acc]


def zeta(n: int, k: int = 1) -> CyclotomicNumber:
    """The root of unity zeta_n^k in canonical form."""
    return CyclotomicNumber.from_terms(n, {k: 1})


ZERO = CyclotomicNumber.from_rational(0)


# ---------------------------------------------------------------------------
# rendering and parsing:  a0 + a1*z(N)^1 + ...


def render_cyclotomic(x: CyclotomicNumber) -> str:
    if x.conductor == 1:
        return str(x.coefficients[0])
    parts = []
    for k, c in enumerate(x.coefficients):
        if not c:
            continue
        if k == 0:
            parts.append((c < 0, str(abs(c))))
        else:
            mag = abs(c)
            body = f"z({x.conductor})^{k}"
            if mag != 1:
                body = f"{mag}*{body}"
            parts.append((c < 0, body))
    if not parts:
        return "0"
    out = []
    for i, (neg, body) in enumerate(parts):
        if i == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>[0-9]+(?:/[0-9]+)?)
            \s*(?:\*\s*(?P<zpart1>z\([0-9]+\)(?:\^-?[0-9]+)?))?
          | (?P<zpart2>z\([0-9]+\)(?:\^-?[0-9]+)?)
        )\s*""",
    re.VERBOSE,
)
_Z_RE = re.compile(r"z\(([0-9]+)\)(?:\^(-?[0-9]+))?")
# Matches groups.DEFAULT_ORDER_BOUND: a character value's conductor divides
# the group exponent, which is at most the group order.
PARSE_CONDUCTOR_BOUND = 2048


def parse_cyclotomic(text: str) -> CyclotomicNumber:
    """Parse the grammar produced by render_cyclotomic.

    The cost grows with the conductor, so a literal whose z(N) conductors
    have an lcm above PARSE_CONDUCTOR_BOUND is refused before any arithmetic."""
    s = text.strip()
    if not s:
        raise ValueError("empty cyclotomic literal")
    pos = 0
    terms = []  # (conductor, exponent, coefficient)
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad cyclotomic literal near offset {pos}: {s[pos:pos + 20]!r}")
        sign = m.group("sign")
        if sign is None and terms:
            raise ValueError(f"missing +/- between terms at offset {pos} in {text!r}")
        literal = m.group("coeff")
        if not literal:
            coeff = 1
        elif "/" not in literal:  # an int, as an integral coordinate is one
            coeff = int(literal)
        else:
            try:
                coeff = Fraction(literal)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator at offset {pos} in {text!r}") from None
        if sign == "-":
            coeff = -coeff
        zpart = m.group("zpart1") or m.group("zpart2")
        if zpart:
            zm = _Z_RE.fullmatch(zpart)
            assert zm is not None
            terms.append((int(zm.group(1)), int(zm.group(2) or 1), coeff))
        else:
            terms.append((1, 0, coeff))
        pos = m.end()
    conductor = math.lcm(*(n for n, _, _ in terms))
    if not 1 <= conductor <= PARSE_CONDUCTOR_BOUND:  # the lcm is 0 if some N is
        raise ValueError(f"{text!r} needs conductor {conductor}, "
                         f"outside 1..{PARSE_CONDUCTOR_BOUND}")
    total: dict[int, int | Fraction] = {}
    for n, k, c in terms:
        key = k * (conductor // n)
        total[key] = total.get(key, 0) + c
    return CyclotomicNumber.from_terms(conductor, total)
