"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every element is kept in a canonical form: the conductor is minimized (an
element that happens to lie in a smaller cyclotomic field is rewritten
there), so equality across values coming from different computations is
plain structural equality.  Coefficients are exact rationals; nothing in
this module ever touches floating point.

Conductors are normalized to 1 or to N >= 3 with N != 2 (mod 4), since
Q(zeta_{2m}) = Q(zeta_m) for odd m.

The minimal conductor f of a value in Q(zeta_n) divides every conductor
whose field holds it, so it is found one prime at a time: for a prime
q | n with d the normalized conductor of n/q, the value lies in Q(zeta_d)
exactly when it is fixed by Gal(Q(zeta_n)/Q(zeta_d)) = {t : t = 1 mod d},
a cyclic group with one cached generator t.  If so the value is rewritten
over Q(zeta_d) and the descent goes on from d; when no prime passes, n = f.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_n^k written in the basis 1, zeta, ..., zeta^(phi(n)-1), for 0 <= k < n."""
    phi = euler_phi(n)
    poly = cyclotomic_polynomial(n)
    rows = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple(cur))
        # multiply by zeta and reduce the overflow coefficient via Phi_n
        top = cur[phi - 1]
        cur = [0] + cur[:-1]
        if top:
            for j in range(phi):
                cur[j] -= top * poly[j]
    return tuple(rows)


def _canonical_conductor_terms(n: int, terms: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    """Fold exponents mod n and rewrite conductors 2 mod 4 down to their odd part."""
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    folded: dict[int, Fraction] = {}
    for k, c in terms.items():
        if c:
            k %= n
            folded[k] = folded.get(k, _ZERO) + c
    while n == 2 or (n % 4 == 2):
        m = n // 2
        # zeta_{2m} = -zeta_m^((m+1)/2) for odd m; for n == 2, zeta_2 = -1.
        shift = 1 if m == 1 else (m + 1) // 2
        redone: dict[int, Fraction] = {}
        for k, c in folded.items():
            sign = -c if k % 2 else c
            kk = (k * shift) % m if m > 1 else 0
            redone[kk] = redone.get(kk, _ZERO) + sign
        n, folded = m, redone
    return n, folded


# ---------------------------------------------------------------------------
# exact linear algebra over Q (tiny, used for conductor descent)


def _solve_exact(columns: list[tuple[Fraction, ...]], target: list[Fraction]) -> list[Fraction] | None:
    """Solve sum_j x_j * columns[j] = target over Q; None if inconsistent."""
    rows = len(target)
    cols = len(columns)
    mat = [[columns[j][i] for j in range(cols)] + [target[i]] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if mat[i][cols] != 0:
            return None
    sol = [_ZERO] * cols
    for i, c in enumerate(pivots):
        sol[c] = mat[i][cols]
    return sol


# ---------------------------------------------------------------------------
# the number type


class CyclotomicNumber:
    """An element of some Q(zeta_N), stored at its minimal conductor.

    The coefficient vector has length phi(N) and refers to the power basis
    1, zeta_N, ..., zeta_N^(phi(N)-1) after reduction mod Phi_N.
    """

    __slots__ = ("conductor", "coefficients")

    def __init__(self, conductor: int, coefficients: tuple[Fraction, ...], _canonical: bool = False):
        if _canonical:
            self.conductor = conductor
            self.coefficients = coefficients
            return
        value = CyclotomicNumber.from_terms(
            conductor, {k: c for k, c in enumerate(coefficients)}
        )
        self.conductor = value.conductor
        self.coefficients = value.coefficients

    # -- constructors

    @staticmethod
    def from_rational(q) -> "CyclotomicNumber":
        return CyclotomicNumber(1, (Fraction(q),), _canonical=True)

    @staticmethod
    def from_terms(conductor: int, terms: dict[int, Fraction | int]) -> "CyclotomicNumber":
        """Reduce a power sum  sum_k c_k * zeta_conductor^k  to canonical form."""
        n, folded = _canonical_conductor_terms(
            conductor, {k: Fraction(c) for k, c in terms.items()}
        )
        if n == 1:
            return CyclotomicNumber.from_rational(sum(folded.values(), _ZERO))
        phi = euler_phi(n)
        table = _power_table(n)
        acc = [_ZERO] * phi
        for k, c in folded.items():
            row = table[k]
            for j in range(phi):
                if row[j]:
                    acc[j] += c * row[j]
        return CyclotomicNumber._minimized(n, acc)

    @staticmethod
    def _minimized(n: int, coeffs: list[Fraction]) -> "CyclotomicNumber":
        # Descend one prime at a time: the minimal conductor divides every
        # conductor whose field holds the value, so when no n/q works, n is it.
        while n > 1 and any(coeffs[1:]):
            for d, t in _descent_steps(n):
                if _galois_raw(n, coeffs, t) == coeffs:
                    coeffs, n = _rebase(n, coeffs, d), d
                    break
            else:
                return CyclotomicNumber(n, tuple(coeffs), _canonical=True)
        return CyclotomicNumber(1, (coeffs[0],), _canonical=True)

    # -- predicates

    @property
    def is_rational(self) -> bool:
        return self.conductor == 1

    @property
    def is_real(self) -> bool:
        return self == self.conjugate()

    def as_rational(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"{self} is not rational")
        return self.coefficients[0]

    def as_integer(self) -> int:
        q = self.as_rational()
        if q.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return q.numerator

    # -- arithmetic

    def _lifted(self, m: int) -> list[Fraction]:
        """Coefficient vector of self inside Q(zeta_m); requires conductor | m."""
        n = self.conductor
        if n == m:
            return list(self.coefficients)
        step = m // n
        table = _power_table(m)
        acc = [_ZERO] * euler_phi(m)
        for k, c in enumerate(self.coefficients):
            if c:
                row = table[(k * step) % m]
                for j, rj in enumerate(row):
                    if rj:
                        acc[j] += c * rj
        return acc

    @staticmethod
    def _common(a: "CyclotomicNumber", b: "CyclotomicNumber"):
        m = a.conductor * b.conductor // math.gcd(a.conductor, b.conductor)
        if m == 2 or m % 4 == 2:  # cannot happen for canonical conductors
            m *= 2
        return m, a._lifted(m), b._lifted(m)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m, x, y = CyclotomicNumber._common(self, other)
        return CyclotomicNumber._minimized(m, [a + b for a, b in zip(x, y)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(
            self.conductor, tuple(-c for c in self.coefficients), _canonical=True
        )

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
            q = self.coefficients[0]
            return CyclotomicNumber._minimized(
                other.conductor, [q * c for c in other.coefficients]
            )
        if other.conductor == 1:
            return other * self
        m, x, y = CyclotomicNumber._common(self, other)
        phi = euler_phi(m)
        table = _power_table(m)
        acc = [_ZERO] * phi
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                k = i + j
                c = xi * yj
                if k < phi:
                    acc[k] += c
                else:
                    row = table[k % m]
                    for t, rt in enumerate(row):
                        if rt:
                            acc[t] += c * rt
        return CyclotomicNumber._minimized(m, acc)

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
        return CyclotomicNumber.from_terms(
            n, {(k * t) % n: c for k, c in enumerate(self.coefficients)}
        )

    def conjugate(self) -> "CyclotomicNumber":
        return self.galois(-1) if self.conductor > 1 else self

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
        return hash((self.conductor, self.coefficients))

    def sort_key(self):
        """Deterministic total order key (no arithmetic meaning)."""
        return (
            self.conductor,
            tuple((c.numerator, c.denominator) for c in self.coefficients),
        )

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


def _galois_raw(n: int, coeffs: list[Fraction], t: int) -> list[Fraction]:
    table = _power_table(n)
    acc = [_ZERO] * euler_phi(n)
    for k, c in enumerate(coeffs):
        if c:
            row = table[(k * t) % n]
            for j, rj in enumerate(row):
                if rj:
                    acc[j] += c * rj
    return acc


@functools.lru_cache(maxsize=None)
def _descent_steps(n: int) -> tuple[tuple[int, int], ...]:
    """For each prime q | n, the canonical conductor d of n/q and a generator
    t of Gal(Q(zeta_n)/Q(zeta_d)) = {t unit mod n : t = 1 (mod d)}: a value
    of Q(zeta_n) lies in Q(zeta_d) exactly when sigma_t fixes it.

    For canonical n that group is Z/q, (Z/q)^* or (Z/4)^*, so it is cyclic
    and an element of largest order generates it.
    """
    steps = []
    for q in prime_factors(n):
        d = n // q
        if d % 4 == 2:  # Q(zeta_2m) = Q(zeta_m) for odd m, and Q(zeta_2) = Q
            d //= 2
        kernel = [t for t in range(1, n) if (t - 1) % d == 0 and math.gcd(t, n) == 1]
        steps.append((d, max(kernel, key=lambda t: len({pow(t, i, n) for i in range(n)}))))
    return tuple(steps)


def _rebase(n: int, coeffs: list[Fraction], d: int) -> list[Fraction] | None:
    """Rewrite a vector known to lie in Q(zeta_d) <= Q(zeta_n) in the smaller basis."""
    if d == 1:
        return [coeffs[0]] if not any(coeffs[1:]) else None
    step = n // d
    table = _power_table(n)
    cols = [
        tuple(Fraction(v) for v in table[(step * i) % n]) for i in range(euler_phi(d))
    ]
    return _solve_exact(cols, coeffs)


def zeta(n: int, k: int = 1) -> CyclotomicNumber:
    """The root of unity zeta_n^k in canonical form."""
    return CyclotomicNumber.from_terms(n, {k: _ONE})


ZERO = CyclotomicNumber.from_rational(0)
ONE = CyclotomicNumber.from_rational(1)


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


def parse_cyclotomic(text: str) -> CyclotomicNumber:
    """Parse the grammar produced by render_cyclotomic."""
    s = text.strip()
    if not s:
        raise ValueError("empty cyclotomic literal")
    pos = 0
    total = CyclotomicNumber.from_rational(0)
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad cyclotomic literal near offset {pos}: {s[pos:pos + 20]!r}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ValueError(f"missing +/- between terms at offset {pos} in {text!r}")
        try:
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else _ONE
        except ZeroDivisionError:
            raise ValueError(f"zero denominator at offset {pos} in {text!r}") from None
        if sign == "-":
            coeff = -coeff
        zpart = m.group("zpart1") or m.group("zpart2")
        if zpart:
            zm = _Z_RE.fullmatch(zpart)
            assert zm is not None
            n = int(zm.group(1))
            k = int(zm.group(2)) if zm.group(2) is not None else 1
            term = CyclotomicNumber.from_terms(n, {k: coeff})
        else:
            term = CyclotomicNumber.from_rational(coeff)
        total = total + term
        pos = m.end()
        first = False
    return total
