import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoprod import cyclotomic
from isoprod.cyclotomic import (
    PARSE_CONDUCTOR_BOUND,
    CyclotomicNumber,
    _descent_steps,
    _galois_raw,
    _power_table,
    _rebase,
    _reduce,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    is_prime,
    parse_cyclotomic,
    prime_factors,
    ramanujan_sum,
    read_literal,
    render_cyclotomic,
    zeta,
)
from isoprod.groups import DEFAULT_ORDER_BOUND
from algebra_oracle import is_real


def rat(x):
    return CyclotomicNumber.from_rational(x)


def test_cyclotomic_polynomials():
    assert is_prime(13) and not is_prime(12) and not is_prime(1)
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in (5, 7, 8, 9, 15, 16, 21, 36, 84):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_minimal_polynomial_reductions():
    assert zeta(3) ** 2 + zeta(3) + 1 == 0
    assert zeta(4) ** 2 == -1
    assert zeta(5) ** 5 == 1
    assert zeta(8) ** 4 == -1
    with pytest.raises(ValueError):
        zeta(3) ** -1


def test_quadratic_gauss_period_in_conductor_seven():
    eta = zeta(7) + zeta(7, 2) + zeta(7, 4)
    # eta is a root of y^2 + y + 2, i.e. (-1 + sqrt(-7)) / 2 up to conjugation
    assert eta ** 2 + eta + 2 == 0
    other = eta.galois(3)
    assert other ** 2 + other + 2 == 0
    assert other != eta
    assert other == eta.galois(-1)
    assert eta + other == -1
    assert eta * other == 2
    assert not is_real(eta)
    assert eta.conductor == 7


def test_galois_identity_and_conjugation():
    x = rat(Fraction(5, 3)) + zeta(3) * 2
    assert x.galois(1) == x
    assert zeta(3).galois(2) == -1 - zeta(3)
    with pytest.raises(ValueError):
        zeta(6).galois(3)  # conductor minimizes to 3; 3 is not a unit mod 3


def test_rationality_and_reality_predicates():
    half5 = rat(Fraction(5, 2))
    assert half5.is_rational and is_real(half5)
    assert not is_real(zeta(4))
    sqrt2 = zeta(8) - zeta(8, 3)
    assert is_real(sqrt2) and not sqrt2.is_rational
    assert sqrt2 * sqrt2 == 2


def test_conductor_minimization_across_constructions():
    assert (zeta(12) ** 4).conductor == 3
    assert zeta(12) ** 4 == zeta(3)
    assert zeta(6) == -zeta(3) ** 2
    assert (zeta(8) ** 2) == zeta(4)
    assert (zeta(3) + zeta(3, 2)).conductor == 1
    assert zeta(3) + zeta(3, 2) == -1
    # re-expansion at a larger conductor lands on the same canonical form
    x = zeta(5) + 3
    lifted = CyclotomicNumber.from_terms(
        20, {k * 4: c for k, c in enumerate(x.coefficients)}
    )
    assert lifted == x


def _random_element(rng):
    n = rng.choice([1, 3, 4, 5, 7, 8, 9, 12])
    terms = {
        rng.randrange(n): Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        for _ in range(rng.randint(1, 4))
    }
    return CyclotomicNumber.from_terms(n, terms)


def test_field_laws_on_random_inputs():
    rng = random.Random(20260810)
    for _ in range(60):
        a, b, c = (_random_element(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == 0


def test_galois_is_a_ring_automorphism():
    rng = random.Random(7)

    def element_in(n):
        terms = {
            rng.randrange(n): Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            for _ in range(rng.randint(1, 4))
        }
        return CyclotomicNumber.from_terms(n, terms)

    for n in (5, 7, 8, 9, 12):
        units = [t for t in range(1, n) if math.gcd(t, n) == 1]
        for t in units:
            for _ in range(8):
                # a unit mod n stays a unit mod the minimized conductor d | n
                a = element_in(n)
                b = element_in(n)
                assert (a + b).galois(t) == a.galois(t) + b.galois(t)
                assert (a * b).galois(t) == a.galois(t) * b.galois(t)
        # sigma_t is a bijection on the set of n-th roots of unity
        powers = {zeta(n, k) for k in range(n)}
        for t in units:
            assert {x.galois(t) for x in powers} == powers


def test_round_trip_from_canonical_form():
    rng = random.Random(99)
    for _ in range(40):
        x = _random_element(rng)
        rebuilt = CyclotomicNumber.from_terms(
            max(x.conductor, 1), dict(enumerate(x.coefficients))
        )
        assert rebuilt == x


def test_render_and_parse_round_trip():
    rng = random.Random(2024)
    for _ in range(40):
        x = _random_element(rng)
        assert parse_cyclotomic(render_cyclotomic(x)) == x
    assert render_cyclotomic(rat(0)) == "0"
    assert parse_cyclotomic("1/2 - z(4)^1") == rat(Fraction(1, 2)) - zeta(4)
    assert parse_cyclotomic("-2") == rat(-2)
    with pytest.raises(ValueError):
        parse_cyclotomic("z(4)^1 z(3)^1")
    with pytest.raises(ValueError):
        parse_cyclotomic("")
    with pytest.raises(ValueError):
        parse_cyclotomic("2 - 1/0*z(3)^1")


_FACTORS = st.builds(
    lambda n, k, a, b: CyclotomicNumber.from_terms(n, {k: Fraction(a, b)}),
    st.sampled_from(divisors(120)), st.integers(-130, 130),
    st.integers(-6, 6), st.integers(1, 6),
)
_VALUES = st.recursive(
    _FACTORS,
    lambda inner: st.one_of(st.builds(lambda a, b: a + b, inner, inner),
                            st.builds(lambda a, b: a * b, inner, inner)),
    max_leaves=6,
)
# Edits that add no decimal digit: a conductor in the text can only shrink or
# break, so no example asks for a field far beyond Q(zeta_120).
_NON_DIGITS = st.one_of(st.sampled_from("+-*/^() z\n."),
                        st.characters(blacklist_categories=("Nd",)))


@settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@given(x=_VALUES)
def test_parse_inverts_render(x):
    assert parse_cyclotomic(render_cyclotomic(x)) == x


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@given(data=st.data())
def test_parse_rejects_malformed_text_with_value_error(data):
    text = render_cyclotomic(data.draw(_VALUES))
    mutated = data.draw(st.one_of(
        st.integers(0, len(text)).map(lambda i: text[:i]),
        st.tuples(st.integers(0, len(text) - 1), _NON_DIGITS).map(
            lambda ic: text[:ic[0]] + ic[1] + text[ic[0] + 1:]),
        st.tuples(st.integers(0, len(text)), _NON_DIGITS).map(
            lambda ic: text[:ic[0]] + ic[1] + text[ic[0]:]),
        st.text(st.one_of(_NON_DIGITS, st.sampled_from("z(3)^1")), max_size=30),
    ))
    try:
        value = parse_cyclotomic(mutated)
    except ValueError:
        return
    assert parse_cyclotomic(render_cyclotomic(value)) == value


def test_parse_rejects_non_ascii_digits():
    for digit in ("\u0663", "\u0969", "\uff13"):  # 3 in Arabic-Indic, Devanagari, fullwidth
        for template in ("{}", "-{}", "1/{}", "{}*z(3)^1", "z({})^1", "z(3)^{}",
                         "1 - {}/2*z(3)^1"):
            with pytest.raises(ValueError):
                parse_cyclotomic(template.format(digit))
            parse_cyclotomic(template.format("3"))  # the ASCII text parses


def test_parse_bounds_the_conductor():
    start = time.perf_counter()
    for text in ("z(2049)^1", "z(0)^1", "z(" + "9" * 40 + ")^1"):
        with pytest.raises(ValueError, match="needs conductor"):
            parse_cyclotomic(text)
    for text in ("z(389)^1 + z(397)^1", "1 - z(64)^1 + z(33)^1", "z(64)^1 + z(32)^1"):
        with pytest.raises(ValueError, match="mixes conductors"):
            parse_cyclotomic(text)
    assert time.perf_counter() - start < 1
    assert PARSE_CONDUCTOR_BOUND == DEFAULT_ORDER_BOUND
    # the bound is inclusive
    assert parse_cyclotomic("z(2048)^1024") == -1


def test_parse_refuses_what_the_renderer_never_writes():
    """One conductor per literal, unsigned exponents, an exponent on every
    z(N), one space on each side of a sign, a sign between terms and none
    before the first but "-"; the literal's own conductor is read back."""
    for text in ("z(3)^1 + z(5)^1", "1 + z(4)^1 - z(12)^1", "z(3)^-1", "1 + z(3)^-2",
                 "z(5)", "2*z(5)", "1  + z(3)^1", "1 +  z(3)^1", " 1 + z(3)^1 ",
                 "1 +z(3)^1", "1+ z(3)^1", "1 z(3)^1", "1 + z(3)^1 z(3)^2", "+1",
                 "+z(3)^1", "- z(3)^1", "--1", "1 + -z(3)^1", "2 * z(3)^1",
                 "z (3)^1", "z( 3)^1", "z(3) ^1", "1/-2", "", "-", "1 + "):
        with pytest.raises(ValueError):
            read_literal(text)
    assert read_literal("-1/2 + 3*z(12)^1 - z(12)^4") == (
        12, {0: Fraction(-1, 2), 1: 3, 4: -1})
    assert read_literal("-7") == (1, {0: -7})
    # values are canonicalised by from_terms: z(12)^4 reads as zeta_3
    assert parse_cyclotomic("z(12)^4") == zeta(3)
    assert parse_cyclotomic(" -z(5)^2 \n") == -zeta(5, 2)


def test_a_conductor_2_mod_4_is_written_at_its_odd_half(monkeypatch):
    """zeta_2m^k = (-1)^k zeta_m^(k(m+1)/2) for odd m, against the lift
    zeta_2m = zeta_4m^2 through the descent."""
    for m in range(1, 120, 2):
        for k in range(-3, 2 * m + 3):
            assert CyclotomicNumber.from_terms(2 * m, {k: 3}) == \
                CyclotomicNumber.from_terms(4 * m, {2 * k: 3}), (m, k)
    want, rebased = -zeta(9, 7), []
    monkeypatch.setattr(cyclotomic, "_rebase", lambda *a: rebased.append(a) or _rebase(*a))
    assert CyclotomicNumber.from_terms(18, {5: 1}) == want
    assert rebased == []


def test_power_tables_are_bounded():
    """The power tables of the last `maxsize` conductors are kept, no more."""
    bound = _power_table.cache_info().maxsize
    assert bound == 64
    for n in range(3, 3 + bound + 10):
        _power_table(n)
    assert _power_table.cache_info().currsize == bound


def _solve_exact(columns, target):
    """Solve sum_j x_j * columns[j] = target over Q by Gaussian elimination;
    None if inconsistent."""
    rows, cols = len(target), len(columns)
    mat = [[Fraction(columns[j][i]) for j in range(cols)] + [target[i]]
           for i in range(rows)]
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
    if any(mat[i][cols] != 0 for i in range(r, rows)):
        return None
    sol = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        sol[c] = mat[i][cols]
    return sol


def _dense_row(n, k):
    """zeta_n^k as its full coordinate vector, read from the sparse table."""
    row = [0] * euler_phi(n)
    for j, c in zip(*_power_table(n)[k]):
        row[j] = c
    return row


def _rebase_by_solving(n, coeffs, d):
    """Coordinates over Q(zeta_d), for any d | n, of a vector of Q(zeta_n):
    solve against the images of 1, zeta_d, ..., zeta_d^(phi(d)-1)."""
    return _solve_exact([_dense_row(n, n // d * i) for i in range(euler_phi(d))],
                        coeffs)


def _fixed_set_minimized(n, coeffs):
    """The earlier conductor search through the whole fixed subgroup of
    (Z/n)^*, kept as the oracle of the prime-by-prime descent.  For d = 1 the
    condition `t % d == 1` holds for no t, and the solve decides."""
    if n == 1 or not any(coeffs[1:]):
        return 1, (coeffs[0],)
    units = [t for t in range(1, n) if math.gcd(t, n) == 1]
    fixed = {t for t in units if _galois_raw(n, coeffs, t) == coeffs}
    if len(fixed) > 1:
        for d in divisors(n)[:-1]:
            if d == 2 or d % 4 == 2:
                continue
            if all(t in fixed for t in units if t % d == 1):
                rebased = _rebase_by_solving(n, coeffs, d)
                if rebased is not None:
                    return d, tuple(rebased)
    return n, tuple(coeffs)


DESCENT_CONDUCTORS = list(range(1, 91)) + [105, 120, 168, 210]


def _seeded_terms(rng, n):
    """Random power sums, Gauss periods over random unit subgroups, and
    traces of a root of unity down to a random Q(zeta_d): the latter two
    lie in proper subfields, often of a smaller conductor."""
    kind = rng.randrange(3)
    if kind == 0:
        return {rng.randrange(n): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(1, 5))}
    units = [t for t in range(1, n + 1) if math.gcd(t, n) == 1]
    if kind == 1:
        h, subgroup, x = rng.choice(units), set(), 1
        while x not in subgroup:
            subgroup.add(x)
            x = x * h % n
    else:
        d = rng.choice(divisors(n))
        subgroup = {t for t in units if (t - 1) % d == 0}
    a = rng.randrange(n)
    terms = {}
    for t in subgroup:
        terms[a * t % n] = terms.get(a * t % n, 0) + 1
    return terms


def _odd_half_terms(n, terms):
    """A power sum over zeta_n rewritten over zeta_m, m = n/2, when n = 2
    (mod 4), by zeta_2m^k = (-1)^k zeta_m^(k(m+1)/2) for odd m; for any
    other n the terms as they are."""
    if n % 4 != 2:
        return n, terms
    m = n // 2
    out = {}
    for k, c in terms.items():
        j = k * (m + 1) // 2 % m
        out[j] = out.get(j, 0) + (-c if k % 2 else c)
    return m, out


def test_conductor_descent_matches_fixed_set_oracle():
    rng = random.Random(5440)
    below = 0
    for n in DESCENT_CONDUCTORS:
        for _ in range(6):
            terms = _seeded_terms(rng, n)
            m, folded = _odd_half_terms(n, terms)
            acc = [Fraction(0)] * euler_phi(m)
            for k, c in folded.items():
                for j, r in zip(*_power_table(m)[k]):
                    acc[j] += c * r
            got = CyclotomicNumber.from_terms(n, terms)
            want = _fixed_set_minimized(m, acc)
            assert (got.conductor, got.coefficients) == want
            below += 1 < got.conductor < m
    assert below > 50  # proper subfields of conductor above 1 were hit


def test_descent_generators_span_the_relative_galois_group():
    """Each step's generator spans the kernel of (Z/n)^* -> (Z/d)^*, and it
    is the brute-force choice, the first kernel element of largest order: it
    has the full order, and every smaller kernel element a smaller one."""
    for n in DESCENT_CONDUCTORS + [2039, 2048]:
        steps = _descent_steps(n)
        assert len(steps) == len(prime_factors(n))
        for q, (d, t) in zip(prime_factors(n), steps):
            assert d == (n // q // 2 if n // q % 4 == 2 else n // q)
            want = {u % n for u in range(1, n + 1)
                    if math.gcd(u, n) == 1 and (u - 1) % d == 0}
            assert {pow(t, i, n) for i in range(1, n + 1)} == want
            assert all(len({pow(u, i, n) for i in range(n)}) < len(want)
                       for u in want if u < t)


def test_rebase_matches_exact_solve():
    """The relative-trace rebase against the Gaussian solve on random values
    of Q(zeta_d), lifted to Q(zeta_n), for every descent step n = d*r."""
    rng = random.Random(8128)
    cases = {"r | d": 0, "prime r, r not | d": 0, "r = 4": 0}
    for n in DESCENT_CONDUCTORS:
        if n % 4 == 2:  # not a conductor that the descent starts from
            continue
        for d, _ in _descent_steps(n):
            r = n // d
            case = "r | d" if d % r == 0 else "r = 4" if r == 4 else "prime r, r not | d"
            for _ in range(4):
                terms = _seeded_terms(rng, d)
                coeffs = _reduce(n, ((k * r, Fraction(c)) for k, c in terms.items()))
                assert _rebase(n, coeffs, d) == _rebase_by_solving(n, coeffs, d)
                cases[case] += 1
    assert all(count > 20 for count in cases.values()), cases


def test_power_table_rows_are_sparse():
    """Each row keeps only its nonzero coordinates: zeta^k for k < phi(n) is
    one basis vector, and the rows above it are few or short."""
    for n in (2039, 2048):
        table = _power_table(n)
        assert len(table) == n
        assert sum(len(positions) for positions, _ in table) < 3 * n
        assert all(len(p) == len(c) and all(c) for p, c in table)
    for n in DESCENT_CONDUCTORS:
        phi = euler_phi(n)
        x = [0] * phi
        x[0] = 1
        for k in range(n):  # row k is x^k mod Phi_n
            assert _dense_row(n, k) == x
            top, x = x[-1], [0] + x[:-1]
            x = [a - top * b for a, b in zip(x, cyclotomic_polynomial(n))]


def _lifted(x, m):
    """Coefficient vector of x inside Q(zeta_m), for a conductor dividing m."""
    step = m // x.conductor
    return _reduce(m, ((k * step, c) for k, c in enumerate(x.coefficients)))


def _pairwise_add(a, b):
    """The two-term sum as `+` computed it before the n-ary sum: lift both to
    the lcm of the conductors and minimize the sum of the coordinates."""
    m = math.lcm(a.conductor, b.conductor)
    x, y = _lifted(a, m), _lifted(b, m)
    return CyclotomicNumber._minimized(m, [p + q for p, q in zip(x, y)])


def _convolved_product(a, b):
    """The product as `*` computed it before one power sum: lift both to the
    lcm of the conductors, convolve the vectors and reduce once."""
    m = math.lcm(a.conductor, b.conductor)
    x, y = _lifted(a, m), _lifted(b, m)
    conv = [Fraction(0)] * (2 * len(x) - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    conv[i + j] += xi * yj
    return CyclotomicNumber._minimized(m, _reduce(m, enumerate(conv)))


def _fold(values):
    total = rat(0)
    for v in values:
        total = _pairwise_add(total, v)
    return total


def _same(x, y):
    return (x.conductor, x.coefficients) == (y.conductor, y.coefficients)


def test_sum_matches_pairwise_fold():
    """The n-ary sum, minimized once, equals the left fold of two-term sums
    each minimized, on seeded values over every descent conductor.  Some
    lists cancel down to one value or are Galois-closed, so that their total
    lies in a smaller field than the lcm of the conductors."""
    rng = random.Random(3307)
    mixed = descended = 0
    for n in DESCENT_CONDUCTORS:
        for kind in range(3):
            conductors = [rng.choice(divisors(n)) for _ in range(rng.randint(2, 5))]
            values = [CyclotomicNumber.from_terms(d, _seeded_terms(rng, d))
                      for d in conductors]
            if kind == 1:
                values += [-v for v in values[1:]]
                rng.shuffle(values)
            elif kind == 2:
                units = [t for t in range(1, n + 1) if math.gcd(t, n) == 1]
                values = [v.galois(t) for v in values[:2] for t in units]
            total = CyclotomicNumber.sum(values)
            assert _same(total, _fold(values))
            assert _same(CyclotomicNumber.sum(iter(values)), total)
            mixed += len({v.conductor for v in values}) > 1
            descended += total.conductor < math.lcm(*(v.conductor for v in values))
    assert mixed > 100 and descended > 50, (mixed, descended)


def test_sum_edge_cases():
    assert _same(CyclotomicNumber.sum(()), rat(0))
    for x in (rat(0), rat(Fraction(-3, 4)), zeta(7), zeta(8) - zeta(8, 3)):
        assert _same(CyclotomicNumber.sum([x]), x)
    # conductors 3 and 4 meet at their lcm 12
    total = CyclotomicNumber.sum([zeta(3), zeta(4), rat(2)])
    assert total.conductor == 12
    assert _same(total, _fold([zeta(3), zeta(4), rat(2)]))
    assert _same(total, zeta(3) + zeta(4) + 2)
    # totals that cancel to a rational or to 0 leave at conductor 1
    for values, want in (
        ([zeta(5, k) for k in range(1, 5)], rat(-1)),
        ([zeta(12), zeta(3), -zeta(12), zeta(3, 2)], rat(-1)),
        ([zeta(7), -zeta(7), zeta(9, 2), -zeta(9, 2)], rat(0)),
        ([zeta(8), zeta(8, 3), zeta(8, 5), zeta(8, 7), rat(Fraction(1, 3))],
         rat(Fraction(1, 3))),
    ):
        got = CyclotomicNumber.sum(values)
        assert _same(got, want) and _same(got, _fold(values))
    # `+` is the two-term case, with integers and Fractions coerced
    a, b = zeta(9, 2) * 3, zeta(4) - Fraction(1, 2)
    assert _same(a + b, CyclotomicNumber.sum((a, b)))
    assert _same(1 + a, CyclotomicNumber.sum((rat(1), a)))


def test_product_matches_lifted_convolution():
    """`*` as one power sum at the lcm of the conductors equals the product
    of the lifted vectors: on values at two different divisors of every
    descent conductor, and on x * conj(x), which lies in a real subfield."""
    rng = random.Random(6211)
    mixed = descended = 0
    for n in DESCENT_CONDUCTORS:
        conductors = [d for d in divisors(n) if d > 2 and d % 4 != 2]
        d1, d2 = rng.sample(conductors, 2) if len(conductors) > 1 else (n, n)
        a, b = (CyclotomicNumber.from_terms(d, {rng.randrange(d): rng.randint(1, 3)
                                                for _ in range(3)}) for d in (d1, d2))
        c = CyclotomicNumber.from_terms(n, _seeded_terms(rng, n))
        assert _same(a * b, b * a)
        for x, y in ((a, b), (c, a), (a, a.galois(-1)), (c, c.galois(-1))):
            product = x * y
            assert _same(product, _convolved_product(x, y)), (x, y)
            mixed += 1 < x.conductor != y.conductor > 1
            descended += product.conductor < math.lcm(x.conductor, y.conductor)
    assert mixed > 50 and descended > 50, (mixed, descended)


def test_ramanujan_sums_match_unit_sums():
    """c_n(k) = mu(m) phi(n)/phi(m) is the sum of zeta_n^(k*t) over the units
    t mod n, and c_n(k)/phi(n) is the mean trace of zeta_n^k."""
    for n in range(1, 61):
        units = [t for t in range(1, n + 1) if math.gcd(t, n) == 1]
        for k in range(n):
            c = ramanujan_sum(n, k)
            powers = {}
            for t in units:
                powers[k * t % n] = powers.get(k * t % n, 0) + 1
            assert CyclotomicNumber.from_terms(n, powers) == rat(c), (n, k)
            assert zeta(n, k).mean_trace() == Fraction(c, euler_phi(n)), (n, k)


@settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@given(x=_VALUES, t=st.sampled_from([7, 11, 13, 49, 59, 119]))
def test_mean_trace_is_the_mean_of_the_galois_conjugates(x, t):
    n = x.conductor
    units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
    mean = CyclotomicNumber.sum(x.galois(u) for u in units) * Fraction(1, len(units))
    assert x.mean_trace() == mean.as_rational()
    # the mean is the same over any field that holds the value
    assert x.galois(t).mean_trace() == x.mean_trace()


def _fresh_hash(x):
    if x.conductor == 1:
        return hash(x.coefficients[0])
    return hash((x.conductor, x.coefficients))


def _fresh_sort_key(x):
    return (x.conductor, tuple((c.numerator, c.denominator) for c in x.coefficients))


# every constructor and operation that makes a value; conductors divide 120,
# so the t below are units
_BUILT = st.one_of(
    _VALUES,
    _VALUES.map(lambda x: -x),
    st.builds(lambda x, t: x.galois(t), _VALUES, st.sampled_from([1, 7, 11, 13, 59, 119])),
    st.builds(zeta, st.sampled_from(divisors(120)), st.integers(-130, 130)),
    st.lists(_VALUES, max_size=4).map(CyclotomicNumber.sum),
    st.builds(lambda a, b: a * b, _VALUES, _VALUES),
    _VALUES.map(lambda x: parse_cyclotomic(render_cyclotomic(x))),
)


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@given(x=_BUILT, hash_first=st.booleans())
def test_memoised_hash_and_sort_key_match_a_fresh_computation(x, hash_first):
    for _ in range(2):  # the second round is answered by the memo
        if hash_first:
            assert hash(x) == _fresh_hash(x)
        assert x.sort_key() == _fresh_sort_key(x)
        assert hash(x) == _fresh_hash(x)
    # the same value built other ways: equal, and one hash
    for twin in (parse_cyclotomic(render_cyclotomic(x)), -(-x), x.galois(1) * 1,
                 CyclotomicNumber.sum([x, zeta(3), -zeta(3)])):
        assert twin == x and hash(twin) == hash(x) and twin.sort_key() == x.sort_key()


def test_minus_one_from_two_conductors_has_one_hash():
    a = CyclotomicNumber.from_terms(2, {1: 1})
    b = CyclotomicNumber.from_terms(4, {2: 1})
    assert a is not b and a == b == rat(-1)
    assert hash(a) == hash(b) == hash(rat(-1))
    assert a.sort_key() == b.sort_key()


def test_rational_values_hash_as_the_numbers_they_equal():
    """A rational value equals its int or Fraction, so the two are one key
    of a dict or a set, whichever side built it."""
    for q in (0, 1, -1, 7, -12, Fraction(1, 2), Fraction(-3, 4), Fraction(22, 7),
              Fraction(-5, 3)):
        for v in (rat(q), CyclotomicNumber.sum([rat(q), zeta(5), -zeta(5)])):
            assert v == q and hash(v) == hash(q) == hash(Fraction(q))
            assert {v: "x"}.get(q) == "x" and {q: "y"}.get(v) == "y"
            assert q in {v} and v in {q}
    # zeta_3 + zeta_3^2 = -1 reaches conductor 1 by descent
    assert {-1: "x"}.get(zeta(3) + zeta(3) ** 2) == "x"


def test_constructors_refuse_floats():
    """A float is not exact, so neither constructor takes one; ints and
    Fractions are taken, and an integral rational is stored as an int."""
    for bad in (0.1, 0.5, 1.0, float("nan")):
        with pytest.raises(TypeError):
            CyclotomicNumber.from_rational(bad)
        with pytest.raises(TypeError):
            CyclotomicNumber.from_terms(3, {1: bad})
        with pytest.raises(TypeError):
            CyclotomicNumber.from_terms(12, {0: 1, 5: Fraction(1, 2), 7: bad})
    for q, want in ((3, 3), (Fraction(6, 3), 2), (True, 1), (Fraction(1, 2), Fraction(1, 2))):
        (c,) = rat(q).coefficients
        assert c == want and type(c) is type(want)
    assert CyclotomicNumber.from_terms(3, {1: True}) == zeta(3)
    assert all(type(c) is int for c in CyclotomicNumber.from_terms(3, {1: True}).coefficients)


def _fraction_reduce(n, terms):
    """The reference reduction: `_reduce` with Fraction accumulators, as it
    was before int coordinates, so every coordinate it makes is a Fraction."""
    phi = euler_phi(n)
    table = _power_table(n)
    acc = [Fraction(0)] * phi
    for k, c in terms:
        if not c:
            continue
        k %= n
        if k < phi:
            acc[k] += c
            continue
        for j, rj in zip(*table[k]):
            acc[j] += c * rj
    return acc


def _all_fractions():
    """The module on the reference reduction, the descent dividing by phi(r)
    with `/` on Fractions, and the ZERO that `*` returns a Fraction."""
    return mock.patch.multiple(cyclotomic, _reduce=_fraction_reduce,
                               _divide=lambda c, m: Fraction(c) / m,
                               ZERO=CyclotomicNumber(1, (Fraction(0),)))


def _twin(spec):
    """One value built twice from a (conductor, {k: (a, b)}) spec: with int
    coordinates where a coefficient is integral, and all in Fractions on the
    reference reduction."""
    n, terms = spec
    exact = CyclotomicNumber.from_terms(
        n, {k: a if b == 1 else Fraction(a, b) for k, (a, b) in terms.items()})
    with _all_fractions():
        reference = CyclotomicNumber.from_terms(
            n, {k: Fraction(a, b) for k, (a, b) in terms.items()})
    return exact, reference


def _assert_twins(exact, reference, integral):
    assert exact == reference
    assert hash(exact) == hash(reference)
    assert exact.sort_key() == reference.sort_key()
    assert str(exact) == str(reference)
    assert all(type(c) is Fraction for c in reference.coefficients)
    assert all(type(c) in (int, Fraction) for c in exact.coefficients)
    if integral:
        assert all(type(c) is int for c in exact.coefficients)


_SPECS = st.tuples(
    st.sampled_from(divisors(120)),
    st.dictionaries(st.integers(-130, 130),
                    st.tuples(st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3])),
                    max_size=5),
)


@settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@given(x=_SPECS, y=_SPECS, t=st.sampled_from([1, 7, 11, 13, 49, 59, 119]))
def test_int_coordinates_match_the_all_fraction_oracle(x, y, t):
    """Int coordinates and the all-Fraction reference give equal values, one
    hash, one sort key and one rendering under every operation, on values
    with and without real denominators."""
    (a, ra), (b, rb) = _twin(x), _twin(y)
    integral = all(d == 1 for _, spec in (x, y) for _, d in spec.values())
    m = math.lcm(a.conductor, b.conductor, 120)

    def ops(p, q):
        return [p, q, p + q, p - q, p * q, p.galois(t), q.galois(t) * p,
                CyclotomicNumber.sum([p, q, p.galois(-1), -q]),
                # the descent from Q(zeta_m), and a sum of Galois conjugates,
                # which often lies in a smaller field
                CyclotomicNumber.from_terms(m, {k * (m // p.conductor): c
                                                for k, c in enumerate(p.coefficients)}),
                CyclotomicNumber.sum(p.galois(u) for u in (1, 7, 11, 13))]

    exact = ops(a, b)
    with _all_fractions():
        reference = ops(ra, rb)
        reference_traces = [r.mean_trace() for r in reference]
    for e, r in zip(exact, reference):
        _assert_twins(e, r, integral)
    assert [e.mean_trace() for e in exact] == reference_traces


def test_descent_divides_exactly():
    """The descent divides by phi(r) exactly: an int coordinate stays an
    int, and a coordinate with a real denominator comes out a Fraction."""
    for c, want in ((2, 2), (Fraction(1, 2), Fraction(1, 2)), (Fraction(4, 2), 2)):
        # c * zeta_5 = c * zeta_15^3, a step n = 15 = 5 * 3 with 3 not dividing 5
        coeffs = _reduce(15, [(3, c)])
        got = _rebase(15, coeffs, 5)
        assert got == [0, want, 0, 0] and type(got[1]) is type(want)
        value = CyclotomicNumber.from_terms(15, {3: c})
        assert value == zeta(5) * c and value.conductor == 5
    assert zeta(5).mean_trace() == Fraction(-1, 4)
    assert type((zeta(5) * 4).mean_trace()) is int
