import math
import random
from fractions import Fraction

import pytest

from isoprod.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
    is_prime,
    parse_cyclotomic,
    render_cyclotomic,
    zeta,
)


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
    assert other == eta.conjugate()
    assert eta + other == -1
    assert eta * other == 2
    assert not eta.is_real
    assert eta.conductor == 7


def test_galois_identity_and_conjugation():
    x = rat(Fraction(5, 3)) + zeta(3) * 2
    assert x.galois(1) == x
    assert zeta(3).galois(2) == -1 - zeta(3)
    with pytest.raises(ValueError):
        zeta(6).galois(3)  # conductor minimizes to 3; 3 is not a unit mod 3


def test_rationality_and_reality_predicates():
    half5 = rat(Fraction(5, 2))
    assert half5.is_rational and half5.is_real
    assert not zeta(4).is_real
    sqrt2 = zeta(8) - zeta(8, 3)
    assert sqrt2.is_real and not sqrt2.is_rational
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
