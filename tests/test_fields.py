import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from conics92.errors import ZeroElement
from conics92.fields import (
    PrimeField,
    PrimeFieldElement,
    QuadExtField,
    complex_from_json,
    complex_to_json,
    ensure_finite,
    factorize,
    is_prime,
    is_square,
    square_class,
    squarefree_part,
)
from conics92.errors import UnsupportedField


def test_square_class_examples():
    assert square_class(-5.0).rep == -1
    assert square_class(PrimeFieldElement(5, 4)).rep == 1  # 4 = 2^2
    # 18/25 = 2*3^2/5^2 has squarefree kernel 2
    assert square_class(Fraction(18, 25)).rep == 2


def test_is_square_examples():
    assert not is_square(PrimeFieldElement(3, 2))  # squares mod 3 are {1}
    assert is_square(2.0)
    assert is_square(Fraction(9, 4))
    assert not is_square(Fraction(-9, 4))
    assert is_square(complex(-3, 1))  # every nonzero complex is a square


def test_zero_element_errors():
    with pytest.raises(ZeroElement):
        square_class(0.0)
    with pytest.raises(ZeroElement):
        is_square(Fraction(0))
    with pytest.raises(ZeroElement):
        square_class(PrimeFieldElement(7, 0))


def test_complex_square_class_is_trivial():
    assert square_class(complex(2, -3)).rep == 1


def test_square_class_kills_squares():
    rng = random.Random(0)
    for _ in range(200):
        x = Fraction(rng.randint(1, 400), rng.randint(1, 50)) * rng.choice((1, -1))
        y = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        assert square_class(x * y * y) == square_class(x)
    for _ in range(200):
        x = rng.uniform(-5, 5) or 1.0
        y = rng.uniform(0.1, 5)
        assert square_class(x * y * y) == square_class(x)
    for p in (3, 5, 13):
        fp = PrimeField(p)
        for x in range(1, p):
            for y in range(1, p):
                assert square_class(fp(x * y * y)) == square_class(fp(x))


def test_square_class_multiplicative():
    rng = random.Random(1)
    for _ in range(200):
        x = Fraction(rng.randint(1, 300)) * rng.choice((1, -1))
        y = Fraction(rng.randint(1, 300)) * rng.choice((1, -1))
        assert square_class(x) * square_class(y) == square_class(x * y)
    fp = PrimeField(11)
    for x in range(1, 11):
        for y in range(1, 11):
            assert square_class(fp(x)) * square_class(fp(y)) == square_class(fp(x * y))


def test_prime_field_square_counts():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97, 101):
        fp = PrimeField(p)
        squares = sum(1 for x in fp.units() if is_square(x))
        assert squares == (p - 1) // 2


def test_quad_ext_arithmetic():
    ext = QuadExtField(7)
    rng = random.Random(3)
    for _ in range(50):
        x = ext(rng.randrange(7), rng.randrange(7))
        if x == 0:
            continue
        assert x * x.inverse() == ext.one()
        assert x ** (7 * 7 - 1) == ext.one()


def test_quad_ext_square_count():
    ext = QuadExtField(3)
    squares = sum(1 for x in ext.elements() if (x.c0, x.c1) != (0, 0) and is_square(x))
    assert squares == (9 - 1) // 2


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_quad_ext_is_square_by_the_norm_matches_euler(p):
    # the reference: Euler's criterion in F_{p^2} itself
    ext = QuadExtField(p)
    for x in ext.elements():
        if x != 0:
            assert is_square(x) == (x ** ((p * p - 1) // 2) == 1)


def test_quad_ext_canonical_nonresidue():
    reps = {p: QuadExtField(p).canonical_nonresidue for p in (3, 5, 7, 11, 13)}
    assert {p: (x.c0, x.c1) for p, x in reps.items()} == {
        3: (1, 1), 5: (0, 1), 7: (1, 1), 11: (1, 1), 13: (0, 1)
    }


def test_squarefree_part_factoring():
    assert squarefree_part(450) == 2  # 2 * 3^2 * 5^2
    assert squarefree_part(-12) == -3
    assert squarefree_part(1) == 1
    # exercise the large-cofactor path (Pollard / perfect-square detection)
    p, q = 1_000_003, 1_000_033
    assert squarefree_part(p * p * q) == q
    assert squarefree_part(4 * p * q) == p * q
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_products_of_two_large_primes():
    # Pollard rho needs cycles longer than 256 steps to split these
    assert factorize(1_000_000_007 * 1_000_000_009) == {1_000_000_007: 1, 1_000_000_009: 1}
    assert factorize((2**31 - 1) * (2**61 - 1)) == {2**31 - 1: 1, 2**61 - 1: 1}


# primes up to 10^12: the largest one is 10^12 - 11
_primes = st.integers(1, 10**12 - 12).map(sympy.nextprime)


@settings(max_examples=20)
@given(_primes, _primes, st.integers(1, 10**6))
@example(10**12 - 11, 10**12 - 39, 10**6 - 17)  # the largest primes in range
def test_factorize_a_b_c_squared(a, b, c):
    assume(a != b)
    n = a * b * c * c
    factors = factorize(n)
    assert math.prod(q**e for q, e in factors.items()) == n
    assert all(is_prime(q) for q in factors)
    assert squarefree_part(n) == a * b


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(101) and is_prime(1_000_003)
    assert not is_prime(1) and not is_prime(561) and not is_prime(1_000_001)


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(9)
    assert PrimeField(5).least_nonresidue == 2
    assert PrimeField(7).least_nonresidue == 3


def test_serialization_round_trips():
    z = complex(1.5, -2.25)
    assert complex_from_json(complex_to_json(z)) == z
    with pytest.raises(UnsupportedField):
        ensure_finite(complex(float("inf"), 0))
    with pytest.raises(UnsupportedField):
        complex_to_json(complex(float("nan"), 0))


def test_prime_field_division():
    fp = PrimeField(7)
    x = fp(3)
    assert x / fp(5) * fp(5) == x
    assert 1 / x * x == fp.one()
    with pytest.raises(ZeroDivisionError):
        x / fp(0)
