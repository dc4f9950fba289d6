"""Binary polynomial arithmetic against independent oracles."""

import random

import pytest

from dnacodes.gf2poly import (
    Gf2Poly,
    GuardExceeded,
    ONE,
    X,
    ZERO,
    divisors_of_xn_minus_1,
    factor_xn_minus_1,
    ones_poly,
    x_pow_n_minus_1,
)
from helpers import convolution_mul, trial_division_irreducible


def bits_of(p: Gf2Poly) -> list:
    return list(p.coefficients())


def poly_of(bits) -> Gf2Poly:
    value = 0
    for i, b in enumerate(bits):
        if b:
            value |= 1 << i
    return Gf2Poly(value)


def test_zero_and_one_basics():
    assert ZERO.degree is None
    assert ONE.degree == 0
    assert X.degree == 1
    assert ZERO + ZERO == ZERO
    assert ONE * ONE == ONE
    assert str(X + ONE) == "x+1"


def test_mul_matches_convolution():
    rng = random.Random(0xC0FFEE)
    for _ in range(300):
        a = Gf2Poly(rng.randrange(0, 1 << 12))
        b = Gf2Poly(rng.randrange(0, 1 << 12))
        expect = poly_of(convolution_mul(bits_of(a), bits_of(b)))
        assert a * b == expect


def test_add_is_xor_and_self_inverse():
    rng = random.Random(7)
    for _ in range(200):
        a = Gf2Poly(rng.randrange(0, 1 << 16))
        b = Gf2Poly(rng.randrange(0, 1 << 16))
        assert (a + b) + b == a
        assert a + a == ZERO


def test_divmod_reconstructs():
    rng = random.Random(99)
    for _ in range(300):
        a = Gf2Poly(rng.randrange(0, 1 << 14))
        b = Gf2Poly(rng.randrange(1, 1 << 8))
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree is None or r.degree < b.degree
        assert a // b == q
        assert a % b == r


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(X, ZERO)


def test_gcd_divides_both_arguments():
    rng = random.Random(1234)
    for _ in range(200):
        a = Gf2Poly(rng.randrange(0, 1 << 10))
        b = Gf2Poly(rng.randrange(0, 1 << 10))
        g = a.gcd(b)
        if a == ZERO and b == ZERO:
            assert g == ZERO
            continue
        assert g.divides(a) or a == ZERO
        assert g.divides(b) or b == ZERO
        # gcd through a shared factor
        c = Gf2Poly(rng.randrange(1, 1 << 4))
        assert c.divides((a * c).gcd(b * c)) or (a == ZERO and b == ZERO)


def test_reciprocal_involution_and_fixed_points():
    rng = random.Random(5)
    for _ in range(200):
        # nonzero constant term so no degree is lost under reversal
        a = Gf2Poly(rng.randrange(0, 1 << 10) | 1)
        assert a.reciprocal().reciprocal() == a
    assert (X + ONE).is_self_reciprocal()
    assert Gf2Poly.from_string("x^2+x+1").is_self_reciprocal()
    f = Gf2Poly.from_string("x^3+x+1")
    assert f.reciprocal() == Gf2Poly.from_string("x^3+x^2+1")
    assert not f.is_self_reciprocal()


def test_irreducibility_matches_trial_division():
    for value in range(2, 1 << 9):
        assert Gf2Poly(value).is_irreducible() == trial_division_irreducible(
            value
        ), f"disagreement at value {value}"


def test_string_round_trips():
    rng = random.Random(42)
    for _ in range(100):
        a = Gf2Poly(rng.randrange(0, 1 << 12))
        assert Gf2Poly.from_string(str(a)) == a
        assert Gf2Poly.from_bitstring(a.to_bitstring()) == a
    assert str(Gf2Poly.from_string("x^3 + x + 1")) == "x^3+x+1"
    assert Gf2Poly.from_string("0") == ZERO
    assert Gf2Poly.from_string("1") == ONE


def test_x_pow_n_minus_1_and_ones():
    assert x_pow_n_minus_1(3) == Gf2Poly(0b1001)
    assert ones_poly(3) == Gf2Poly(0b111)
    assert x_pow_n_minus_1(7) == (X + ONE) * ones_poly(7)
    with pytest.raises(ValueError):
        x_pow_n_minus_1(0)


def test_factorization_of_x7_minus_1():
    factors = factor_xn_minus_1(7)
    assert [(str(f), m) for f, m in factors] == [
        ("x+1", 1),
        ("x^3+x+1", 1),
        ("x^3+x^2+1", 1),
    ]


def test_factorization_known_small_lengths():
    assert [(str(f), m) for f, m in factor_xn_minus_1(9)] == [
        ("x+1", 1),
        ("x^2+x+1", 1),
        ("x^6+x^3+1", 1),
    ]
    # even length: every factor carries the 2-power multiplicity
    assert [(str(f), m) for f, m in factor_xn_minus_1(10)] == [
        ("x+1", 2),
        ("x^4+x^3+x^2+x+1", 2),
    ]


def test_factorization_reconstructs_product():
    for n in range(1, 13):
        product = ONE
        for f, mult in factor_xn_minus_1(n):
            assert f.is_irreducible()
            for _ in range(mult):
                product = product * f
        assert product == x_pow_n_minus_1(n)


def test_divisors_of_x7_minus_1():
    divs = divisors_of_xn_minus_1(7)
    assert len(divs) == 8
    target = x_pow_n_minus_1(7)
    for d in divs:
        assert d.divides(target)
    assert len(set(divs)) == 8


def test_divisors_guard():
    with pytest.raises(GuardExceeded) as exc:
        divisors_of_xn_minus_1(7, guard=3)
    assert exc.value.size >= 4
