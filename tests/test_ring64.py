"""Exhaustive checks of the 64-element chain ring and packed-word helpers."""

import random

import pytest

from dnacodes import ring64
from dnacodes.gf2poly import Gf2Poly


ALL = range(ring64.SIZE)


def test_additive_group_exhaustive():
    for a in ALL:
        assert ring64.add(a, 0) == a
        assert ring64.add(a, a) == 0
        for b in ALL:
            assert ring64.add(a, b) == ring64.add(b, a)
            assert ring64.add(a, b) in ALL


def test_multiplicative_structure_exhaustive():
    for a in ALL:
        assert ring64.mul(a, 1) == a
        assert ring64.mul(a, 0) == 0
        for b in ALL:
            assert ring64.mul(a, b) == ring64.mul(b, a)
    # associativity and distributivity over all triples
    for a in ALL:
        for b in ALL:
            ab = ring64.mul(a, b)
            for c in ALL:
                assert ring64.mul(ab, c) == ring64.mul(a, ring64.mul(b, c))
                assert ring64.mul(a, ring64.add(b, c)) == ring64.add(
                    ring64.mul(a, b), ring64.mul(a, c)
                )


def test_mul_table_matches_shift_and_xor_product():
    for a in ALL:
        for b in ALL:
            ref = 0
            for i in range(6):
                if (a >> i) & 1:
                    ref ^= (b << i) & ring64.MASK
            assert ring64.mul(a, b) == ref


def test_u_is_nilpotent_of_index_six():
    p = 1
    for k in range(1, 6):
        p = ring64.mul(p, ring64.U)
        assert p != 0, k
    assert ring64.mul(p, ring64.U) == 0


def test_complement_identity_exhaustive():
    for a in ALL:
        assert ring64.add(a, ring64.complement(a)) == ring64.ALL_ONES
        assert ring64.complement(ring64.complement(a)) == a


def test_units_are_odd_constant_terms():
    # an element with nonzero constant term times anything nonzero stays
    # nonzero
    for a in ALL[1::2]:
        for b in ALL:
            if b:
                assert ring64.mul(a, b) != 0


def test_ideal_member_counts():
    for i in range(7):
        members = ring64.ideal_members(i)
        assert len(members) == 2 ** (6 - i)
        for m in members:
            assert m % (1 << i) == 0 or m == 0


def test_gray_bijective_additive_and_lee():
    images = {ring64.gray_bits(a) for a in ALL}
    assert len(images) == 64
    for a in ALL:
        for b in ALL:
            ga, gb = ring64.gray_bits(a), ring64.gray_bits(b)
            assert ring64.gray_bits(ring64.add(a, b)) == tuple(
                x ^ y for x, y in zip(ga, gb)
            )
    for a in ALL:
        assert ring64.lee_weight(a) == sum(ring64.gray_bits(a))


def test_element_strings():
    assert ring64.element_str(0) == "0"
    assert ring64.element_str(1) == "1"
    assert ring64.element_str(3) == "u+1"
    assert ring64.element_str(ring64.ALL_ONES) == "u^5+u^4+u^3+u^2+u+1"
    assert ring64.to_bitstring(3) == "110000"
    assert ring64.from_bitstring("110000") == 3


def test_pack_unpack_round_trip():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randrange(1, 9)
        lanes = [rng.randrange(64) for _ in range(n)]
        w = ring64.WORDS.pack_word(lanes)
        assert list(ring64.WORDS.unpack_word(w, n)) == lanes


def test_word_shift_order_n():
    rng = random.Random(11)
    for n in (1, 2, 3, 5, 7):
        for _ in range(20):
            w = rng.randrange(1 << (6 * n))
            cur = w
            for _ in range(n):
                cur = ring64.WORDS.word_shift(cur, n)
            assert cur == w
            # one shift moves lane i to lane i+1
            shifted = ring64.WORDS.word_shift(w, n)
            lanes = list(ring64.WORDS.unpack_word(w, n))
            expect = [lanes[-1]] + lanes[:-1]
            assert list(ring64.WORDS.unpack_word(shifted, n)) == expect


def test_word_reverse_and_rc_are_involutions():
    rng = random.Random(12)
    words = ring64.WORDS
    for _ in range(100):
        n = rng.randrange(1, 8)
        w = rng.randrange(1 << (6 * n))
        assert words.word_reverse(words.word_reverse(w, n), n) == w
        assert (
            words.word_reverse_complement(words.word_reverse_complement(w, n), n)
            == w
        )


def test_word_scale_matches_lanewise_mul():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(1, 7)
        w = rng.randrange(1 << (6 * n))
        c = rng.randrange(64)
        scaled = ring64.word_scale(w, c, n)
        lanes = [ring64.mul(x, c) for x in ring64.WORDS.unpack_word(w, n)]
        assert list(ring64.WORDS.unpack_word(scaled, n)) == lanes
        assert ring64.word_scale_u(w, n) == ring64.word_scale(w, ring64.U, n)


def test_word_weights():
    rng = random.Random(14)
    for _ in range(200):
        n = rng.randrange(1, 8)
        w = rng.randrange(1 << (6 * n))
        lanes = list(ring64.WORDS.unpack_word(w, n))
        assert ring64.lee_weight(w) == sum(ring64.lee_weight(x) for x in lanes)


def test_word_from_poly_folds_modulo_xn_minus_1():
    # x^n folds onto the constant coordinate, so x^n - 1 maps to zero
    for n in (2, 3, 5, 7):
        xn = Gf2Poly((1 << n) | 1)
        assert ring64.word_from_poly(xn.value, n) == 0
        assert ring64.word_from_poly(1 << n, n) == ring64.word_from_poly(1, n)


def test_word_from_poly_levels():
    w = ring64.word_from_poly(0b101, 3, level=2)  # x^2 + 1 at level u^2
    lanes = list(ring64.WORDS.unpack_word(w, 3))
    assert lanes == [4, 0, 4]


def test_word_str_format():
    w = ring64.WORDS.pack_word([1, 0, 3])
    assert ring64.WORDS.word_str(w, 3) == "100000,000000,110000"
