"""Skew polynomials and skew cyclic codes over the four-element ring."""

import functools
import itertools
import random
from array import array

import pytest

from dnacodes import cyclic, metrics, skew
from dnacodes.gf2poly import Gf2Poly
from dnacodes.skew import ONE, V, V1, ZERO, SkewCode, SkewCodeError
from helpers import (
    closure_skew_words,
    full_orbit_words,
    gray_report_inputs,
    reference_gray_report,
    reference_poly_right_divmod,
)


def random_poly(rng, max_deg=6):
    return skew.poly_normalize(
        tuple(rng.randrange(4) for _ in range(rng.randrange(1, max_deg + 2)))
    )


def test_theta_is_an_order_two_automorphism():
    for a in range(4):
        assert skew.theta(skew.theta(a)) == a
        for b in range(4):
            assert skew.theta(a ^ b) == skew.theta(a) ^ skew.theta(b)
            assert skew.theta(skew.scalar_mul(a, b)) == skew.scalar_mul(
                skew.theta(a), skew.theta(b)
            )
    assert skew.theta(V) == V1
    assert skew.theta(ONE) == ONE


def test_scalar_ring_structure():
    # commutative, associative, distributive; v is idempotent
    for a in range(4):
        assert skew.scalar_mul(a, ONE) == a
        for b in range(4):
            assert skew.scalar_mul(a, b) == skew.scalar_mul(b, a)
            for c in range(4):
                assert skew.scalar_mul(skew.scalar_mul(a, b), c) == (
                    skew.scalar_mul(a, skew.scalar_mul(b, c))
                )
                assert skew.scalar_mul(a, b ^ c) == skew.scalar_mul(
                    a, b
                ) ^ skew.scalar_mul(a, c)
    assert skew.scalar_mul(V, V) == V
    assert skew.scalar_mul(V, V1) == ZERO


def test_complement_identities():
    # theta carries the complement pairs a, a + v to pairs that sum to
    # v + 1
    for a in range(4):
        assert skew.theta(a) ^ skew.theta(a ^ V) == V1


def test_scalar_strings():
    cases = {ZERO: "0", ONE: "1", V: "v", V1: "v+1"}
    for val, s in cases.items():
        assert skew.scalar_str(val) == s
        assert skew.parse_scalar(s) == val
    assert skew.parse_scalar("1+v") == V1
    assert skew.parse_scalar("(v+1)") == V1


def test_x_times_scalar_twists():
    x = (ZERO, ONE)
    for a in range(4):
        lhs = skew.poly_mul(x, (a,))
        rhs = skew.poly_mul((skew.theta(a),), x)
        assert lhs == rhs, a


def test_poly_mul_associative_and_distributive():
    rng = random.Random(700)
    for _ in range(250):
        f, g, h = (random_poly(rng) for _ in range(3))
        assert skew.poly_mul(skew.poly_mul(f, g), h) == skew.poly_mul(
            f, skew.poly_mul(g, h)
        )
        assert skew.poly_mul(f, skew.poly_add(g, h)) == skew.poly_add(
            skew.poly_mul(f, g), skew.poly_mul(f, h)
        )


def unpacked_divmod(dividend, divisor):
    """skew.poly_right_divmod on coefficient sequences, through
    pack_poly and unpack_poly."""
    q, r = skew.poly_right_divmod(
        skew.pack_poly(dividend), skew.pack_poly(divisor))
    return skew.unpack_poly(q), skew.unpack_poly(r)


def test_right_divmod_reconstructs():
    rng = random.Random(701)
    for _ in range(250):
        f = random_poly(rng)
        g = random_poly(rng, max_deg=3)
        if skew.poly_degree(g) is None or g[-1] != ONE:
            continue  # right division needs a monic divisor
        q, r = unpacked_divmod(f, g)
        assert skew.poly_add(skew.poly_mul(q, g), r) == skew.poly_normalize(f)
        assert skew.poly_degree(r) is None or skew.poly_degree(
            r
        ) < skew.poly_degree(g)


def test_right_divmod_rejects_bad_divisors():
    with pytest.raises(ZeroDivisionError):
        unpacked_divmod((ONE,), ())
    with pytest.raises(ValueError):
        unpacked_divmod((ONE, ONE), (V, ONE, V))  # leading v


def test_right_divmod_matches_reference_on_every_divisor_candidate():
    for n in range(2, 9):
        target = skew.x_pow_n_minus_1(n)
        for d in range(1, n):
            for packed in skew.monic_right_divisor_candidates(n, d):
                g = skew.unpack_poly(packed)
                want = reference_poly_right_divmod(target, g)
                assert unpacked_divmod(target, g) == want, (n, g)


def test_right_divmod_matches_reference_on_random_pairs():
    # degrees past 8 lanes (one 64-bit word) and trailing zero
    # coefficients on both operands, which neither side may keep
    rng = random.Random(2014)
    for _ in range(3000):
        f = [rng.randrange(4) for _ in range(rng.randrange(41))]
        g = [rng.randrange(4) for _ in range(rng.randrange(41))] + [ONE]
        f += [ZERO] * rng.randrange(3)
        g += [ZERO] * rng.randrange(3)
        want = reference_poly_right_divmod(f, g)
        assert unpacked_divmod(tuple(f), tuple(g)) == want, (f, g)
        assert unpacked_divmod(f, g) == want, (f, g)


@pytest.mark.parametrize("divisor, error", [
    ((), ZeroDivisionError),
    ((ZERO, ZERO), ZeroDivisionError),
    ((ONE, V), ValueError),
    ((ONE, ONE, V1), ValueError),
    ((V1, ZERO, V, ZERO), ValueError),
])
def test_right_divmod_raises_as_the_reference(divisor, error):
    for dividend in ((), (ONE,), (ONE, ZERO, V, ONE)):
        with pytest.raises(error):
            reference_poly_right_divmod(dividend, divisor)
        with pytest.raises(error):
            unpacked_divmod(dividend, divisor)


def test_reciprocal_worked_example():
    f = (V, V1, V, ONE)  # x^3 + v x^2 + (v+1) x + v, lowest degree first
    assert skew.poly_str(f) == "x^3+v*x^2+(v+1)*x+v"
    fs = skew.poly_reciprocal(f)
    assert fs == (ONE, V, V1, V)
    assert skew.poly_str(fs) == "v*x^3+(v+1)*x^2+v*x+1"


def test_reciprocal_involution():
    rng = random.Random(702)
    for _ in range(200):
        f = random_poly(rng)
        if not f or f[0] == ZERO:
            continue  # reversal keeps degree only with nonzero constant term
        assert skew.poly_reciprocal(skew.poly_reciprocal(f)) == f


def test_reciprocal_product_rule_when_left_degree_is_even_or_right_is_binary():
    rng = random.Random(703)
    checked = 0
    while checked < 500:
        f = random_poly(rng)
        g = random_poly(rng)
        df = skew.poly_degree(f)
        if df is None or skew.poly_degree(g) is None:
            continue
        binary_right = all(c in (ZERO, ONE) for c in g)
        if df % 2 != 0 and not binary_right:
            continue
        prod = skew.poly_mul(f, g)
        # zero divisors can cancel the leading term (or the whole product);
        # the reversal argument needs the full degree
        if skew.poly_degree(prod) != df + skew.poly_degree(g):
            continue
        lhs = skew.poly_reciprocal(prod)
        rhs = skew.poly_mul(skew.poly_reciprocal(f), skew.poly_reciprocal(g))
        assert lhs == rhs, (f, g)
        checked += 1


@pytest.mark.xfail(
    strict=True,
    reason="the product rule (f*g)* = f* g* fails when the left factor has "
    "odd degree and the right factor has a coefficient moved by theta; "
    "smallest counterexample f=x, g=v",
)
def test_reciprocal_product_rule_unrestricted():
    f = (ZERO, ONE)  # x
    g = (V,)
    lhs = skew.poly_reciprocal(skew.poly_mul(f, g))
    rhs = skew.poly_mul(skew.poly_reciprocal(f), skew.poly_reciprocal(g))
    assert lhs == rhs


def test_poly_parse_round_trip():
    rng = random.Random(704)
    for _ in range(150):
        f = random_poly(rng)
        assert skew.parse_skew_poly(skew.poly_str(f)) == f
    assert skew.parse_skew_poly("x^3+v*x^2+(v+1)*x+v") == (V, V1, V, ONE)
    assert skew.parse_skew_poly("0") == ()


def test_word_operations_round_trip():
    rng = random.Random(705)
    for _ in range(150):
        n = rng.choice((2, 4, 6, 8, 10))
        lanes = [rng.randrange(4) for _ in range(n)]
        w = skew.WORDS.pack_word(lanes)
        assert skew.dna_to_word(skew.word_to_dna(w, n)) == w
        # n applications of the skew shift give theta^n = identity (n even)
        cur = w
        for _ in range(n):
            cur = skew.skew_shift(cur, n)
        assert cur == w


def test_word_theta_and_scale():
    rng = random.Random(706)
    for _ in range(100):
        n = rng.choice((2, 4, 6))
        w = rng.randrange(1 << (2 * n))
        unpack = skew.WORDS.unpack_word
        assert list(unpack(skew.word_theta(w, n), n)) == [
            skew.theta(a) for a in unpack(w, n)
        ]
        assert list(unpack(skew.word_scale_v(w, n), n)) == [
            skew.scalar_mul(V, a) for a in unpack(w, n)
        ]


def test_dna_letter_map():
    pack = skew.WORDS.pack_word
    assert skew.word_to_dna(pack([ZERO, ONE, V, V1]), 4) == "GACT"
    assert skew.WORDS.complement_word(4) == pack([V, V, V, V])


def test_gray_map_values_and_commutation():
    # phi(a + vb) = (a+b, a): images of 0,1,v,v+1 as bit pairs
    assert skew.gray_image(skew.WORDS.pack_word([ZERO]), 1) == 0b00
    assert skew.gray_image(skew.WORDS.pack_word([ONE]), 1) == 0b11
    assert skew.gray_image(skew.WORDS.pack_word([V]), 1) == 0b01
    assert skew.gray_image(skew.WORDS.pack_word([V1]), 1) == 0b10
    rng = random.Random(708)
    for _ in range(200):
        n = rng.choice((2, 4, 6, 8))
        w = rng.randrange(1 << (2 * n))
        v2 = rng.randrange(1 << (2 * n))
        # linearity
        assert skew.gray_image(w ^ v2, n) == skew.gray_image(
            w, n
        ) ^ skew.gray_image(v2, n)
        # the image of the skew shift is the twisted block shift
        assert skew.gray_image(
            skew.skew_shift(w, n), n
        ) == skew.gray_skew_shift(skew.gray_image(w, n), n)
        # two skew shifts act as a plain rotation by two coordinates
        assert skew.gray_image(
            skew.skew_shift(skew.skew_shift(w, n), n), n
        ) == skew.WORDS.word_shift(skew.gray_image(w, n), n, lanes=2)


def test_case1_code_validation():
    code = SkewCode.from_case1(2, (ONE, ONE))
    assert sorted(skew.WORDS.unpack_word(w, 2) for w in code.words(2**8)) == [
        (0, 0),
        (1, 1),
        (2, 2),
        (3, 3),
    ]
    with pytest.raises(SkewCodeError):
        SkewCode.from_case1(3, (ONE, ONE))  # odd length
    with pytest.raises(SkewCodeError):
        SkewCode.from_case1(4, (V, ONE, ONE, ZERO, V))  # not monic
    with pytest.raises(SkewCodeError):
        SkewCode.from_case1(2, (V, ONE))  # x + v does not divide x^2 - 1


def test_case3_code_validation():
    code = SkewCode.from_case3(2, (V, V))
    assert code.case == 3
    # v*(x^2+1) is fine at n=2 since x^2+1 = (x+1)^2 divides x^2-1
    assert SkewCode.from_case3(2, (V, ZERO, V)).case == 3
    with pytest.raises(SkewCodeError):
        SkewCode.from_case3(2, (ONE, ONE))  # not a v or v+1 multiple
    with pytest.raises(SkewCodeError):
        SkewCode.from_case3(2, (V, ZERO, ZERO, V))  # x^3+1 does not divide
    with pytest.raises(SkewCodeError):
        SkewCode.from_case3(2, (V, V1))  # mixed units break the v*f1 shape


def test_case_is_read_from_the_generators():
    for gens in ([(ONE, ONE), (V, V)], [(V, V), (ONE, ONE)]):
        code = SkewCode(4, gens)
        assert code.case == 2
        assert code.size() == len(code.words(2**8)) == 64
    for gens in ([(ONE, ONE), (ONE, ZERO, ONE)],  # two monic
                 [(V, V), (V1,)],  # two scaled
                 [],
                 [(ONE, ONE), (V, V), (V,)],
                 [(ONE, ONE), ()]):  # a zero generator
        with pytest.raises(SkewCodeError):
            SkewCode(4, gens)
    for n in (2, 4, 6, 8):
        for code in skew.all_codes(n):
            assert SkewCode(n, code.generators).case == code.case


def test_enumeration_matches_bfs_closure():
    rng = random.Random(709)
    codes = [
        SkewCode.from_case1(2, (ONE, ONE)),
        SkewCode.from_case3(2, (V,)),
        SkewCode.from_case3(4, (V1, V1)),
    ]
    for g in skew.monic_right_divisors(4):
        codes.append(SkewCode.from_case1(4, g))
    for code in codes:
        words = set(code.words(2**14))
        closure = closure_skew_words(code.spanning_words(), code.n)
        assert words == closure


def test_orbit_cut_keeps_the_full_orbit_basis():
    codes = [code for n in range(2, 11, 2) for code in skew.all_codes(n)]
    for n in (4, 6, 8):  # case 2: one generator of each shape
        scaled = [code.generators[0] for code in skew.iter_case3_codes(n)]
        for g in skew.monic_right_divisors(n):
            codes += [SkewCode(n, [g, f]) for f in scaled]
    assert {code.case for code in codes} == {1, 2, 3}
    for code in codes:
        full = full_orbit_words(code)
        assert code.basis() == cyclic.Echelon(full).basis(), code
        kept = code.spanning_words()
        # every kept word raises the dimension: at most dim + one word
        # per orbit start, and in fact exactly dim
        assert len(kept) == cyclic.Echelon(kept).dim == code.dim
        assert len(kept) <= code.dim + 2 * len(code.generators)


def test_words_come_out_ascending():
    codes = [SkewCode.from_case3(4, (V1, V1)), SkewCode.from_case3(6, (V,))]
    for n in (4, 6):
        codes += [SkewCode.from_case1(n, g) for g in skew.monic_right_divisors(n)]
    for code in codes:
        words = code.words(2**14)
        assert list(words) == sorted(set(words))


def test_monic_right_divisor_counts_frozen():
    expected = {2: 1, 4: 5, 6: 11, 8: 29, 10: 31}
    for n, count in expected.items():
        divs = skew.monic_right_divisors(n)
        assert len(divs) == count, n
        target = skew.x_pow_n_minus_1(n)
        for g in divs:
            q, r = unpacked_divmod(target, g)
            assert r == ()
            assert skew.two_sided_factorization_holds(n, g)


def test_divisor_search_makes_one_division_per_candidate(monkeypatch):
    # the traced benchmark pins these counts; a skipped or cached call
    # would change them
    calls = [0]
    divide = skew.poly_right_divmod

    def counting(dividend, divisor):
        calls[0] += 1
        return divide(dividend, divisor)

    monkeypatch.setattr(skew, "poly_right_divmod", counting)
    for n in range(2, 9):
        calls[0] = 0
        divisors = skew.monic_right_divisors(n)
        assert calls[0] == (4 ** (n - 1) - 1) // 3, n
        if n % 2 == 0:
            calls[0] = 0
            skew.all_codes(n)
            assert calls[0] == (4 ** (n - 1) - 1) // 3 + len(divisors), n


def test_divisor_candidates_in_product_order():
    for n in range(2, 9):
        for d in range(1, n):
            got = [skew.unpack_poly(g)
                   for g in skew.monic_right_divisor_candidates(n, d)]
            want = [(ONE,) + middle + (ONE,)
                    for middle in itertools.product(range(4), repeat=d - 1)]
            assert got == want, (n, d)


def test_pack_poly_round_trips():
    rng = random.Random(2030)
    polys = [(), (ZERO,), (ZERO, ZERO), (ONE,), (ZERO, V1), (V, ZERO, ZERO)]
    polys += [[rng.randrange(4) for _ in range(rng.randrange(41))]
              + [ZERO] * rng.randrange(3) for _ in range(200)]
    for p in polys:
        x = skew.pack_poly(p)
        assert skew.unpack_poly(x) == skew.poly_normalize(p), p
        assert skew.pack_poly(skew.unpack_poly(x)) == x, p


def test_case3_code_count_n10():
    codes = list(skew.iter_case3_codes(10))
    # 8 proper binary divisors of x^10 - 1 times the two unit scalings
    assert len(codes) == 16


def test_rc_campaign_clean_lengths():
    res = skew.rc_campaign(lengths=(2, 4, 6), guard=2**14)
    assert res.violations == []
    # case 1: 1 + 5 + 11 divisors; case 3: 2*(2 + 4 + 8) scaled generators
    assert res.codes_checked == (1 + 5 + 11) + 2 * (2 + 4 + 8)


@pytest.mark.xfail(
    strict=True,
    reason="at length 8 there are generators that satisfy the sufficient "
    "condition (self-reciprocal, v-identity member) whose codes are not "
    "reverse-complement closed, and closed codes whose generators are not "
    "self-reciprocal",
)
def test_rc_campaign_length_eight_has_no_violations():
    res = skew.rc_campaign(lengths=(8,), guard=2**16)
    assert res.violations == []


def test_rc_campaign_length_eight_frozen_violations():
    res = skew.rc_campaign(lengths=(8,), guard=2**16)
    assert sorted(res.violations) == sorted(
        [
            "n=8, case1:<x^2+v*x+1>: sufficiency but not closed",
            "n=8, case1:<x^2+(v+1)*x+1>: sufficiency but not closed",
            "n=8, case1:<x^4+v*x^3+v*x+1>: sufficiency but not closed",
            "n=8, case1:<x^4+(v+1)*x^3+x^2+v*x+1>: closed but necessity fails",
            "n=8, case1:<x^4+(v+1)*x^3+(v+1)*x+1>: sufficiency but not closed",
            "n=8, case1:<x^4+v*x^3+x^2+(v+1)*x+1>: closed but necessity fails",
        ]
    )


def test_length_eight_counterexamples_in_detail():
    """The six length-8 cases, checked directly against enumeration."""
    open_suff = [(ONE, V, ONE), (ONE, V1, ONE),
                 (ONE, V, ZERO, V, ONE), (ONE, V1, ZERO, V1, ONE)]
    for g in open_suff:
        code = SkewCode.from_case1(8, g)
        assert skew.is_self_reciprocal(g)
        assert code.contains_complement_word()
        closed, witness = cyclic.rc_closed_extensional(code, code.words(2**16))
        assert not closed
        assert witness is not None
    closed_no_necessity = [(ONE, V, ONE, V1, ONE), (ONE, V1, ONE, V, ONE)]
    for g in closed_no_necessity:
        code = SkewCode.from_case1(8, g)
        assert not skew.is_self_reciprocal(g)
        closed, _ = cyclic.rc_closed_extensional(code, code.words(2**16))
        assert closed


def test_rc_report_consistency_fields():
    code = SkewCode.from_case3(10, tuple([V] * 10))
    rep = cyclic.rc_report(code)
    assert rep.complement_word_member
    assert rep.generators_self_reciprocal
    assert rep.rc_closed
    assert rep.sufficiency_satisfied
    assert rep.sufficiency_implies_closure
    assert rep.closure_implies_necessity


def test_gray_report_plain_shift_two_counterexample():
    code = SkewCode.from_case3(2, (V,))
    rep = cyclic.gray_image_report(
        code.gray_image(code.words(2**8)), 4, code.gray_maps()
    )
    assert rep.linear
    assert rep.closed["skew_shift2"]
    assert rep.closed["plain_shift4"]
    assert not rep.closed["plain_shift2"]


def test_search_codes_containing_finds_known_code():
    code = SkewCode.from_case1(10, (ONE, ONE))
    strings = [skew.word_to_dna(w, 10) for w in code.words(2**20)]
    res = skew.search_codes_containing(strings[:32], 10)
    assert any("x+1" in label for label in res.matches)
    # a weight-one word generates the whole ambient module, so no proper
    # code can contain it
    res_neg = skew.search_codes_containing(["AGGGGGGGGG"], 10)
    assert res_neg.matches == []


def test_gray_report_matches_reference_on_codes_and_non_codes():
    # the basis certificate against an Echelon over the whole image and
    # per-word loops for all three shifts
    codes = [
        SkewCode.from_case3(2, (V,)),
        SkewCode.from_case1(4, skew.parse_skew_poly("x^2+1")),
        SkewCode.from_case1(6, skew.parse_skew_poly("x^3+1")),
        SkewCode.from_case1(8, skew.parse_skew_poly("x^4+v*x^3+v*x+1")),
    ]
    for code in codes:
        n, maps = code.n, code.gray_maps()
        for label, inputs in gray_report_inputs(code, 2 * n):
            got = cyclic.gray_image_report(code.gray_image(inputs), 2 * n, maps)
            image = {skew.gray_image(w, n) for w in inputs}
            assert got == reference_gray_report(image, 2 * n, maps), (
                code, label)


def test_gray_report_on_linear_sets_that_are_not_shift_closed():
    rng = random.Random(12)
    n = 4
    code = SkewCode.from_case1(n, skew.parse_skew_poly("x+1"))
    maps = code.gray_maps()
    open_sets = 0
    for dim in (1, 1, 1, 2, 2, 3, 5):
        vectors = [rng.getrandbits(2 * n) for _ in range(dim)]
        words = cyclic.Echelon(vectors).span()
        for inputs in (sorted(words), words, set(words)):
            got = cyclic.gray_image_report(code.gray_image(inputs), 2 * n, maps)
            image = {skew.gray_image(w, n) for w in inputs}
            assert got == reference_gray_report(image, 2 * n, maps)
            assert got.linear
            open_sets += not all(got.closed.values())
    assert open_sets >= 15


@functools.lru_cache(maxsize=1)
def _campaign_codes():
    """(code, words) for every code skew.rc_campaign enumerates."""
    codes = [code for n in (2, 4, 6, 8, 10) for code in skew.all_codes(n)]
    return [(code, code.words(2**16)) for code in codes if code.size() <= 2**16]


def test_component_min_hamming_matches_the_word_scan():
    # the campaign's codes, case-2 codes (each case-3 generator with a
    # random monic divisor) and a code past 64 bits
    codes = list(_campaign_codes())
    assert len(codes) == 136
    rng = random.Random(28)
    pairs = []
    for n in (4, 6, 8):
        monic = skew.monic_right_divisors(n)
        scaled = [c.generators[0] for c in skew.iter_case3_codes(n)]
        pairs += [SkewCode(n, [rng.choice(monic), f]) for f in scaled]
    wide = SkewCode(34, [skew.parse_skew_poly(
        "v*x^26+v*x^25+v*x^23+v*x^20+v*x^18+v*x^17+v*x^9+v*x^8+v*x^6+v*x^3"
        "+v*x+v")])
    codes += [(code, code.words(2**16)) for code in pairs + [wide]]
    assert isinstance(codes[-1][1], list)
    for code, words in codes:
        want = metrics.min_nonzero_hamming_weight(words, code.n, code.lanes)
        assert code.min_hamming(words, 2**16) == want, code
    for words in ([0], [], array("Q", [0]), array("Q")):
        with pytest.raises(ValueError):
            metrics.min_nonzero_hamming_weight(words, 4, skew.WORDS)


def test_gray_image_in_word_order_matches_the_sorted_report():
    # the image in the words' own order is certified as it stands, and
    # reports as the ascending image does; plain_shift2 is closed exactly
    # for the codes with a cyclic component
    cyclic_components = 0
    for code, words in _campaign_codes():
        n, maps = code.n, code.gray_maps()
        image = code.gray_image(words)
        assert isinstance(image, array)
        assert list(image) == [skew.gray_image(w, n) for w in words]
        assert cyclic.linear_basis(image) is not None
        got = cyclic.gray_image_report(image, 2 * n, maps)
        want = cyclic.gray_image_report(
            sorted(skew.gray_image(w, n) for w in words), 2 * n, maps)
        assert got == want, code
        cyclic_components += got.closed["plain_shift2"]
    assert cyclic_components == 42
