"""Cyclic codes over the 64-element chain ring."""

import random

import pytest

from dnacodes import cyclic, metrics, ring64
from dnacodes.cyclic import (
    CyclicCodeR,
    Echelon,
    TowerError,
    iter_admissible_towers,
    single_generator_code,
)
from dnacodes.gf2poly import Gf2Poly, GuardExceeded, x_pow_n_minus_1
from helpers import closure_r_words


F0 = Gf2Poly.from_string("x+1")
F1 = Gf2Poly.from_string("x^3+x+1")
F2 = Gf2Poly.from_string("x^3+x^2+1")


def table3_code():
    return single_generator_code(7, 4, F0 * F1)


def test_echelon_dim_and_membership():
    rng = random.Random(50)
    for _ in range(50):
        vecs = [rng.randrange(1 << 12) for _ in range(6)]
        ech = Echelon(vecs)
        span = {0}
        for v in vecs:
            span |= {w ^ v for w in span}
        assert ech.dim == len(span).bit_length() - 1
        assert 2**ech.dim == len(span)
        for v in list(span)[:16]:
            assert ech.contains(v)
        assert sorted(ech.span()) == sorted(span)


def test_echelon_span_guard():
    ech = Echelon([1, 2, 4, 8, 16])
    with pytest.raises(GuardExceeded) as exc:
        ech.span(guard=7)
    assert exc.value.size == 32


def test_validate_tower_odd_chain():
    polys = [F0 * F1, F0 * F1, F1, F1, Gf2Poly(1), Gf2Poly(1)]
    got = cyclic.validate_tower(7, polys)
    assert got == tuple(polys)
    # break the chain: f1 does not divide f0
    with pytest.raises(TowerError):
        cyclic.validate_tower(7, [F1, F2, Gf2Poly(1), Gf2Poly(1), Gf2Poly(1), Gf2Poly(1)])
    # not a divisor of x^n - 1
    with pytest.raises(TowerError):
        cyclic.validate_tower(7, [Gf2Poly.from_string("x^2+x+1")] * 6)


def test_validate_tower_even_no_chain_needed():
    # x^4-1 = (x+1)^4; for even n only f_i | f0 | x^n-1 is required
    a = Gf2Poly.from_string("x+1")
    sq = a * a
    polys = [sq, a, sq, a, sq, a]  # not a chain, but every f_i divides f0? no:
    # f0 = sq and a | sq, so this is admissible for even n
    got = cyclic.validate_tower(4, polys)
    assert got[0] == sq
    with pytest.raises(TowerError):
        # f2 does not divide f0
        cyclic.validate_tower(4, [a, a, sq, a, a, a])


def test_words_match_bfs_closure_small():
    # generators inside u^3 R^n keep both enumerations small
    rng = random.Random(61)
    for _ in range(12):
        n = rng.choice((2, 3))
        gens = []
        for _ in range(rng.choice((1, 2))):
            lanes = [rng.randrange(8) << 3 for _ in range(n)]
            w = ring64.pack_word(lanes)
            if w:
                gens.append(w)
        if not gens:
            continue
        code = CyclicCodeR(n, gens)
        words = set(code.words(2**16))
        assert words == closure_r_words(gens, n)


def test_table3_code_frozen_facts():
    code = table3_code()
    assert code.dim == 6
    assert code.size() == 64
    prof = code.torsion_profile
    assert [lvl.dim for lvl in prof.levels] == [0, 0, 0, 0, 3, 3]
    assert prof.rank == 3
    assert code.rank() == 3
    assert code.size_formula_odd() == 64
    assert not code.contains_complement_word()
    assert not code.rc_closed()


def test_torsion_generators_divide_up_the_tower():
    rng = random.Random(62)
    towers = list(iter_admissible_towers(5))
    for polys in rng.sample(towers, 12):
        code = CyclicCodeR.from_tower(5, polys)
        prof = code.torsion_profile
        gens = [lvl.generator for lvl in prof.levels]
        for lo, hi in zip(gens, gens[1:]):
            assert hi.divides(lo)
        assert sum(prof.k) == prof.rank
        assert prof.log2_size == code.dim
        assert code.size_formula_odd() == code.size()


def test_single_generator_tower_shape():
    code = single_generator_code(7, 4, F0)
    assert code.tower is not None
    xn = x_pow_n_minus_1(7)
    assert list(code.tower) == [xn, xn, xn, xn, F0, F0]
    with pytest.raises(ValueError):
        single_generator_code(7, 6, F0)
    with pytest.raises(ValueError):
        single_generator_code(7, 2, Gf2Poly.from_string("x^2+x+1"))


def test_admissible_tower_counts():
    assert sum(1 for _ in iter_admissible_towers(3)) == 49
    assert sum(1 for _ in iter_admissible_towers(5)) == 49
    assert sum(1 for _ in iter_admissible_towers(7)) == 343
    for polys in iter_admissible_towers(3):
        cyclic.validate_tower(3, polys)


def test_rc_closed_code_and_sufficiency():
    f = Gf2Poly.from_string("x^2+x+1")  # self-reciprocal, x+1 does not divide
    code = CyclicCodeR.from_tower(3, [f] * 6)
    assert code.contains_complement_word()
    assert code.rc_closed()
    suff = cyclic.rc_sufficiency(code)
    assert suff.satisfied
    assert suff.failing_polys == ()
    ext_closed, witness = cyclic.rc_closed_extensional(code, code.words(2**16))
    assert ext_closed and witness is None
    nec = cyclic.necessity_report(code)
    assert nec.applicable and nec.holds


def test_not_rc_closed_reports_witness():
    code = table3_code()
    words = code.words(2**16)
    ext_closed, witness = cyclic.rc_closed_extensional(code, words)
    assert not ext_closed
    assert witness in words
    assert ring64.word_reverse_complement(witness, 7) not in set(words)
    suff = cyclic.rc_sufficiency(code)
    assert not suff.satisfied
    assert not suff.alpha_identity_member
    nec = cyclic.necessity_report(code)
    assert not nec.applicable  # not closed, so nothing is required
    assert nec.holds


def test_alpha_identity_membership_rule_odd_length():
    """For odd n the all-alpha word lies in C exactly when x+1 does not
    divide f0."""
    rng = random.Random(63)
    towers = list(iter_admissible_towers(7))
    for polys in rng.sample(towers, 30):
        code = CyclicCodeR.from_tower(7, polys)
        expect = not F0.divides(polys[0])
        assert code.contains_complement_word() == expect


def test_subcode_u2_frozen_counterexamples():
    # the length-7 single-generator code: its u^2-coordinate subcode is the
    # whole code, while the claimed single generator spans something larger
    rep = cyclic.subcode_u2_report(table3_code())
    assert rep.subcode_log2_size == 6
    assert rep.claim_log2_size == 12
    assert not rep.claim_inside_code
    assert not rep.equal

    # a tower whose upper levels are unconstrained: claim escapes the code
    one = Gf2Poly(1)
    code = CyclicCodeR.from_tower(7, [F0, F0, F0, one, one, one])
    rep = cyclic.subcode_u2_report(code)
    assert rep.subcode_log2_size == 27
    assert rep.claim_log2_size == 28
    assert not rep.claim_inside_code
    assert not rep.equal


def test_subcode_u2_equality_for_uniform_towers():
    # when f2..f5 agree the claimed generator really is the u^2 subcode
    for f in (F0, F1, F0 * F1):
        code = single_generator_code(7, 0, f)
        rep = cyclic.subcode_u2_report(code)
        assert rep.claim_inside_code
        assert rep.equal


def test_subcode_u2_is_a_subcode():
    rng = random.Random(64)
    towers = list(iter_admissible_towers(5))
    for polys in rng.sample(towers, 10):
        code = CyclicCodeR.from_tower(5, polys)
        sub = cyclic.subcode_u2(code)
        assert code.contains_code(sub)
        mask = 0b11 * (1 + (1 << 6) + (1 << 12) + (1 << 18) + (1 << 24))
        for w in sub.basis():  # linear condition, basis check suffices
            assert w & mask == 0  # every coordinate in <u^2>


def test_codon_alphabet_of_ideal_sizes():
    for i, expect in ((2, 16), (3, 8), (4, 4)):
        alphabet = cyclic.codon_alphabet_of_ideal(i)
        assert len(alphabet) == expect
        assert "GGG" in alphabet
    with pytest.raises(ValueError):
        cyclic.codon_alphabet_of_ideal(1)


def test_gray_image_report_linear_and_shift_closed():
    for code in (table3_code(), single_generator_code(7, 4, F1)):
        words = code.words(2**16)
        rep = cyclic.gray_image_report(words, 7)
        assert rep.linear
        assert rep.shift_closed
        assert rep.bit_length == 42


def test_edit_bound_check_frozen_family():
    prods = {"f0": F0, "f1": F1, "f2": F2, "f1*f2": F1 * F2,
             "f0*f1": F0 * F1, "f0*f2": F0 * F2}
    exact_edit = {"f1": 2, "f2": 2, "f1*f2": 7, "f0*f1": 2, "f0*f2": 2}
    bounds = {"f0": 2, "f1": 4, "f2": 4, "f1*f2": 7, "f0*f1": 5, "f0*f2": 5}
    for label, f in prods.items():
        code = single_generator_code(7, 4, f)
        chk = cyclic.edit_bound_check(code, 2**20)
        assert chk.holds, label
        assert min(chk.bound_min_degree, chk.bound_singleton) == bounds[label]
        if label in exact_edit:
            chk_exact = cyclic.edit_bound_check(code, 2**20, exact=True)
            assert chk_exact.min_edit_exact
            assert chk_exact.min_edit == exact_edit[label]
            assert chk_exact.holds


def test_classify_dna_code_on_table3():
    cls = cyclic.classify_dna_code(table3_code(), D=6)
    assert not cls.rc_closed
    assert cls.min_edit == 2
    assert not cls.is_dna_code
    assert cls.fixed_points == ()


def test_rc_theorem_campaign_smallest_length():
    res = cyclic.rc_theorem_campaign(lengths=(3,), guard=2**14)
    assert res.towers_checked == 49
    assert res.violations == []


def test_words_guard_raises():
    code = single_generator_code(7, 0, F0)  # 2^36 words
    with pytest.raises(GuardExceeded) as exc:
        code.words(2**10)
    assert exc.value.size == 2**36


def test_contains_and_spanning_words():
    code = table3_code()
    for w in code.spanning_words():
        assert code.contains(w)
    for w in code.words(2**16):
        assert code.contains(ring64.word_shift(w, 7))
        assert code.contains(ring64.word_scale_u(w, 7))
