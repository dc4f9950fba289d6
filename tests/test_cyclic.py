"""Cyclic codes over the 64-element chain ring."""

import random
import subprocess
import sys
from array import array
from collections import Counter

import pytest

from dnacodes import codons, cyclic, metrics, ring64, skew
from dnacodes.cyclic import (
    CyclicCodeR,
    Echelon,
    TowerError,
    iter_admissible_towers,
    single_generator_code,
)
from dnacodes.gf2poly import (
    Gf2Poly,
    GuardExceeded,
    divisors_of_xn_minus_1,
    factor_xn_minus_1,
    x_pow_n_minus_1,
)
from helpers import (
    bfs_closure,
    closure_r_words,
    full_orbit_words,
    gray_report_inputs,
    is_index_span,
    rc_by_tuples,
    rc_closed_by_word,
    reference_gray_report,
    span_by_doubling,
    src_env,
    subcode_u2_by_spanning,
    subcode_u2_report_by_claim,
)


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


@pytest.mark.parametrize("lane", [6, 2])
def test_echelon_rows_reduced_and_span_ascending(lane):
    # random vectors of 6n-bit (r64) or 2n-bit (skew) words, some of them
    # dependent, added in no particular order
    rng = random.Random(70 + lane)
    for _ in range(40):
        bits = lane * rng.randrange(1, 6)
        vecs = [rng.getrandbits(bits) for _ in range(rng.randrange(8))]
        if len(vecs) > 2:
            vecs.append(vecs[0] ^ vecs[1])
        rng.shuffle(vecs)
        ech = Echelon(vecs)
        rows = ech.basis()
        leads = [r.bit_length() - 1 for r in rows]
        for i, row in enumerate(rows):
            assert all(row >> lead & 1 == (i == j) for j, lead in enumerate(leads))
        span = ech.span()
        assert all(a < b for a, b in zip(span, span[1:]))
        assert list(span) == sorted(bfs_closure(vecs, lambda w: w, []))


@pytest.mark.parametrize("bits", [2, 42, 63, 64, 65, 120])
def test_span_packed_matches_list_doubling(bits):
    # the span is packed, a block at a time, while every word fits in 64
    # bits, and built by the plain per-word list doubling past that
    rng = random.Random(bits)
    for _ in range(30):
        ech = Echelon(rng.getrandbits(bits) for _ in range(rng.randrange(9)))
        want = span_by_doubling(ech.basis())
        span = ech.span()
        assert list(span) == want
        packed = isinstance(span, array)
        assert packed == (max(want) < 1 << 64)
        assert not packed or span.typecode == "Q"


@pytest.mark.parametrize("top", [15, 40, 63, 64])
def test_span_matches_doubling_across_chunks(top):
    # dims 0..15 cross the fill's block size; top 63 sets bit 63 of the
    # packed words, and top 64 takes the list path
    assert 1 << 15 > 2 * cyclic._CHUNK
    rng = random.Random(top)
    for dim in range(16):
        leads = sorted(rng.sample(range(top), dim - 1)) + [top] if dim else []
        ech = Echelon(1 << lead | rng.getrandbits(lead) for lead in leads)
        assert ech.dim == dim
        span, want = ech.span(), span_by_doubling(ech.basis())
        assert list(span) == want
        assert isinstance(span, array) == (want[-1] < 1 << 64)
        span.append(0)  # BufferError if a view of the array were left open


def test_words_come_out_ascending():
    for n in (3, 5):
        for tower in iter_admissible_towers(n):
            code = CyclicCodeR.from_tower(n, tower)
            if code.dim <= 12:
                words = code.words()
                assert list(words) == sorted(set(words))


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
            w = ring64.WORDS.pack_word(lanes)
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
    rc = cyclic.rc_report(code)
    assert rc.sufficiency_satisfied
    assert rc.generators_self_reciprocal
    ext_closed, witness = cyclic.rc_closed_extensional(code, code.words(2**16))
    assert ext_closed and witness is None
    assert rc.rc_closed and rc.closure_implies_necessity


def test_not_rc_closed_reports_witness():
    code = table3_code()
    words = code.words(2**16)
    ext_closed, witness = cyclic.rc_closed_extensional(code, words)
    assert not ext_closed
    assert witness in words
    assert ring64.WORDS.word_reverse_complement(witness, 7) not in set(words)
    rc = cyclic.rc_report(code)
    assert not rc.sufficiency_satisfied
    assert not rc.complement_word_member
    assert not rc.rc_closed  # not closed, so nothing is required
    assert rc.closure_implies_necessity


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
        assert all(code.contains(b) for b in sub.basis())
        mask = 0b11 * (1 + (1 << 6) + (1 << 12) + (1 << 18) + (1 << 24))
        for w in sub.basis():  # linear condition, basis check suffices
            assert w & mask == 0  # every coordinate in <u^2>


def test_subcode_u2_basis_matches_the_spanning_construction():
    # the level-major rows below 2^(4n) already span C ∩ u^2 R^n, so
    # their echelon equals the one over all their shifts and u-multiples
    checked = 0
    for n in (3, 5, 7):
        for polys in iter_admissible_towers(n):
            code = CyclicCodeR.from_tower(n, polys)
            sub = cyclic.subcode_u2(code)
            assert sub.basis() == subcode_u2_by_spanning(code).basis(), code
            checked += 1
    assert checked == 441


def test_subcode_u2_report_matches_the_built_claim(monkeypatch):
    # every odd tower at n = 3, 5, 7 and every even single-generator
    # code at n = 2..10, against the claim built as a code; the report
    # itself builds none
    codes = [CyclicCodeR.from_tower(n, polys)
             for n in (3, 5, 7) for polys in iter_admissible_towers(n)]
    codes += [single_generator_code(n, level, f)
              for n in (2, 4, 6, 8, 10) for f in divisors_of_xn_minus_1(n)
              for level in range(6)]
    assert len(codes) == 441 + 210
    wants = [subcode_u2_report_by_claim(code) for code in codes]

    def refuse(*args):
        raise AssertionError("the claim was built as a code")

    monkeypatch.setattr(cyclic, "single_generator_code", refuse)
    for code, want in zip(codes, wants):
        assert cyclic.subcode_u2_report(code) == want, code
    # both outcomes: the claim is the u^2 subcode for 216 of the codes
    assert sum(want.equal for want in wants) == 216


def test_gray_image_report_linear_and_shift_closed():
    for code in (table3_code(), single_generator_code(7, 4, F1)):
        words = code.words(2**16)
        rep = cyclic.gray_image_report(
            code.gray_image(words), code.lanes.lane * code.n, code.gray_maps()
        )
        assert rep.linear
        assert rep.closed["shift6"]
        assert rep.bit_length == 42


def full_codon_scan(code, words):
    """The oracle: the all-pairs unit-cost scan of the words' codons."""
    return metrics.min_edit_pairwise(
        [cyclic.codon_symbols(w, code.n) for w in words]
    )


def test_edit_bound_check_frozen_family():
    prods = {"f0": F0, "f1": F1, "f2": F2, "f1*f2": F1 * F2,
             "f0*f1": F0 * F1, "f0*f2": F0 * F2}
    exact_edit = {"f0": 2, "f1": 2, "f2": 2, "f1*f2": 7, "f0*f1": 2,
                  "f0*f2": 2}
    bounds = {"f0": 2, "f1": 4, "f2": 4, "f1*f2": 7, "f0*f1": 5, "f0*f2": 5}
    for label, f in prods.items():
        code = single_generator_code(7, 4, f)
        words = code.words(2**20)
        chk = cyclic.edit_bound_check(code, words)
        assert chk.holds, label
        assert min(chk.bound_min_degree, chk.bound_singleton) == bounds[label]
        assert chk.min_edit == exact_edit[label]
        assert chk.min_edit == full_codon_scan(code, words).minimum


def test_edit_bound_check_matches_the_full_scan_and_refuses_other_lists():
    """The check holds exactly when the full codon scan meets the
    bounds, on a code that meets them and, with the singleton bound
    forced to 1 (rank n), on one that does not.  A listing that is not
    the code's, such as its words greedily picked more than the bound
    apart, is an internal error."""
    code = single_generator_code(7, 4, F1)
    words = code.words()
    full = full_codon_scan(code, words).minimum
    chk = cyclic.edit_bound_check(code, words)
    assert (chk.min_edit, chk.holds) == (full, True)
    forced = single_generator_code(7, 4, F1)
    forced.rank = lambda: forced.n
    chk = cyclic.edit_bound_check(forced, words)
    assert (chk.min_edit, chk.bound_singleton, chk.holds) == (full, 1, False)
    codon = lambda w: cyclic.codon_symbols(w, 7)
    far = []
    for w in words:
        if all(metrics.edit_distance(codon(w), codon(v)) > 4 for v in far):
            far.append(w)
    assert len(far) > 2
    assert full_codon_scan(code, far).minimum > 4
    with pytest.raises(RuntimeError):
        cyclic.edit_bound_check(code, far)


def test_min_edit_codon_is_the_full_codon_scan_minimum():
    """On every odd tower code and even single-generator code of 2..512
    words: 1 where a word has Hamming weight 1, else 2 where a basis row
    moves under the shift, else n (constant words)."""
    codes = [CyclicCodeR.from_tower(n, polys)
             for n in (3, 5, 7, 9) for polys in iter_admissible_towers(n)]
    codes += [single_generator_code(n, level, f)
              for n in (2, 4, 6, 8, 10) for f in _divisors_of_xn_minus_1(n)
              for level in range(6)]
    codes = [code for code in codes if 2 <= code.size() <= 512]
    assert len(codes) == 106 + 83
    seen = Counter()
    for code in codes:
        words = code.words()
        got = code.min_edit_codon(words)
        assert got == full_codon_scan(code, words).minimum, code
        seen[got] += 1
    assert seen.keys() == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}


def test_min_edit_codon_needs_its_pair_enumerated_and_measured(monkeypatch):
    """A listing of the right size without a word of the pair, a short
    listing, and a unit-cost DP that disagrees are all refused, on a
    code read off a shift pair, one off the weight-1 word u^5 and one of
    constant words."""
    shifted = single_generator_code(7, 4, F0 * F2)
    unit = single_generator_code(7, 5, Gf2Poly(1))
    constant = single_generator_code(7, 4, F1 * F2)
    n, shift = 7, shifted.lanes.word_shift
    row = next(r for r in shifted.basis() if shift(r, n) != r)
    for code, want, missing in ((shifted, 2, shift(row, n)),
                                (unit, 1, ring64.word_from_poly(1, n, 5))):
        words = code.words()
        assert code.min_edit_codon(words) == want
        outsider = next(w for w in range(missing + 1, 1 << 6 * n)
                        if not code.contains(w))
        swapped = array("Q", sorted({*words, outsider} - {missing}))
        assert len(swapped) == len(words)
        with pytest.raises(RuntimeError, match="no enumerated pair"):
            code.min_edit_codon(swapped)
        with pytest.raises(RuntimeError, match="words listed"):
            code.min_edit_codon(words[:-1])
    assert constant.min_edit_codon(constant.words()) == 7
    real = metrics._unit_edit_distance
    monkeypatch.setattr(
        metrics, "_unit_edit_distance", lambda x, y: real(x, y) + 1
    )
    for code, want in ((shifted, 2), (unit, 1), (constant, 7)):
        with pytest.raises(RuntimeError, match=f"minimum {want} has no"):
            code.min_edit_codon(code.words())


def test_classify_dna_code_on_table3():
    code = table3_code()
    words = code.words(2**20)
    scan = metrics.min_pairwise(
        [cyclic.codon_symbols(w, 7) for w in words], metrics.edit_distance
    )
    cls = cyclic.classify_dna_code(
        code, words, 6, scan, cyclic.rc_closed_extensional(code, words)[0]
    )
    assert not cls.rc_closed
    assert cls.min_edit == 2
    assert not cls.is_dna_code
    assert cls.fixed_points == ()


def test_rc_theorem_campaign_smallest_length():
    res = cyclic.rc_theorem_campaign(lengths=(3,), guard=2**14)
    assert res.towers_checked == 49
    assert res.violations == []


def test_torsion_invariant_raises_under_python_O():
    # a wrong modulus breaks the torsion dimension invariant; the check
    # must still raise when python -O strips asserts
    script = (
        "from dnacodes import cyclic, ring64\n"
        "from dnacodes.gf2poly import Gf2Poly\n"
        "code = cyclic.CyclicCodeR(7, [ring64.word_from_poly(0b11, 7, level=4)])\n"
        "cyclic.x_pow_n_minus_1 = lambda n: Gf2Poly(1)\n"
        "code.torsion_profile\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=src_env(), timeout=60,
    )
    assert proc.returncode != 0
    assert "RuntimeError: torsion level dim mismatch" in proc.stderr


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
        assert code.contains(ring64.WORDS.word_shift(w, 7))
        assert code.contains(ring64.word_scale_u(w, 7))


def test_gray_report_matches_reference_on_codes_and_non_codes():
    # the basis certificate against an Echelon over every word and a
    # per-word shift loop on the one certified listing, the code's own
    # words; every other listing (reordered, cut, grown, with a word
    # swapped for an outsider, or a set) is refused with RuntimeError
    codes = [
        single_generator_code(3, 2, Gf2Poly.from_string("x+1")),
        single_generator_code(5, 5, Gf2Poly.from_string("1")),
        table3_code(),
    ]
    for code in codes:
        # so the sorted, reversed and cut inputs are packed arrays, and
        # the shuffled and swapped ones lists
        assert isinstance(code.words(), array)
        maps = code.gray_maps()
        certified = []
        for label, inputs in gray_report_inputs(code, 6 * code.n):
            image = code.gray_image(inputs)
            if not is_index_span(image):
                with pytest.raises(RuntimeError):
                    cyclic.gray_image_report(image, 6 * code.n, maps)
                continue
            got = cyclic.gray_image_report(image, 6 * code.n, maps)
            assert got == reference_gray_report(image, 6 * code.n, maps), (
                code, label)
            certified.append(label)
        assert certified == ["sorted"], code


def test_gray_report_on_linear_sets_that_are_not_shift_closed():
    rng = random.Random(11)
    n = 4
    maps = cyclic.CyclicCodeR(n, ()).gray_maps()
    checked = 0
    for dim in (1, 1, 1, 2, 2, 3, 5):
        vectors = [rng.getrandbits(6 * n) for _ in range(dim)]
        words = Echelon(vectors).span()
        for inputs in (sorted(words), words):
            got = cyclic.gray_image_report(inputs, 6 * n, maps)
            want = reference_gray_report(inputs, 6 * n, maps)
            assert got == want
            assert got.linear
            checked += not got.closed["shift6"]
    assert checked >= 10


def test_linear_basis_and_closed_under():
    code = table3_code()
    words = code.words(2**12)
    basis = cyclic.linear_basis(words)
    assert basis is not None
    assert len(basis) == code.dim
    assert Echelon(basis).dim == code.dim
    assert all(code.contains(b) for b in basis)
    assert cyclic.linear_basis([]) is None
    assert cyclic.linear_basis([0]) == ()
    assert cyclic.linear_basis(words[:-1]) is None
    # 2^k words from 0 with repeats: fewer than k independent rows
    assert cyclic.linear_basis([0, 0]) is None
    assert cyclic.linear_basis([0, 3, 3, 3]) is None
    # a linear set out of ascending order is not certified
    assert cyclic.linear_basis(words[::-1]) is None
    shift = lambda w: ring64.WORDS.word_shift(w, 7)
    assert cyclic.closed_under(words, shift, basis)
    assert cyclic.closed_under(words, shift, None)
    w = words[5]
    pair = [0, w]
    assert not cyclic.closed_under(pair, shift, cyclic.linear_basis(pair))
    assert not cyclic.closed_under(pair, shift, None)
    # membership by binary search, at both ends of the list and past them
    assert cyclic.has_word(words, words[0])
    assert cyclic.has_word(words, words[-1])
    assert not cyclic.has_word(words[1:], words[0])
    assert not cyclic.has_word(words, words[-1] + 1)
    assert not cyclic.has_word([], 0)


def _socle_matches_scan(code):
    words = code.words(2**16)
    d, witness = code.min_hamming_witness(2**16)
    assert d == metrics.min_nonzero_hamming_weight(
        words, code.n, code.lanes
    ), code
    assert witness in set(words)
    assert code.lanes.word_hamming_weight(witness, code.n) == d


def _divisors_of_xn_minus_1(n):
    divisors = [Gf2Poly(1)]
    for f, mult in factor_xn_minus_1(n):
        powers = [Gf2Poly(1)]
        for _ in range(mult):
            powers.append(powers[-1] * f)
        divisors = [g * p for g in divisors for p in powers]
    return divisors


def test_socle_min_hamming_matches_the_word_scan():
    # every admissible odd tower of 2..2^16 words, a sample at n = 9
    rng = random.Random(9)
    for n in (3, 5, 7, 9):
        codes = [CyclicCodeR.from_tower(n, polys)
                 for polys in iter_admissible_towers(n)]
        codes = [c for c in codes if 2 <= c.size_formula_odd() <= 2**16]
        assert len(codes) == {3: 46, 5: 26, 7: 106, 9: 85}[n]
        if n == 9:
            codes = rng.sample(codes, 20)
        for code in codes:
            _socle_matches_scan(code)
    # single-generator codes of even length, as --gen builds them
    checked = 0
    for n in (4, 6, 8):
        for f in _divisors_of_xn_minus_1(n):
            for level in range(6):
                code = single_generator_code(n, level, f)
                if 2 <= code.size() <= 2**16:
                    _socle_matches_scan(code)
                    checked += 1
    assert checked == 21 + 36 + 30
    # socles none of whose echelon rows has the minimum weight
    for n, f in ((18, "x^8+x^6+x^5+x^3+x^2+1"),
                 (21, "x^15+x^13+x^11+x^10+x^7+x^6+x^5+x^3+x^2+x+1")):
        for level in (4, 5):
            code = single_generator_code(n, level, Gf2Poly.from_string(f))
            if code.size() <= 2**16:
                _socle_matches_scan(code)


def test_min_lee_is_the_socle_minimum():
    # every odd tower and even single-generator code of 2..2^16 words
    codes = [CyclicCodeR.from_tower(n, polys)
             for n in (3, 5, 7, 9) for polys in iter_admissible_towers(n)]
    codes += [single_generator_code(n, level, f)
              for n in (4, 6, 8, 10) for f in _divisors_of_xn_minus_1(n)
              for level in range(6)]
    codes = [code for code in codes if 2 <= code.size() <= 2**16]
    assert len(codes) == 263 + 112
    for code in codes:
        words = code.words(2**16)
        want = metrics.min_nonzero_lee_weight(words, code.n)
        assert code.min_hamming(words, 2**16) == want, code


def test_weight_minima_need_an_enumerated_witness(monkeypatch):
    # both rings: a listing without the witness, a witness of the wrong
    # weight, and (r64) a witness of the wrong popcount
    f = Gf2Poly.from_string("x^3+x+1")
    codes = [single_generator_code(7, 3, f),
             skew.SkewCode(8, [skew.parse_skew_poly("x^2+v*x+1")])]
    for code in codes:
        words = code.words()
        d, witness = code.min_hamming_witness(2**16)
        assert code.min_hamming(words, 2**16) == d
        lacking = array("Q", [w for w in words if w != witness])
        with pytest.raises(RuntimeError):
            code.min_hamming(lacking, 2**16)
        with monkeypatch.context() as m:
            m.setattr(code, "min_hamming_witness",
                      lambda guard: (d + 1, witness))
            with pytest.raises(RuntimeError):
                code.min_hamming(words, 2**16)
    code = codes[0]
    words = code.words()
    d, witness = code.min_hamming_witness(2**16)
    # one more bit in the witness's lowest nonzero coordinate: the same
    # Hamming weight, listed among the words, but a popcount of d + 1
    heavier = witness | (witness & -witness) >> 1
    listed = array("Q", sorted({*words, heavier}))
    assert code.lanes.word_hamming_weight(heavier, code.n) == d
    monkeypatch.setattr(code, "min_hamming_witness", lambda guard: (d, heavier))
    with pytest.raises(RuntimeError, match="not a Lee minimum"):
        code.min_hamming(listed, 2**16)


def _linear_basis_both(words):
    """linear_basis of the words as a list, which must be its answer on
    the same words packed in an array('Q') too."""
    got = cyclic.linear_basis(list(words))
    assert cyclic.linear_basis(array("Q", words)) == got, words
    return got


def _index_order_span(rows):
    """Word i is the XOR of rows[j] over the set bits j of i."""
    out = [0]
    for row in rows:
        out += [w ^ row for w in out]
    return out


def test_linear_basis_in_order_certificate():
    rng = random.Random(12)
    for dim in (0, 1, 2, 3, 5, 8, 11):
        for lane in (2, 6):
            vectors = [rng.getrandbits(lane * 5) for _ in range(dim)]
            ech = Echelon(vectors)
            words = list(ech.span())
            # ascending: the basis is the span's reduced echelon basis
            assert _linear_basis_both(words) == ech.basis()
            if len(words) < 4:
                continue
            # the same words out of order: certified exactly when they
            # are the index-order span of their members at 1, 2, 4, ...
            shuffled = words[:]
            rng.shuffle(shuffled)
            members = [shuffled[1 << j] for j in range(ech.dim)]
            spans = shuffled == _index_order_span(members)
            assert _linear_basis_both(shuffled) == (
                ech.basis() if spans else None)
            # rows 0 and 1 trade places (bits 0 and 1 of every index
            # swapped; [w0, w2, w1, w3] at dim 2): the index-order span
            # of the same members, certified with the same basis
            swapped = [words[i & ~3 | (i & 1) << 1 | i >> 1 & 1]
                       for i in range(len(words))]
            rows = [words[1 << j] for j in range(ech.dim)]
            assert swapped == _index_order_span([rows[1], rows[0], *rows[2:]])
            assert _linear_basis_both(swapped) == ech.basis()
            if ech.dim >= 3:
                # words 5 and 6 trade places: the same set and the same
                # members at 1, 2, 4, but not their index-order span
                listing = [*words[:5], words[6], words[5], *words[7:]]
                assert _linear_basis_both(listing) is None
            # one word replaced by a non-member: not linear
            word_set = set(words)
            outside = next(w for w in range(1 << (lane * 5 + 1))
                           if w not in word_set)
            for i in {1, 2, len(words) // 2 + 1, len(words) - 1}:
                listing = sorted(words[:i] + [outside] + words[i + 1 :])
                assert _linear_basis_both(listing) is None, (dim, lane, i)


@pytest.mark.parametrize("k", [0, 1, 11, 12, 13, 14, 17])
def test_index_span_matches_the_list_path_across_the_block_boundary(k):
    # the packed fill writes 2^12-word blocks past the low block, so 12
    # rows fill one block, 13 two and 17 thirty-two; rows use bit 63
    rng = random.Random(240 + k)
    rows = [rng.getrandbits(64) for _ in range(k)]
    if k:
        rows[-1] |= 1 << 63
    span = cyclic.index_span(rows)
    assert isinstance(span, array) and span.typecode == "Q"
    assert list(span) == _index_order_span(rows)
    # the same rows through Echelon: its reduced rows, ascending
    ech = Echelon(rows)
    assert ech.dim == k
    span = ech.span()
    assert list(span) == _index_order_span(ech.basis()[::-1])
    assert list(span) == sorted(set(span))


@pytest.mark.parametrize("k", [3, 12, 13, 14])
def test_index_span_of_dependent_rows_repeats_as_the_list_path(k):
    rng = random.Random(250 + k)
    rows = [rng.getrandbits(64) for _ in range(k - 2)]
    rows[1:1] = [rows[0] ^ rows[-1]]  # a dependent row in the low block
    rows.append(rows[0] ^ rows[1])  # and the last, past it from k = 13
    want = _index_order_span(rows)
    assert list(cyclic.index_span(rows)) == want
    assert len(set(want)) == len(want) >> 2


def test_linear_basis_rejects_a_change_in_any_block():
    # a 2^14-word packed span is compared in four 2^12-word blocks
    rng = random.Random(14)
    ech = Echelon(rng.getrandbits(64) for _ in range(14))
    assert ech.dim == 14
    words = ech.span()
    assert isinstance(words, array) and len(words) == 1 << 14
    assert _linear_basis_both(words) == ech.basis()

    def changed(*edits):
        copy = array("Q", words)
        for i, w in edits:
            copy[i] = w
        return copy

    last = len(words) - 1
    for listing in (
        changed((3, words[3] ^ 1 << 63)),  # block 0, not a row
        changed((9001, words[9001] ^ 1)),  # block 2
        changed((100, words[5000]), (5000, words[100])),  # blocks 0 and 1
        changed((last, words[last] ^ 1 << 17)),  # the last word
    ):
        assert _linear_basis_both(listing) is None
    # words past 64 bits take the list path, in the same blocks
    ech = Echelon(rng.getrandbits(70) for _ in range(13))
    words = ech.span()
    assert isinstance(words, list)
    assert cyclic.linear_basis(words) == ech.basis()
    for i in (3, len(words) - 1):
        listing = words[:]
        listing[i] ^= 1 << 69
        assert cyclic.linear_basis(listing) is None


def test_rc_witness_is_the_least_violating_word():
    # every code the two rc campaigns enumerate, against a set-based scan
    # and the per-word check, packed and as a list
    codes = [CyclicCodeR.from_tower(n, polys)
             for n in (3, 5, 7) for polys in iter_admissible_towers(n)]
    codes += [code for n in (2, 4, 6, 8, 10) for code in skew.all_codes(n)]
    checked = 0
    for code in codes:
        if code.size() > 2**16:
            continue
        words = code.words(2**16)
        assert isinstance(words, array)
        word_set = set(words)
        rc = code.lanes.word_reverse_complement
        violating = [w for w in word_set if rc(w, code.n) not in word_set]
        want = (False, min(violating)) if violating else (True, None)
        assert cyclic.rc_closed_extensional(code, words) == want, code
        assert cyclic.rc_closed_extensional(code, list(words)) == want, code
        assert rc_closed_by_word(code, words) == want, code
        checked += 1
    assert checked == 181 + 136  # both campaigns' codes_enumerated


# rc-closed codes of 2^14 words, so their packed words span four chunks
_CHUNKED_RC_CODES = (
    CyclicCodeR.from_tower(5, [Gf2Poly.from_string("x^4+x^3+x^2+x+1")] * 4
                           + [Gf2Poly(1)] * 2),
    skew.SkewCode.from_case1(8, (skew.ONE, skew.ONE)),
)


@pytest.mark.parametrize("code", _CHUNKED_RC_CODES, ids=("r64", "f2v"))
def test_rc_chunked_matches_per_word_check_across_chunks(code):
    words = code.words()
    assert isinstance(words, array) and len(words) == 2**14
    assert code.rc_closed()
    assert cyclic.rc_closed_extensional(code, words) == (True, None)
    late_witnesses = 0
    for i in range(4096, 8192, 1024):  # all in the second chunk
        w = words[i]
        flip = next(w ^ 1 << b for b in range(64)
                    if not code.contains(w ^ 1 << b))
        dropped = words[:i] + words[i + 1 :]
        flipped = array("Q", sorted([*words[:i], flip, *words[i + 1 :]]))
        for listing in (dropped, flipped):
            want = rc_closed_by_word(code, listing)
            assert want[0] is False
            # not a span: refused, unless word 0's image is missing
            if want[1] == listing[0]:
                assert cyclic.rc_closed_extensional(code, listing) == want, i
            else:
                with pytest.raises(RuntimeError):
                    cyclic.rc_closed_extensional(code, listing)
            late_witnesses += want[1] >= words[4096]
    assert late_witnesses  # some witness lies past the first chunk


def test_rc_check_of_words_past_64_bits_matches_per_word_check():
    # x^11 - 1 = (x + 1) * phi, with phi of degree 10
    full, one = x_pow_n_minus_1(11), Gf2Poly(1)
    phi = full // F0
    closed = 0
    for polys in ([phi] * 6, [phi] * 5 + [one], [full] * 5 + [phi],
                  [full] * 3 + [phi] * 2 + [one]):
        code = CyclicCodeR.from_tower(11, polys)
        words = code.words(2**16)
        assert isinstance(words, list) and words[-1] >> 64
        want = rc_closed_by_word(code, words)
        assert cyclic.rc_closed_extensional(code, words) == want, polys
        closed += want[0]
    assert 0 < closed < 4  # both outcomes are covered
    # the zero code's one word fits a packed array, its rc image does not
    for code in (CyclicCodeR.from_tower(11, [full] * 6),
                 skew.SkewCode.from_case1(34, skew.x_pow_n_minus_1(34))):
        words = code.words()
        assert isinstance(words, array) and list(words) == [0]
        assert cyclic.rc_closed_extensional(code, words) == (False, 0)


def _counting_has_word(monkeypatch):
    """Count cyclic.has_word calls (the rc check's binary searches)."""
    calls = []
    search = cyclic.has_word

    def counted(words, w):
        calls.append(w)
        return search(words, w)

    monkeypatch.setattr(cyclic, "has_word", counted)
    return calls


def _rc_pair_list(code, size, rng):
    """size (even) distinct words, ascending, closed under the code's
    reverse complement: random words, each with its image."""
    n, rc = code.n, code.lanes.word_reverse_complement
    out = set()
    while len(out) < size:
        w = rng.getrandbits(code.lanes.lane * n)
        if rc(w, n) != w:
            out |= {w, rc(w, n)}
    return array("Q", sorted(out))


@pytest.mark.parametrize("code", _CHUNKED_RC_CODES, ids=("r64", "f2v"))
def test_rc_basis_route_decides_a_closed_code_without_searching(
    code, monkeypatch
):
    # a closed code's words are certified and decided from their rows:
    # the only binary search is the lookup of word 0's image
    words = code.words()
    calls = _counting_has_word(monkeypatch)
    assert cyclic.rc_closed_extensional(code, words) == (True, None)
    assert len(calls) == 1


@pytest.mark.parametrize("code", _CHUNKED_RC_CODES, ids=("r64", "f2v"))
def test_rc_routes_keep_the_per_word_result_on_other_lists(
    code, monkeypatch
):
    # lists other than the code's words: a sub-span (a prefix of 2^k
    # words) is certified and takes the basis route, with no search past
    # word 0's image; any other list stops at that search if the image
    # is missing, and is refused with RuntimeError if not
    rng = random.Random(23)
    words = code.words()
    pairs = _rc_pair_list(code, 2**13, rng)
    assert cyclic.linear_basis(pairs) is None  # closed, but not a span
    swapped = array("Q", sorted({*pairs[1:], max(pairs) + 1}))
    listings = {
        "subset of 2^12": array("Q", sorted(rng.sample(list(words), 4096))),
        "every third word": words[::3],
        "no zero, 4096 words": words[1:4097],
        "no zero": words[1:],
        "rc pairs": pairs,
        "rc pairs, one word swapped": swapped,
    }
    for size in (4095, 4096, 4097):
        listings[f"first {size} words"] = words[:size]
        listings[f"first {size} rc pairs"] = pairs[:size]
    calls = _counting_has_word(monkeypatch)
    for label, listing in listings.items():
        want = rc_closed_by_word(code, listing)
        del calls[:]
        if want[1] == listing[0] or cyclic.linear_basis(listing):
            assert cyclic.rc_closed_extensional(code, listing) == want, label
        else:
            with pytest.raises(RuntimeError):
                cyclic.rc_closed_extensional(code, listing)
        assert len(calls) == 1, label
    assert cyclic.linear_basis(listings["first 4096 words"])


def _uncertified_listings(code, rng):
    """The code's words shuffled, with a word dropped, flipped to a word
    outside the code, or trading places with the next, and as a set."""
    words = code.words()
    i = len(words) // 2 + 3
    flip = next(words[i] ^ 1 << b for b in range(64)
                if not code.contains(words[i] ^ 1 << b))
    shuffled = list(words)
    rng.shuffle(shuffled)
    yield "shuffled", shuffled
    yield "dropped", words[:i] + words[i + 1 :]
    yield "flipped", array("Q", sorted([*words[:i], flip, *words[i + 1 :]]))
    yield "swapped", array("Q", [*words[:i], words[i + 1], words[i],
                                 *words[i + 2 :]])
    yield "set", set(words)


def test_uncertified_listings_are_internal_errors():
    # both checks take only listings linear_basis certifies; the rc
    # check still answers first from the lookup of word 0's image
    rng = random.Random(32)
    codes = (*_CHUNKED_RC_CODES, table3_code(),
             skew.SkewCode(8, [skew.parse_skew_poly("x^2+v*x+1")]))
    refused = looked_up = 0
    for code in codes:
        n, rc = code.n, code.lanes.word_reverse_complement
        bits, maps = code.lanes.lane * n, code.gray_maps()
        for label, listing in _uncertified_listings(code, rng):
            with pytest.raises(RuntimeError):
                cyclic.gray_image_report(listing, bits, maps)
            if (not isinstance(listing, set)
                    and not cyclic.has_word(listing, rc(listing[0], n))):
                got = cyclic.rc_closed_extensional(code, listing)
                assert got == (False, listing[0]), (code, label)
                looked_up += 1
                continue
            with pytest.raises(RuntimeError):
                cyclic.rc_closed_extensional(code, listing)
            refused += 1
    assert refused >= 10 and looked_up >= 3, (refused, looked_up)


class _SpanCode(cyclic.LinearCode):
    """The F2-span of the given r64 words: the identity as shift and 0
    as scale, so the orbit walk keeps just a basis of the words."""

    lanes = ring64.WORDS

    def __init__(self, n, rows):
        self.n, self.rows = n, rows

    def module_generators(self):
        return self.rows, lambda w: w, lambda w: 0


def test_rc_witness_in_the_second_chunk_of_a_code(monkeypatch):
    # n = 7: twelve palindromes on coordinates 1..5 (rc(w) = w ^ rc(0)),
    # then x^6 (reversed, x^0, not in the code), then rc(0) itself; the
    # rows ascend by lead, so the palindromes are rows 0..11 and the
    # least witness is row 12, word 4096, found from the basis
    lane = ring64.WORDS.lane
    palindromes = [1 << lane * i + b | 1 << lane * (6 - i) + b
                   for i in (1, 2) for b in range(lane)]
    rc0 = ring64.WORDS.complement_word(7)
    code = _SpanCode(7, palindromes + [1 << 6 * lane, rc0])
    words = code.words()
    assert len(words) == 2**14
    want = (False, words[4096])
    assert rc_closed_by_word(code, words) == want
    calls = _counting_has_word(monkeypatch)
    assert cyclic.rc_closed_extensional(code, words) == want
    assert len(calls) == 1  # word 0's image; the rows need no search


def test_rc_basis_route_witness_is_the_first_row_leaving_the_code():
    # campaign codes that hold rc(0) but are not rc-closed: their least
    # witness is not word 0 but a row words[2^j], the first whose reverse
    # is not in the code (row 3 of two r64 towers, row 0 of the others)
    codes = [CyclicCodeR.from_tower(n, polys)
             for n in (3, 5, 7) for polys in iter_admissible_towers(n)]
    codes += [code for n in (2, 4, 6, 8, 10) for code in skew.all_codes(n)]
    rows = Counter()
    for code in codes:
        if code.size() > 2**16 or code.rc_closed():
            continue
        words = code.words(2**16)
        if not cyclic.has_word(words, code.lanes.complement_word(code.n)):
            continue
        closed, witness = cyclic.rc_closed_extensional(code, words)
        assert (closed, witness) == rc_closed_by_word(code, words), code
        j = words.index(witness).bit_length() - 1
        assert witness == words[1 << j], code
        rows[j] += 1
    assert rows == {0: 20, 3: 2}  # 22 of the 254 codes that are not closed


def _even_and_mixed_r64_codes():
    """r64 codes off the odd-tower campaign: even-length towers, single
    generators u^level * f and random words of mixed u-levels."""
    rng = random.Random(29)
    codes = []
    for n in (2, 4, 6, 8, 10):
        divisors = divisors_of_xn_minus_1(n)
        for f0 in divisors:
            below = [f for f in divisors if f.divides(f0)]
            for _ in range(4):
                polys = [f0] + [rng.choice(below) for _ in range(5)]
                codes.append(CyclicCodeR.from_tower(n, polys))
    for n in (3, 4, 7, 9):
        for f in divisors_of_xn_minus_1(n):
            for level in range(6):
                codes.append(single_generator_code(n, level, f))
    for n in (3, 4, 7, 12):
        for count in (1, 2, 3):
            gens = [rng.getrandbits(6 * n) for _ in range(count)]
            codes.append(CyclicCodeR(n, gens))
            # each coordinate u^level times a unit, the level (6: zero)
            # drawn per coordinate
            gens = [ring64.WORDS.pack_word(
                        (rng.getrandbits(6) | 1) << rng.randrange(7) & 63
                        for _ in range(n)) for _ in range(count)]
            codes.append(CyclicCodeR(n, gens))
    return codes


def test_orbit_cut_keeps_the_full_orbit_basis():
    codes = [CyclicCodeR.from_tower(n, polys)
             for n in (3, 5, 7) for polys in iter_admissible_towers(n)]
    codes += _even_and_mixed_r64_codes()
    for code in codes:
        full = full_orbit_words(code)
        assert code.basis() == Echelon(full).basis(), code
        kept = code.spanning_words()
        # every kept word raises the dimension: at most dim + one word
        # per orbit start, and in fact exactly dim
        assert len(kept) == Echelon(kept).dim == code.dim
        assert len(kept) <= code.dim + 6 * len(code.generators)
        n = code.n
        levelmajor = Echelon(cyclic.word_to_levelmajor(w, n) for w in full)
        assert code.levelmajor_echelon.basis() == levelmajor.basis(), code


def test_dna_fixed_points_match_the_per_word_images():
    # rc(w) = w needs coordinates j and n-1-j complementary, so only even
    # lengths have fixed points: skew codes and even r64 towers, packed
    # and as lists
    scan = metrics.min_pairwise(["AC", "GT"], metrics.edit_distance)
    codes = [code for n in (2, 4, 6, 8) for code in skew.all_codes(n)]
    codes += [code for code in _even_and_mixed_r64_codes() if code.n % 2 == 0]
    with_fixed = 0
    for code in codes:
        if code.size() > 2**13:
            continue
        words = code.words()
        want = tuple(w for w in words if rc_by_tuples(code, w) == w)
        for listing in (words, list(words)):
            cls = cyclic.classify_dna_code(code, listing, 6, scan, True)
            assert cls.fixed_points == want, code
        with_fixed += bool(want)
    assert with_fixed


# the records that were frozen dataclasses, each with its fields in order
FROZEN_RECORDS = [
    (metrics.MinResult, ("minimum", "pair", "count_at_minimum", "maximum",
                         "exhaustive", "pairs")),
    (codons.DiffRow, ("codon", "printed_value", "derived_value")),
    (cyclic.RcReport, ("complement_word_member", "generators_self_reciprocal",
                       "rc_closed")),
    (cyclic.TorsionLevel, ("level", "generator", "dim")),
    (cyclic.TorsionProfile, ("n", "levels", "k", "rank", "log2_size")),
    (cyclic.SubcodeU2Report, ("subcode_log2_size", "claim_log2_size",
                              "claim_inside_code", "equal", "f5")),
    (cyclic.DnaClassification, ("n", "D", "rc_closed", "fixed_points",
                                "min_edit", "max_edit")),
    (cyclic.GrayImageReport, ("bit_length", "linear", "closed")),
    (cyclic.EditBoundCheck, ("min_edit", "bound_min_degree",
                             "bound_singleton")),
]


@pytest.mark.parametrize(
    "record, fields", FROZEN_RECORDS, ids=[r.__name__ for r, _ in FROZEN_RECORDS]
)
def test_frozen_records_keep_their_fields_and_refuse_assignment(record, fields):
    assert record._fields == fields
    rec = record._make(range(len(fields)))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert tuple(rec) == tuple(range(len(fields)))
