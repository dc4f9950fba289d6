"""The ten acceptance checks, one verdict line per criterion.

Each criterion prints exactly one ``criterion N: pass`` or
``criterion N: FAIL`` line (written through the capture so it shows up
in the live pytest stream).  Criteria whose printed description cannot
be reproduced from the algebra carry strict xfail markers on the
irreproducible clause: the enumeration oracle is ground truth, and the
discrepancies those tests pin down are real properties of the printed
data, not tolerances to be widened.  Companion tests freeze the exact
shape of each discrepancy so a behavior change is caught either way.
"""

import itertools
import random
import time

import pytest

from dnacodes import codons, cyclic, metrics, reference_tables as rt, ring64, skew
from dnacodes.gf2poly import Gf2Poly, factor_xn_minus_1
from helpers import alignment_edit_distance


def _announce(capsys, num: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {num}: {'pass' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line)


def _assert_all(checks: dict) -> None:
    failing = [name for name, ok in checks.items() if not ok]
    assert not failing, f"failing clauses: {failing}"


def table3_code() -> cyclic.CyclicCodeR:
    f = Gf2Poly.from_string("x+1") * Gf2Poly.from_string("x^3+x+1")
    return cyclic.single_generator_code(7, 4, f)


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_factorization(capsys):
    t0 = time.perf_counter()
    factors = factor_xn_minus_1(7)
    elapsed = time.perf_counter() - t0
    checks = {
        "factors": [str(f) for f, _ in factors]
        == ["x+1", "x^3+x+1", "x^3+x^2+1"],
        "multiplicities": all(m == 1 for _, m in factors),
        "under_100ms": elapsed < 0.1,
    }
    _announce(capsys, 1, all(checks.values()), f"{elapsed * 1000:.1f} ms")
    _assert_all(checks)


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_enumeration_and_distances():
    code = table3_code()
    t0 = time.perf_counter()
    words = code.words(2**16)
    n = code.n
    lanes = [ring64.unpack_word(w, n) for w in words]
    table = codons.canonical_table()
    symbols = [cyclic.codon_symbols(w, n) for w in words]
    strings = [table.encode_word(w, n) for w in words]
    pairs = list(itertools.combinations(range(len(words)), 2))
    min_h = min(
        sum(1 for a, b in zip(lanes[i], lanes[j]) if a != b)
        for i, j in pairs
    )
    min_codon = min(
        metrics.edit_distance(symbols[i], symbols[j]) for i, j in pairs
    )
    min_nt = min(
        metrics.edit_distance(strings[i], strings[j]) for i, j in pairs
    )
    elapsed = time.perf_counter() - t0
    assert len(words) == 64
    assert len(pairs) == 2016
    assert 0 in words  # the all-G word
    assert min_h == 4
    assert min_codon == 2
    assert min_nt == 6
    assert elapsed < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="the printed (7,64,6) description promises reverse-complement "
    "closure, an all-alpha codeword and codon edit distance 6; the "
    "enumerated ideal is not rc-closed, omits the all-alpha word, and has "
    "codon edit distance 2",
)
def test_criterion_2_rc_closure(capsys):
    _announce(
        capsys, 2, False,
        "enumeration contradicts the printed description: not rc-closed, "
        "no all-alpha word, codon edit distance 2 not 6",
    )
    code = table3_code()
    closed, _ = cyclic.rc_closed_extensional(code, code.words(2**16))
    assert closed


@pytest.mark.xfail(
    strict=True,
    reason="alpha*I(x) is not a codeword of <u^4 f0 f1>: (x+1) divides f0",
)
def test_criterion_2_alpha_word_membership():
    assert table3_code().contains_complement_word()


@pytest.mark.xfail(
    strict=True,
    reason="the exhaustive codon-level scan gives minimum edit distance 2, "
    "not the printed 6; 63 pairs attain 2",
)
def test_criterion_2_codon_edit_distance_is_six():
    code = table3_code()
    symbols = [cyclic.codon_symbols(w, code.n) for w in code.words(2**16)]
    lo = metrics.min_pairwise(symbols, metrics.edit_distance)
    assert lo.minimum == 6


def test_criterion_2_codon_edit_floor_attained_by_63_pairs():
    code = table3_code()
    symbols = [cyclic.codon_symbols(w, code.n) for w in code.words(2**16)]
    hits = sum(
        1
        for a, b in itertools.combinations(symbols, 2)
        if metrics.edit_distance(a, b) == 2
    )
    assert hits == 63


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_size_family(capsys):
    t0 = time.perf_counter()
    factors = rt.table2_factors()
    sizes = []
    dmins = []
    formula_ok = True
    for label, (n, _, _) in rt.PRINTED_HAMMING_FAMILY:
        f = factors[label]
        code = cyclic.single_generator_code(n, 4, f)
        words = code.words(2**16)
        sizes.append(len(words))
        dmins.append(metrics.min_nonzero_hamming_weight(words, n))
        formula_ok &= len(words) == 4 ** (n - f.degree) == code.size()
    elapsed = time.perf_counter() - t0
    notes = "\n".join(rt.regenerate_table2().notes)
    checks = {
        "sizes": sizes == [4096, 256, 256, 4, 64, 64],
        "min_hamming": dmins == [2, 3, 3, 7, 4, 4],
        "torsion_formula": formula_ok,
        "u2_reading_recorded": "printed generators use u^2" in notes,
        "under_30s": elapsed < 30.0,
    }
    _announce(capsys, 3, all(checks.values()), f"{elapsed:.2f} s")
    _assert_all(checks)


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_ring_exhaustives(capsys):
    t0 = time.perf_counter()
    ok_axioms = True
    for a in range(64):
        for b in range(64):
            ab = ring64.mul(a, b)
            if ab != ring64.mul(b, a):
                ok_axioms = False
            for c in range(64):
                if ring64.mul(ab, c) != ring64.mul(a, ring64.mul(b, c)):
                    ok_axioms = False
                if ring64.mul(a, b ^ c) != ab ^ ring64.mul(a, c):
                    ok_axioms = False
    ok_complement = all(
        x ^ ring64.complement(x) == ring64.ALL_ONES for x in range(64)
    )
    images = {ring64.gray_bits(x) for x in range(64)}
    ok_gray_bijective = len(images) == 64
    ok_gray_additive = all(
        ring64.gray_bits(a ^ b)
        == tuple(
            p ^ q for p, q in zip(ring64.gray_bits(a), ring64.gray_bits(b))
        )
        for a in range(64)
        for b in range(64)
    )
    ok_lee = all(
        ring64.lee_weight(x) == sum(ring64.gray_bits(x)) for x in range(64)
    )
    elapsed = time.perf_counter() - t0
    checks = {
        "axioms": ok_axioms,
        "complement_identity": ok_complement,
        "gray_bijective": ok_gray_bijective,
        "gray_additive": ok_gray_additive,
        "lee_is_hamming_of_gray": ok_lee,
        "under_1s": elapsed < 1.0,
    }
    _announce(capsys, 4, all(checks.values()), f"{elapsed:.2f} s")
    _assert_all(checks)


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_codon_table(capsys):
    table = codons.canonical_table()
    all_codons = [table.codon(x) for x in range(64)]
    ok_bijection = sorted(all_codons) == sorted(codons.ALL_CODONS)
    ok_complement = all(
        table.codon(ring64.complement(x)) == codons.dna_complement(table.codon(x))
        for x in range(64)
    )
    ok_anchors = all(
        table.codon(x) == c for x, c in codons.ANCHORS.items()
    )
    diff = {(d.codon, d.printed_value, d.derived_value) for d in table.diff}
    ok_diff = diff == {
        ("AGG", "u^5+u^3+u+1", "u^5+u^4+u^3+u+1"),
        ("CAC", "u^5+u^2+u", "u^5+u^2+1"),
        ("TCC", "u^4+u^2", "u^2"),
        ("AAG", "", "u^5+u^3+u+1"),
        ("TTC", "", "u^4+u^2"),
    }
    rows = dict(rt.regenerate_table4().rows)
    ok_table4 = all(
        rows[c] == ring64.to_bitstring(table.element(c))
        for c in codons.ALL_CODONS
    )
    checks = {
        "bijection": ok_bijection,
        "complement_compatible": ok_complement,
        "anchors": ok_anchors,
        "diff_rows": ok_diff,
        "table4_is_gray_of_lookup": ok_table4,
    }
    _announce(capsys, 5, all(checks.values()))
    _assert_all(checks)


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_edit_distance_oracle(capsys):
    t0 = time.perf_counter()
    alphabet = ("GGG", "CCC", "ACT", "TGA")
    strings = [
        tuple(s)
        for k in range(5)
        for s in itertools.product(alphabet, repeat=k)
    ]
    assert len(strings) == 341
    pair_count = 0
    ok_oracle = True
    for a, b in itertools.combinations(strings, 2):
        pair_count += 1
        if metrics.edit_distance(a, b) != alignment_edit_distance(a, b):
            ok_oracle = False
            break
    ok_pairs = pair_count >= 10**4

    rng = random.Random(0xACCE5)
    table = codons.canonical_table()
    ok_props = True
    for _ in range(1000):
        n = rng.randrange(3, 10)
        x = "".join(rng.choice(codons.ALL_CODONS) for _ in range(n))
        y = "".join(rng.choice(codons.ALL_CODONS) for _ in range(n))
        fx = tuple(table.decode_dna(x))
        fy = tuple(table.decode_dna(y))
        d = metrics.edit_distance(fx, fy)
        d_h = sum(1 for a, b in zip(fx, fy) if a != b)
        fxh = tuple(table.decode_dna(codons.dna_reverse_complement(x)))
        fyh = tuple(table.decode_dna(codons.dna_reverse_complement(y)))
        if not (d <= n and d <= d_h):
            ok_props = False
        if metrics.edit_distance(fx, fyh) != metrics.edit_distance(fy, fxh):
            ok_props = False

    factors = rt.table2_factors()
    ok_bounds = True
    for label, _ in rt.PRINTED_HAMMING_FAMILY:
        code = cyclic.single_generator_code(7, 4, factors[label])
        if not cyclic.edit_bound_check(code, code.words(2**16)).holds:
            ok_bounds = False
    elapsed = time.perf_counter() - t0
    checks = {
        "dp_matches_alignment_oracle": ok_oracle,
        "at_least_1e4_pairs": ok_pairs,
        "proposition_items": ok_props,
        "degree_and_singleton_bounds": ok_bounds,
    }
    _announce(
        capsys, 6, all(checks.values()),
        f"{pair_count} oracle pairs, {elapsed:.1f} s",
    )
    _assert_all(checks)


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_rc_theorem_campaign(capsys):
    t0 = time.perf_counter()
    res = cyclic.rc_theorem_campaign((3, 5, 7), 2**16)
    elapsed = time.perf_counter() - t0
    checks = {
        "all_towers_visited": res.towers_checked == 49 + 49 + 343,
        "enumerable_codes": res.codes_enumerated == 181,
        "zero_violations": res.violations == [],
        "under_5min": elapsed < 300.0,
    }
    _announce(
        capsys, 7, all(checks.values()),
        f"{res.towers_checked} towers, {res.codes_enumerated} enumerated, "
        f"{elapsed:.2f} s",
    )
    _assert_all(checks)


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_skew_algebra_and_factorization():
    for a in range(4):
        assert skew.theta(skew.theta(a)) == a
        for b in range(4):
            assert skew.theta(a ^ b) == skew.theta(a) ^ skew.theta(b)
            assert skew.theta(skew.scalar_mul(a, b)) == skew.scalar_mul(
                skew.theta(a), skew.theta(b)
            )
    rng = random.Random(0x5EED8)
    for _ in range(500):
        f, g, h = (
            skew.poly_normalize(
                tuple(rng.randrange(4) for _ in range(rng.randrange(1, 7)))
            )
            for _ in range(3)
        )
        assert skew.poly_mul(skew.poly_mul(f, g), h) == skew.poly_mul(
            f, skew.poly_mul(g, h)
        )
    example = skew.poly_reciprocal(skew.parse_skew_poly("x^3+v*x^2+(v+1)*x+v"))
    assert skew.poly_str(example) == "v*x^3+(v+1)*x^2+v*x+1"
    for n in (2, 4, 6, 8, 10):
        for g in skew.monic_right_divisors(n):
            assert skew.two_sided_factorization_holds(n, g), (n, g)


@pytest.mark.xfail(
    strict=True,
    reason="six length-8 case-1 codes break the implication suite: four "
    "satisfy the sufficient condition without being rc-closed, two are "
    "rc-closed with non-self-reciprocal generators",
)
def test_criterion_8_zero_violations(capsys):
    _announce(
        capsys, 8, False,
        "implication suite has 6 violations at length 8; algebra, "
        "worked example and factorization clauses all hold",
    )
    res = skew.rc_campaign((2, 4, 6, 8, 10), 2**16)
    assert res.violations == []


def test_criterion_8_campaign_shape_and_timing():
    t0 = time.perf_counter()
    res = skew.rc_campaign((2, 4, 6, 8, 10), 2**16)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert res.codes_checked == 137
    assert res.codes_enumerated == 136
    assert res.skipped_over_guard == 1
    assert all("n=8" in v for v in res.violations)
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


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_table5_report_and_search(capsys):
    t0 = time.perf_counter()
    closed, witnesses = codons.verify_dna_set_rc(rt.PRINTED_SKEW_CODE)
    res = skew.search_codes_containing(list(rt.PRINTED_SKEW_CODE), 10)
    elapsed = time.perf_counter() - t0
    checks = {
        "closure_reported_with_witnesses": (not closed)
        and len(witnesses) == 60,
        "search_candidates": res.candidates == 47,
        "search_completed": res.matches == [] and res.best_overlap == 49,
        "best_label": "x^4+x^3+x^2+x+1" in res.best_label,
        "under_2min": elapsed < 120.0,
    }
    _announce(
        capsys, 9, all(checks.values()),
        f"60 witnesses, no containing code, {elapsed:.2f} s",
    )
    _assert_all(checks)


# -- criterion 10 --------------------------------------------------------------


def test_criterion_10_r_side_images():
    codes = [table3_code()]
    factors = rt.table2_factors()
    for label, _ in rt.PRINTED_HAMMING_FAMILY:
        codes.append(cyclic.single_generator_code(7, 4, factors[label]))
    for code in codes:
        rep = cyclic.gray_image_report(
            code.gray_image(code.words(2**16)), 6 * code.n, code.gray_maps()
        )
        assert rep.linear
        assert rep.closed["shift6"]
        assert list(rep.closed) == ["shift6"]  # rotation by 6 bits


def test_criterion_10_skew_images_twisted():
    checked = 0
    for n in (2, 4, 6, 8, 10):
        skew_codes = [
            skew.SkewCode.from_case1(n, g)
            for g in skew.monic_right_divisors(n)
        ]
        skew_codes.extend(skew.iter_case3_codes(n))
        for code in skew_codes:
            if code.size() > 2**16:
                continue
            rep = cyclic.gray_image_report(
                code.gray_image(code.words(2**16)), 2 * n, code.gray_maps()
            )
            assert rep.linear, code
            assert rep.closed["skew_shift2"], code
            assert rep.closed["plain_shift4"], code
            checked += 1
    assert checked == 136


@pytest.mark.xfail(
    strict=True,
    reason="the binary image of a skew code is quasi-cyclic of index 2 "
    "only under the theta-twisted block shift; plain rotation by 2 bits "
    "fails, e.g. for <v> at length 2",
)
def test_criterion_10_plain_shift_by_two(capsys):
    _announce(
        capsys, 10, False,
        "index-2 closure holds for the twisted shift, not the plain one; "
        "plain index-4 closure and linearity hold everywhere",
    )
    code = skew.SkewCode.from_case3(2, (skew.V,))
    rep = cyclic.gray_image_report(
        code.gray_image(code.words(2**8)), 4, code.gray_maps()
    )
    assert rep.linear and rep.closed["skew_shift2"] and rep.closed["plain_shift4"]
    assert rep.closed["plain_shift2"]


def test_criterion_10_plain_shift_two_counterexample_frozen():
    code = skew.SkewCode.from_case3(2, (skew.V,))
    words = set(code.words(2**8))
    assert words == {
        skew.pack_word([0, 0]),
        skew.pack_word([skew.V, 0]),
        skew.pack_word([0, skew.V1]),
        skew.pack_word([skew.V, skew.V1]),
    }
    rep = cyclic.gray_image_report(
        code.gray_image(words), code.ring.LANE * code.n, code.gray_maps()
    )
    assert rep.bit_length == 4
    assert rep.linear
    assert rep.closed["skew_shift2"]
    assert not rep.closed["plain_shift2"]
    assert rep.closed["plain_shift4"]
