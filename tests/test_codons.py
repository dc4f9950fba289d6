"""Codon codec: canonical table, DNA string helpers, repair diffs."""

import random

import pytest

from dnacodes import codons, ring64
from dnacodes.codons import TableRepairError


def test_complement_helpers():
    assert codons.dna_complement("ACGT") == "TGCA"
    assert codons.dna_complement("") == ""
    assert codons.dna_reverse_complement("AAC") == "GTT"
    assert codons.dna_reverse_complement("") == ""
    rng = random.Random(3)
    for _ in range(100):
        s = "".join(rng.choice("ACGT") for _ in range(rng.randrange(12)))
        assert codons.dna_complement(codons.dna_complement(s)) == s
        assert (
            codons.dna_reverse_complement(codons.dna_reverse_complement(s))
            == s
        )


def test_check_dna_rejects_bad_symbols():
    with pytest.raises(ValueError):
        codons.check_dna("ACGU")
    with pytest.raises(ValueError):
        codons.check_dna("acg")
    codons.check_dna("")  # empty is fine
    codons.check_dna("ACGT")


def test_codon_complement():
    assert codons.codon_complement("GGG") == "CCC"
    assert codons.codon_complement("ACT") == "TGA"
    for c in codons.ALL_CODONS:
        assert codons.codon_complement(codons.codon_complement(c)) == c


def test_canonical_table_is_bijective():
    table = codons.canonical_table()
    seen_codons = set()
    seen_elements = set()
    for x in range(64):
        c = table.codon(x)
        assert table.element(c) == x
        seen_codons.add(c)
        seen_elements.add(x)
    assert len(seen_codons) == 64
    assert seen_codons == set(codons.ALL_CODONS)


def test_canonical_table_anchors():
    table = codons.canonical_table()
    for element, codon in codons.ANCHORS.items():
        assert table.codon(element) == codon, (element, codon)


def test_canonical_table_complement_compatible():
    """Ring complement must translate to basewise DNA complement."""
    table = codons.canonical_table()
    for x in range(64):
        assert table.codon(ring64.complement(x)) == codons.codon_complement(
            table.codon(x)
        )


def test_canonical_table_diff_rows_frozen():
    table = codons.canonical_table()
    diff = {(row.codon, row.printed_value, row.derived_value)
            for row in table.diff}
    assert diff == {
        ("AGG", "u^5+u^3+u+1", "u^5+u^4+u^3+u+1"),
        ("CAC", "u^5+u^2+u", "u^5+u^2+1"),
        ("TCC", "u^4+u^2", "u^2"),
        ("AAG", "", "u^5+u^3+u+1"),
        ("TTC", "", "u^4+u^2"),
    }


def test_codon_bits_anchor_values():
    table = codons.canonical_table()
    assert table.codon_bits("GGG") == "000000"
    assert table.codon_bits("CCC") == "111111"
    assert table.codon_bits("CCT") == "100000"
    assert table.codon_bits("TAC") == "000001"


def test_encode_decode_round_trip():
    table = codons.canonical_table()
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randrange(1, 9)
        w = rng.randrange(1 << (6 * n))
        s = table.encode_word(w, n)
        assert len(s) == 3 * n
        assert ring64.WORDS.pack_word(table.decode_dna(s)) == w
    with pytest.raises(ValueError):
        table.decode_dna("AC")  # length not a multiple of 3


def test_repair_rejects_conflicting_anchors():
    # complement pairing forces CCC onto 63, so anchoring 63 elsewhere
    # is unsatisfiable
    printed = []
    with pytest.raises(TableRepairError):
        codons.repair_table(printed, anchors={0: "GGG", 63: "AAA"})


def test_repair_rejects_contradictory_rows():
    # the same element printed against two codons that are forced apart
    # by anchor pairing
    printed = [("GGG", 1), ("CCT", 2)]
    with pytest.raises(TableRepairError):
        codons.repair_table(printed, anchors=codons.ANCHORS)


def test_repair_accepts_already_consistent_table():
    table = codons.canonical_table()
    printed = [(table.codon(x), x) for x in range(64)]
    again = codons.repair_table(printed)
    assert not again.diff
    for x in range(64):
        assert again.codon(x) == table.codon(x)


def test_verify_dna_set_rc():
    closed, witnesses = codons.verify_dna_set_rc(["GGG", "CCC"])
    assert closed and witnesses == ()
    closed, witnesses = codons.verify_dna_set_rc(["AAAA"])
    assert not closed
    assert witnesses == ("AAAA",)
    closed, witnesses = codons.verify_dna_set_rc([])
    assert closed


def test_fasta_format():
    out = "".join(codons.fasta(["GGG", "CCC"]))
    assert out == ">cw0\nGGG\n>cw1\nCCC\n"


def test_encode_word_matches_the_codon_join_at_every_position():
    table = codons.canonical_table()
    rng = random.Random(64)
    n = 5
    for j in range(n):
        for x in range(64):
            w = rng.getrandbits(6 * n) & ~(63 << (6 * j)) | x << (6 * j)
            want = "".join(table.codon(c) for c in ring64.WORDS.unpack_word(w, n))
            assert table.encode_word(w, n) == want
