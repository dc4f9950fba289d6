"""Regeneration and diffing of the five printed reference tables.

Every diff count below was first established by hand-checking the
printed fixtures (duplicate rows, broken complement pairs, misassigned
codons), then frozen here so regressions in the regeneration code are
caught immediately.
"""

import pytest

from dnacodes import codons, reference_tables as rt


def test_table1_diff_rows_frozen():
    rep = rt.regenerate_table1()
    assert rep.which == 1
    assert len(rep.rows) == 64
    assert set(rep.diff_rows) == {
        ("AGG", "u^5+u^3+u+1", "u^5+u^4+u^3+u+1"),
        ("CAC", "u^5+u^2+u", "u^5+u^2+1"),
        ("TCC", "u^4+u^2", "u^2"),
        ("AAG", "", "u^5+u^3+u+1"),
        ("TTC", "", "u^4+u^2"),
    }
    assert any("AGG,TCC" in note for note in rep.notes)


def test_table2_report():
    rep = rt.regenerate_table2()
    assert len(rep.rows) == 6
    by_label = {r[0]: r for r in rep.rows}
    # row layout: generator, size_enumerated, size_formula, min_hamming,
    # printed_size, printed_min_hamming, size_under_printed_u2
    for label, (n, size, dmin) in rt.PRINTED_HAMMING_FAMILY:
        assert n == 7
        gen = f"u^4*({rt.table2_factors()[label]})"
        row = by_label[gen]
        assert row[1] == row[2] == str(size)
        assert row[3] == str(dmin)
        assert row[4] == str(size)
        assert row[5] == str(dmin)
    # the printed u^2 exponent contradicts the printed sizes: every diff
    # row records the size the u^2 reading would give
    assert len(rep.diff_rows) == 6
    for gen, printed, derived in rep.diff_rows:
        assert gen.startswith("u^2*(")
        assert printed.startswith("size=")
        assert "under the printed u^2 exponent" in derived
    assert rt.PRINTED_TABLE2_U_EXPONENT == 2
    assert rt.REGENERATED_TABLE2_U_EXPONENT == 4


def test_table2_u2_sizes_are_the_u2_formula():
    rep = rt.regenerate_table2()
    factors = rt.table2_factors()
    sizes = {}
    for gen, _, derived in rep.diff_rows:
        inner = gen[len("u^2*("):-1]
        sizes[inner] = int(derived.split()[0].split("=")[1])
    for label, f in factors.items():
        # |<u^2 f>| = (2^4)^(n - deg f) for f | x^n - 1
        assert sizes[str(f)] == 16 ** (7 - f.degree)


def test_table3_diff_rows_frozen():
    rep = rt.regenerate_table3()
    assert len(rep.diff_rows) == 93
    printed_only = [r for r in rep.diff_rows if r[1] == "printed"]
    regenerated_only = [r for r in rep.diff_rows if r[1] == "not printed"]
    assert len(printed_only) == 41
    assert len(regenerated_only) == 52
    # the printed left column holds 32 rows but only 25 distinct strings
    assert any("printed table repeats strings" in n for n in rep.notes)
    notes = "\n".join(rep.notes)
    assert "min_edit_codon_level: 2" in notes
    assert "min_edit_nucleotide_level: 6" in notes
    assert "min_hamming: 4" in notes
    assert "rc_closed: False" in notes
    # one printed right-column entry is not the complement of its left
    assert (
        "printed_rows_pair_by_complement: False "
        "GGGCTCGGGCTCTGTTGTTGT vs CCCGAGCCCGAGACAATAACA" in notes
    )


def test_table3_printed_complement_column():
    broken = [
        (left, right)
        for left, right in rt.PRINTED_EDIT_CODE_ROWS
        if right != codons.dna_complement(left)
    ]
    assert broken == [("GGGCTCGGGCTCTGTTGTTGT", "CCCGAGCCCGAGACAATAACA")]


def test_table4_diff_rows_frozen():
    rep = rt.regenerate_table4()
    assert len(rep.rows) == 64
    assert set(rep.diff_rows) == {
        ("TAT", "000001", "100001"),
        ("ATA", "111110", "011110"),
        ("TAC", "100001", "000001"),
        ("ATG", "011110", "111110"),
        ("CAC", "011001", "101001"),
        ("GTG", "100110", "010110"),
        ("CAG", "111001", "000101"),
        ("GTC", "000110", "111010"),
        ("AAT", "000101", "111001"),
        ("TTA", "111010", "000110"),
        ("AGG", "110101", "110111"),
        ("TCC", "001010", "001000"),
        ("AAG", "", "110101"),
        ("TTC", "", "001010"),
    }


def test_table4_rows_match_gray_of_table1():
    rep = rt.regenerate_table4()
    table = codons.canonical_table()
    rows = dict(rep.rows)
    for x in range(64):
        assert rows[table.codon(x)] == table.codon_bits(table.codon(x))


def test_table5_diff_rows_frozen():
    rep = rt.regenerate_table5()
    rc_rows = [r for r in rep.diff_rows if "reverse-complement" in r[2]]
    comp_rows = [r for r in rep.diff_rows if "plain complement" in r[2]]
    assert len(rep.diff_rows) == 62
    assert len(rc_rows) == 60
    assert {r[0] for r in comp_rows} == {"CTAGGGTACC", "GTACCCATGG"}
    notes = "\n".join(rep.notes)
    assert "rc_closed: False" in notes
    assert "rc_witnesses: 60" in notes
    assert "complement_closed: False" in notes
    assert "xor_closed: False" in notes
    assert "skew_shift_closed: False" in notes
    assert "generator_candidates_tested: 47" in notes
    assert "exact_matches: 0" in notes
    assert "best_overlap: 49 of 64" in notes
    assert "case1:<x^4+x^3+x^2+x+1>" in notes


def test_table5_printed_set_pairs_by_complement_except_typo_pair():
    words = set(rt.PRINTED_SKEW_CODE)
    assert len(words) == 64
    unpaired = {w for w in words if codons.dna_complement(w) not in words}
    assert unpaired == {"CTAGGGTACC", "GTACCCATGG"}
    # the stray row is the complement with two adjacent bases swapped:
    # CATGG... printed as CTAGG...
    true_comp = codons.dna_complement("GTACCCATGG")
    printed = "CTAGGGTACC"
    assert true_comp == "CATGGGTACC"
    assert printed[0] == true_comp[0]
    assert printed[1] == true_comp[2] and printed[2] == true_comp[1]
    assert printed[3:] == true_comp[3:]


def test_report_serialization():
    rep = rt.regenerate_table1()
    csv = rep.csv()
    assert csv.splitlines()[0] == "element,codon"
    assert len(csv.splitlines()) == 65
    dcsv = rep.diff_csv()
    assert dcsv.splitlines()[0] == "codon,printed_value,derived_value"
    assert len(dcsv.splitlines()) == 6
    text = rep.text()
    assert "table: 1" in text
    assert "diff_rows: 5" in text
    assert "-- regenerated --" in text and "-- diff --" in text


def test_regenerate_dispatcher():
    for k in (1, 2, 3, 4, 5):
        assert rt.regenerate(k).which == k
    with pytest.raises(ValueError):
        rt.regenerate(6)
    with pytest.raises(ValueError):
        rt.regenerate(0)


def test_table_reports_share_no_lists():
    notes = ("given",)
    a = rt.TableReport(1, "a", ("x",), notes=notes)
    b = rt.TableReport(2, "b", ("x",))
    a.rows.append(("1",))
    a.diff_rows.append(("1", "", ""))
    a.notes.append("added")
    assert (b.rows, b.diff_rows, b.notes) == ([], [], [])
    assert a.notes == ["given", "added"] and notes == ("given",)
    for name in ("rows", "diff_rows", "notes"):
        assert getattr(a, name) is not getattr(b, name)
    c = rt.TableReport(3, "c", ("x",))
    assert c.rows is not b.rows and c.notes is not b.notes
