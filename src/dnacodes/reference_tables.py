"""Verbatim printed reference data for the five tables this package
reproduces, plus the regeneration/diff helpers used by the CLI.

The fixtures below are kept exactly as printed in the reference
write-up, including its misprints (duplicated codons, a duplicated ring
element, swapped binary images, inconsistent word rows).  Nothing in
this module is used as a source of truth for computation: every table
is regenerated from the algebra and then *diffed* against the printed
version, so discrepancies are surfaced as findings rather than silently
inherited.

Ring elements in ``PRINTED_CODON_TABLE`` are transcribed to packed
ints (bit i = coefficient of u^i).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import codons, cyclic, metrics, ring64, skew
from .gf2poly import Gf2Poly, factor_xn_minus_1

# --------------------------------------------------------------------------
# Table 1: codon <-> ring element, 64 printed rows.
# Misprints present: AGG and TCC each appear twice; CAA and CAC share one
# element (u^5+u^2+u); AAG and TTC never appear.

PRINTED_CODON_TABLE: tuple[tuple[str, int], ...] = (
    ("CCC", 63), ("GGG", 0), ("ACT", 13), ("GTC", 23),
    ("GGA", 62), ("CCT", 1), ("ACG", 14), ("ACA", 15),
    ("GGC", 61), ("CCG", 2), ("TTT", 21), ("GAC", 45),
    ("GGT", 60), ("CCA", 3), ("TTG", 22), ("AGG", 43),
    ("AGG", 59), ("TCC", 4), ("CTA", 19), ("GAT", 44),
    ("CGG", 55), ("GCC", 8), ("GTT", 25), ("GTA", 27),
    ("GAG", 47), ("CTC", 16), ("GTG", 26), ("ATT", 29),
    ("AGA", 58), ("TCT", 5), ("TCA", 7), ("ATA", 30),
    ("AGC", 57), ("TCG", 6), ("CAA", 38), ("ATC", 28),
    ("ATG", 31), ("TAC", 32), ("CAC", 38), ("TGA", 50),
    ("AGT", 56), ("TAT", 33), ("GCA", 11), ("AAT", 39),
    ("CGA", 54), ("GCT", 9), ("TTA", 24), ("AAA", 42),
    ("CGC", 53), ("GCG", 10), ("ACC", 12), ("TGC", 49),
    ("CGT", 52), ("TAA", 34), ("CAT", 36), ("AAC", 41),
    ("TGG", 51), ("CTG", 18), ("TGT", 48), ("TCC", 20),
    ("GAA", 46), ("CTT", 17), ("CAG", 40), ("TAG", 35),
)

# --------------------------------------------------------------------------
# Table 2: the six length-7 codes built over the factors of x^7-1.
# The printed generators say u^2 * f, but the printed sizes match the u^4
# reading (size 4^(7-deg f)); the regeneration below uses u^4 and reports
# both readings' sizes.

PRINTED_HAMMING_FAMILY: tuple[tuple[str, tuple[int, int, int]], ...] = (
    ("f0", (7, 4096, 2)),
    ("f1", (7, 256, 3)),
    ("f2", (7, 256, 3)),
    ("f1*f2", (7, 4, 7)),
    ("f0*f1", (7, 64, 4)),
    ("f0*f2", (7, 64, 4)),
)
PRINTED_TABLE2_U_EXPONENT = 2
REGENERATED_TABLE2_U_EXPONENT = 4

# --------------------------------------------------------------------------
# Table 3: 32 printed rows of (word, basewise complement), length 21 each.

PRINTED_EDIT_CODE_ROWS: tuple[tuple[str, str], ...] = (
    ("GGGGGGGGGGGGGGGGGGGGG", "CCCCCCCCCCCCCCCCCCCCC"),
    ("CTCGGGCTCCTCCTCGGGGGG", "GAGCCCGAGGAGGAGCCCCCC"),
    ("GGGCTCGGGCTCTGTTGTTGT", "CCCGAGCCCGAGACAATAACA"),
    ("TGTGGGCTCGGGCTCTGTTGT", "ACACCCGAGCCCGAGACAACA"),
    ("TGTTGTGGGCTCGGGCTCTGT", "ACAACACCCGAGCCCGAGACA"),
    ("TGTTGTTGTGGGCTCGGGCTC", "ACAACAACACCCGAGCCCGAG"),
    ("CTCTGTTGTTGTGGGCTCGGG", "GAGACAACAACACCCGAGCCC"),
    ("GGGCTCTGTTGTTGTGGGCTC", "CCCGAGACAACAACACCCGAG"),
    ("TATGGGTATTATTATGGGGGG", "ATACCCATAATAATACCCCCC"),
    ("GGGTATGGGTATTATTATGGG", "CCCATACCCATAATAATACCC"),
    ("GGGGGGTATGGGTATTATTAT", "CCCCCCATACCCATAATAATA"),
    ("TATGGGGGGTATGGGTATTAT", "ATACCCCCCATACCCATAATA"),
    ("TATTATGGGGGGTATGGGTAT", "ATAATACCCCCCATACCCATA"),
    ("TATTATTATGGGGGGTATGGG", "ATAATAATACCCCCCATACCC"),
    ("GGGTATTATTATGGGGGGTAT", "CCCATAATAATACCCCCCATA"),
    ("TGTGGGTGTTGTTGTGGGGGG", "ACACCCACAACAACACCCCCC"),
    ("GGGTGTGGGTGTTGTTGTGGG", "CCCACACCCACAACAACACCC"),
    ("GGGGGGTGTGGGTGTTGTTGT", "CCCCCCACACCCACAACAACA"),
    ("TGTGGGGGGTGTGGGTGTTGT", "ACACCCCCCACACCCACAACA"),
    ("TGTTGTGGGGGGTGTGGGTGT", "ACAACACCCCCCACACCCACA"),
    ("TGTTGTTGTGGGGGGTGTGGG", "ACAACAACACCCCCCACACCC"),
    ("GGGTGTTGTTGTGGGGGGTGT", "CCCACAACAACACCCCCCACA"),
    ("CTCGGGCTCTGTTGTTGTGGG", "GAGCCCGAGACAACAACACCC"),
    ("GGGCTCGGGCTCTGTTGTTGT", "CCCGAGCCCGAGACAACAACA"),
    ("TGTGGGCTCGGGCTCTGTTGT", "ACACCCGAGCCCGAGACAACA"),
    ("TGTTGTGGGCTCGGGCTCTGT", "ACAACACCCGAGCCCGAGACA"),
    ("TGTTGTTGTGGGCTCGGGCTC", "ACAACAACACCCGAGCCCGAG"),
    ("CTCTGTTGTTGTGGGCTCGGG", "GAGACAACAACACCCGAGCCC"),
    ("GGGCTCTGTTGTTGTGGGCTC", "CCCGAGACAACAACACCCGAG"),
    ("GGGGGGCTCGGGCTCCTCCTC", "CCCCCCGAGCCCGAGGAGGAG"),
    ("CTCGGGGGGCTCGGGCTCCTC", "GAGCCCCCCGAGCCCGAGGAG"),
    ("CTCCTCGGGGGGCTCGGGCTC", "GAGGAGCCCCCCGAGCCCGAG"),
)

# --------------------------------------------------------------------------
# Printed codon alphabets of the ideals u^i R, exactly as listed (the
# u^2 list repeats CTC and TCC, so it names only 14 distinct codons).

PRINTED_IDEAL_ALPHABETS: dict[int, tuple[str, ...]] = {
    2: ("GGG", "AGT", "CGT", "TGT", "GAT", "CAG", "TAC", "ATC",
        "GTC", "TCC", "CTC", "ACC", "CTC", "TCC", "GGT", "CAT"),
    3: ("GGG", "TGT", "CAG", "TAC", "CTC", "GCC", "AGT", "TTA"),
    4: ("GGG", "TAC", "CTC", "TGT"),
}

# --------------------------------------------------------------------------
# Table 4: printed binary images of the codons (bit order a0..a5).
# Misprints present: AGG/TCC duplicated again, AAG/TTC missing, and several
# rows disagree with Table 1 (e.g. TAT/TAC, CAG/AAT, GTC/TTA are swapped).

PRINTED_CODON_BITS: tuple[tuple[str, str], ...] = (
    ("GGG", "000000"), ("CCC", "111111"), ("TAT", "000001"), ("ATA", "111110"),
    ("GGA", "011111"), ("CCT", "100000"), ("TAC", "100001"), ("ATG", "011110"),
    ("GGC", "101111"), ("CCG", "010000"), ("TAA", "010001"), ("ATT", "101110"),
    ("GGT", "001111"), ("CCA", "110000"), ("TAG", "110001"), ("ATC", "001110"),
    ("AGG", "110111"), ("TCC", "001000"), ("CAT", "001001"), ("GTA", "110110"),
    ("AGA", "010111"), ("TCT", "101000"), ("CAC", "011001"), ("GTG", "100110"),
    ("AGC", "100111"), ("TCG", "011000"), ("CAA", "011001"), ("GTT", "100110"),
    ("AGT", "000111"), ("TCA", "111000"), ("CAG", "111001"), ("GTC", "000110"),
    ("CGG", "111011"), ("GCC", "000100"), ("AAT", "000101"), ("TTA", "111010"),
    ("CGA", "011011"), ("GCT", "100100"), ("AAC", "100101"), ("TTG", "011010"),
    ("CGC", "101011"), ("GCG", "010100"), ("AAA", "010101"), ("TTT", "101010"),
    ("CGT", "001011"), ("GCA", "110100"), ("AGG", "110101"), ("TCC", "001010"),
    ("TGG", "110011"), ("ACC", "001100"), ("GAT", "001101"), ("CTA", "110010"),
    ("TGA", "010011"), ("ACT", "101100"), ("GAC", "101101"), ("CTG", "010010"),
    ("TGC", "100011"), ("ACG", "011100"), ("GAA", "011101"), ("CTT", "100010"),
    ("TGT", "000011"), ("ACA", "111100"), ("GAG", "111101"), ("CTC", "000010"),
)

# --------------------------------------------------------------------------
# Table 5: the printed [10,6,2] reverse-complement skew code, 64 strings.

PRINTED_SKEW_CODE: tuple[str, ...] = (
    "GGGGGGGGGG", "CCCCCCCCCC", "CCCCCGGGGG", "GGGGGCCCCC",
    "GGGGCCCCCG", "CCCCGGGGGC", "CCCCGCCCCG", "GGGGCGGGGC",
    "GGGTTTTTGG", "CCCAAAAACC", "CCCATAAACG", "GGGTATTTGC",
    "GGGTAAAACG", "CCCATTTTGC", "CCGGGCCGGG", "GGCCCGGCCC",
    "GGCCCCCGGG", "CCGGGGGCCC", "CCGGCGGCCG", "GGCCGCCGGC",
    "GGCCGGGCCG", "CCGGCCCGGC", "CCGTATTACG", "GGCATAATGC",
    "GGCAAAATCG", "CCGTTTTAGC", "CCGTTAATTG", "GGCAATTAAC",
    "GGCAAAATGG", "CCGTTTTACC", "CATTAACGGG", "GTAATTGCCC",
    "GTAAAACGGG", "CATTTTGCCC", "CAGTATGCCG", "GTCATACGGC",
    "GTAACCATTG", "CATTGGTAAC", "CAAGCGTACG", "GTTCGCATGC",
    "GTACGGTACG", "CATGCCATGC", "CAATTACCGG", "GTTAATGGCC",
    "GTACCCATGG", "CTAGGGTACC", "CAAAATGGGG", "GTTTTACCCC",
    "GATTTTGGGG", "CTAAAACCCC", "CAAATACCCG", "GTTTATGGGC",
    "GTTTAACCCG", "CAAATTGGGC", "CAACGCAACG", "GTTGCGTTGC",
    "GTTGCCAACG", "CAACGGTTGC", "CAACCGTTGG", "GTTGGCAACC",
    "GTTGGGTTGG", "CAACCCAACC", "CCACGCAACG", "GGTGCGTTGC",
)


def table2_factors() -> dict[str, Gf2Poly]:
    """The named binary factors of x^7 - 1 used by the length-7 family."""
    f0 = Gf2Poly.from_string("x+1")
    f1 = Gf2Poly.from_string("x^3+x+1")
    f2 = Gf2Poly.from_string("x^3+x^2+1")
    if tuple(f for f, _ in factor_xn_minus_1(7)) != (f0, f1, f2):
        raise RuntimeError("x^7-1 does not factor as (x+1)(x^3+x+1)(x^3+x^2+1)")
    return {
        "f0": f0,
        "f1": f1,
        "f2": f2,
        "f0*f1": f0 * f1,
        "f0*f2": f0 * f2,
        "f1*f2": f1 * f2,
    }


# --------------------------------------------------------------------------
# regeneration reports


@dataclass
class TableReport:
    """A regenerated table plus its diff against the printed version."""

    which: int
    headline: str
    columns: tuple[str, ...]
    rows: list[tuple[str, ...]] = field(default_factory=list)
    diff_columns: tuple[str, ...] = ()
    diff_rows: list[tuple[str, ...]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def csv(self) -> str:
        out = [",".join(self.columns)]
        out += [",".join(r) for r in self.rows]
        return "\n".join(out) + "\n"

    def diff_csv(self) -> str:
        out = [",".join(self.diff_columns)]
        out += [",".join(r) for r in self.diff_rows]
        return "\n".join(out) + "\n"

    def text(self) -> str:
        lines = [f"table: {self.which}", f"headline: {self.headline}"]
        lines += [f"note: {s}" for s in self.notes]
        lines.append(f"diff_rows: {len(self.diff_rows)}")
        lines.append("-- regenerated --")
        lines.append(self.csv().rstrip("\n"))
        lines.append("-- diff --")
        lines.append(self.diff_csv().rstrip("\n"))
        return "\n".join(lines) + "\n"


def regenerate_table1() -> TableReport:
    table = codons.canonical_table()
    report = TableReport(
        which=1,
        headline="codon assignments for the 64 ring elements",
        columns=("element", "codon"),
        diff_columns=("codon", "printed_value", "derived_value"),
    )
    for x in range(64):
        report.rows.append((ring64.element_str(x), table.codon(x)))
    report.diff_rows = [
        (d.codon, d.printed_value, d.derived_value) for d in table.diff
    ]
    counts = Counter(c for c, _ in PRINTED_CODON_TABLE)
    dup_codons = sorted(c for c, k in counts.items() if k > 1)
    if dup_codons:
        report.notes.append(f"printed table repeats codons: {','.join(dup_codons)}")
    return report


def regenerate_table2(guard: int = cyclic.DEFAULT_GUARD) -> TableReport:
    factors = table2_factors()
    report = TableReport(
        which=2,
        headline="length-7 codes from the factors of x^7-1",
        columns=(
            "generator",
            "size_enumerated",
            "size_formula",
            "min_hamming",
            "printed_size",
            "printed_min_hamming",
            "size_under_printed_u2",
        ),
        diff_columns=("generator", "printed_value", "derived_value"),
        notes=[
            "printed generators use u^2 but printed sizes match the u^4 "
            "reading; regenerated with u^4 and both sizes reported"
        ],
    )
    for label, (pn, psize, pdist) in PRINTED_HAMMING_FAMILY:
        f = factors[label]
        code = cyclic.single_generator_code(7, REGENERATED_TABLE2_U_EXPONENT, f)
        words = code.words(guard)
        dist = metrics.min_nonzero_hamming_weight(words, 7, code.lanes)
        code_u2 = cyclic.single_generator_code(7, PRINTED_TABLE2_U_EXPONENT, f)
        gen = f"u^{REGENERATED_TABLE2_U_EXPONENT}*({f})"
        report.rows.append(
            (
                gen,
                str(len(words)),
                str(code.size()),
                str(dist),
                str(psize),
                str(pdist),
                str(code_u2.size()),
            )
        )
        if len(words) != psize:
            report.diff_rows.append((gen, f"size={psize}", f"size={len(words)}"))
        if dist != pdist:
            report.diff_rows.append((gen, f"d_H={pdist}", f"d_H={dist}"))
        printed_gen = f"u^{PRINTED_TABLE2_U_EXPONENT}*({f})"
        if code_u2.size() != psize:
            report.diff_rows.append(
                (
                    printed_gen,
                    f"size={psize}",
                    f"size={code_u2.size()} under the printed u^2 exponent",
                )
            )
    return report


def table3_code() -> "cyclic.CyclicCodeR":
    factors = table2_factors()
    return cyclic.single_generator_code(7, 4, factors["f0*f1"])


def regenerate_table3(guard: int = cyclic.DEFAULT_GUARD) -> TableReport:
    table = codons.canonical_table()
    code = table3_code()
    words = code.words(guard)
    strings = [table.encode_word(w, 7) for w in words]
    codon_words = [cyclic.codon_symbols(w, 7) for w in words]
    min_edit_codon = metrics.min_pairwise(codon_words, metrics.edit_distance)
    min_edit_nuc = metrics.min_pairwise(strings, metrics.edit_distance)
    closed, witnesses = codons.verify_dna_set_rc(strings)
    report = TableReport(
        which=3,
        headline="64 DNA strings of length 21 from the u^4*(x+1)*(x^3+x+1) code",
        columns=("dna",),
        diff_columns=("dna", "printed_value", "derived_value"),
    )
    report.rows = [(s,) for s in strings]
    printed = [s for row in PRINTED_EDIT_CODE_ROWS for s in row]
    regenerated = set(strings)
    for s in sorted(set(printed) - regenerated):
        report.diff_rows.append((s, "printed", "not a codeword"))
    for s in sorted(regenerated - set(printed)):
        report.diff_rows.append((s, "not printed", "codeword"))
    dup = sorted({s for s in printed if printed.count(s) > 1})
    if dup:
        report.notes.append(f"printed table repeats strings: {','.join(dup)}")
    # The printed rows pair each left string with its basewise complement in
    # the right column; report any row where that pairing is broken.
    uncomplemented = [
        (left, right)
        for left, right in PRINTED_EDIT_CODE_ROWS
        if codons.dna_complement(left) != right
    ]
    report.notes.append(
        f"printed_rows_pair_by_complement: {not uncomplemented}"
        if not uncomplemented
        else "printed_rows_pair_by_complement: False "
        + "; ".join(f"{l} vs {r}" for l, r in uncomplemented)
    )
    report.notes.append(f"min_edit_codon_level: {min_edit_codon.minimum}")
    report.notes.append(f"min_edit_nucleotide_level: {min_edit_nuc.minimum}")
    report.notes.append(
        f"min_hamming: {metrics.min_nonzero_hamming_weight(words, 7, code.lanes)}"
    )
    report.notes.append(f"rc_closed: {closed}")
    if witnesses:
        report.notes.append(f"rc_witness: {witnesses[0]}")
    return report


def regenerate_table4() -> TableReport:
    table = codons.canonical_table()
    report = TableReport(
        which=4,
        headline="6-bit binary images of the 64 codons",
        columns=("codon", "bits"),
        diff_columns=("codon", "printed_value", "derived_value"),
    )
    derived = {c: table.codon_bits(c) for c in codons.ALL_CODONS}
    for c in codons.ALL_CODONS:
        report.rows.append((c, derived[c]))
    seen = set()
    for c, printed_bits in PRINTED_CODON_BITS:
        seen.add(c)
        if derived[c] != printed_bits:
            report.diff_rows.append((c, printed_bits, derived[c]))
    for c in codons.ALL_CODONS:
        if c not in seen:
            report.diff_rows.append((c, "", derived[c]))
    return report


def regenerate_table5() -> TableReport:
    report = TableReport(
        which=5,
        headline="printed length-10 skew code: rc check and generator search",
        columns=("dna",),
        diff_columns=("dna", "printed_value", "derived_value"),
    )
    report.rows = [(s,) for s in PRINTED_SKEW_CODE]
    closed, witnesses = codons.verify_dna_set_rc(PRINTED_SKEW_CODE)
    report.notes.append(f"rc_closed: {closed}")
    report.notes.append(f"rc_witnesses: {len(witnesses)}")
    for w in witnesses:
        report.diff_rows.append(
            (w, "printed", "reverse-complement missing from the printed set")
        )
    # The printed rows come in columnwise pairs that are complements without
    # the reversal, so also report closure under the plain complement.
    printed = set(PRINTED_SKEW_CODE)
    comp_witnesses = tuple(
        sorted(s for s in printed if codons.dna_complement(s) not in printed)
    )
    report.notes.append(f"complement_closed: {not comp_witnesses}")
    for w in comp_witnesses:
        report.diff_rows.append(
            (w, "printed", f"plain complement {codons.dna_complement(w)} missing")
        )
    # the printed set holds the zero word, so XOR-closure is linearity
    words = sorted(skew.dna_to_word(s) for s in printed)
    basis = cyclic.linear_basis(words)
    shift_closed = cyclic.closed_under(
        words, lambda w: skew.skew_shift(w, 10), basis
    )
    report.notes.append(f"xor_closed: {basis is not None}")
    report.notes.append(f"skew_shift_closed: {shift_closed}")
    search = skew.search_codes_containing(PRINTED_SKEW_CODE, 10)
    report.notes.append(f"generator_candidates_tested: {search.candidates}")
    report.notes.append(f"exact_matches: {len(search.matches)}")
    for label in search.matches:
        report.notes.append(f"match: {label}")
    report.notes.append(
        f"best_overlap: {search.best_overlap} of {len(set(PRINTED_SKEW_CODE))} "
        f"printed words, generator {search.best_label}"
    )
    return report


def regenerate(which: int, guard: int = cyclic.DEFAULT_GUARD) -> TableReport:
    builders = {
        1: regenerate_table1,
        2: lambda: regenerate_table2(guard),
        3: lambda: regenerate_table3(guard),
        4: regenerate_table4,
        5: regenerate_table5,
    }
    if which not in builders:
        raise ValueError(f"no such table: {which}")
    return builders[which]()


__all__ = [
    "PRINTED_CODON_TABLE",
    "PRINTED_IDEAL_ALPHABETS",
    "PRINTED_HAMMING_FAMILY",
    "PRINTED_EDIT_CODE_ROWS",
    "PRINTED_CODON_BITS",
    "PRINTED_SKEW_CODE",
    "table2_factors",
    "table3_code",
    "TableReport",
    "regenerate_table1",
    "regenerate_table2",
    "regenerate_table3",
    "regenerate_table4",
    "regenerate_table5",
    "regenerate",
]
