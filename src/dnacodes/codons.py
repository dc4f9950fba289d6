"""Codons, Watson-Crick complements, and the codon/ring-element bijection.

The 64 ring elements of GF(2)[u]/(u^6) are identified with the 64 DNA
codons by a lookup table.  The printed reference version of that table
(kept verbatim in :mod:`dnacodes.reference_tables`) is internally
inconsistent: two codons appear twice, two codons are missing, and two
codons share one ring element.  This module rebuilds a clean bijection
from first principles:

* eight anchor assignments are taken as authoritative
  (0->GGG, all-ones->CCC, 1->CCT, u->CCG, u^2->TCC, u^3->GCC,
  u^4->CTC, u^5->TAC);
* the pairing invariant must hold everywhere: the codon of
  ``complement(x)`` is the basewise Watson-Crick complement of the
  codon of ``x``;
* every printed row that does not contradict the above (and is not
  itself duplicated) is kept;
* the few rows left over are filled in by the pairing invariant, with
  ties broken toward the printed row with the fewest base changes.

Construction fails loudly if these constraints cannot be met jointly,
and the repaired table carries a machine-readable diff of every row
that changed.  The same module holds the 4-letter base map used by the
skew F2+vF2 codes (G, A, C, T <-> 0, 1, v, v+1).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, NamedTuple

from . import ring64

BASE_COMPLEMENT = {"A": "T", "T": "A", "C": "G", "G": "C"}

ALL_CODONS = tuple("".join(p) for p in product("ACGT", repeat=3))

#: authoritative assignments: ring element -> codon
ANCHORS = {
    0: "GGG",
    ring64.ALL_ONES: "CCC",
    1: "CCT",
    2: "CCG",  # u
    4: "TCC",  # u^2
    8: "GCC",  # u^3
    16: "CTC",  # u^4
    32: "TAC",  # u^5
}

# base map for the 4-element ring F2+vF2 (elements packed as a + v*b
# with bit0 = a, bit1 = b): 0->G, 1->A, v->C, v+1->T
SKEW_BASE_OF_ELEMENT = {0: "G", 1: "A", 2: "C", 3: "T"}
SKEW_ELEMENT_OF_BASE = {b: e for e, b in SKEW_BASE_OF_ELEMENT.items()}


class TableRepairError(ValueError):
    """The printed table cannot be reconciled with the invariants."""


def check_dna(s: str) -> str:
    if any(c not in BASE_COMPLEMENT for c in s):
        raise ValueError(f"not a DNA string over ACGT: {s!r}")
    return s


def dna_complement(s: str) -> str:
    return "".join(BASE_COMPLEMENT[c] for c in check_dna(s))


def dna_reverse_complement(s: str) -> str:
    return dna_complement(s)[::-1]


def codon_complement(c: str) -> str:
    """Basewise (non-reversed) complement of a codon."""
    if len(c) != 3:
        raise ValueError(f"not a codon: {c!r}")
    return dna_complement(c)


def _codon_distance(a: str, b: str) -> int:
    return sum(x != y for x, y in zip(a, b))


class DiffRow(NamedTuple):
    """One discrepancy between a printed table row and the derived one."""

    codon: str
    printed_value: str
    derived_value: str


class CodonTable:
    """An immutable bijection between ring elements and codons."""

    __slots__ = ("codon_of_element", "diff", "_index")

    def __init__(self, codon_of_element: tuple[str, ...], diff: tuple[DiffRow, ...]):
        self.codon_of_element = codon_of_element  # index = packed element
        self.diff = diff
        self._index = {c: x for x, c in enumerate(codon_of_element)}

    def codon(self, x: int) -> str:
        return self.codon_of_element[ring64.check_element(x)]

    def element(self, c: str) -> int:
        try:
            return self._index[c]
        except KeyError:
            raise ValueError(f"unknown codon {c!r}") from None

    def encode_word(self, word: int, n: int) -> str:
        """Packed ring word -> DNA string of length 3n; a masked 6-bit
        lane is always a ring element, so no lane needs a check."""
        cod = self.codon_of_element
        return "".join([cod[(word >> s) & 63] for s in range(0, 6 * n, 6)])

    def decode_dna(self, dna: str) -> tuple[int, ...]:
        check_dna(dna)
        if len(dna) % 3:
            raise ValueError("DNA length must be a multiple of 3")
        return tuple(self.element(dna[i : i + 3]) for i in range(0, len(dna), 3))

    def codon_bits(self, c: str) -> str:
        """The 6-bit binary image of a codon (Gray map of its element)."""
        return ring64.to_bitstring(self.element(c))


def repair_table(
    printed: tuple[tuple[str, int], ...], anchors: dict[int, str] | None = None
) -> CodonTable:
    """Rebuild the codon/element bijection from a printed table.

    See the module docstring for the repair policy.  Raises
    :class:`TableRepairError` when the anchors plus the pairing
    invariant cannot be satisfied.
    """
    anchors = dict(ANCHORS if anchors is None else anchors)
    codon_count: dict[str, int] = {}
    element_count: dict[int, int] = {}
    for c, e in printed:
        check_dna(c)
        ring64.check_element(e)
        codon_count[c] = codon_count.get(c, 0) + 1
        element_count[e] = element_count.get(e, 0) + 1

    assigned: dict[int, str] = {}
    used: dict[str, int] = {}

    def assign(e: int, c: str, why: str) -> None:
        if assigned.get(e, c) != c or used.get(c, e) != e:
            raise TableRepairError(
                f"conflict assigning {c}<->{ring64.element_str(e)} ({why}): "
                f"element already {assigned.get(e)}, codon already "
                f"{used.get(c)}"
            )
        assigned[e] = c
        used[c] = e

    for e, c in anchors.items():
        assign(e, c, "anchor")
    # keep every printed row whose codon and element are both unambiguous
    for c, e in printed:
        if codon_count[c] == 1 and element_count[e] == 1:
            assign(e, c, "printed")
    # close under the pairing invariant
    changed = True
    while changed:
        changed = False
        for e, c in list(assigned.items()):
            pe, pc = ring64.complement(e), codon_complement(c)
            if pe not in assigned:
                assign(pe, pc, "pairing closure")
                changed = True
            elif assigned[pe] != pc:
                raise TableRepairError(
                    f"pairing violation: {ring64.element_str(e)}->{c} forces "
                    f"{ring64.element_str(pe)}->{pc}, have {assigned[pe]}"
                )

    # fill leftovers: complement-pairs of elements onto complement-pairs of
    # codons, oriented toward whatever the printed rows said
    left_elems = [e for e in range(64) if e not in assigned]
    left_codons = [c for c in ALL_CODONS if c not in used]
    if len(left_elems) != len(left_codons):
        raise TableRepairError("leftover elements and codons do not match up")
    printed_by_elem: dict[int, list[str]] = {}
    for c, e in printed:
        printed_by_elem.setdefault(e, []).append(c)
    while left_elems:
        e = min(left_elems)
        pe = ring64.complement(e)
        if pe not in left_elems:
            raise TableRepairError("unpaired leftover element")
        best = None
        for c in sorted(left_codons):
            pc = codon_complement(c)
            if pc not in left_codons or pc == c:
                continue
            score = sum(
                min((_codon_distance(c2, cand) for c2 in printed_by_elem.get(x, [])),
                    default=3)
                for x, cand in ((e, c), (pe, pc))
            )
            if best is None or score < best[0]:
                best = (score, c, pc)
        if best is None:
            raise TableRepairError("no complement-compatible codon pair left")
        _, c, pc = best
        assign(e, c, "leftover fill")
        assign(pe, pc, "leftover fill")
        for x in (e, pe):
            left_elems.remove(x)
        for x in (c, pc):
            left_codons.remove(x)

    if len(assigned) != 64 or len(used) != 64:
        raise TableRepairError("repair did not produce a bijection")
    for e, c in assigned.items():
        if assigned[ring64.complement(e)] != codon_complement(c):
            raise TableRepairError("pairing invariant broken after repair")
    for e, c in anchors.items():
        if assigned[e] != c:
            raise TableRepairError("anchor lost during repair")

    diff: list[DiffRow] = []
    seen_codons = set()
    for c, e in printed:
        seen_codons.add(c)
        if used[c] != e:
            diff.append(
                DiffRow(c, ring64.element_str(e), ring64.element_str(used[c]))
            )
    for c in ALL_CODONS:
        if c not in seen_codons:
            diff.append(DiffRow(c, "", ring64.element_str(used[c])))

    return CodonTable(
        codon_of_element=tuple(assigned[e] for e in range(64)),
        diff=tuple(diff),
    )


@lru_cache(maxsize=1)
def canonical_table() -> CodonTable:
    """The repaired table built from the printed reference rows."""
    from .reference_tables import PRINTED_CODON_TABLE

    return repair_table(PRINTED_CODON_TABLE)


def verify_dna_set_rc(strings) -> tuple[bool, tuple[str, ...]]:
    """Check a set of DNA strings for reverse-complement closure.

    Returns (closed, witnesses); each witness is a string whose
    reverse-complement is missing from the set.
    """
    pool = set(strings)
    witnesses = tuple(
        sorted(s for s in pool if dna_reverse_complement(s) not in pool)
    )
    return (not witnesses, witnesses)


def fasta(texts: Iterable[str]) -> Iterator[str]:
    """The FASTA records ">cw{i}\n{seq}\n" of the sequences, numbered in
    order.  Each text holds one sequence or several, one a line (such as
    a chunk of LinearCode.dna_texts), and gives one string of records,
    so a writer can stream them a text at a time."""
    i = 0
    for text in texts:
        seqs = text.splitlines()
        lines = [""] * (2 * len(seqs))
        lines[0::2] = [f">cw{j}" for j in range(i, i + len(seqs))]
        lines[1::2] = seqs
        i += len(seqs)
        yield "\n".join(lines) + "\n"


__all__ = [
    "BASE_COMPLEMENT",
    "ALL_CODONS",
    "ANCHORS",
    "SKEW_BASE_OF_ELEMENT",
    "SKEW_ELEMENT_OF_BASE",
    "TableRepairError",
    "check_dna",
    "dna_complement",
    "dna_reverse_complement",
    "codon_complement",
    "DiffRow",
    "CodonTable",
    "repair_table",
    "canonical_table",
    "verify_dna_set_rc",
    "fasta",
]
