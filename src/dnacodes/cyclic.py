"""Cyclic codes over the 64-element chain ring.

A code of length n is an ideal of R[x]/(x^n - 1) where R = F2[u]/(u^6).
It is described here by a divisor tower (f0,...,f5) of binary
polynomials and realized as the ideal generated by the packed words of
u^i * fi(x).  Because F2 sits inside R, every such ideal is also an
F2-vector space of 6n-bit vectors, which is what makes membership,
sizing and enumeration cheap: everything reduces to XOR linear algebra
plus the torsion filtration.  That linear-code core (LinearCode) and
its reverse-complement checks are shared with the skew cyclic codes.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import codons, metrics, ring64
from .gf2poly import (
    Gf2Poly,
    GuardExceeded,
    factor_xn_minus_1,
    x_pow_n_minus_1,
)
from .lanes import (
    _CHUNK,
    Lanes,
    chunk_texts,
    fits64,
    spread,
)

DEFAULT_GUARD = 2**20


class TowerError(ValueError):
    """The six polynomials do not form an admissible divisor tower."""


def validate_tower(n: int, polys: Sequence[Gf2Poly]) -> tuple[Gf2Poly, ...]:
    """Check the divisibility constraints for a tower of length n.

    Odd n requires the full chain f5 | f4 | ... | f1 | f0 | x^n-1.
    Even n only requires fi | f0 and f0 | x^n-1.
    """
    if n < 1:
        raise TowerError(f"length must be positive, got {n}")
    polys = tuple(polys)
    if len(polys) != 6:
        raise TowerError(f"need six polynomials, got {len(polys)}")
    modulus = x_pow_n_minus_1(n)
    f0 = polys[0]
    if not f0 or not f0.divides(modulus):
        raise TowerError(f"f0 = {f0} does not divide x^{n}-1")
    for i, f in enumerate(polys):
        if not f:
            raise TowerError(f"f{i} is zero")
        if not f.divides(modulus):
            raise TowerError(f"f{i} = {f} does not divide x^{n}-1")
        if not f.divides(f0):
            raise TowerError(f"f{i} = {f} does not divide f0 = {f0}")
    if n % 2 == 1:
        for i in range(5):
            hi, lo = polys[i], polys[i + 1]
            if not lo.divides(hi):
                raise TowerError(
                    f"odd length needs f{i+1} | f{i}; "
                    f"got f{i+1} = {lo}, f{i} = {hi}"
                )
    return polys


def tower_str(polys: Sequence[Gf2Poly]) -> str:
    return ", ".join(f"f{i}={f}" for i, f in enumerate(polys))


class Echelon:
    """Incremental reduced row-echelon basis for packed bit vectors over
    F2: each row is 0 at every other row's lead bit, so span() ascends."""

    __slots__ = ("_rows",)

    def __init__(self, vectors: Iterable[int] = ()):
        self._rows: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        for lead, row in self._rows.items():
            if v >> lead & 1:
                v ^= row
        return v

    def add(self, v: int) -> bool:
        v = self.reduce(v)
        if not v:
            return False
        lead, rows = v.bit_length() - 1, self._rows
        for k, row in rows.items():
            if row >> lead & 1:
                rows[k] = row ^ v
        rows[lead] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis(self) -> tuple[int, ...]:
        return tuple(self._rows[k] for k in sorted(self._rows, reverse=True))

    def span(self, guard: int = DEFAULT_GUARD) -> Sequence[int]:
        """All 2^dim spanned vectors, ascending: index_span of the rows
        by ascending lead."""
        if 1 << self.dim > guard:
            raise GuardExceeded(
                f"span has {1 << self.dim} words, above the guard {guard}",
                1 << self.dim,
            )
        return index_span([row for _, row in sorted(self._rows.items())])


def index_span(rows: Sequence[int]) -> Sequence[int]:
    """The 2^len(rows) XOR combinations of the rows in index order: word
    i is the XOR of rows[j] over the set bits j of i.  The rows are taken
    as given, with no reduction, so dependent rows give repeats.  An
    array('Q') when every row fits in 64 bits, else a list."""
    if max(rows, default=0) >> 64:
        return _list_span(rows)
    # allocated once and written a block (one int) at a time, laid out
    # by _span_blocks, so no whole-array int or copy is made; the view is
    # released so callers can resize it
    order, packed = sys.byteorder, array("Q", (0,)) * (1 << len(rows))
    low_rows, highs = _span_blocks(rows)
    low, ones = _packed_block(low_rows)
    step = 8 * len(packed) // len(highs)  # bytes per block
    with memoryview(packed) as mv, mv.cast("B") as view:
        for h, high in enumerate(highs):
            block = (low ^ high * ones).to_bytes(step, order)
            view[h * step : (h + 1) * step] = block
    return packed


def _list_span(rows: Sequence[int]) -> list[int]:
    """index_span as a list, by doubling."""
    out = [0]
    for row in rows:
        out += [w ^ row for w in out]
    return out


def _span_blocks(rows: Sequence[int]) -> tuple[Sequence[int], list[int]]:
    """index_span's layout of its words in blocks of up to _CHUNK, as
    (low_rows, highs): the first rows (at most 12) and the index span of
    the others.  Word i of block h is word i of the span of low_rows
    XOR highs[h]."""
    b = min(len(rows), _CHUNK.bit_length() - 1)
    return rows[:b], _list_span(rows[b:])


def _packed_block(rows: Sequence[int]) -> tuple[int, int]:
    """(low, ones): the index span of rows (at most 12, each below 2^64)
    as one int with word i in bits 64i.., built by doubling, and ones
    with bit 0 of each of its slots set.  A packed block of a span with
    these low rows is then low ^ high * ones, since a high below 2^64
    times ones carries into no other slot."""
    low = 0
    for i, row in enumerate(rows):
        low |= (low ^ row * spread(1, 1 << i, 64)) << (64 << i)
    return low, spread(1, 1 << len(rows), 64)


def least_weight_word(rows: Iterable[int], guard: int) -> int:
    """A nonzero word of least popcount in the rows' span, the first in
    Echelon.span's order.  Raises ValueError if the span is zero."""
    return min(filter(None, Echelon(rows).span(guard)), key=int.bit_count)


def has_word(words: Sequence[int], w: int) -> bool:
    """Whether w is among the ascending, repeat-free words (a binary
    search)."""
    i = bisect_left(words, w)
    return i < len(words) and words[i] == w


def linear_basis(words: Sequence[int]) -> tuple[int, ...] | None:
    """The reduced echelon basis of the words if they are, in order, the
    index_span of k independent rows (so 2^k distinct words making an
    F2-subspace), else None.

    Word 2^j of such a list is rows[j], so the rows taken are the
    members at positions 1, 2, 4, ...: the list is certified iff those
    are independent and their index_span is the list.  LinearCode.words
    lists an ascending span, whose members there are its reduced
    echelon rows; an F2-linear image of it, in the same order, is the
    index_span of their images.  The words are compared a block of up to
    _CHUNK at a time, in index_span's layout (_span_blocks), so no list
    of 2^k words is built: packed words as one int per block, read
    through a view, against low ^ high * ones; other words against the
    span of the first rows XORed with each high.
    """
    size = len(words)
    if not size or words[0] or size & (size - 1):
        return None
    k = size.bit_length() - 1
    rows = [words[1 << j] for j in range(k)]
    ech = Echelon(rows)
    if ech.dim < k:
        return None
    low_rows, highs = _span_blocks(rows)
    step = size // len(highs)  # words per block
    if isinstance(words, array):
        low, ones = _packed_block(low_rows)
        with memoryview(words) as mv, mv.cast("B") as view:
            for h, high in enumerate(highs):
                block = view[8 * h * step : 8 * (h + 1) * step]
                if int.from_bytes(block, sys.byteorder) != low ^ high * ones:
                    return None
        return ech.basis()
    low = _list_span(low_rows)
    for h, high in enumerate(highs):
        if list(words[h * step : (h + 1) * step]) != [w ^ high for w in low]:
            return None
    return ech.basis()


def closed_under(
    words: Sequence[int],
    f: Callable[[int], int],
    basis: Sequence[int] | None,
) -> bool:
    """Whether f maps the words into themselves.  For an F2-linear f and
    words certified linear, pass linear_basis's result: the words are
    then exactly its span, in any order, and it is enough that f maps
    the basis into that span (Echelon membership).  With basis None the
    words must be ascending and repeat-free, and every word is checked
    by binary search."""
    if basis is None:
        return all(has_word(words, f(w)) for w in words)
    span = Echelon(basis)
    return all(span.contains(f(b)) for b in basis)


def _certified_basis(words: Sequence[int]) -> tuple[int, ...]:
    """linear_basis of the words; RuntimeError if it refuses them."""
    basis = linear_basis(words) if isinstance(words, Sequence) else None
    if basis is None:
        raise RuntimeError("the words are not a certified span listing")
    return basis


class LinearCode:
    """An F2-linear code of packed words, held as a cached echelon basis.

    Both rings share the reverse-complement argument: rc(w) = reverse(w)
    + a constant complement word, so a linear code is rc-closed iff it
    contains that word and is closed under coordinate reversal.
    Subclasses set ``lanes`` to the Lanes of their packed words (lane
    width, complement constant, coordinate text) and define
    module_generators, generators_self_reciprocal and
    min_hamming_witness: (d, w), the least nonzero Hamming weight and a
    word of it, read off a small binary subcode (the socle for r64, the
    idempotent components for F2+vF2) with no scan of the words.  For
    r64 the same witness also gives the least Lee weight.

    The code is the smallest F2-space that holds the generator words
    and is closed under the two F2-linear maps of module_generators:
    shift (times x: the cyclic shift for r64, the skew shift for
    F2+vF2) and scale (times u for r64, times v for F2+vF2).
    spanning_words walks their orbits and keeps only the words that
    enlarge the span.

    For build-verify each subclass also supplies its ring's facts:
    report_lines, gray_image and gray_maps (maps named in
    gray_informational are reported, not checked), witness_str, a
    (word, n) -> text function, and dna_symbols, the DNA text of each
    coordinate value, all of one width.
    """

    n: int
    lanes: Lanes
    gray_informational: tuple[str, ...] = ()
    dna_symbols: Sequence[str]

    def module_generators(
        self,
    ) -> tuple[Iterable[int], Callable[[int], int], Callable[[int], int]]:
        """(generator words, shift, scale), as in the class docstring."""
        raise NotImplementedError

    def complement_word(self) -> int:
        """Every coordinate the ring's complement constant."""
        return self.lanes.complement_word(self.n)

    def generators_self_reciprocal(self) -> bool:
        raise NotImplementedError

    @cached_property
    def _orbit_cut(self) -> tuple[Echelon, list[int]]:
        ech, kept = Echelon(), []
        gens, shift, scale = self.module_generators()
        for start in gens:
            while start and ech.add(start):  # scale can reach 0 (u^6 = 0)
                kept.append(start)
                w = shift(start)
                while ech.add(w):
                    kept.append(w)
                    w = shift(w)
                start = scale(start)
        return ech, kept

    def spanning_words(self) -> list[int]:
        """An F2-basis of the code, read off the generators' orbits.

        For each generator word g the starts are g, scale(g),
        scale(scale(g)), ..., and a start's orbit is its shifts.  The
        words go to one Echelon in that order and only those it accepts
        are kept, so there are exactly dim of them.  An orbit stops at
        its first shift that the Echelon rejects, and a generator's
        starts stop at the first start that it rejects.

        Nothing is lost.  Let E be the span when an orbit starts at w.
        E is shift-invariant, as is each finished orbit's span (by
        induction), so if shift^j(w) lies in E + span(w, ...,
        shift^(j-1)(w)), applying shift shows that every later shift
        does too.  If a start scale^m(g) is rejected, E holds it and,
        being shift-invariant, its whole orbit.  scale(shift^j(w)) lies
        in the span of shift^j(scale(w)) and shift^j(w) (u commutes
        with x; v x^j = x^j theta^j(v), and theta^j(v) is v or v + 1),
        so E is then also closed under scale: a submodule holding g and
        the earlier generators (an ideal over R, a left module over
        F2+vF2), which every later start lies in.  Both loops end, as
        each kept word raises the dimension.
        """
        return list(self._orbit_cut[1])

    @cached_property
    def _echelon(self) -> Echelon:
        return self._orbit_cut[0]

    @property
    def dim(self) -> int:
        """log2 of the code size (the code is an F2-subspace)."""
        return self._echelon.dim

    def size(self) -> int:
        return 1 << self.dim

    def contains(self, word: int) -> bool:
        return self._echelon.contains(word)

    def basis(self) -> tuple[int, ...]:
        return self._echelon.basis()

    def words(self, guard: int = DEFAULT_GUARD) -> Sequence[int]:
        """The full word set, ascending, as Echelon.span gives it; raises
        GuardExceeded when too big."""
        return self._echelon.span(guard)

    # -- reverse-complement structure ----------------------------------------

    def contains_complement_word(self) -> bool:
        return self.contains(self.complement_word())

    def reversal_closed(self) -> bool:
        reverse, n = self.lanes.word_reverse, self.n
        return all(self.contains(reverse(b, n)) for b in self.basis())

    def rc_closed(self) -> bool:
        """Reverse-complement closure, decided without enumeration."""
        return self.contains_complement_word() and self.reversal_closed()

    def min_hamming_witness(self, guard: int) -> tuple[int, int]:
        raise NotImplementedError

    def min_hamming(self, words: Sequence[int], guard: int) -> int:
        """min_hamming_witness's minimum, with its witness checked among
        the code's enumerated words (ascending) and for its weight."""
        d, witness = self.min_hamming_witness(guard)
        self._check_witness(words, d, witness)
        return d

    def _check_witness(
        self, words: Sequence[int], d: int, witness: int
    ) -> None:
        if (not has_word(words, witness)
                or self.lanes.word_hamming_weight(witness, self.n) != d):
            raise RuntimeError(f"minimum {d} has no enumerated witness")

    def to_dna(self, w: int, n: int) -> str:
        """One word's DNA string: its coordinates' dna_symbols."""
        symbols = self.dna_symbols
        return "".join([symbols[c] for c in self.lanes.unpack_word(w, n)])

    def dna_texts(self, words: Sequence[int]) -> Iterable[str]:
        """The words' DNA strings, in order, each followed by "\n": one
        text per chunk of packed words (lanes.chunk_texts), and one per
        word past 64 bits (to_dna)."""
        n, lane = self.n, self.lanes.lane
        if fits64(words, n, lane):
            return chunk_texts(words, n, lane, self.dna_symbols)
        return (f"{self.to_dna(w, n)}\n" for w in words)


class RcReport(NamedTuple):
    """The reverse-complement theorem on one code: the sufficient
    condition (complement word in the code plus self-reciprocal
    generators) implies closure, and closure implies it back."""

    complement_word_member: bool
    generators_self_reciprocal: bool
    rc_closed: bool

    @property
    def sufficiency_satisfied(self) -> bool:
        return self.complement_word_member and self.generators_self_reciprocal

    @property
    def sufficiency_implies_closure(self) -> bool:
        return self.rc_closed or not self.sufficiency_satisfied

    @property
    def closure_implies_necessity(self) -> bool:
        return self.sufficiency_satisfied or not self.rc_closed


def rc_report(code: LinearCode) -> RcReport:
    return RcReport(
        complement_word_member=code.contains_complement_word(),
        generators_self_reciprocal=code.generators_self_reciprocal(),
        rc_closed=code.rc_closed(),
    )


def rc_closed_extensional(
    code: LinearCode, words: Sequence[int]
) -> tuple[bool, int | None]:
    """Reverse-complement check of the code's enumerated words, listed
    ascending; the witness is the least word whose reverse complement
    is not among them, or None if there is none.

    Word 0's image is looked up first, so a code that is not closed
    under rc(0) = the complement word stops at once.  The list must
    then be certified (_certified_basis), and is decided from its rows
    words[2^j]: it holds rc(0), and rc(w) = reverse(w) ^ rc(0) with
    reverse F2-linear, so the words whose image is a member form a
    subspace.  It holds the words below index 2^j iff it holds rows
    0..j-1, so the least witness is the first row whose reverse leaves
    the span.
    """
    n, lanes = code.n, code.lanes
    if (words and isinstance(words, Sequence)
            and not has_word(words, lanes.word_reverse_complement(words[0], n))):
        return False, words[0]
    basis = _certified_basis(words)
    span = Echelon(basis)
    for j in range(len(basis)):
        if not span.contains(lanes.word_reverse(words[1 << j], n)):
            return False, words[1 << j]
    return True, None


def word_to_levelmajor(w: int, n: int) -> int:
    """Regroup a packed word by u-level: level 0 in the top n bits."""
    v = 0
    for level in range(6):
        part = 0
        bit = level
        for j in range(n):
            if (w >> bit) & 1:
                part |= 1 << j
            bit += 6
        v |= part << ((5 - level) * n)
    return v


def levelmajor_to_word(v: int, n: int) -> int:
    w = 0
    for level in range(6):
        part = (v >> ((5 - level) * n)) & ((1 << n) - 1)
        bit = level
        for j in range(n):
            if (part >> j) & 1:
                w |= 1 << bit
            bit += 6
    return w


class TorsionLevel(NamedTuple):
    level: int
    generator: Gf2Poly
    dim: int


class TorsionProfile(NamedTuple):
    """The six torsion codes of a code, with the derived invariants.

    levels[i] describes Tor_i as a binary cyclic code of length n; k[i]
    counts the new generators appearing at u-level i, so rank = sum(k)
    = dim Tor_5 and log2 |C| = sum of all six dims.
    """

    n: int
    levels: tuple[TorsionLevel, ...]
    k: tuple[int, ...]
    rank: int
    log2_size: int


class CyclicCodeR(LinearCode):
    """An ideal of R[x]/(x^n - 1) given by generator words."""

    lanes = ring64.WORDS

    def __init__(
        self,
        n: int,
        generator_words: Iterable[int],
        tower: tuple[Gf2Poly, ...] | None = None,
    ):
        self.n = n
        self.generators = tuple(
            w & self.lanes.full_mask(n) for w in generator_words
        )
        self.tower = tower

    @classmethod
    def from_tower(cls, n: int, polys: Sequence[Gf2Poly]) -> "CyclicCodeR":
        polys = validate_tower(n, polys)
        gens = []
        for i, f in enumerate(polys):
            w = ring64.word_from_poly(f.value, n, level=i)
            if w:
                gens.append(w)
        return cls(n, gens, tower=polys)

    def __repr__(self):
        if self.tower is not None:
            return f"CyclicCodeR(n={self.n}, {tower_str(self.tower)})"
        return f"CyclicCodeR(n={self.n}, {len(self.generators)} generators)"

    def module_generators(self):
        """The generator words, the cyclic shift and the u-multiple."""
        n = self.n
        return (
            self.generators,
            partial(ring64.WORDS.word_shift, n=n),
            partial(ring64.word_scale_u, n=n),
        )

    def generators_self_reciprocal(self) -> bool:
        """Every tower polynomial is self-reciprocal."""
        if self.tower is None:
            raise ValueError("sufficiency test needs a tower description")
        return all(f.is_self_reciprocal() for f in self.tower)

    # -- build-verify facts -------------------------------------------------

    def report_lines(self, report, rc: RcReport) -> None:
        """Write the report's lines from the tower to the u^2 subcode with
        report.emit and report.check; rc is rc_report(self)."""
        profile = self.torsion_profile
        report.emit("tower", tower_str(self.tower))
        report.emit("log2_size", self.dim)
        report.emit("size", self.size())
        report.emit("rank", profile.rank)
        for lv in profile.levels:
            report.emit(f"torsion.{lv.level}", f"gen={lv.generator} dim={lv.dim}")
        if self.n % 2 == 1:
            report.check(
                "size_formula",
                self.size_formula_odd() == self.size(),
                f"formula {self.size_formula_odd()} vs enumerated {self.size()}",
            )
        report.emit("rc_closed", rc.rc_closed)
        report.emit("alpha_identity_member", rc.complement_word_member)
        report.emit("rc_sufficiency", rc.sufficiency_satisfied)
        if not rc.generators_self_reciprocal:
            report.emit("not_self_reciprocal", "; ".join(
                f"f{i}={f}" for i, f in enumerate(self.tower)
                if not f.is_self_reciprocal()
            ))
        report.check("sufficiency_implies_closure", rc.sufficiency_implies_closure)
        report.check("closure_implies_necessity", rc.closure_implies_necessity)
        sub = subcode_u2_report(self)
        report.emit("subcode_u2.log2_size", sub.subcode_log2_size)
        report.emit("subcode_u2.single_generator_claim_log2", sub.claim_log2_size)
        report.emit("subcode_u2.claim_equal", sub.equal)
        report.emit("subcode_u2.claim_inside_code", sub.claim_inside_code)

    def gray_image(self, words: Sequence[int]) -> Sequence[int]:
        """The binary Gray image of a packed word is the word itself read
        as 6n bits, so the image is the words, uncopied."""
        return words

    def gray_maps(self) -> dict[str, Callable[[int], int]]:
        """The image of a cyclic code is closed under rotation by 6 bits."""
        n = self.n
        return {"shift6": lambda w: ring64.WORDS.word_shift(w, n)}

    @property
    def dna_symbols(self) -> tuple[str, ...]:
        return codons.canonical_table().codon_of_element

    @property
    def witness_str(self) -> Callable[[int, int], str]:
        return self.lanes.word_str

    # -- torsion ------------------------------------------------------------

    @cached_property
    def levelmajor_echelon(self) -> Echelon:
        """The echelon basis in level-major order, where the rows
        supported on u-levels >= i span C ∩ u^i R^n."""
        n = self.n
        return Echelon(word_to_levelmajor(w, n) for w in self.spanning_words())

    @cached_property
    def torsion_profile(self) -> TorsionProfile:
        n = self.n
        modulus = x_pow_n_minus_1(n)
        mask = (1 << n) - 1
        levels = []
        dims_sum = 0
        for i in range(6):
            limit = 1 << ((6 - i) * n)
            tor = Echelon()
            gen = modulus
            for row in self.levelmajor_echelon.basis():
                if row < limit:
                    part = (row >> ((5 - i) * n)) & mask
                    tor.add(part)
                    if part:
                        gen = gen.gcd(Gf2Poly(part))
            # Tor_i is itself cyclic, so its generator is this gcd
            deg = gen.degree if gen.degree is not None else n
            if tor.dim != n - deg:
                raise RuntimeError("torsion level dim mismatch")
            levels.append(TorsionLevel(i, gen, tor.dim))
            dims_sum += tor.dim
        if dims_sum != self.dim:
            raise RuntimeError("torsion dims must sum to log2|C|")
        k = tuple(
            levels[i].dim - (levels[i - 1].dim if i else 0) for i in range(6)
        )
        return TorsionProfile(
            n=n,
            levels=tuple(levels),
            k=k,
            rank=levels[5].dim,
            log2_size=dims_sum,
        )

    def rank(self) -> int:
        return self.torsion_profile.rank

    def min_hamming_witness(self, guard: int) -> tuple[int, int]:
        """The minimum Hamming weight of a nonzero word and one word of
        that weight, from the socle C ∩ u^5 R^n (Norton & Salagean, IEEE
        Trans. IT 46(3), 2000): for c != 0 and the largest j with
        u^j c != 0, u^j c lies in the socle with support inside supp(c).
        The rows below 2^n of levelmajor_echelon span the socle, as in
        torsion_profile, and its words' level-5 bits are their supports.
        Raises ValueError for the zero code."""
        n = self.n
        rows = [r for r in self.levelmajor_echelon.basis() if r < 1 << n]
        v = least_weight_word(rows, guard)
        return v.bit_count(), levelmajor_to_word(v, n)

    def _check_witness(
        self, words: Sequence[int], d: int, witness: int
    ) -> None:
        """Also check the popcount, so d is the Lee minimum too: a popcount
        is at least the Hamming weight, and a socle word's coordinates
        are 0 or u^5, one bit."""
        super()._check_witness(words, d, witness)
        if witness.bit_count() != d:
            raise RuntimeError(f"socle minimum {d} is not a Lee minimum")

    def min_edit_codon(self, words: Sequence[int]) -> int:
        """The least unit-cost edit distance between the codon texts of
        two of the code's enumerated words (ascending), read off one
        pair of words with no pair scan.

        Between words of one length it is 1 iff they differ in one
        symbol (Levenshtein, Soviet Physics Doklady 10(8), 1966), and
        the code holds shift(w) with w, at most 2 from it (delete the
        last codon, insert it in front).  A word of Hamming weight 1
        exists iff the socle holds one, so iff the socle, a binary
        cyclic code, is all of F2^n (torsion level 5 has dimension n)
        and holds u^5.  So the minimum is 1, by (0, u^5); else 2 if a
        basis row r moves under the shift, by (r, shift(r)); else every
        word is constant and it is n, by 0 and a row.  The pair is
        looked up among the words and measured by one unit-cost DP.
        Raises RuntimeError if either fails or the words are not as
        many as the code's, and ValueError for a code of one word.
        """
        n, shift = self.n, self.lanes.word_shift
        rows = self.basis()
        if not rows:
            raise ValueError("need at least two words")
        if len(words) != self.size():
            raise RuntimeError(f"{len(words)} words listed for {self}")
        moving = [r for r in rows if shift(r, n) != r]
        if not moving:
            d, pair = n, (0, rows[0])
        elif self.torsion_profile.levels[5].dim == n:
            d, pair = 1, (0, ring64.word_from_poly(1, n, level=5))
        else:
            d, pair = 2, (moving[0], shift(moving[0], n))
        x, y = pair
        # the unit-cost DP itself: edit_distance calls are scan pairs
        if not (has_word(words, x) and has_word(words, y)
                and metrics._unit_edit_distance(codon_symbols(x, n),
                                                codon_symbols(y, n)) == d):
            raise RuntimeError(f"codon edit minimum {d} has no enumerated pair")
        return d

    def size_formula_odd(self) -> int:
        """prod 2^(n - deg fi) for an odd-length tower."""
        if self.tower is None or self.n % 2 == 0:
            raise ValueError("formula applies to odd-length towers only")
        total = 0
        for f in self.tower:
            deg = f.degree if f.degree is not None else 0
            if deg < self.n:
                total += self.n - deg
        return 1 << total


# -- builders ----------------------------------------------------------------


def single_generator_code(n: int, level: int, f: Gf2Poly) -> CyclicCodeR:
    """The ideal generated by the single word u^level * f(x)."""
    if not 0 <= level <= 5:
        raise ValueError(f"u-exponent must be in 0..5, got {level}")
    modulus = x_pow_n_minus_1(n)
    if not f or not f.divides(modulus):
        raise TowerError(f"{f} does not divide x^{n}-1")
    polys = tuple(modulus if i < level else f for i in range(6))
    return CyclicCodeR.from_tower(n, polys)


def iter_admissible_towers(n: int) -> Iterator[tuple[Gf2Poly, ...]]:
    """All canonical odd-length towers: one chain per assignment of a
    cut level 0..6 to each irreducible factor of x^n - 1."""
    if n % 2 == 0:
        raise ValueError("tower iteration is defined for odd lengths")
    factors = [f for f, _ in factor_xn_minus_1(n)]
    counts = [0] * len(factors)
    while True:
        polys = []
        for i in range(6):
            g = Gf2Poly(1)
            for f, c in zip(factors, counts):
                if i < c:
                    g = g * f
            polys.append(g)
        yield tuple(polys)
        for j in range(len(counts)):
            counts[j] += 1
            if counts[j] <= 6:
                break
            counts[j] = 0
        else:
            return


# -- the u^2 subcode ---------------------------------------------------------


class SubcodeU2Report(NamedTuple):
    """The words of C lying in u^2 R^n, against the single-generator
    claim <u^2 f5>."""

    subcode_log2_size: int
    claim_log2_size: int
    claim_inside_code: bool
    equal: bool
    f5: str


def subcode_u2(code: CyclicCodeR) -> CyclicCodeR:
    """The subcode {w in C : every coordinate is a multiple of u^2}.

    The level-major rows below 2^(4n) span C ∩ u^2 R^n over F2, so
    their words are its echelon basis as they stand, with no expansion
    into shifts and u-multiples."""
    n = code.n
    limit = 1 << (4 * n)
    sub = CyclicCodeR(n, (
        levelmajor_to_word(row, n)
        for row in code.levelmajor_echelon.basis()
        if row < limit
    ))
    sub._echelon = Echelon(sub.generators)
    return sub


def subcode_u2_report(code: CyclicCodeR) -> SubcodeU2Report:
    """The claim <u^2 f5>, unbuilt: the ideal C holds it iff C holds
    u^2 f5, and it is <f5> (dim n - deg f5) at each of levels 2..5; it
    is the subcode iff it lies in C and both have log2 size 4(n - deg f5)."""
    if code.tower is None:
        raise ValueError("report needs a tower description")
    n, f5 = code.n, code.tower[5]
    sub = subcode_u2(code)
    claim_log2 = 4 * (n - f5.degree)
    inside = code.contains(ring64.word_from_poly(f5.value, n, level=2))
    return SubcodeU2Report(
        subcode_log2_size=sub.dim,
        claim_log2_size=claim_log2,
        claim_inside_code=inside,
        equal=inside and sub.dim == claim_log2,
        f5=str(f5),
    )


# -- DNA classification and Gray image ----------------------------------------


class DnaClassification(NamedTuple):
    """Does the word set qualify as a DNA code at threshold D: no
    self-reverse-complement word, rc-closure, and max edit <= D."""

    n: int
    D: float
    rc_closed: bool
    fixed_points: tuple[int, ...]
    min_edit: float
    max_edit: float

    @property
    def is_dna_code(self) -> bool:
        return (
            self.rc_closed
            and not self.fixed_points
            and self.max_edit <= self.D
        )


def codon_symbols(word: int, n: int) -> tuple[str, ...]:
    cod = codons.canonical_table().codon_of_element
    return tuple([cod[x] for x in ring64.WORDS.unpack_word(word, n)])


def classify_dna_code(
    code: CyclicCodeR,
    words: Sequence[int],
    D: float,
    scan: metrics.MinResult,
    rc_closed: bool,
) -> DnaClassification:
    """Classify the code's enumerated words at threshold D, given the
    full all-pairs edit scan of those words (codon or nucleotide) and
    their closure as rc_closed_extensional found it.  The edit scan
    bounds the words (cli.EDIT_SCAN_CEILING), so the fixed points are
    found one word at a time."""
    n, rc = code.n, code.lanes.word_reverse_complement
    fixed = tuple(w for w in words if rc(w, n) == w)
    return DnaClassification(
        n=n,
        D=D,
        rc_closed=rc_closed,
        fixed_points=fixed,
        min_edit=scan.minimum,
        max_edit=scan.maximum,
    )


class GrayImageReport(NamedTuple):
    """Linearity of a binary image set, and whether each named map keeps
    it closed."""

    bit_length: int
    linear: bool
    closed: dict[str, bool]


def gray_image_report(
    image: Sequence[int],
    bit_length: int,
    maps: dict[str, Callable[[int], int]],
) -> GrayImageReport:
    """The image words (bit_length bits each) form an F2-subspace, and
    whether each of the F2-linear maps sends them into themselves.  The
    image must be certified (_certified_basis), as LinearCode.words and
    a linear image of it in the same order are; it is checked uncopied."""
    basis = _certified_basis(image)
    return GrayImageReport(
        bit_length=bit_length,
        linear=True,
        closed={name: closed_under(image, f, basis) for name, f in maps.items()},
    )


# -- bounds and campaign -------------------------------------------------------


class EditBoundCheck(NamedTuple):
    min_edit: int
    bound_min_degree: int
    bound_singleton: int

    @property
    def holds(self) -> bool:
        return (
            self.min_edit <= self.bound_min_degree
            and self.min_edit <= self.bound_singleton
        )


def edit_bound_check(
    code: CyclicCodeR, words: Sequence[int]
) -> EditBoundCheck:
    """Codon-level minimum edit distance of the code's enumerated words
    (code.min_edit_codon) against the two structural bounds:
    min deg(fi) + 1 and n - rank + 1."""
    if code.tower is None:
        raise ValueError("bound check needs a tower description")
    min_deg = min(
        f.degree for f in code.tower if f.degree is not None
    )
    return EditBoundCheck(
        min_edit=code.min_edit_codon(words),
        bound_min_degree=min_deg + 1,
        bound_singleton=code.n - code.rank() + 1,
    )


class CampaignResult(NamedTuple):
    """What an rc theorem campaign found, summed over its codes."""

    codes_checked: int
    codes_enumerated: int
    skipped_over_guard: int
    violations: list[str]

    @property
    def towers_checked(self) -> int:
        """codes_checked, named for a campaign over r64 towers."""
        return self.codes_checked


def check_rc_theorem(
    labelled_codes: Iterable[tuple[str, LinearCode]], guard: int
) -> CampaignResult:
    """One theorem instance per (label, code): both implications of
    rc_report, and the closure decided algebraically must agree with the
    enumerated check.  Codes above the guard still get the implications."""
    checked = enumerated = skipped = 0
    violations = []
    for label, code in labelled_codes:
        checked += 1
        rc = rc_report(code)
        if not rc.sufficiency_implies_closure:
            violations.append(f"{label}: sufficiency but not closed")
        if not rc.closure_implies_necessity:
            violations.append(f"{label}: closed but necessity fails")
        if code.size() > guard:
            skipped += 1
            continue
        enumerated += 1
        ext_closed, witness = rc_closed_extensional(code, code.words(guard))
        if ext_closed != rc.rc_closed:
            violations.append(
                f"{label}: algebraic closure {rc.rc_closed} but "
                f"enumeration says {ext_closed} (witness {witness})"
            )
    return CampaignResult(checked, enumerated, skipped, violations)


def rc_theorem_campaign(
    lengths: Sequence[int] = (3, 5, 7),
    guard: int = 2**16,
) -> CampaignResult:
    """Exhaustive consistency drive over every admissible odd tower."""
    return check_rc_theorem((
        (f"n={n}, {tower_str(polys)}", CyclicCodeR.from_tower(n, polys))
        for n in lengths
        for polys in iter_admissible_towers(n)
    ), guard)


__all__ = [
    "DEFAULT_GUARD",
    "TowerError",
    "GuardExceeded",
    "validate_tower",
    "tower_str",
    "Echelon",
    "index_span",
    "least_weight_word",
    "has_word",
    "linear_basis",
    "closed_under",
    "word_to_levelmajor",
    "levelmajor_to_word",
    "TorsionLevel",
    "TorsionProfile",
    "LinearCode",
    "RcReport",
    "rc_report",
    "rc_closed_extensional",
    "CyclicCodeR",
    "single_generator_code",
    "iter_admissible_towers",
    "SubcodeU2Report",
    "subcode_u2",
    "subcode_u2_report",
    "DnaClassification",
    "codon_symbols",
    "classify_dna_code",
    "GrayImageReport",
    "gray_image_report",
    "EditBoundCheck",
    "edit_bound_check",
    "CampaignResult",
    "check_rc_theorem",
    "rc_theorem_campaign",
]
