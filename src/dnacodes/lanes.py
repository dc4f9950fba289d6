"""Packed length-n words over a small ring, one bit lane per coordinate.

Both rings store a word as one int holding `lane` bits per coordinate,
coordinate 0 lowest: 6-bit lanes for GF(2)[u]/(u^6) (ring64) and 2-bit
lanes for F2 + vF2 (skew).  Word addition is then XOR, and everything
that acts coordinate by coordinate without the ring's multiplication
(shift, reversal, complement, reverse complement, Hamming weight, text)
is a few masks and shifts that depend only on the lane width.  This
module holds those operations once; each ring module keeps its own
algebra and names its words' `Lanes`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence


@lru_cache(maxsize=None)
def spread(value: int, n: int, lane: int) -> int:
    """value (below 2^lane) in each of n lanes: the per-lane masks."""
    # times the lane repunit 1 + 2^lane + ... + 2^(lane*(n-1))
    return value * (((1 << lane * n) - 1) // ((1 << lane) - 1))


def reverse_lanes(x: int, n: int, lane: int, ones: int = 1) -> int:
    """Reverse the n lanes of a word, or of k words at once.

    For k words packed 64 bits apart in one int (as an array('Q') reads
    with int.from_bytes), ones has bit 0 of each 64-bit slot set and
    every word is reversed in place, a lane of all k words per step;
    lane * n must then be at most 64, so that neither shift carries a
    lane into the next slot's word within n steps.
    """
    lane_mask, out = ((1 << lane) - 1) * ones, 0
    for _ in range(n):
        out = out << lane | x & lane_mask
        x >>= lane
    return out


class Lanes:
    """The packed-word operations of a ring with `lane`-bit coordinates.

    complement is the ring's complement constant: a coordinate and its
    complement sum (XOR) to it, and rc(w) = reverse(w) + the word with
    every coordinate complement.  symbols[c] is coordinate c's text in
    word_str.
    """

    def __init__(self, lane: int, complement: int, symbols: Sequence[str]):
        self.lane = lane
        self.mask = (1 << lane) - 1
        self.complement = complement
        self.symbols = tuple(symbols)

    def full_mask(self, n: int) -> int:
        """Every bit of every lane set."""
        return spread(self.mask, n, self.lane)

    def pack_word(self, coords: Iterable[int], n: int | None = None) -> int:
        w = count = 0
        for j, c in enumerate(coords):
            if not 0 <= c <= self.mask:
                raise ValueError(f"coordinate {j} out of range: {c}")
            w |= c << self.lane * j
            count += 1
        if n is not None and count != n:
            raise ValueError(f"expected {n} coordinates, got {count}")
        return w

    def unpack_word(self, w: int, n: int) -> tuple[int, ...]:
        lane, mask = self.lane, self.mask
        return tuple((w >> lane * j) & mask for j in range(n))

    def word_shift(self, w: int, n: int, lanes: int = 1) -> int:
        """Cyclic shift by `lanes` coordinates, (c0,...,c_{n-1}) ->
        (c_{n-1},c0,...) for one; times x mod x^n - 1."""
        k = self.lane * lanes
        return ((w << k) | (w >> (self.lane * n - k))) & self.full_mask(n)

    def word_reverse(self, w: int, n: int) -> int:
        return reverse_lanes(w, n, self.lane)

    def complement_word(self, n: int) -> int:
        """Every coordinate the complement constant: rc of the zero word."""
        return spread(self.complement, n, self.lane)

    def word_complement(self, w: int, n: int) -> int:
        return w ^ self.complement_word(n)

    def word_reverse_complement(self, w: int, n: int) -> int:
        return reverse_lanes(w, n, self.lane) ^ self.complement_word(n)

    def word_hamming_weight(self, w: int, n: int) -> int:
        """Number of nonzero coordinates."""
        # adding the low-bits mask carries into a lane's top bit exactly
        # when its low bits are nonzero, and never past the lane, so ~low
        # (each lane's top bit; the sum has nothing above the word) keeps
        # one bit per nonzero coordinate
        low = spread(self.mask >> 1, n, self.lane)
        return (((w & low) + low | w) & ~low).bit_count()

    def word_str(self, w: int, n: int) -> str:
        return ",".join(self.symbols[c] for c in self.unpack_word(w, n))


__all__ = ["spread", "reverse_lanes", "Lanes"]
