"""Packed length-n words over a small ring, one bit lane per coordinate.

Both rings store a word as one int holding `lane` bits per coordinate,
coordinate 0 lowest: 6-bit lanes for GF(2)[u]/(u^6) (ring64) and 2-bit
lanes for F2 + vF2 (skew).  Word addition is then XOR, and everything
that acts coordinate by coordinate without the ring's multiplication
(shift, reversal, complement, reverse complement, Hamming weight, text)
is a few masks and shifts that depend only on the lane width.  This
module holds those operations once; each ring module keeps its own
algebra and names its words' `Lanes`.

Words that fit 64 bits come as an array('Q'), and a pass over all of
them takes _CHUNK words at a time, read as one int with the words 64
bits apart (`chunks`), so one int operation acts on every word of the
chunk; `map_chunks`, `chunk_texts` and `Lanes.nonzero_lanes` are such
passes.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

# words per int operation in a chunk pass: a power of two
_CHUNK = 1 << 12
# where the low byte of each 64-bit slot falls in a chunk's bytes
_LOW = 0 if sys.byteorder == "little" else 7


@lru_cache(maxsize=None)
def spread(value: int, n: int, lane: int) -> int:
    """value (below 2^lane) in each of n lanes: the per-lane masks."""
    # times the lane repunit 1 + 2^lane + ... + 2^(lane*(n-1))
    return value * (((1 << lane * n) - 1) // ((1 << lane) - 1))


def reverse_lanes(x: int, n: int, lane: int) -> int:
    """Reverse the n lanes of a word: lane j goes to lane n-1-j."""
    lane_mask, out = (1 << lane) - 1, 0
    for _ in range(n):
        out = out << lane | x & lane_mask
        x >>= lane
    return out


def fits64(words: Iterable[int], n: int, lane: int) -> bool:
    """Whether the chunk passes take the words: an array('Q') of words
    of n lanes that fit one 64-bit slot.  Other words (a list, as
    Echelon.span gives past 64 bits) go one at a time."""
    return isinstance(words, array) and lane * n <= 64


def chunks(words: array) -> Iterator[tuple[array, int, int]]:
    """(chunk, x, ones) for each _CHUNK words of an array('Q'), in
    order: x is the chunk read as one int, word i in bits 64i.., and
    ones has bit 0 of each of its 64-bit slots set, so that value * ones
    is value in every slot."""
    order, full = sys.byteorder, spread(1, _CHUNK, 64)
    for lo in range(0, len(words), _CHUNK):
        chunk = words[lo : lo + _CHUNK]
        k = len(chunk)
        ones = full if k == _CHUNK else full & (1 << 64 * k) - 1
        yield chunk, int.from_bytes(chunk, order), ones


def low_bytes(x: int, k: int) -> bytes:
    """Byte 0 (bits 0..7) of each of the k words of a chunk int."""
    return x.to_bytes(8 * k, sys.byteorder)[_LOW::8]


def map_chunks(words: array, f: Callable[[int, int], int]) -> array:
    """The words mapped a chunk at a time, in their own order, as an
    array('Q'): f(x, ones) takes a chunk int of chunks() and returns the
    chunk int of the images (each below 2^64)."""
    out = array("Q")
    for chunk, x, ones in chunks(words):
        out.frombytes(f(x, ones).to_bytes(8 * len(chunk), sys.byteorder))
    return out


def chunk_texts(
    words: array, n: int, lane: int, symbols: Sequence[str]
) -> Iterator[str]:
    """The words' text records, one str per chunk: each word as the
    symbols of its coordinates, coordinate 0 first, then "\n".  The
    symbols are ASCII strings of one width, symbols[c] that of the
    coordinate value c (lane at most 8 bits); fits64 must hold.

    Each lane of the whole chunk is one byte column (the lane's value in
    byte 0 of every slot); a bytes.translate table per symbol character
    maps the column, and a strided slice assignment writes it into every
    record at once.
    """
    width, lane_mask = len(symbols[0]), (1 << lane) - 1
    tables = [
        bytes(ord(s[c]) for s in symbols).ljust(256, b"\0")
        for c in range(width)
    ]
    size = n * width + 1  # one record, in bytes
    for chunk, x, ones in chunks(words):
        k, mask = len(chunk), lane_mask * ones
        text = bytearray(b"\n") * (size * k)
        for j in range(n):
            column = low_bytes(x >> lane * j & mask, k)
            for c, table in enumerate(tables):
                text[j * width + c :: size] = column.translate(table)
        yield text.decode("ascii")


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

    def word_reverse_complement(self, w: int, n: int) -> int:
        return reverse_lanes(w, n, self.lane) ^ self.complement_word(n)

    def nonzero_lanes(self, w: int, n: int, ones: int = 1) -> int:
        """Bit 0 of each lane that holds a nonzero coordinate, the rest
        0; of k words at once when ones is a chunk's (see chunks)."""
        # adding the low-bits mask carries into a lane's top bit exactly
        # when its low bits are nonzero, and never past the lane, so ~low
        # (each lane's top bit; the sum has nothing above the word) keeps
        # one bit per nonzero coordinate
        low = spread(self.mask >> 1, n, self.lane) * ones
        return (((w & low) + low | w) & ~low) >> self.lane - 1

    def word_hamming_weight(self, w: int, n: int) -> int:
        """Number of nonzero coordinates."""
        return self.nonzero_lanes(w, n).bit_count()

    def word_str(self, w: int, n: int) -> str:
        return ",".join(self.symbols[c] for c in self.unpack_word(w, n))


__all__ = [
    "spread",
    "reverse_lanes",
    "fits64",
    "chunks",
    "low_bytes",
    "map_chunks",
    "chunk_texts",
    "Lanes",
]
