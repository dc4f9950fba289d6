"""Arithmetic in the 64-element chain ring GF(2)[u]/(u^6).

An element a0 + a1*u + ... + a5*u^5 is stored as the 6-bit int with a0
in the least significant bit.  Addition is XOR; multiplication is the
carry-free product with every u^6-and-above term dropped.  The ring is
local with maximal ideal (u), and its ideals form the chain
R > uR > u^2 R > ... > u^5 R > 0 with |u^i R| = 2^(6-i).

The all-ones element u^5+u^4+u^3+u^2+u+1 (int 63) plays the role of the
"complement constant": an element and its complement always sum to it,
which is the algebraic shadow of Watson-Crick base pairing once
elements are identified with codons.  The Gray map sends an element to
its coefficient bits (a0, ..., a5); because of the chosen packing it is
literally the identity on the backing int, read as a bit vector, and
the Lee weight is the popcount.

Length-n words over the ring are packed 6 bits per coordinate into one
int (coordinate 0 lowest), so word addition is XOR and the binary Gray
image of a word *is* its packed int.  The helpers below implement the
cyclic shift, scalar action, coordinate reversal and complement needed
by the code-enumeration layer.
"""

from __future__ import annotations

from functools import lru_cache

SIZE = 64
MASK = 63
ALL_ONES = 63  # u^5+u^4+u^3+u^2+u+1
U = 2

LANE = 6  # bits per coordinate in a packed word


def check_element(x: int) -> int:
    if not 0 <= x <= MASK:
        raise ValueError(f"not a ring element: {x}")
    return x


def add(x: int, y: int) -> int:
    return x ^ y


def _mul_table() -> tuple[tuple[int, ...], ...]:
    # the product is bilinear over F2: row x is the XOR of row (x minus
    # its lowest bit) and row (that bit), and row u^i is a masked shift
    rows = [(0,) * SIZE]
    for x in range(1, SIZE):
        low = x & -x
        if x == low:
            shift = low.bit_length() - 1
            rows.append(tuple((y << shift) & MASK for y in range(SIZE)))
        else:
            rows.append(tuple(a ^ b for a, b in zip(rows[x ^ low], rows[low])))
    return tuple(rows)


_MUL = _mul_table()


def mul(x: int, y: int) -> int:
    """Carry-free product truncated at u^6 = 0, by table lookup."""
    return _MUL[x][y]


def complement(x: int) -> int:
    """The pairing partner: x + complement(x) = ALL_ONES."""
    return x ^ MASK


def lee_weight(x: int) -> int:
    return x.bit_count()


def gray_bits(x: int) -> tuple[int, ...]:
    """Coefficient tuple (a0, ..., a5); the Gray image of the element."""
    return tuple((x >> i) & 1 for i in range(6))


def to_bitstring(x: int) -> str:
    """External text form a0a1a2a3a4a5, e.g. "110000" for 1+u."""
    return "".join(str((x >> i) & 1) for i in range(6))


def from_bitstring(s: str) -> int:
    if len(s) != 6 or any(c not in "01" for c in s):
        raise ValueError(f"not a 6-bit element string: {s!r}")
    return int(s[::-1], 2)


def element_str(x: int) -> str:
    """Human form such as "u^5+u^2+1"; "0" for zero."""
    if x == 0:
        return "0"
    terms = []
    for i in range(5, -1, -1):
        if (x >> i) & 1:
            terms.append("1" if i == 0 else ("u" if i == 1 else f"u^{i}"))
    return "+".join(terms)


def is_unit(x: int) -> bool:
    # units are exactly the elements with non-zero constant term
    return bool(x & 1)


def ideal_members(i: int) -> frozenset[int]:
    """The ideal u^i R = multiples of u^i, as a set of packed elements."""
    if not 0 <= i <= 6:
        raise ValueError("ideal exponent must be in 0..6")
    return frozenset(j << i for j in range(1 << (6 - i)))


# ---------------------------------------------------------------------------
# packed length-n words


@lru_cache(maxsize=None)
def full_mask(n: int) -> int:
    """All lanes set: the packed all-ALL_ONES word."""
    m = 0
    for _ in range(n):
        m = (m << LANE) | MASK
    return m


@lru_cache(maxsize=None)
def _u_scale_mask(n: int) -> int:
    # after "<< 1" keep bits 1..5 of each lane (drop u^5 overflow and
    # anything that crossed into the next lane)
    m = 0
    for _ in range(n):
        m = (m << LANE) | 0b111110
    return m


def pack_word(coords, n: int | None = None) -> int:
    coords = list(coords)
    if n is not None and len(coords) != n:
        raise ValueError(f"expected {n} coordinates, got {len(coords)}")
    w = 0
    for j, x in enumerate(coords):
        w |= check_element(x) << (LANE * j)
    return w

def unpack_word(w: int, n: int) -> tuple[int, ...]:
    return tuple((w >> (LANE * j)) & MASK for j in range(n))


def word_shift(w: int, n: int) -> int:
    """Cyclic shift (c0,...,c_{n-1}) -> (c_{n-1},c0,...); times x mod x^n-1."""
    return ((w << LANE) | (w >> (LANE * (n - 1)))) & full_mask(n)


def word_scale_u(w: int, n: int) -> int:
    """Multiply every coordinate by u."""
    return (w << 1) & _u_scale_mask(n)


def word_scale(w: int, c: int, n: int) -> int:
    """Multiply every coordinate by the ring element c."""
    r = 0
    check_element(c)
    while c:
        if c & 1:
            r ^= w
        w = word_scale_u(w, n)
        c >>= 1
    return r


def word_reverse(w: int, n: int) -> int:
    r = 0
    for _ in range(n):
        r = (r << LANE) | (w & MASK)
        w >>= LANE
    return r


def word_complement(w: int, n: int) -> int:
    """Coordinatewise complement; reverse+complement is the rc image."""
    return w ^ full_mask(n)


def word_reverse_complement(w: int, n: int) -> int:
    return word_reverse(w, n) ^ full_mask(n)


def word_lee_weight(w: int) -> int:
    return w.bit_count()


def word_hamming_weight(w: int, n: int) -> int:
    """Number of non-zero coordinates."""
    # fold each 6-bit lane onto its lowest bit
    t = w | (w >> 1)
    t |= t >> 2
    t |= t >> 2
    return (t & _lane_lsb_mask(n)).bit_count()


@lru_cache(maxsize=None)
def _lane_lsb_mask(n: int) -> int:
    m = 0
    for _ in range(n):
        m = (m << LANE) | 1
    return m


def word_from_poly(value: int, n: int, level: int = 0) -> int:
    """Pack a binary polynomial (int, bit i = coeff of x^i) times u^level.

    The polynomial is reduced mod x^n - 1 first, so degree-n inputs such
    as x^n - 1 itself pack to the zero word.
    """
    if not 0 <= level <= 5:
        raise ValueError("level must be in 0..5")
    reduced = 0
    i = 0
    while value:
        if value & 1:
            reduced ^= 1 << (i % n)
        value >>= 1
        i += 1
    w = 0
    for j in range(n):
        if (reduced >> j) & 1:
            w |= (1 << level) << (LANE * j)
    return w


def word_str(w: int, n: int) -> str:
    return ",".join(to_bitstring(x) for x in unpack_word(w, n))


__all__ = [
    "SIZE",
    "MASK",
    "ALL_ONES",
    "U",
    "LANE",
    "add",
    "mul",
    "complement",
    "lee_weight",
    "gray_bits",
    "to_bitstring",
    "from_bitstring",
    "element_str",
    "is_unit",
    "ideal_members",
    "check_element",
    "full_mask",
    "pack_word",
    "unpack_word",
    "word_shift",
    "word_scale_u",
    "word_scale",
    "word_reverse",
    "word_complement",
    "word_reverse_complement",
    "word_lee_weight",
    "word_hamming_weight",
    "word_from_poly",
    "word_str",
]
