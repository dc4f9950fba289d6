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
image of a word *is* its packed int.  WORDS holds the operations every
lane width shares (cyclic shift, coordinate reversal, complement,
Hamming weight, text; see dnacodes.lanes); the helpers below add the
scalar action this ring's codes need.
"""

from __future__ import annotations

from .lanes import Lanes, spread

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


_BITSTRINGS = tuple(to_bitstring(x) for x in range(SIZE))


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


# ---------------------------------------------------------------------------
# packed length-n words


WORDS = Lanes(LANE, ALL_ONES, _BITSTRINGS)


def word_scale_u(w: int, n: int) -> int:
    """Multiply every coordinate by u."""
    # after "<< 1" keep bits 1..5 of each lane (drop u^5 overflow and
    # anything that crossed into the next lane)
    return (w << 1) & spread(0b111110, n, LANE)


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
    "check_element",
    "WORDS",
    "word_scale_u",
    "word_scale",
    "word_from_poly",
]
