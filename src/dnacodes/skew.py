"""Skew cyclic codes over the four-element ring F2 + vF2.

The ring automorphism swapping v and v+1 twists polynomial
multiplication, so x*a = theta(a)*x.  Codes of even length n are
submodules of (F2+vF2)^n closed under the twisted cyclic shift.  Words
are packed two bits per coordinate (bit 0 the F2 part a, bit 1 the v
part b of a+vb) which keeps every module operation a couple of integer
masks.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from . import codons
from .cyclic import Echelon, LinearCode, RcTally
from .gf2poly import Gf2Poly, divisors_of_xn_minus_1, split_top_level

# -- scalars -------------------------------------------------------------

ZERO, ONE, V, V1 = 0, 1, 2, 3
THETA = (0, 1, 3, 2)
_SCALAR_STR = ("0", "1", "v", "v+1")
_MUL = tuple(
    tuple(
        ((x & 1) & (y & 1))
        | (
            (
                ((x & 1) & (y >> 1))
                ^ ((x >> 1) & (y & 1))
                ^ ((x >> 1) & (y >> 1))
            )
            << 1
        )
        for y in range(4)
    )
    for x in range(4)
)


def theta(x: int) -> int:
    return THETA[x]


def scalar_mul(x: int, y: int) -> int:
    return _MUL[x][y]


def scalar_str(x: int) -> str:
    return _SCALAR_STR[x]


def parse_scalar(text: str) -> int:
    t = text.strip().replace(" ", "")
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    try:
        return {"0": ZERO, "1": ONE, "v": V, "v+1": V1, "1+v": V1}[t]
    except KeyError:
        raise ValueError(f"not a scalar of F2+vF2: {text!r}") from None


def complement_scalar(x: int) -> int:
    """The partner with x + x^ = v (the base-complement constant)."""
    return x ^ V


# -- skew polynomials (tuples of scalars, lowest degree first) -------------


def poly_normalize(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_degree(p: Sequence[int]) -> int | None:
    return len(p) - 1 if p else None


def poly_add(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] ^= c
    return poly_normalize(out)


def poly_mul(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Twisted product: (a x^i)(b x^j) = a theta^i(b) x^(i+j)."""
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        twisted = q if i % 2 == 0 else tuple(THETA[c] for c in q)
        for j, b in enumerate(twisted):
            if b:
                out[i + j] ^= _MUL[a][b]
    return poly_normalize(out)


def poly_right_divmod(
    dividend: Sequence[int], divisor: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Divide on the right by a monic divisor: dividend = q * divisor + r."""
    divisor = poly_normalize(divisor)
    if not divisor:
        raise ZeroDivisionError("skew division by zero")
    if divisor[-1] != ONE:
        raise ValueError("right division needs a monic divisor")
    d = len(divisor) - 1
    rem = list(dividend)
    while rem and rem[-1] == 0:
        rem.pop()
    quot = [0] * max(len(rem) - d, 0)
    while len(rem) - 1 >= d and rem:
        k = len(rem) - 1 - d
        qk = rem[-1]  # leading coeff of (qk x^k)*divisor is qk*theta^k(1)=qk
        quot[k] = qk
        twisted = divisor if k % 2 == 0 else tuple(THETA[c] for c in divisor)
        for j, b in enumerate(twisted):
            if b:
                rem[k + j] ^= _MUL[qk][b]
        while rem and rem[-1] == 0:
            rem.pop()
    return poly_normalize(quot), poly_normalize(rem)


def poly_reciprocal(p: Sequence[int]) -> tuple[int, ...]:
    p = poly_normalize(p)
    if not p:
        raise ValueError("zero polynomial has no reciprocal")
    return poly_normalize(reversed(p))


def is_self_reciprocal(p: Sequence[int]) -> bool:
    return poly_normalize(p) == poly_reciprocal(p)


def x_pow_n_minus_1(n: int) -> tuple[int, ...]:
    return (ONE,) + (ZERO,) * (n - 1) + (ONE,)


def poly_str(p: Sequence[int]) -> str:
    p = poly_normalize(p)
    if not p:
        return "0"
    terms = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if not c:
            continue
        scalar = _SCALAR_STR[c] if c != ONE or i == 0 else ""
        if c == V1:
            scalar = "(v+1)"
        if i == 0:
            terms.append(scalar or "1")
        else:
            power = "x" if i == 1 else f"x^{i}"
            terms.append(f"{scalar}*{power}" if scalar else power)
    return "+".join(terms)


def parse_skew_poly(text: str) -> tuple[int, ...]:
    if not text.replace(" ", ""):
        raise ValueError("empty polynomial")
    coeffs: list[int] = []
    for term in split_top_level(text, "+"):
        if not term:
            raise ValueError(f"empty term in {text!r}")
        if "*" in term:
            scalar_text, x_text = term.split("*", 1)
            scalar = parse_scalar(scalar_text)
        elif term.startswith("x"):
            scalar, x_text = ONE, term
        else:
            scalar, x_text = parse_scalar(term), ""
        if not x_text:
            power = 0
        elif x_text == "x":
            power = 1
        elif x_text.startswith("x^"):
            power = int(x_text[2:])
            if power < 0:
                raise ValueError(f"negative power in {text!r}")
        else:
            raise ValueError(f"cannot parse term {term!r}")
        if power >= len(coeffs):
            coeffs.extend([0] * (power + 1 - len(coeffs)))
        coeffs[power] ^= scalar
    return poly_normalize(coeffs)


# -- packed words ----------------------------------------------------------

LANE = 2


@lru_cache(maxsize=None)
def full_mask(n: int) -> int:
    return (1 << (LANE * n)) - 1


@lru_cache(maxsize=None)
def _a_mask(n: int) -> int:
    m = 0
    for j in range(n):
        m |= 1 << (LANE * j)
    return m


@lru_cache(maxsize=None)
def v_identity_word(n: int) -> int:
    """The word with every coordinate v: reverse-complement of zero."""
    return _a_mask(n) << 1


def pack_word(coords: Iterable[int], n: int | None = None) -> int:
    w = 0
    count = 0
    for j, c in enumerate(coords):
        if not 0 <= c <= 3:
            raise ValueError(f"coordinate {j} out of range: {c}")
        w |= c << (LANE * j)
        count += 1
    if n is not None and count != n:
        raise ValueError(f"expected {n} coordinates, got {count}")
    return w


def unpack_word(w: int, n: int) -> tuple[int, ...]:
    return tuple((w >> (LANE * j)) & 3 for j in range(n))


def word_theta(w: int, n: int) -> int:
    return w ^ ((w >> 1) & _a_mask(n))


def word_scale_v(w: int, n: int) -> int:
    a = w & _a_mask(n)
    b = (w >> 1) & _a_mask(n)
    return (a ^ b) << 1


def word_scale(w: int, c: int, n: int) -> int:
    if c == ZERO:
        return 0
    if c == ONE:
        return w
    if c == V:
        return word_scale_v(w, n)
    return w ^ word_scale_v(w, n)


def skew_shift(w: int, n: int) -> int:
    """(c0,...,c_{n-1}) -> (theta(c_{n-1}), theta(c0), ...)."""
    rotated = ((w << LANE) | (w >> (LANE * (n - 1)))) & full_mask(n)
    return word_theta(rotated, n)


def word_reverse(w: int, n: int) -> int:
    out = 0
    for j in range(n):
        out |= ((w >> (LANE * j)) & 3) << (LANE * (n - 1 - j))
    return out


def word_hamming_weight(w: int, n: int) -> int:
    """How many coordinates are nonzero."""
    return ((w | (w >> 1)) & _a_mask(n)).bit_count()


def word_complement(w: int, n: int) -> int:
    return w ^ v_identity_word(n)


def word_reverse_complement(w: int, n: int) -> int:
    return word_complement(word_reverse(w, n), n)


def word_str(w: int, n: int) -> str:
    return ",".join(_SCALAR_STR[c] for c in unpack_word(w, n))


def word_from_poly(p: Sequence[int], n: int) -> int:
    """Residue of a skew polynomial mod x^n - 1, as a packed word."""
    w = 0
    for i, c in enumerate(p):
        if c:
            w ^= c << (LANE * (i % n))
    return w


def word_to_dna(w: int, n: int) -> str:
    return "".join(
        codons.SKEW_BASE_OF_ELEMENT[c] for c in unpack_word(w, n)
    )


def dna_to_word(s: str) -> int:
    return pack_word(
        (codons.SKEW_ELEMENT_OF_BASE[b] for b in s), len(s)
    )


# -- the Gray image ---------------------------------------------------------


def gray_image(w: int, n: int) -> int:
    """phi(a+vb) = (a+b, a) per coordinate, giving 2n bits."""
    a = w & _a_mask(n)
    b = (w >> 1) & _a_mask(n)
    return (a ^ b) | (a << 1)


def gray_skew_shift(y: int, n: int) -> int:
    """The map the Gray image inherits from the skew shift: rotate by
    one 2-bit block, then swap the two bits inside every block."""
    mask = full_mask(n)
    rotated = ((y << LANE) | (y >> (LANE * (n - 1)))) & mask
    even = rotated & _a_mask(n)
    odd = rotated & (_a_mask(n) << 1)
    return (even << 1) | (odd >> 1)


def plain_shift(y: int, n: int, lanes: int = 1) -> int:
    mask = full_mask(n)
    k = LANE * lanes
    return ((y << k) | (y >> (LANE * n - k))) & mask


@dataclass(frozen=True)
class SkewGrayReport:
    """Closure facts about the binary image of a skew code."""

    bit_length: int
    linear: bool
    skew_shift2_closed: bool
    plain_shift2_closed: bool
    plain_shift4_closed: bool


def gray_image_report(words: Iterable[int], n: int) -> SkewGrayReport:
    image = {gray_image(w, n) for w in words}
    ech = Echelon(image)
    linear = len(image) == 1 << ech.dim and 0 in image
    return SkewGrayReport(
        bit_length=2 * n,
        linear=linear,
        skew_shift2_closed=all(
            gray_skew_shift(y, n) in image for y in image
        ),
        plain_shift2_closed=all(plain_shift(y, n) in image for y in image),
        plain_shift4_closed=all(
            plain_shift(y, n, 2) in image for y in image
        ),
    )


# -- codes -------------------------------------------------------------------


class SkewCodeError(ValueError):
    pass


def _binary_part(f: Sequence[int], unit: int) -> Gf2Poly:
    """Extract f1 from f = unit*f1 with unit in {v, v+1}; error if f is
    not of that shape."""
    value = 0
    for i, c in enumerate(f):
        if c == 0:
            continue
        if c != unit:
            raise SkewCodeError(
                f"coefficient {scalar_str(c)} breaks the {scalar_str(unit)}"
                f"*f1(x) shape"
            )
        value |= 1 << i
    return Gf2Poly(value)


class SkewCode(LinearCode):
    """A skew cyclic code of even length, from one or two generators.

    Case 1: a single monic right divisor g of x^n - 1.
    Case 3: a single non-monic generator v*f1 or (v+1)*f1 with binary
    f1 dividing x^n - 1.
    Case 2: one generator of each shape.
    """

    ring = sys.modules[__name__]  # the word operations of this module

    def __init__(self, n: int, case: int, generators: Sequence[Sequence[int]]):
        if n < 2 or n % 2 == 1:
            raise SkewCodeError(f"length must be even and positive, got {n}")
        if case not in (1, 2, 3):
            raise SkewCodeError(f"case must be 1, 2 or 3, got {case}")
        gens = [poly_normalize(g) for g in generators]
        if case in (1, 3) and len(gens) != 1:
            raise SkewCodeError(f"case {case} takes one generator")
        if case == 2 and len(gens) != 2:
            raise SkewCodeError("case 2 takes two generators")
        monic = [g for g in gens if g and g[-1] == ONE]
        scaled = [g for g in gens if g and g[-1] in (V, V1)]
        if case == 1:
            if not monic:
                raise SkewCodeError("case 1 needs a monic generator")
            self._check_right_divisor(n, gens[0])
        elif case == 3:
            if not scaled:
                raise SkewCodeError("case 3 needs a non-monic generator")
            self._check_scaled(n, gens[0])
        else:
            if len(monic) != 1 or len(scaled) != 1:
                raise SkewCodeError(
                    "case 2 needs one monic and one v/(v+1)-scaled generator"
                )
            self._check_right_divisor(n, monic[0])
            self._check_scaled(n, scaled[0])
        self.n = n
        self.case = case
        self.generators = tuple(gens)

    @staticmethod
    def _check_right_divisor(n: int, g: Sequence[int]) -> None:
        _, rem = poly_right_divmod(x_pow_n_minus_1(n), g)
        if rem:
            raise SkewCodeError(
                f"{poly_str(g)} is not a right divisor of x^{n}-1 "
                f"(remainder {poly_str(rem)})"
            )

    @staticmethod
    def _check_scaled(n: int, f: Sequence[int]) -> None:
        f1 = _binary_part(f, f[-1])
        if not f1.divides(Gf2Poly((1 << n) | 1)):
            raise SkewCodeError(
                f"binary part {f1} of {poly_str(f)} does not divide x^{n}-1"
            )

    @classmethod
    def from_case1(cls, n: int, g: Sequence[int]) -> "SkewCode":
        return cls(n, 1, [g])

    @classmethod
    def from_case3(cls, n: int, f: Sequence[int]) -> "SkewCode":
        return cls(n, 3, [f])

    def __repr__(self):
        gens = ", ".join(poly_str(g) for g in self.generators)
        return f"SkewCode(n={self.n}, case={self.case}, <{gens}>)"

    def label(self) -> str:
        gens = ",".join(poly_str(g) for g in self.generators)
        return f"case{self.case}:<{gens}>"

    def spanning_words(self) -> list[int]:
        """F2-spanning set: all skew shifts of each generator and of its
        v-multiple (v+1 = 1 + v needs nothing extra)."""
        n = self.n
        out = []
        for g in self.generators:
            w = word_from_poly(g, n)
            for base in (w, word_scale_v(w, n)):
                s = base
                for _ in range(n):
                    if s:
                        out.append(s)
                    s = skew_shift(s, n)
        return out

    def complement_word(self) -> int:
        return v_identity_word(self.n)

    def generators_self_reciprocal(self) -> bool:
        return all(is_self_reciprocal(g) for g in self.generators)


@dataclass(frozen=True)
class SkewRcReport:
    v_identity_member: bool
    generators_self_reciprocal: bool
    rc_closed: bool
    sufficiency_satisfied: bool
    sufficiency_implies_closure: bool
    closure_implies_necessity: bool

    @property
    def consistent(self) -> bool:
        return self.sufficiency_implies_closure and self.closure_implies_necessity


def rc_report(code: SkewCode) -> SkewRcReport:
    v_member = code.contains_complement_word()
    self_rec = code.generators_self_reciprocal()
    closed = code.rc_closed()
    suff = v_member and self_rec
    return SkewRcReport(
        v_identity_member=v_member,
        generators_self_reciprocal=self_rec,
        rc_closed=closed,
        sufficiency_satisfied=suff,
        sufficiency_implies_closure=(not suff) or closed,
        closure_implies_necessity=(not closed) or suff,
    )


# -- right-divisor search ----------------------------------------------------


def monic_right_divisor_candidates(n: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All monic degree-d polynomials with unit constant term; any right
    divisor of x^n - 1 must look like this because the constant term of
    a product is the product of the constant terms."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    for middle in itertools.product(range(4), repeat=degree - 1):
        yield (ONE,) + middle + (ONE,)


def monic_right_divisors(
    n: int, degrees: Iterable[int] | None = None
) -> list[tuple[int, ...]]:
    """Every monic right divisor of x^n - 1 of the given degrees
    (default: all proper degrees 1..n-1), by exhaustive search."""
    target = x_pow_n_minus_1(n)
    found = []
    for d in degrees if degrees is not None else range(1, n):
        for g in monic_right_divisor_candidates(n, d):
            _, rem = poly_right_divmod(target, g)
            if not rem:
                found.append(g)
    return found


def two_sided_factorization_holds(n: int, g: Sequence[int]) -> bool:
    """For a monic right divisor g of x^n - 1, the cofactor q must
    satisfy both q*g = x^n - 1 and g*q = x^n - 1."""
    target = x_pow_n_minus_1(n)
    q, rem = poly_right_divmod(target, g)
    if rem:
        raise SkewCodeError(f"{poly_str(g)} is not a right divisor")
    return poly_mul(q, g) == target and poly_mul(g, q) == target


def iter_case3_codes(n: int) -> Iterator[SkewCode]:
    for f1 in divisors_of_xn_minus_1(n):
        deg = f1.degree
        if deg is None or deg >= n:
            continue
        binary = tuple((f1.value >> i) & 1 for i in range(deg + 1))
        for unit in (V, V1):
            f = tuple(scalar_mul(unit, c) for c in binary)
            yield SkewCode.from_case3(n, f)


def all_codes(n: int) -> list[SkewCode]:
    """Every case-1 and case-3 code of length n."""
    codes = [SkewCode.from_case1(n, g) for g in monic_right_divisors(n)]
    codes.extend(iter_case3_codes(n))
    return codes


@dataclass
class SkewCampaignResult(RcTally):
    codes_checked: int = 0


def rc_campaign(
    lengths: Sequence[int] = (2, 4, 6, 8, 10),
    guard: int = 2**16,
) -> SkewCampaignResult:
    """Check sufficiency => closure => necessity over every case-1 and
    case-3 code of the given even lengths, with an extensional
    cross-check whenever the code is small enough to enumerate."""
    result = SkewCampaignResult()
    for n in lengths:
        for code in all_codes(n):
            result.codes_checked += 1
            result.check_code(code, f"n={n}, {code.label()}", guard)
    return result


# -- printed-set search --------------------------------------------------------


@dataclass
class SearchResult:
    candidates: int
    matches: list[str]
    best_overlap: int
    best_label: str


def search_codes_containing(strings: Sequence[str], n: int) -> SearchResult:
    """Scan every case-1/case-3 code of length n for one whose word set
    contains all the given DNA strings; report exact matches and the
    best partial overlap."""
    targets = [dna_to_word(s) for s in dict.fromkeys(strings)]
    for s in strings:
        if len(s) != n:
            raise ValueError(f"string {s!r} is not of length {n}")
    codes = all_codes(n)
    matches = []
    best_overlap = -1
    best_label = ""
    for code in codes:
        hits = sum(1 for w in targets if code.contains(w))
        if hits == len(targets):
            matches.append(f"{code.label()} (size {code.size()})")
        if hits > best_overlap:
            best_overlap = hits
            best_label = f"{code.label()} (size {code.size()})"
    return SearchResult(
        candidates=len(codes),
        matches=matches,
        best_overlap=best_overlap,
        best_label=best_label,
    )


__all__ = [
    "ZERO",
    "ONE",
    "V",
    "V1",
    "THETA",
    "theta",
    "scalar_mul",
    "scalar_str",
    "parse_scalar",
    "complement_scalar",
    "poly_normalize",
    "poly_degree",
    "poly_add",
    "poly_mul",
    "poly_right_divmod",
    "poly_reciprocal",
    "is_self_reciprocal",
    "x_pow_n_minus_1",
    "poly_str",
    "parse_skew_poly",
    "full_mask",
    "v_identity_word",
    "pack_word",
    "unpack_word",
    "word_theta",
    "word_scale_v",
    "word_scale",
    "skew_shift",
    "word_reverse",
    "word_hamming_weight",
    "word_complement",
    "word_reverse_complement",
    "word_str",
    "word_from_poly",
    "word_to_dna",
    "dna_to_word",
    "gray_image",
    "gray_skew_shift",
    "plain_shift",
    "SkewGrayReport",
    "gray_image_report",
    "SkewCodeError",
    "SkewCode",
    "SkewRcReport",
    "rc_report",
    "monic_right_divisor_candidates",
    "monic_right_divisors",
    "two_sided_factorization_holds",
    "iter_case3_codes",
    "all_codes",
    "SkewCampaignResult",
    "rc_campaign",
    "SearchResult",
    "search_codes_containing",
]
