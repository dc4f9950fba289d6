"""Skew cyclic codes over the four-element ring F2 + vF2.

The ring automorphism swapping v and v+1 twists polynomial
multiplication, so x*a = theta(a)*x.  Codes of even length n are
submodules of (F2+vF2)^n closed under the twisted cyclic shift.  Words
are packed two bits per coordinate (bit 0 the F2 part a, bit 1 the v
part b of a+vb) which keeps every module operation a couple of integer
masks.  WORDS (see dnacodes.lanes) holds the word operations both rings
share; this module adds theta, the v-multiple and the skew shift.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import codons
from .cyclic import CampaignResult, LinearCode, RcReport
from .cyclic import check_rc_theorem, least_weight_word
from .gf2poly import Gf2Poly, divisors_of_xn_minus_1, split_top_level
from .lanes import Lanes, fits64, map_chunks, spread

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


# -- skew polynomials (scalar tuples, lowest degree first; packed division) ---


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


def pack_poly(p: Sequence[int]) -> int:
    """A skew polynomial as one int, a byte lane per coefficient, lowest
    degree in the low byte; trailing zero coefficients pack to nothing."""
    return int.from_bytes(bytes(p), "little")


def unpack_poly(x: int) -> tuple[int, ...]:
    """The normalised coefficient tuple of a packed polynomial."""
    return tuple(x.to_bytes(x.bit_length() + 7 >> 3, "little"))


def poly_right_divmod(dividend: int, divisor: int) -> tuple[int, int]:
    """Divide on the right by a monic divisor: dividend = q * divisor + r.

    Operands and results are packed (pack_poly).  A step clears the top
    lane c of the remainder by XORing in c*theta^k(divisor) shifted k
    lanes up (the leading coefficient of (c x^k)*divisor is
    c*theta^k(1) = c).  theta and the products by v and v+1 are
    lane-wise masks, so no lane carries into the next.
    """
    g = divisor
    if not g:
        raise ZeroDivisionError("skew division by zero")
    low = (g.bit_length() - 1) & ~7  # 8 * deg(divisor)
    if g >> low != ONE:
        raise ValueError("right division needs a monic divisor")
    ones = (1 << low + 8) // 255  # bit 0 of every lane of the divisor
    rem = dividend
    quot = 0
    top = (rem.bit_length() - 1) & ~7
    while top >= low:
        c, k = rem >> top, top - low  # c x^(k/8) is the quotient's term
        h = g ^ (g >> 1 & ones) if k & 8 else g  # theta^k(divisor)
        if c == V:
            h = ((h ^ h >> 1) & ones) << 1
        elif c == V1:
            h = (h & ones) * 3
        quot |= c << k
        rem ^= h << k
        top = (rem.bit_length() - 1) & ~7
    return quot, rem


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
WORDS = Lanes(LANE, V, _SCALAR_STR)


def word_theta(w: int, n: int) -> int:
    return w ^ ((w >> 1) & spread(1, n, LANE))


def word_scale_v(w: int, n: int) -> int:
    ones = spread(1, n, LANE)  # the F2 part a of every a+vb
    a, b = w & ones, (w >> 1) & ones
    return (a ^ b) << 1


def skew_shift(w: int, n: int) -> int:
    """(c0,...,c_{n-1}) -> (theta(c_{n-1}), theta(c0), ...)."""
    return word_theta(WORDS.word_shift(w, n), n)


def word_from_poly(p: Sequence[int], n: int) -> int:
    """Residue of a skew polynomial mod x^n - 1, as a packed word."""
    w = 0
    for i, c in enumerate(p):
        if c:
            w ^= c << (LANE * (i % n))
    return w


def word_to_dna(w: int, n: int) -> str:
    return "".join(
        codons.SKEW_BASE_OF_ELEMENT[c] for c in WORDS.unpack_word(w, n)
    )


def dna_to_word(s: str) -> int:
    return WORDS.pack_word(
        (codons.SKEW_ELEMENT_OF_BASE[b] for b in s), len(s)
    )


# -- the Gray image ---------------------------------------------------------


def gray_image(w: int, n: int, ones: int = 1) -> int:
    """phi(a+vb) = (a+b, a) per coordinate, giving 2n bits; of k words
    at once when ones is a chunk's (see lanes.chunks)."""
    unit = spread(1, n, LANE) * ones  # the F2 part a of every a+vb
    a, b = w & unit, (w >> 1) & unit
    return (a ^ b) | (a << 1)


def gray_skew_shift(y: int, n: int) -> int:
    """The map the Gray image inherits from the skew shift: rotate by
    one 2-bit block, then swap the two bits inside every block."""
    rotated = WORDS.word_shift(y, n)
    even = rotated & spread(1, n, LANE)
    odd = rotated & spread(2, n, LANE)
    return (even << 1) | (odd >> 1)


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
    """A skew cyclic code of even length, whose case is read from its
    generators.

    Case 1: a single monic right divisor g of x^n - 1.
    Case 3: a single non-monic generator v*f1 or (v+1)*f1 with binary
    f1 dividing x^n - 1.
    Case 2: one generator of each shape, in either order.
    """

    lanes = WORDS
    witness_str = staticmethod(word_to_dna)
    dna_symbols = tuple(codons.SKEW_BASE_OF_ELEMENT[c] for c in range(4))
    gray_informational = ("plain_shift2",)

    def __init__(self, n: int, generators: Sequence[Sequence[int]]):
        if n < 2 or n % 2 == 1:
            raise SkewCodeError(f"length must be even and positive, got {n}")
        gens = tuple(poly_normalize(g) for g in generators)
        monic = [g for g in gens if g and g[-1] == ONE]
        scaled = [g for g in gens if g and g[-1] != ONE]
        case = {(1, 0): 1, (1, 1): 2, (0, 1): 3}.get((len(monic), len(scaled)))
        if case is None or not all(gens):
            raise SkewCodeError(
                "a skew code takes one monic generator, one v- or "
                "(v+1)-scaled generator, or one of each; got "
                + (", ".join(poly_str(g) for g in gens) or "none")
            )
        for g in monic:
            self._check_right_divisor(n, g)
        for f in scaled:
            self._check_scaled(n, f)
        self.n = n
        self.case = case
        self.generators = gens

    @staticmethod
    def _check_right_divisor(n: int, g: Sequence[int]) -> None:
        _, rem = poly_right_divmod(pack_poly(x_pow_n_minus_1(n)), pack_poly(g))
        if rem:
            raise SkewCodeError(
                f"{poly_str(g)} is not a right divisor of x^{n}-1 "
                f"(remainder {poly_str(unpack_poly(rem))})"
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
        if poly_normalize(g)[-1:] != (ONE,):
            raise SkewCodeError("case 1 needs a monic generator")
        return cls(n, [g])

    @classmethod
    def from_case3(cls, n: int, f: Sequence[int]) -> "SkewCode":
        if poly_normalize(f)[-1:] not in ((V,), (V1,)):
            raise SkewCodeError("case 3 needs a non-monic generator")
        return cls(n, [f])

    def __repr__(self):
        gens = ", ".join(poly_str(g) for g in self.generators)
        return f"SkewCode(n={self.n}, case={self.case}, <{gens}>)"

    def label(self) -> str:
        gens = ",".join(poly_str(g) for g in self.generators)
        return f"case{self.case}:<{gens}>"

    def module_generators(self):
        """The generator words, the skew shift and the v-multiple (v+1 =
        1 + v needs nothing extra; v^2 = v, so the starts are w and vw)."""
        n = self.n
        return (
            [word_from_poly(g, n) for g in self.generators],
            partial(skew_shift, n=n),
            partial(word_scale_v, n=n),
        )

    def generators_self_reciprocal(self) -> bool:
        return all(is_self_reciprocal(g) for g in self.generators)

    def min_hamming_witness(self, guard: int) -> tuple[int, int]:
        """The minimum Hamming weight of a nonzero word and one word of
        that weight, from the two binary component codes (Abualrub &
        Seneviratne, Australas. J. Combin. 54, 2012).  v and v+1 are
        orthogonal idempotents, so each word is v*x + (v+1)*y with x and
        y words of the two components, nonzero exactly where x or y is;
        the code holds v*x and (v+1)*y (it is closed under v*, and
        (v+1)*c = c + v*c), so the lesser component minimum is d and
        one of them attains it.  For a+vb, x = a+b and y = a: planes 0
        and 1 of its Gray image, so the planes of the basis rows' images
        span the components.  The skew shift plays no part, so this holds
        for every case.  Raises ValueError for the zero code."""
        n, ones = self.n, spread(1, self.n, LANE)
        images = [gray_image(w, n) for w in self.basis()]
        found = []
        for plane, unit in ((0, V), (1, V1)):
            rows = [g >> plane & ones for g in images]
            if any(rows):
                x = least_weight_word(rows, guard)
                found.append((x.bit_count(), x * unit))
        return min(found)

    # -- build-verify facts -------------------------------------------------

    def report_lines(self, report, rc: RcReport) -> None:
        """Write the report's lines from the case to the two-sided
        factorization checks with report.emit and report.check; rc is
        rc_report(self)."""
        report.emit("case", self.case)
        for g in self.generators:
            report.emit("generator", poly_str(g))
        report.emit("log2_size", self.dim)
        report.emit("size", self.size())
        report.emit("rc_closed", rc.rc_closed)
        report.emit("v_identity_member", rc.complement_word_member)
        report.emit("generators_self_reciprocal", rc.generators_self_reciprocal)
        report.emit("rc_sufficiency", rc.sufficiency_satisfied)
        report.check("sufficiency_implies_closure", rc.sufficiency_implies_closure)
        report.check("closure_implies_necessity", rc.closure_implies_necessity)
        for g in self.generators:
            if g[-1] == ONE:
                report.check(
                    "two_sided_factorization",
                    two_sided_factorization_holds(self.n, g),
                    poly_str(g),
                )

    def gray_image(self, words: Iterable[int]) -> Sequence[int]:
        """The words' binary Gray images: for packed words (lanes.fits64)
        an array('Q') in the words' own order, mapped a chunk at a time,
        so the image of LinearCode.words is the index_span of its rows'
        images; otherwise a sorted list."""
        n = self.n
        if fits64(words, n, LANE):
            return map_chunks(words, lambda x, ones: gray_image(x, n, ones))
        return sorted(gray_image(w, n) for w in words)

    def gray_maps(self) -> dict[str, Callable[[int], int]]:
        """The twisted block shift and plain rotation by 4 bits keep the
        image of a skew code closed; plain rotation by 2 bits need not."""
        n = self.n
        return {
            "skew_shift2": lambda y: gray_skew_shift(y, n),
            "plain_shift4": lambda y: WORDS.word_shift(y, n, 2),
            "plain_shift2": lambda y: WORDS.word_shift(y, n),
        }


# -- right-divisor search ----------------------------------------------------


def _lane_values(first: int, stop: int) -> list[int]:
    """Every packed choice of scalars for lanes first..stop-1, in
    itertools.product order (the lowest lane varies slowest)."""
    values = [0]
    for lane in range(first, stop):
        values = [v | c << 8 * lane for v in values for c in range(4)]
    return values


def monic_right_divisor_candidates(n: int, degree: int) -> Iterator[int]:
    """All monic degree-d polynomials with unit constant term, packed
    (pack_poly), the x coefficient varying slowest; any right divisor of
    x^n - 1 must look like this because the constant term of a product
    is the product of the constant terms.  Streamed: each half of the
    middle lanes is listed once and the halves are ORed together."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    half = (degree + 1) // 2  # lanes 1..half-1 vary slowest
    ends = ONE | ONE << 8 * degree
    high = _lane_values(half, degree)
    for low in _lane_values(1, half):
        yield from map((ends | low).__or__, high)


def monic_right_divisors(n: int) -> list[tuple[int, ...]]:
    """Every monic right divisor of x^n - 1 of degree 1..n-1, by
    exhaustive search."""
    target = pack_poly(x_pow_n_minus_1(n))
    found = []
    for d in range(1, n):
        for g in monic_right_divisor_candidates(n, d):
            if not poly_right_divmod(target, g)[1]:
                found.append(unpack_poly(g))
    return found


def two_sided_factorization_holds(n: int, g: Sequence[int]) -> bool:
    """For a monic right divisor g of x^n - 1, the cofactor q must
    satisfy both q*g = x^n - 1 and g*q = x^n - 1."""
    target = x_pow_n_minus_1(n)
    q, rem = poly_right_divmod(pack_poly(target), pack_poly(g))
    if rem:
        raise SkewCodeError(f"{poly_str(g)} is not a right divisor")
    q = unpack_poly(q)
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


def rc_campaign(
    lengths: Sequence[int] = (2, 4, 6, 8, 10),
    guard: int = 2**16,
) -> CampaignResult:
    """check_rc_theorem over every case-1 and case-3 code of the given
    even lengths."""
    return check_rc_theorem((
        (f"n={n}, {code.label()}", code)
        for n in lengths
        for code in all_codes(n)
    ), guard)


# -- printed-set search --------------------------------------------------------


class SearchResult(NamedTuple):
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
    "poly_normalize",
    "poly_degree",
    "poly_add",
    "poly_mul",
    "pack_poly",
    "unpack_poly",
    "poly_right_divmod",
    "poly_reciprocal",
    "is_self_reciprocal",
    "x_pow_n_minus_1",
    "poly_str",
    "parse_skew_poly",
    "WORDS",
    "word_theta",
    "word_scale_v",
    "skew_shift",
    "word_from_poly",
    "word_to_dna",
    "dna_to_word",
    "gray_image",
    "gray_skew_shift",
    "SkewCodeError",
    "SkewCode",
    "monic_right_divisor_candidates",
    "monic_right_divisors",
    "two_sided_factorization_holds",
    "iter_case3_codes",
    "all_codes",
    "rc_campaign",
    "SearchResult",
    "search_codes_containing",
]
