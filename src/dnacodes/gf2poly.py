"""Polynomials over GF(2), packed into Python ints.

Bit i of the backing int is the coefficient of x**i, so the int 0b1011
is x^3 + x + 1.  Addition is XOR, multiplication is a carry-free
(shift/XOR) product, and division is long division on bits.  All public
entry points work on :class:`Gf2Poly` wrappers; the underscore helpers
operate on raw ints and carry no validation.

The module also provides the number-theoretic routines needed for
cyclic-code towers: factorisation of x^n - 1 (distinct-degree plus
equal-degree splitting on the odd part, then squaring multiplicities
for the 2-part of n), enumeration of monic divisors of x^n - 1,
reciprocal polynomials, and the "some power of two is -1 mod m" test
that controls when every divisor of x^m - 1 is self-reciprocal.
"""

from __future__ import annotations

import random
from functools import lru_cache, reduce


class GuardExceeded(ValueError):
    """Raised when an enumeration would exceed the configured guard."""

    def __init__(self, message: str, size: int):
        super().__init__(message)
        self.size = size


# ---------------------------------------------------------------------------
# raw int arithmetic


def _degree(a: int) -> int:
    # degree of the zero polynomial is -1 here; the public API maps it to None
    return a.bit_length() - 1


def _mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = _degree(b)
    q = 0
    while True:
        shift = _degree(a) - db
        if shift < 0:
            return q, a
        q ^= 1 << shift
        a ^= b << shift


def _mod(a: int, b: int) -> int:
    return _divmod(a, b)[1]


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _mod(a, b)
    return a


def _mulmod(a: int, b: int, m: int) -> int:
    return _mod(_mul(a, b), m)


def _powmod(a: int, e: int, m: int) -> int:
    r = 1 % m
    a = _mod(a, m)
    while e:
        if e & 1:
            r = _mulmod(r, a, m)
        a = _mulmod(a, a, m)
        e >>= 1
    return r


# ---------------------------------------------------------------------------
# wrapper


class Gf2Poly:
    """An immutable polynomial over GF(2)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if value < 0:
            raise ValueError("polynomial backing int must be non-negative")
        object.__setattr__(self, "value", value)

    def __setattr__(self, *_):
        raise AttributeError("Gf2Poly is immutable")

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return None if self.value == 0 else _degree(self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Gf2Poly) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Gf2Poly", self.value))

    def __lt__(self, other: "Gf2Poly") -> bool:
        # degree-then-value order; handy for deterministic output
        return (self.value.bit_length(), self.value) < (
            other.value.bit_length(),
            other.value,
        )

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(self.value ^ other.value)

    __sub__ = __add__

    def __mul__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(_mul(self.value, other.value))

    def __divmod__(self, other: "Gf2Poly") -> tuple["Gf2Poly", "Gf2Poly"]:
        q, r = _divmod(self.value, other.value)
        return Gf2Poly(q), Gf2Poly(r)

    def __floordiv__(self, other: "Gf2Poly") -> "Gf2Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(_mod(self.value, other.value))

    def divides(self, other: "Gf2Poly") -> bool:
        return _mod(other.value, self.value) == 0

    def gcd(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(_gcd(self.value, other.value))

    def reciprocal(self) -> "Gf2Poly":
        """Coefficient reversal: x^deg(f) * f(1/x).  Undefined for zero."""
        if self.value == 0:
            raise ValueError("the zero polynomial has no reciprocal")
        v = self.value
        d = _degree(v)
        r = 0
        for i in range(d + 1):
            if (v >> i) & 1:
                r |= 1 << (d - i)
        return Gf2Poly(r)

    def is_self_reciprocal(self) -> bool:
        return self.value != 0 and self.reciprocal().value == self.value

    def is_irreducible(self) -> bool:
        """Rabin's test: x^(2^k) = x mod f and gcd(x^(2^(k/p)) - x, f) = 1."""
        k = self.degree
        if k is None or k == 0:
            return False
        if k == 1:
            return True
        m = self.value
        if _powmod(2, 1 << k, m) != _mod(2, m):
            return False
        for p in _prime_factors(k):
            h = _powmod(2, 1 << (k // p), m) ^ 2
            if _gcd(h, m) != 1:
                return False
        return True

    def coefficients(self) -> tuple[int, ...]:
        """Low-degree-first coefficient tuple; () for the zero polynomial."""
        if self.value == 0:
            return ()
        return tuple((self.value >> i) & 1 for i in range(_degree(self.value) + 1))

    def __str__(self) -> str:
        if self.value == 0:
            return "0"
        terms = []
        for i in range(_degree(self.value), -1, -1):
            if (self.value >> i) & 1:
                terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        return "+".join(terms)

    def __repr__(self) -> str:
        return f"Gf2Poly({self.value:#x}: {self})"

    def to_bitstring(self, width: int | None = None) -> str:
        """Lowest-degree-first bit string, optionally padded to `width`."""
        n = width if width is not None else max(1, self.value.bit_length())
        if self.value >> n:
            raise ValueError(f"polynomial does not fit in {n} bits")
        return "".join(str((self.value >> i) & 1) for i in range(n))

    @classmethod
    def from_bitstring(cls, bits: str) -> "Gf2Poly":
        """Parse a lowest-degree-first bit string such as "1101" = 1+x+x^3."""
        if not bits or any(c not in "01" for c in bits):
            raise ValueError(f"not a bit string: {bits!r}")
        return cls(int(bits[::-1], 2))

    @classmethod
    def from_string(cls, text: str) -> "Gf2Poly":
        """Parse either a bit string or a human form like "x^3+x+1"."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty polynomial string")
        if all(c in "01" for c in s):
            return cls.from_bitstring(s)
        v = 0
        for term in s.split("+"):
            if term == "1":
                v ^= 1
            elif term == "x":
                v ^= 2
            elif term.startswith("x^"):
                e = int(term[2:])
                if e < 0:
                    raise ValueError(f"negative exponent in {text!r}")
                v ^= 1 << e
            elif term == "0":
                pass
            else:
                raise ValueError(f"cannot parse polynomial term {term!r}")
        return cls(v)


ZERO = Gf2Poly(0)
ONE = Gf2Poly(1)
X = Gf2Poly(2)


def x_pow_n_minus_1(n: int) -> Gf2Poly:
    if n < 1:
        raise ValueError("need n >= 1")
    return Gf2Poly((1 << n) | 1)


def ones_poly(n: int) -> Gf2Poly:
    """1 + x + ... + x^(n-1), the all-ones vector of length n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Gf2Poly((1 << n) - 1)


@lru_cache(maxsize=None)
def _prime_factors(k: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return tuple(out)


# ---------------------------------------------------------------------------
# factorisation of x^n - 1

_EDF_RNG_SEED = 0x5EED


def _distinct_degree_split(f: int) -> list[tuple[int, int]]:
    """Split squarefree f (no x factor) into (product, degree) groups."""
    groups = []
    h = 2  # the polynomial x
    d = 0
    rem = f
    while _degree(rem) > 0:
        d += 1
        if 2 * d > _degree(rem):
            groups.append((rem, _degree(rem)))
            break
        h = _powmod(h, 2, rem)
        g = _gcd(h ^ 2, rem)
        if g != 1:
            groups.append((g, d))
            rem = _divmod(rem, g)[0]
            h = _mod(h, rem)
    return groups


def _equal_degree_split(p: int, d: int, rng: random.Random) -> list[int]:
    """Split a product of distinct degree-d irreducibles into its factors."""
    k = _degree(p)
    if k == d:
        return [p]
    while True:
        r = rng.getrandbits(k)
        if r == 0:
            continue
        # trace map GF(2^d) -> GF(2): r + r^2 + r^4 + ... + r^(2^(d-1))
        t, acc = _mod(r, p), 0
        for _ in range(d):
            acc ^= t
            t = _mulmod(t, t, p)
        g = _gcd(acc, p)
        if 0 < _degree(g) < k:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(
                _divmod(p, g)[0], d, rng
            )


@lru_cache(maxsize=None)
def factor_xn_minus_1(n: int) -> tuple[tuple[Gf2Poly, int], ...]:
    """Irreducible factorisation of x^n - 1 over GF(2).

    Returns ((factor, multiplicity), ...) sorted by (degree, value).
    Over GF(2), x^n - 1 = (x^m - 1)^(2^s) where n = m * 2^s with m odd,
    and x^m - 1 is squarefree, so the multiplicity of every factor is 2^s.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    m, mult = n, 1
    while m % 2 == 0:
        m //= 2
        mult *= 2
    rng = random.Random(_EDF_RNG_SEED)
    irreducibles: list[int] = []
    for group, d in _distinct_degree_split((1 << m) | 1):
        irreducibles.extend(_equal_degree_split(group, d, rng))
    factors = sorted(Gf2Poly(v) for v in irreducibles)
    if reduce(lambda a, b: a * b, factors, ONE).value != (1 << m) | 1:
        raise RuntimeError(f"factors of x^{m}-1 do not multiply back to it")
    return tuple((f, mult) for f in factors)


def divisors_of_xn_minus_1(n: int, guard: int = 2**20) -> list[Gf2Poly]:
    """All monic divisors of x^n - 1, sorted.  Count is guarded."""
    factors = factor_xn_minus_1(n)
    count = 1
    for _, mult in factors:
        count *= mult + 1
    if count > guard:
        raise GuardExceeded(
            f"x^{n}-1 has {count} divisors, above the guard {guard}", count
        )
    divisors = [ONE]
    for f, mult in factors:
        powers = [ONE]
        for _ in range(mult):
            powers.append(powers[-1] * f)
        divisors = [d * p for d in divisors for p in powers]
    return sorted(divisors)


def two_power_condition(m: int) -> bool:
    """True iff 2^i = -1 (mod m) for some i >= 1 (m odd).

    When it holds, every binary cyclotomic coset mod m is closed under
    negation, hence every divisor of x^m - 1 is self-reciprocal.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("need odd m >= 1")
    if m == 1:
        return True
    p = 2 % m
    seen = set()
    while p not in seen:
        if p == m - 1:
            return True
        seen.add(p)
        p = (p * 2) % m
    return False


def split_top_level(text: str, sep: str) -> list[str]:
    """Split text at every sep outside parentheses, after dropping
    spaces; unbalanced parentheses are reported against text as given."""
    parts = []
    depth = 0
    cur = ""
    for ch in text.replace(" ", ""):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if ch == sep and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append(cur)
    return parts


__all__ = [
    "Gf2Poly",
    "GuardExceeded",
    "ZERO",
    "ONE",
    "X",
    "x_pow_n_minus_1",
    "ones_poly",
    "factor_xn_minus_1",
    "divisors_of_xn_minus_1",
    "two_power_condition",
    "split_top_level",
]
