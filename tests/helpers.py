"""Independent oracles used to cross-check the library implementations.

Everything in this file is deliberately written with a different algorithm
than the code under test: edit distance by exhaustive alignment enumeration
instead of dynamic programming, polynomial products by schoolbook
convolution instead of packed-integer shifts, irreducibility by trial
division, and code enumeration by breadth-first closure instead of
row-echelon span walks.  dp_edit_distance is the plain per-cell edit
distance DP, the reference for the library's bit-parallel unit-cost kernel
and, summing each cost's decimal as a Fraction, for its scaled-int
weighted DP.  reference_gray_report is the Gray image
report by an Echelon over every word plus a per-word closure loop for
each named map, the reference for the library's basis certificates, and
is_index_span tells by doubling which listings those certify.
subcode_u2_by_spanning builds the u^2 subcode's echelon from the shifts
and u-multiples of its generators, the reference for the library's
echelon read straight off the level-major rows, and
subcode_u2_report_by_claim builds the claim <u^2 f5> as a code, the
reference for the library's report from one membership.  full_orbit_words lists
every shift of every orbit start of a code, the reference for the
library's orbit walk, which stops at the first spanned shift.
span_by_doubling is the span as a list doubled a row at a time, the
reference for the array Echelon.span fills in place a block at a time.
reference_poly_right_divmod is skew right division on coefficient
lists, the reference for the library's byte-lane kernel, and
rc_closed_by_word is the reverse-complement check one word at a time,
the reference for the library's check from the certified basis.
src_env is the one non-oracle helper: the environment for running the
package from this checkout in a subprocess.
"""

import os
from fractions import Fraction
from itertools import combinations
from pathlib import Path


def src_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def alignment_edit_distance(x, y, costs=None):
    """Minimum alignment cost between sequences x and y.

    Enumerates every monotone alignment (pairs of equal-size increasing
    position subsets), charging substitution cost for aligned positions and
    gap cost for the rest.  With no cost table: unit cost per mismatch,
    insertion, or deletion.
    """
    m, n = len(x), len(y)

    def sub(a, b):
        if costs is None:
            return 0 if a == b else 1
        return costs.cost(a, b)

    def gap_del(a):
        return 1 if costs is None else costs.cost(a, "-")

    def gap_ins(b):
        return 1 if costs is None else costs.cost("-", b)

    best = None
    for k in range(min(m, n) + 1):
        for idx in combinations(range(m), k):
            base_del = sum(gap_del(x[i]) for i in range(m) if i not in idx)
            for jdx in combinations(range(n), k):
                total = base_del
                total += sum(gap_ins(y[j]) for j in range(n) if j not in jdx)
                total += sum(sub(x[i], y[j]) for i, j in zip(idx, jdx))
                if best is None or total < best:
                    best = total
    return best


def dp_edit_distance(x, y, costs=None):
    """Edit distance by the O(mn) Levenshtein DP, one cost lookup per cell.

    With no cost table: unit costs and an int result.  With one: each
    cost the exact decimal its repr reads (0.1 is 1/10), Fraction sums,
    and the result rounded once to a float.
    """
    if costs is None:
        if len(x) < len(y):
            x, y = y, x
        prev = list(range(len(y) + 1))
        for i, a in enumerate(x, 1):
            cur = [i]
            for j, b in enumerate(y):
                cur.append(min(prev[j] + (a != b), prev[j + 1] + 1, cur[j] + 1))
            prev = cur
        return prev[-1]
    def cost(a, b):
        return Fraction(repr(costs.cost(a, b)))

    prev = [Fraction(0)] * (len(y) + 1)
    for j, b in enumerate(y):
        prev[j + 1] = prev[j] + cost("-", b)
    for a in x:
        cur = [prev[0] + cost(a, "-")]
        for j, b in enumerate(y):
            cur.append(
                min(
                    prev[j] + cost(a, b),
                    prev[j + 1] + cost(a, "-"),
                    cur[j] + cost("-", b),
                )
            )
        prev = cur
    return float(prev[-1])


def _linear_by_echelon(word_set):
    from dnacodes.cyclic import Echelon

    return len(word_set) == 1 << Echelon(word_set).dim and 0 in word_set


def reference_gray_report(image, bit_length, maps):
    """cyclic.gray_image_report, checking every image word under each
    named map."""
    from dnacodes import cyclic

    image = set(image)
    return cyclic.GrayImageReport(
        bit_length=bit_length,
        linear=_linear_by_echelon(image),
        closed={
            name: all(f(y) in image for y in image) for name, f in maps.items()
        },
    )


def is_index_span(words):
    """Whether the words are 2^k distinct words listed, in order, as
    word i = the XOR of words[2^j] over the set bits j of i: the
    listings cyclic.linear_basis certifies.  A set has no order and is
    never one."""
    if isinstance(words, (set, frozenset)):
        return False
    words = list(words)
    size = len(words)
    if not size or size & (size - 1) or len(set(words)) < size:
        return False
    out = [0]
    for j in range(size.bit_length() - 1):
        out += [w ^ words[1 << j] for w in out]
    return out == words


def span_by_doubling(rows):
    """Echelon.span as a plain list, one Python int per word: the span of
    the rows so far doubled by each next row, rows by ascending lead."""
    out = [0]
    for row in sorted(rows):
        out += [w ^ row for w in out]
    return out


def reference_poly_right_divmod(dividend, divisor):
    """skew.poly_right_divmod on coefficient lists: dividend = q * divisor
    + r, one scalar at a time."""
    from dnacodes.skew import _MUL, ONE, THETA, poly_normalize

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


def rc_by_tuples(code, w):
    """The reverse complement of one of the code's packed words, made by
    coordinate tuples rather than the packed reverse kernel."""
    lanes = code.lanes
    coords = reversed(lanes.unpack_word(w, code.n))
    return lanes.pack_word(c ^ lanes.complement for c in coords)


def rc_closed_by_word(code, words):
    """cyclic.rc_closed_extensional, one rc_by_tuples image per word."""
    from dnacodes.cyclic import has_word

    for w in words:
        if not has_word(words, rc_by_tuples(code, w)):
            return False, w
    return True, None


def convolution_mul(a_bits, b_bits):
    """GF(2) product of two coefficient lists (lowest degree first)."""
    if not a_bits or not b_bits:
        return []
    out = [0] * (len(a_bits) + len(b_bits) - 1)
    for i, ai in enumerate(a_bits):
        if not ai:
            continue
        for j, bj in enumerate(b_bits):
            out[i + j] ^= bj
    while out and out[-1] == 0:
        out.pop()
    return out


def _raw_mod(a: int, b: int) -> int:
    # schoolbook long division over GF(2), ints as coefficient masks
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def trial_division_irreducible(value: int) -> bool:
    """Irreducibility of a GF(2) polynomial by dividing out all candidates."""
    deg = value.bit_length() - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for cand in range(1 << d, 1 << (d + 1)):
            if _raw_mod(value, cand) == 0:
                return False
    return True


def bfs_closure(generators, shift, scale_ops):
    """Smallest set containing the generators that is closed under XOR of
    members, the given shift map, and each scalar map in scale_ops."""
    members = {0}
    frontier = [g for g in generators if g]
    for g in frontier:
        members.add(g)
    while frontier:
        w = frontier.pop()
        images = [shift(w)] + [op(w) for op in scale_ops]
        images += [w ^ other for other in list(members)]
        for img in images:
            if img not in members:
                members.add(img)
                frontier.append(img)
    return members


def closure_r_words(generators, n):
    from dnacodes import ring64

    return bfs_closure(
        generators,
        lambda w: ring64.WORDS.word_shift(w, n),
        [lambda w: ring64.word_scale_u(w, n)],
    )


def closure_skew_words(generators, n):
    from dnacodes import skew

    return bfs_closure(
        generators,
        lambda w: skew.skew_shift(w, n),
        [lambda w: skew.word_scale_v(w, n)],
    )


def subcode_u2_by_spanning(code):
    """cyclic.subcode_u2 with the echelon built the long way: the
    level-major rows below 2^(4n) taken as generators, each expanded into
    its shifts and u-multiples before the reduction."""
    from dnacodes import cyclic

    n = code.n
    gens = [
        cyclic.levelmajor_to_word(row, n)
        for row in code.levelmajor_echelon.basis()
        if row < 1 << (4 * n)
    ]
    return cyclic.CyclicCodeR(n, gens)


def subcode_u2_report_by_claim(code):
    """cyclic.subcode_u2_report with the claim built as a code,
    single_generator_code(n, 2, f5): its size its dim, inside the code
    iff every claim basis row is, and equal to the u^2 subcode iff of one
    dim with it and inside it."""
    from dnacodes import cyclic

    f5 = code.tower[5]
    claim = cyclic.single_generator_code(code.n, 2, f5)
    sub = cyclic.subcode_u2(code)
    return cyclic.SubcodeU2Report(
        subcode_log2_size=sub.dim,
        claim_log2_size=claim.dim,
        claim_inside_code=all(code.contains(b) for b in claim.basis()),
        equal=(sub.dim == claim.dim
               and all(sub.contains(b) for b in claim.basis())),
        f5=str(f5),
    )


def full_orbit_words(code):
    """Every shift of every orbit start of a cyclic or skew code, with no
    stop: each u^m * g for m = 0..5 (r64) or each w and v * w (F2+vF2)
    of each generator word g or w, shifted n times."""
    from dnacodes import ring64, skew

    n = code.n
    if isinstance(code, skew.SkewCode):
        gens = [skew.word_from_poly(g, n) for g in code.generators]
        starts = [s for w in gens for s in (w, skew.word_scale_v(w, n))]
        shift = skew.skew_shift
    else:
        starts = []
        for g in code.generators:
            for _ in range(6):
                starts.append(g)
                g = ring64.word_scale_u(g, n)
        shift = ring64.WORDS.word_shift
    out = []
    for s in starts:
        for _ in range(n):
            out.append(s)
            s = shift(s, n)
    return out


def gray_report_inputs(code, bits):
    """Word collections around a linear code's sorted words, for checking
    a Gray report against its reference: the code as a sorted, reversed
    and shuffled list and as a set; without 0; one word more or fewer;
    and every nonzero word in turn swapped for an outsider, a random
    bits-bit word not in the code."""
    import random

    rng = random.Random(code.size())
    outsiders = []
    while len(outsiders) < 8:
        w = rng.getrandbits(bits)
        if not code.contains(w):
            outsiders.append(w)
    words = code.words()
    word_set = set(words)
    shuffled = list(words)
    rng.shuffle(shuffled)
    x = outsiders[0]
    yield "sorted", words
    yield "reversed", words[::-1]
    yield "shuffled", shuffled
    yield "set", word_set
    yield "no zero", words[1:]
    yield "no zero, 2^k words", sorted(word_set - {0} | {x})
    yield "one word more", sorted(word_set | {x})
    yield "one word fewer", words[:-1]
    for i, w in enumerate(words[1:]):
        swapped = word_set - {w} | {outsiders[i % len(outsiders)]}
        yield f"word {w:#x} swapped", sorted(swapped)
