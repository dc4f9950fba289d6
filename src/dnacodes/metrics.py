"""Distance machinery: Hamming/Lee weights on packed words, edit
distance with optional per-symbol cost tables, and minimum searches
over word collections.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from array import array
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, repeat
from typing import (
    Callable, Collection, Hashable, Iterable, Iterator, NamedTuple, Sequence,
)

from .lanes import Lanes

GAP = "-"


class EditCostTable:
    """Substitution/insertion/deletion costs over a symbol alphabet.

    Costs are looked up as cost(a, b) where either side may be the gap
    symbol "-": cost("-", b) is an insertion of b, cost(a, "-") a
    deletion of a.  Missing entries fall back to the unit cost
    (0 on the diagonal, 1 elsewhere).  Every cost is a finite number
    >= 0: nan would drop out of every comparison, and inf has no
    "forbidden operation" meaning here.
    """

    def __init__(self, entries: dict[tuple[str, str], float] | None = None):
        self._entries = dict(entries or {})
        for (a, b), c in self._entries.items():
            if not math.isfinite(c):
                raise ValueError(f"cost for ({a},{b}) must be finite, got {c}")
            if c < 0:
                raise ValueError(f"negative cost for ({a},{b}): {c}")
            if a == GAP and b == GAP:
                raise ValueError("gap-to-gap entry is meaningless")

    def cost(self, a: str, b: str) -> float:
        return self._entries.get((a, b), float(a != b))

    @classmethod
    def from_csv(
        cls,
        text: str,
        alphabet: Collection[str] | None = None,
        what: str = "symbol of the alphabet",
    ) -> "EditCostTable":
        """Parse rows of (from_symbol, to_symbol, cost); "-" is the gap.

        A first row whose cost column reads "cost" (any case) is a
        header and skipped.  A row without 3 columns, or whose cost is
        not a finite number, is an error that names its line.  Once
        every row parses, a row with a symbol that is neither the gap
        nor in ``alphabet`` (when given) is an error too: such a cost
        could never apply.  ``what`` names one symbol of the alphabet
        in that error.
        """
        rows: list[tuple[str, str, str, float]] = []
        reader = csv.reader(io.StringIO(text))
        for idx, row in enumerate(reader):
            if not row or all(not c.strip() for c in row):
                continue
            where = f"cost table line {reader.line_num}"
            if len(row) != 3:
                raise ValueError(f"{where}: cost row needs 3 columns: {row!r}")
            a, b, cell = (c.strip() for c in row)
            if idx == 0 and cell.lower() == "cost":
                continue
            try:
                cost = float(cell)
            except ValueError:
                raise ValueError(f"{where}: bad cost value {cell!r}") from None
            if not math.isfinite(cost):
                raise ValueError(
                    f"{where}: cost must be a finite number, got {cell!r}"
                )
            rows.append((where, a, b, cost))
        if alphabet is not None:
            for where, a, b, _ in rows:
                for s in (a, b):
                    if s != GAP and s not in alphabet:
                        raise ValueError(
                            f"{where}: {s!r} is neither '-' nor a {what}"
                        )
        return cls({(a, b): cost for _, a, b, cost in rows})


def edit_distance(
    x: Sequence[Hashable],
    y: Sequence[Hashable],
    costs: EditCostTable | None = None,
) -> float:
    """Weighted Levenshtein distance between two symbol sequences.

    With no cost table the unit-cost distance, an int; with one, the DP
    on _scaled_costs' exact ints, rounded once to a float.
    """
    if costs is None:
        return _unit_edit_distance(x, y)
    denominator, scaled = _scaled_costs((x, y), costs)
    return _weighted_edit_distance(x, y, scaled) / denominator


def _weighted_edit_distance(x: Sequence, y: Sequence, scaled: dict) -> int:
    """The weighted DP on _scaled_costs' ints, with insertions looked up
    per call, deletions per row and substitutions per symbol of x."""
    ins = [scaled[GAP, b] for b in y]
    prev = list(accumulate(ins, initial=0))
    sub_rows: dict[Hashable, list[int]] = {}
    for a in x:
        sub = sub_rows.get(a)
        if sub is None:
            sub = sub_rows[a] = [scaled[a, b] for b in y]
        dele = scaled[a, GAP]
        left = prev[0] + dele
        cur = [left]
        for diag, up, s, c in zip(prev, prev[1:], sub, ins):
            # min(diag + s, up + dele, left + c), unrolled
            best = diag + s
            step = up + dele
            if step < best:
                best = step
            step = left + c
            if step < best:
                best = step
            cur.append(best)
            left = best
        prev = cur
    return prev[-1]


def _unit_edit_distance(x: Sequence[Hashable], y: Sequence[Hashable]) -> int:
    """Unit-cost edit distance by Hyyrö's bit-vector form of Myers'
    algorithm (Myers, J. ACM 46(3) 1999; Hyyrö, Nordic J. Computing
    10(1) 2003).  The shorter sequence is the pattern; per symbol of
    the longer one, bit i of pv (mv) marks a +1 (-1) step from row i to
    row i + 1 of the DP column, so the last column's steps give the
    distance.  Python ints lift the word-length limit on the pattern."""
    if len(x) < len(y):
        x, y = y, x
    m = len(y)
    if not m:
        return len(x)
    peq: dict[Hashable, int] = {}
    bit = 1
    for b in y:
        peq[b] = peq.get(b, 0) | bit
        bit <<= 1
    mask = bit - 1
    pv, mv = mask, 0
    for a in x:
        eq = peq.get(a, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        # row 0 of the global DP is 0, 1, 2, ...: shift in a +1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    # the last column: len(x) in row 0, then its steps down to row m
    return len(x) + pv.bit_count() - mv.bit_count()


def hamming_distance(x: Sequence[Hashable], y: Sequence[Hashable]) -> int:
    if len(x) != len(y):
        raise ValueError("hamming distance needs equal lengths")
    return sum(a != b for a, b in zip(x, y))


class MinResult(NamedTuple):
    """Minimum pairwise distance plus one witnessing pair, and the
    maximum, over all pairs; ``pairs`` counts them: k(k-1)/2 for k
    items.  Every scan is full, so ``exhaustive`` is always True; it
    stays because bench/tracer.py reads it to count early exits.
    """

    minimum: float
    pair: tuple[int, int]
    count_at_minimum: int
    maximum: float
    exhaustive: bool
    pairs: int


def min_pairwise(items: Sequence, dist: Callable) -> MinResult:
    """Minimum over all unordered pairs of distinct items, one row of
    pairs (items[i] against each later item) per _scan_blocks block."""
    k = len(items)
    if k < 2:
        raise ValueError("need at least two items")
    rows = (
        (range(i, i + 1), [0, k - 1 - i],
         [dist(items[i], items[j]) for j in range(i + 1, k)])
        for i in range(k - 1)
    )
    return _scan_blocks(rows, lambda v: v, lambda row: (min(row), max(row)))


# (lane width, array/memoryview format of an unsigned int of that width)
_LANES = ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))
# pair lanes per block of rows in the packed edit scans
_BLOCK = 1 << 12


def min_edit_pairwise(
    items: Sequence[Sequence[Hashable]],
    costs: EditCostTable | None = None,
) -> MinResult:
    """min_pairwise(items, lambda a, b: edit_distance(a, b, costs)),
    field for field.

    For items all of one length m >= 1, row i runs items[i] against
    every later item at once, one W-bit lane of an int per later item
    (Hyyrö, Fredriksson & Navarro, ACM J. Exp. Algorithmics 10, 2005),
    W the least of 8, 16, 32, 64 that leaves each lane a guard bit, and
    consecutive rows run as one block of up to _BLOCK lanes (see
    _blocks), so each step acts on every pair of a block.  With unit
    costs (m <= 63) the lanes run the bit-vector step of
    _unit_edit_distance; with a cost table they run the min-plus DP
    on _scaled_costs' ints (see _weighted_blocks) up to 64-bit lanes.
    Unequal lengths, m = 0, m >= 64 at unit cost and wider cost tables
    go pair by pair through min_pairwise, on the same ints.
    """
    k = len(items)
    m = len(items[0]) if items else 0
    packs = k > 1 and m and all(len(x) == m for x in items)
    blocks = _blocks(k)
    if costs is None:
        if packs and m < 64:
            return _scan_blocks(
                _unit_blocks(items, m, blocks), int, _byte_extremes(m)
            )
        return min_pairwise(items, edit_distance)
    denominator, scaled = _scaled_costs(items, costs)
    # every DP value is at most B; W-bit lanes need B < 2^(W - 1)
    bound = (2 * m + 1) * max(scaled.values())
    lane = next((w for w in _LANES if bound < 1 << w[0] - 1), None)
    if packs and lane:
        return _scan_blocks(
            _weighted_blocks(items, m, scaled, *lane, blocks),
            lambda v: v / denominator,
            lambda scores: (min(scores), max(scores)),
        )
    return min_pairwise(
        items,
        lambda x, y: _weighted_edit_distance(x, y, scaled) / denominator,
    )


def _blocks(k: int) -> Iterator[tuple[range, list[int]]]:
    """The rows 0..k-2 of a packed scan of k items, as (rows, bounds)
    for each block of consecutive rows: row i holds the k-1-i lanes of
    its pairs, and rows[r] the lanes bounds[r]..bounds[r+1]-1 of its
    block.  A block holds at most _BLOCK lanes, or one longer row."""
    start = 0
    while start < k - 1:
        stop, bounds = start + 1, [0, k - 1 - start]
        while stop < k - 1 and bounds[-1] + k - 1 - stop <= _BLOCK:
            bounds.append(bounds[-1] + k - 1 - stop)
            stop += 1
        yield range(start, stop), bounds
        start = stop


def _scan_blocks(
    blocks: Iterable[tuple[range, list[int], Sequence[int]]],
    value: Callable[[int], float],
    extremes: Callable[[Sequence[int]], tuple[int, int]],
) -> MinResult:
    """The pair scans' bookkeeping, a block of rows at a time: scores
    holds a block's values in row order, the values from items[i] to
    items[i + 1], items[i + 2], ... for each of its rows i (laid out as
    _blocks gives them, or one row per block for min_pairwise),
    extremes(scores) is their (min, max), and value(v) the distance a
    value stands for (exact and increasing, so values compare as the
    distances do)."""
    best = top = None
    pair = (0, 1)
    hits = pairs = 0
    for rows, bounds, scores in blocks:
        low, high = extremes(scores)
        if best is None or low < best:
            t = scores.index(low)
            r = bisect_right(bounds, t) - 1
            i = rows[r]
            best, pair = low, (i, i + 1 + t - bounds[r])
            hits = scores.count(low)
        elif low == best:
            hits += scores.count(low)
        if top is None or high > top:
            top = high
        pairs += len(scores)
    return MinResult(value(best), pair, hits, value(top), True, pairs)


def _byte_extremes(m: int) -> Callable[[bytes], tuple[int, int]]:
    """(min, max) of a column of byte values in 0..m, by membership
    tests from either end."""
    def extremes(column: bytes) -> tuple[int, int]:
        low = next(v for v in range(m + 1) if v in column)
        return low, next(v for v in range(m, low - 1, -1) if v in column)
    return extremes


def _column(values: Sequence[int], fmt: str) -> memoryview:
    """The bytes of one lane of the format's width per value, lane 0
    first and each lane little-endian, whatever the host's order."""
    column = array(fmt, values)
    if sys.byteorder == "big":
        column.byteswap()
    return memoryview(column.tobytes())


def _join(column: memoryview, suffixes: list[slice]) -> int:
    """One block's int of a per-item column: the column's suffix slices
    for the block's rows (row i's lanes are items i+1..k-1), one after
    another."""
    joined = b"".join(map(column.__getitem__, suffixes))
    return int.from_bytes(joined, "little")


def _unit_blocks(
    items: Sequence[Sequence[Hashable]],
    m: int,
    blocks: Iterable[tuple[range, list[int]]],
) -> Iterator[tuple[range, list[int], bytes]]:
    """Unit-cost distances, a block of rows at a time, for 1 <= m <= 63:
    row i runs items[i] as the text, and lane j of its part of the block
    is the pattern items[i + 1 + j].  At each step eq joins each row's
    slice of the peq column of its own text symbol.  Each lane keeps a
    guard bit for the carry of (eq & pv) + pv, and the masks keep every
    other bit inside the lane's low m.  A score is at most m, so each
    block's scores are the low bytes of its lanes, one bytes column."""
    width, fmt = next(lane for lane in _LANES if lane[0] > m)
    size = width // 8
    # peq[a], lane j: bit p set where items[j][p] == a
    lanes = {a: array(fmt, bytes(size * len(items)))
             for a in set().union(*items)}
    for j, item in enumerate(items):
        for p, a in enumerate(item):
            lanes[a][j] |= 1 << p
    peq = {a: _column(column, fmt) for a, column in lanes.items()}
    del lanes
    for rows, bounds in blocks:
        ones = ((1 << width * bounds[-1]) - 1) // ((1 << width) - 1)
        mask = ones * ((1 << m) - 1)
        top_bits = ones << m - 1
        pv, mv, score = mask, 0, ones * m
        suffixes = [slice(size * (i + 1), None) for i in rows]
        for read in zip(*[items[i] for i in rows]):
            eq = int.from_bytes(
                b"".join([peq[a][s] for a, s in zip(read, suffixes)]),
                "little",
            )
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (mask & ~(xh | pv))
            mh = pv & xh
            # each lane's score stays in 0..m, so no lane borrows
            score += ((ph & top_bits) - (mh & top_bits)) >> m - 1
            ph = (ph << 1) | ones
            pv = ((mh << 1) | ~(xv | ph)) & mask
            mv = ph & xv
        column = score.to_bytes(size * bounds[-1], "little")[::size]
        yield rows, bounds, column


@lru_cache(maxsize=None, typed=True)
def _ratio(cost: float) -> tuple[int, int]:
    """cost as p / q in lowest terms: a float as its repr, the shortest
    decimal that reads back as it (0.1 is 1/10), anything else exactly."""
    if not isinstance(cost, float):
        return cost.as_integer_ratio()
    digits, _, exponent = repr(cost).partition("e")
    whole, _, fraction = digits.partition(".")
    e = int(exponent or 0) - len(fraction)
    p, q = int(whole + fraction) * 10 ** max(e, 0), 10 ** max(-e, 0)
    g = math.gcd(p, q)
    return p // g, q // g


def _scaled_costs(
    items: Iterable[Sequence[Hashable]], costs: EditCostTable
) -> tuple[int, dict[tuple[Hashable, Hashable], int]]:
    """(D, scaled): every cost a scan of items can look up (sub, del and
    ins over their symbols), its exact ratio times D, the lcm of their
    denominators, an int; a DP value v over them stands for v / D."""
    symbols = set().union(*items) | {GAP}
    ratios = {
        (a, b): _ratio(costs.cost(a, b)) for a in symbols for b in symbols
    }
    denominator = math.lcm(*(q for _, q in ratios.values()))
    return denominator, {
        key: p * (denominator // q) for key, (p, q) in ratios.items()
    }


def _weighted_blocks(
    items: Sequence[Sequence[Hashable]],
    m: int,
    scaled: dict[tuple[Hashable, Hashable], int],
    width: int,
    fmt: str,
    blocks: Iterable[tuple[range, list[int]]],
) -> Iterator[tuple[range, list[int], list[int]]]:
    """Scaled weighted distances, a block of rows at a time: row i runs
    the DP of edit_distance with items[i] as x, and lane j of its part
    of each cell's int is the cell for y = items[i + 1 + j].  Each cell
    is the min of diag + sub, up + del and left + ins, by two SWAR
    minima: the guard bit H of a lane survives (p | H) - q exactly when
    p >= q, and t - (t >> W-1) widens it to the lane's low bits.  The
    per-column sub and ins lanes are packed once for all items, and
    joined once per block (sub once per symbol of the block's texts).
    At a step where the rows read one symbol, sub is that symbol's
    columns; else each symbol's columns give the lanes of the rows that
    read it, through those rows' lane mask."""
    size = width // 8
    # column b, lane j: the cost of inserting items[j][b], or of
    # substituting a for it
    ins_cols = [_column([scaled[GAP, y[b]] for y in items], fmt)
                for b in range(m)]
    sub_cols = {
        a: [_column([scaled[a, y[b]] for y in items], fmt) for b in range(m)]
        for a in set().union(*items)
    }
    w1 = width - 1
    for rows, bounds in blocks:
        lanes = bounds[-1]
        ones = ((1 << width * lanes) - 1) // ((1 << width) - 1)
        guard = ones << w1
        suffixes = [slice(size * (i + 1), None) for i in rows]
        ins = [_join(c, suffixes) for c in ins_cols]
        texts = [items[i] for i in rows]
        subs = {a: [_join(c, suffixes) for c in sub_cols[a]]
                for a in set().union(*texts)}
        # each row's lanes as bytes: all clear, all set
        pieces = [(bytes(size * (hi - lo)), b"\xff" * (size * (hi - lo)))
                  for lo, hi in zip(bounds, bounds[1:])]
        prev = list(accumulate(ins, initial=0))
        for read in zip(*texts):
            a = read[0]
            if read.count(a) == len(read):
                sub, dele = subs[a], ones * scaled[a, GAP]
            else:
                masked, dele = [], 0
                for a in set(read):
                    mask = int.from_bytes(
                        b"".join([p[x == a] for x, p in zip(read, pieces)]),
                        "little",
                    )
                    masked.append((mask, subs[a]))
                    dele += (mask & ones) * scaled[a, GAP]
                # the masks split the lanes, so their sum is their OR
                sub = (sum(mask & c[b] for mask, c in masked)
                       for b in range(m))
            left = prev[0] + dele
            cur = [left]
            for diag, up, s, c in zip(prev, prev[1:], sub, ins):
                best = diag + s
                step = up + dele
                t = ((best | guard) - step) & guard
                best ^= (best ^ step) & (t - (t >> w1))
                step = left + c
                t = ((best | guard) - step) & guard
                best ^= (best ^ step) & (t - (t >> w1))
                cur.append(best)
                left = best
            prev = cur
        scores = array(fmt, prev[-1].to_bytes(size * lanes, "little"))
        if sys.byteorder == "big":
            scores.byteswap()
        yield rows, bounds, scores.tolist()


def min_nonzero_hamming_weight(
    words: Iterable[int], n: int, lanes: Lanes
) -> int:
    """Minimum Hamming distance of a linear code of words packed as
    lanes packs them, by a scan of the words.

    For a code closed under addition the minimum pairwise distance
    equals the minimum weight of a nonzero codeword.
    """
    best = min(
        map(lanes.word_hamming_weight, filter(None, words), repeat(n)),
        default=n + 1,
    )
    if best > n:
        raise ValueError("no nonzero words")
    return best


def min_nonzero_lee_weight(words: Iterable[int], n: int) -> int:
    """Lee weight is the popcount of the packed word (ring64)."""
    best = min(map(int.bit_count, filter(None, words)), default=6 * n + 1)
    if best > 6 * n:
        raise ValueError("no nonzero words")
    return best


__all__ = [
    "GAP",
    "EditCostTable",
    "edit_distance",
    "hamming_distance",
    "MinResult",
    "min_pairwise",
    "min_edit_pairwise",
    "min_nonzero_hamming_weight",
    "min_nonzero_lee_weight",
]
