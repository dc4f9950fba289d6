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
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Callable, Collection, Hashable, Iterable, Sequence

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
        if a == b:
            return self._entries.get((a, b), 0.0)
        return self._entries.get((a, b), 1.0)

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

    With no cost table this is the classic unit-cost edit distance and
    the result is returned as an int.
    """
    if costs is None:
        return _unit_edit_distance(x, y)
    # The DP with costs looked up per call (insertions), per row
    # (deletions) and per distinct symbol of x (substitutions), never
    # per cell.  Each cell adds and compares in the order of the plain
    # recurrence, so the float result is exact to the bit.
    ins = [costs.cost(GAP, b) for b in y]
    prev = [0.0]
    for c in ins:
        prev.append(prev[-1] + c)
    sub_rows: dict[Hashable, list[float]] = {}
    for a in x:
        sub = sub_rows.get(a)
        if sub is None:
            sub = sub_rows[a] = [costs.cost(a, b) for b in y]
        dele = costs.cost(a, GAP)
        left = prev[0] + dele
        cur = [left]
        for diag, up, s, c in zip(prev, prev[1:], sub, ins):
            # min(diag + s, up + dele, left + c), unrolled in min's order
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
    row i + 1 of the DP column, and score follows the bottom row.
    Python ints lift the word-length limit on the pattern."""
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
    top = bit >> 1
    pv, mv, score = mask, 0, m
    for a in x:
        eq = peq.get(a, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        # row 0 of the global DP is 0, 1, 2, ...: shift in a +1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def hamming_distance(x: Sequence[Hashable], y: Sequence[Hashable]) -> int:
    if len(x) != len(y):
        raise ValueError("hamming distance needs equal lengths")
    return sum(a != b for a, b in zip(x, y))


@dataclass(frozen=True)
class MinResult:
    """Minimum pairwise distance plus one witnessing pair, and the
    maximum over the pairs scanned.

    With an early exit the minimum is only an upper bound on the true
    minimum (and the maximum a lower bound on the true maximum);
    ``exhaustive`` says whether every pair was scanned, and ``pairs``
    counts the pairs compared: k(k-1)/2 for k items when exhaustive.
    """

    minimum: float
    pair: tuple[int, int]
    count_at_minimum: int
    maximum: float
    exhaustive: bool
    pairs: int


def min_pairwise(
    items: Sequence,
    dist: Callable,
    upper_bound: float | None = None,
) -> MinResult:
    """Minimum over all unordered pairs of distinct items.

    ``upper_bound`` allows stopping once a pair attains it (enough to
    certify a <=-bound without the full quadratic scan).
    """
    if len(items) < 2:
        raise ValueError("need at least two items")
    best = top = None
    pair = (0, 1)
    hits = pairs = 0
    stopped = False
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            d = dist(items[i], items[j])
            if best is None or d < best:
                best, pair, hits = d, (i, j), 1
            elif d == best:
                hits += 1
            if top is None or d > top:
                top = d
        pairs += len(items) - 1 - i
        if upper_bound is not None and best is not None and best <= upper_bound:
            stopped = i < len(items) - 2
            break
    return MinResult(best, pair, hits, top, not stopped, pairs)


# (lane width, array/memoryview format of an unsigned int of that width)
_LANES = ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))


def min_edit_pairwise(
    items: Sequence[Sequence[Hashable]],
    costs: EditCostTable | None = None,
    upper_bound: float | None = None,
) -> MinResult:
    """min_pairwise(items, lambda a, b: edit_distance(a, b, costs),
    upper_bound), field for field.

    For items all of one length m >= 1, row i runs items[i] against
    every later item at once, one W-bit lane of an int per later item
    (Hyyrö, Fredriksson & Navarro, ACM J. Exp. Algorithmics 10, 2005),
    W the least of 8, 16, 32, 64 that leaves each lane a guard bit.
    With unit costs (m <= 63) the lanes run the bit-vector step of
    _unit_edit_distance; with a cost table they run the min-plus DP
    (see _weighted_rows) when its float sums are exact.  Unequal
    lengths, m = 0, m >= 64 at unit cost and cost tables whose sums
    may round go pair by pair through min_pairwise.
    """
    k = len(items)
    m = len(items[0]) if items else 0
    if k > 1 and m and all(len(x) == m for x in items):
        if costs is None:
            if m < 64:
                return _scan_rows(_unit_rows(items, m), upper_bound, int)
        else:
            exact = _scaled_costs(items, m, costs)
            if exact is not None:
                denominator, scaled, width, fmt = exact
                return _scan_rows(
                    _weighted_rows(items, m, scaled, width, fmt),
                    upper_bound, lambda v: v / denominator,
                )
    return min_pairwise(
        items, lambda a, b: edit_distance(a, b, costs), upper_bound
    )


def _scan_rows(
    rows: Iterable[list[int]],
    upper_bound: float | None,
    value: Callable[[int], float],
) -> MinResult:
    """min_pairwise's bookkeeping, where the i-th row holds the lane
    values from items[i] to items[i + 1], items[i + 2], ... and value(v)
    is the distance a lane value stands for (exact and increasing, so
    lane values compare as the distances do)."""
    best = top = None
    pair = (0, 1)
    hits = pairs = 0
    stopped = False
    for i, row in enumerate(rows):
        low, high = min(row), max(row)
        if best is None or low < best:
            best, pair, hits = low, (i, i + 1 + row.index(low)), row.count(low)
        elif low == best:
            hits += row.count(low)
        if top is None or high > top:
            top = high
        pairs += len(row)
        if upper_bound is not None and value(best) <= upper_bound:
            stopped = len(row) > 1  # rows follow unless this is the last
            break
    return MinResult(value(best), pair, hits, value(top), not stopped, pairs)


def _pack(values: Sequence[int], fmt: str) -> int:
    """One int whose lane j (of the format's width) holds values[j]."""
    if sys.byteorder == "big":
        values = values[::-1]
    return int.from_bytes(array(fmt, values).tobytes(), sys.byteorder)


def _unpack(packed: int, lanes: int, width: int, fmt: str) -> list[int]:
    """The first lanes lanes of packed, lane 0 first: in native byte
    order the cast reads one lane per int, last lane first on a
    big-endian host."""
    raw = packed.to_bytes(lanes * width // 8, sys.byteorder)
    row = memoryview(raw).cast(fmt).tolist()
    if sys.byteorder == "big":
        row.reverse()
    return row


def _unit_rows(items: Sequence[Sequence[Hashable]], m: int):
    """Unit-cost distances, row by row, for 1 <= m <= 63: row i runs
    items[i] as the text and lane j of each int is the pattern
    items[i + 1 + j].  Each lane keeps a guard bit for the carry of
    (eq & pv) + pv, and the masks keep every other bit inside the
    lane's low m."""
    width, fmt = next(lane for lane in _LANES if lane[0] > m)
    k = len(items)
    # peq[a]: bit p of lane j set where items[j][p] == a, built once
    peq: dict[Hashable, int] = {}
    for j, item in enumerate(items):
        for bit, a in enumerate(item, width * j):
            peq[a] = peq.get(a, 0) | 1 << bit
    ones_all = ((1 << width * k) - 1) // ((1 << width) - 1)  # bit 0 per lane
    for i in range(k - 1):
        shift = width * (i + 1)
        ones = ones_all >> shift
        mask = ones * ((1 << m) - 1)
        top_bits = ones << m - 1
        pv, mv, score = mask, 0, ones * m
        for a in items[i]:
            eq = peq[a] >> shift
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (mask & ~(xh | pv))
            mh = pv & xh
            # each lane's score stays in 0..m, so no lane borrows
            score += ((ph & top_bits) - (mh & top_bits)) >> m - 1
            ph = (ph << 1) | ones
            pv = ((mh << 1) | ~(xv | ph)) & mask
            mv = ph & xv
        yield _unpack(score, k - 1 - i, width, fmt)


def _scaled_costs(
    items: Sequence[Sequence[Hashable]], m: int, costs: EditCostTable
) -> tuple[int, dict[tuple[Hashable, Hashable], int], int, str] | None:
    """(D, scaled, W, format): every cost a scan of items can look up,
    times D, the largest denominator among them, as exact ints; or None
    unless every such cost is dyadic and B = (2m + 1) * max scaled cost
    is below 2^53.  Every DP candidate is a path cost of at most 2m
    steps, so under B every float sum of edit_distance is exact, and
    its DP is the int DP over D.  W is the least lane width with
    B < 2^(W - 1), which keeps every lane's guard bit clear."""
    symbols = set().union(*items) | {GAP}
    ratios = {
        (a, b): costs.cost(a, b).as_integer_ratio()
        for a in symbols for b in symbols
    }
    if any(q & (q - 1) for _, q in ratios.values()):
        return None
    denominator = max(q for _, q in ratios.values())
    scaled = {key: p * (denominator // q) for key, (p, q) in ratios.items()}
    bound = (2 * m + 1) * max(scaled.values())
    if bound >= 1 << 53:
        return None
    width, fmt = next(lane for lane in _LANES if bound < 1 << lane[0] - 1)
    return denominator, scaled, width, fmt


def _weighted_rows(
    items: Sequence[Sequence[Hashable]],
    m: int,
    scaled: dict[tuple[Hashable, Hashable], int],
    width: int,
    fmt: str,
):
    """Scaled weighted distances, row by row: row i runs the DP of
    edit_distance with items[i] as x, and lane j of each cell's int is
    the cell for y = items[i + 1 + j].  Each cell is the min of
    diag + sub, up + del and left + ins, by two SWAR minima: the guard
    bit H of a lane survives (p | H) - q exactly when p >= q, and
    t - (t >> W-1) widens it to the lane's low bits.  The per-column
    sub and ins ints are packed once for all items and shifted down to
    the row's lanes."""
    k = len(items)
    symbols = set().union(*items)
    # column b, lane j: the cost of inserting items[j][b], or of
    # substituting a for it
    ins_cols = [_pack([scaled[GAP, y[b]] for y in items], fmt)
                for b in range(m)]
    sub_cols = {
        a: [_pack([scaled[a, y[b]] for y in items], fmt) for b in range(m)]
        for a in symbols
    }
    first_row = list(accumulate(ins_cols, initial=0))
    ones_all = _pack([1] * k, fmt)
    w1 = width - 1
    for i in range(k - 1):
        shift = width * (i + 1)
        ones = ones_all >> shift
        guard = ones << w1
        ins = [c >> shift for c in ins_cols]
        sub_rows: dict[Hashable, list[int]] = {}
        prev = [c >> shift for c in first_row]
        for a in items[i]:
            sub = sub_rows.get(a)
            if sub is None:
                sub = sub_rows[a] = [c >> shift for c in sub_cols[a]]
            dele = ones * scaled[a, GAP]
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
        yield _unpack(prev[-1], k - 1 - i, width, fmt)


def min_nonzero_hamming_weight(
    words: Iterable[int], n: int, lanes: Lanes
) -> int:
    """Minimum Hamming distance of a linear code of words packed as
    lanes packs them.

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
