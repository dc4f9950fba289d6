"""Distance machinery: Hamming/Lee weights on packed words, edit
distance with optional per-symbol cost tables, and minimum searches
over word collections.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from . import ring64

GAP = "-"


class EditCostTable:
    """Substitution/insertion/deletion costs over a symbol alphabet.

    Costs are looked up as cost(a, b) where either side may be the gap
    symbol "-": cost("-", b) is an insertion of b, cost(a, "-") a
    deletion of a.  Missing entries fall back to the unit cost
    (0 on the diagonal, 1 elsewhere).
    """

    def __init__(self, entries: dict[tuple[str, str], float] | None = None):
        self._entries = dict(entries or {})
        for (a, b), c in self._entries.items():
            if c < 0:
                raise ValueError(f"negative cost for ({a},{b}): {c}")
            if a == GAP and b == GAP:
                raise ValueError("gap-to-gap entry is meaningless")

    def cost(self, a: str, b: str) -> float:
        if a == b:
            return self._entries.get((a, b), 0.0)
        return self._entries.get((a, b), 1.0)

    @classmethod
    def from_csv(cls, text: str) -> "EditCostTable":
        """Parse rows of (from_symbol, to_symbol, cost); "-" is the gap.

        A first row whose cost column is not numeric is taken as a
        header and skipped.
        """
        entries: dict[tuple[str, str], float] = {}
        for idx, row in enumerate(csv.reader(io.StringIO(text))):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ValueError(f"cost row needs 3 columns: {row!r}")
            a, b, cell = (c.strip() for c in row)
            try:
                cost = float(cell)
            except ValueError:
                if idx == 0:
                    continue
                raise ValueError(f"bad cost value {cell!r}") from None
            entries[(a, b)] = cost
        return cls(entries)


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
    prev = [0.0] * (len(y) + 1)
    for j, b in enumerate(y):
        prev[j + 1] = prev[j] + costs.cost(GAP, b)
    for a in x:
        cur = [prev[0] + costs.cost(a, GAP)]
        for j, b in enumerate(y):
            cur.append(
                min(
                    prev[j] + costs.cost(a, b),
                    prev[j + 1] + costs.cost(a, GAP),
                    cur[j] + costs.cost(GAP, b),
                )
            )
        prev = cur
    return prev[-1]


def _unit_edit_distance(x: Sequence[Hashable], y: Sequence[Hashable]) -> int:
    if len(x) < len(y):
        x, y = y, x
    prev = list(range(len(y) + 1))
    for i, a in enumerate(x, 1):
        cur = [i]
        for j, b in enumerate(y):
            cur.append(min(prev[j] + (a != b), prev[j + 1] + 1, cur[j] + 1))
        prev = cur
    return prev[-1]


def hamming_distance(x: Sequence[Hashable], y: Sequence[Hashable]) -> int:
    if len(x) != len(y):
        raise ValueError("hamming distance needs equal lengths")
    return sum(a != b for a, b in zip(x, y))


@dataclass(frozen=True)
class MinResult:
    """Minimum pairwise distance plus one witnessing pair.

    With an early exit the value is only an upper bound on the true
    minimum; ``exhaustive`` says whether every pair was scanned.
    """

    minimum: float
    pair: tuple[int, int]
    count_at_minimum: int
    exhaustive: bool = True


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
    best = None
    pair = (0, 1)
    hits = 0
    stopped = False
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            d = dist(items[i], items[j])
            if best is None or d < best:
                best, pair, hits = d, (i, j), 1
            elif d == best:
                hits += 1
        if upper_bound is not None and best is not None and best <= upper_bound:
            stopped = i < len(items) - 2
            break
    return MinResult(best, pair, hits, exhaustive=not stopped)


def min_nonzero_hamming_weight(words: Iterable[int], n: int) -> int:
    """Minimum Hamming distance of a linear packed-word code.

    For a code closed under addition the minimum pairwise distance
    equals the minimum weight of a nonzero codeword.
    """
    best = n + 1
    for w in words:
        if w:
            best = min(best, ring64.word_hamming_weight(w, n))
    if best > n:
        raise ValueError("no nonzero words")
    return best


def min_nonzero_lee_weight(words: Iterable[int], n: int) -> int:
    best = 6 * n + 1
    for w in words:
        if w:
            best = min(best, ring64.word_lee_weight(w))
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
    "min_nonzero_hamming_weight",
    "min_nonzero_lee_weight",
]
