"""Edit distance, Hamming distance, and pairwise-minimum scans."""

import functools
import math
import random
from itertools import accumulate

import pytest

from dnacodes import metrics
from dnacodes.metrics import EditCostTable, MinResult
from helpers import alignment_edit_distance, dp_edit_distance


CODON_ALPHABET = ("GGG", "CCC", "ACT", "TGA")


def random_codon_string(rng, max_len=4):
    return tuple(
        rng.choice(CODON_ALPHABET) for _ in range(rng.randrange(max_len + 1))
    )


def test_edit_distance_basics():
    assert metrics.edit_distance((), ()) == 0
    assert metrics.edit_distance(("AAA",), ()) == 1
    assert metrics.edit_distance((), ("AAA", "CCC")) == 2
    assert metrics.edit_distance("kitten", "sitting") == 3
    assert metrics.edit_distance("abc", "abc") == 0


def test_edit_distance_matches_alignment_oracle_unit_costs():
    rng = random.Random(0xED17)
    for _ in range(800):
        x = random_codon_string(rng)
        y = random_codon_string(rng)
        assert metrics.edit_distance(x, y) == alignment_edit_distance(x, y), (
            x,
            y,
        )


def test_unit_edit_distance_matches_dp_reference():
    """The bit-parallel kernel against the per-cell DP: patterns past one
    machine word (64 symbols), very unequal lengths, empty sides, and
    codon-tuple, str and int symbols."""
    rng = random.Random(0xB17)
    symbol_kinds = (CODON_ALPHABET, "ACGT", tuple(range(6)))
    lengths = [(0, 0), (0, 100), (100, 0), (1, 100), (100, 1), (64, 64),
               (65, 63), (100, 100), (3, 90)]
    lengths += [(rng.randrange(101), rng.randrange(101)) for _ in range(60)]
    lengths += [(rng.randrange(13), rng.randrange(13)) for _ in range(300)]
    for alphabet in symbol_kinds:
        for m, n in lengths:
            x = [rng.choice(alphabet) for _ in range(m)]
            y = [rng.choice(alphabet) for _ in range(n)]
            if isinstance(alphabet, str):
                x, y = "".join(x), "".join(y)
            else:
                x, y = tuple(x), tuple(y)
            got = metrics.edit_distance(x, y)
            assert type(got) is int
            assert got == dp_edit_distance(x, y), (x, y)


def test_edit_distance_is_a_metric_on_samples():
    rng = random.Random(31337)
    pool = [random_codon_string(rng) for _ in range(40)]
    for x in pool:
        assert metrics.edit_distance(x, x) == 0
    for _ in range(300):
        x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        dxy = metrics.edit_distance(x, y)
        assert dxy == metrics.edit_distance(y, x)
        assert (dxy == 0) == (x == y)
        assert dxy <= metrics.edit_distance(x, z) + metrics.edit_distance(z, y)


def random_cost_table(rng, symbols):
    entries = {}
    everything = list(symbols) + ["-"]
    for a in everything:
        for b in everything:
            if a == b == "-":
                continue
            if a == b:
                entries[(a, b)] = 0.0
            else:
                entries[(a, b)] = float(rng.randrange(1, 6))
    return EditCostTable(entries)


def test_weighted_edit_distance_matches_alignment_oracle():
    rng = random.Random(0xBEEF)
    symbols = ("A", "B", "C")
    for trial in range(120):
        costs = random_cost_table(rng, symbols)
        x = tuple(rng.choice(symbols) for _ in range(rng.randrange(5)))
        y = tuple(rng.choice(symbols) for _ in range(rng.randrange(5)))
        got = metrics.edit_distance(x, y, costs)
        want = alignment_edit_distance(x, y, costs)
        assert got == want, (trial, x, y, got, want)


def test_weighted_edit_distance_matches_per_cell_dp_exactly():
    """The scaled-int DP against the per-cell DP over each cost's exact
    decimal, both rounded once, so the float results are equal, not
    merely close.  The tables have fractional costs of up to 17 digits,
    non-zero diagonal entries and symbols they omit."""
    rng = random.Random(0xC057)
    symbols = ("A", "C", "G", "T")
    for trial in range(150):
        entries = {}
        for a in symbols + ("-",):
            for b in symbols + ("-",):
                if a == b == "-" or rng.random() < 0.2:
                    continue
                if a == b:
                    entries[(a, b)] = rng.choice((0.0, rng.uniform(0, 0.5)))
                else:
                    entries[(a, b)] = rng.uniform(0.1, 3.0)
        costs = EditCostTable(entries)
        alphabet = symbols + ("N",)
        x = "".join(rng.choice(alphabet) for _ in range(rng.randrange(31)))
        y = "".join(rng.choice(alphabet) for _ in range(rng.randrange(31)))
        got = metrics.edit_distance(x, y, costs)
        want = dp_edit_distance(x, y, costs)
        assert got == want, (trial, x, y, got, want)


def test_cost_table_from_csv():
    text = "\n".join(
        [
            "from_symbol,to_symbol,cost",
            "A,B,2",
            "B,A,2",
            "A,-,1.5",
            "-,A,1.5",
        ]
    )
    table = EditCostTable.from_csv(text)
    assert table.cost("A", "B") == 2
    assert table.cost("A", "-") == 1.5
    assert table.cost("A", "A") == 0  # unit default for unlisted pairs
    assert table.cost("B", "C") == 1


def test_cost_table_from_csv_without_header():
    table = EditCostTable.from_csv("X,Y,3")
    assert table.cost("X", "Y") == 3


def test_cost_table_rejects_bad_rows():
    with pytest.raises(ValueError):
        EditCostTable.from_csv("A,B,-1")
    with pytest.raises(ValueError):
        EditCostTable.from_csv("-,-,1")
    with pytest.raises(ValueError):
        EditCostTable.from_csv("A,B")


def test_cost_table_rejects_symbols_outside_the_alphabet_after_parsing():
    table = EditCostTable.from_csv("A,-,2\n-,T,3\n", "ACGT", "base")
    assert (table.cost("A", "-"), table.cost("-", "T")) == (2, 3)
    with pytest.raises(ValueError, match="^cost table line 2: 'N' is neither '-' nor a base$"):
        EditCostTable.from_csv("A,G,0.5\nN,-,1\n", "ACGT", "base")
    with pytest.raises(ValueError, match="^cost table line 1: 'AC' is neither"):
        EditCostTable.from_csv("AC,G,1\n", tuple("ACGT"), "base")
    # every row parses before any symbol is checked
    with pytest.raises(ValueError, match="^cost table line 2: bad cost value 'x'$"):
        EditCostTable.from_csv("GGG,A,1\nA,G,x\n", "ACGT", "base")


def test_cost_table_header_only_where_the_cost_column_reads_cost():
    assert EditCostTable.from_csv("From,To,COST\nA,G,0.5\n").cost("A", "G") == 0.5
    with pytest.raises(ValueError, match="^cost table line 1: bad cost value '0..5'$"):
        EditCostTable.from_csv("A,C,0..5\nA,G,0.5")
    with pytest.raises(ValueError, match="^cost table line 2: cost row needs 3 columns"):
        EditCostTable.from_csv("from,to,cost\nA,G\n")


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_cost_table_rejects_nan_and_inf_naming_the_line(cell):
    text = f"from,to,cost\nA,G,0.5\nA,C,{cell}\n"
    with pytest.raises(ValueError, match=f"^cost table line 3: .*'{cell}'$"):
        EditCostTable.from_csv(text)
    with pytest.raises(ValueError, match="must be finite"):
        EditCostTable({("A", "C"): float(cell)})


def test_hamming_distance():
    assert metrics.hamming_distance("GGG", "GGC") == 1
    assert metrics.hamming_distance((1, 2, 3), (1, 2, 3)) == 0
    with pytest.raises(ValueError):
        metrics.hamming_distance("AB", "ABC")


def test_edit_never_exceeds_hamming():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randrange(1, 8)
        x = tuple(rng.choice(CODON_ALPHABET) for _ in range(n))
        y = tuple(rng.choice(CODON_ALPHABET) for _ in range(n))
        assert metrics.edit_distance(x, y) <= metrics.hamming_distance(x, y)
        assert metrics.edit_distance(x, y) <= n


def test_min_pairwise_exhaustive():
    items = ["AAAA", "AAAC", "GGGG", "GGGT"]
    res = metrics.min_pairwise(items, metrics.edit_distance)
    assert isinstance(res, MinResult)
    assert res.minimum == 1
    assert res.count_at_minimum == 2
    assert res.exhaustive is True
    assert res.pairs == 6
    i, j = res.pair
    assert metrics.edit_distance(items[i], items[j]) == 1


def test_min_pairwise_maximum_matches_brute_force():
    rng = random.Random(405)
    for _ in range(30):
        items = [
            tuple(rng.choice("ACGT") for _ in range(rng.randrange(1, 6)))
            for _ in range(rng.randrange(2, 10))
        ]
        res = metrics.min_pairwise(items, metrics.edit_distance)
        assert res.maximum == max(
            metrics.edit_distance(a, b)
            for i, a in enumerate(items) for b in items[i + 1:]
        )


def test_min_pairwise_needs_two_items():
    with pytest.raises(ValueError):
        metrics.min_pairwise(["solo"], metrics.edit_distance)
    for items in ([], ["solo"], [""]):
        with pytest.raises(ValueError, match="^need at least two items$"):
            metrics.min_edit_pairwise(items)


def random_items(rng, alphabet, m, k):
    """k distinct items of length m (fewer if the alphabet runs out),
    as strings over a str alphabet and as tuples otherwise."""
    items = {}
    for _ in range(4 * k):
        x = tuple(rng.choice(alphabet) for _ in range(m))
        items[x if not isinstance(alphabet, str) else "".join(x)] = None
        if len(items) == k:
            break
    return list(items)


def assert_packed_scan_matches_dp(items, dp):
    """dp: dp_edit_distance, cached across the calls of one test."""
    assert metrics.min_edit_pairwise(items) == metrics.min_pairwise(items, dp)


@pytest.mark.parametrize("m", [1, 7, 8, 15, 16, 31, 32, 33, 63, 64])
@pytest.mark.parametrize("k", [2, 3, 12])
def test_min_edit_pairwise_matches_the_dp_at_lane_edges(m, k):
    """Every field of the packed scan against min_pairwise over the
    per-cell DP, at the lane-width edges (m = 64 takes the per-pair
    path), over strings, codon tuples and a one-symbol alphabet, and
    with a repeated item."""
    rng = random.Random(1000 * m + k)
    dp = functools.cache(dp_edit_distance)
    for alphabet in ("ACGT", CODON_ALPHABET):
        items = random_items(rng, alphabet, m, k)
        assert_packed_scan_matches_dp(items, dp)
        assert_packed_scan_matches_dp(items + items[:1], dp)
    assert_packed_scan_matches_dp(["A" * m] * k, dp)


def test_min_edit_pairwise_unequal_lengths_and_weighted_costs():
    """Unequal lengths (pair by pair) and integer cost tables (the
    packed min-plus scan): same result as min_pairwise over
    edit_distance."""
    rng = random.Random(0x5CA7)
    costs = random_cost_table(rng, "ACGT")
    for _ in range(20):
        items = [
            "".join(rng.choice("ACGT") for _ in range(rng.randrange(9)))
            for _ in range(rng.randrange(2, 14))
        ]
        assert_packed_scan_matches_dp(items, dp_edit_distance)
        fixed = [x.ljust(8, "A") for x in items]
        for table in (costs, None):
            want = metrics.min_pairwise(
                fixed, lambda a, b: metrics.edit_distance(a, b, table)
            )
            assert metrics.min_edit_pairwise(fixed, table) == want


def dyadic_cost_table(rng, symbols, top):
    """Every entry, the diagonal and the gaps included, a random multiple
    of 0.125 in 0..1 (zeros and nonzero diagonal entries among them),
    one entry exactly 0.125, and insertions costing top."""
    everything = list(symbols) + ["-"]
    entries = {
        (a, b): 0.125 * rng.randrange(9)
        for a in everything for b in everything if not a == b == "-"
    }
    entries[symbols[0], symbols[-1]] = 0.125
    entries.update({("-", b): top for b in symbols})
    return EditCostTable(entries)


def assert_weighted_scan_matches(items, costs):
    want = metrics.min_pairwise(
        items, lambda a, b: metrics.edit_distance(a, b, costs)
    )
    got = metrics.min_edit_pairwise(items, costs)
    assert got == want
    assert type(got.minimum) is float and type(got.maximum) is float


def lane_limit_cost(width, m):
    """The int cost c whose B = (2m + 1)c is the largest below 2^(W-1):
    the packed scan of length-m items under uniform_costs(alphabet, c)
    takes W-bit lanes, at c + 1 the next, or pair by pair past 64."""
    return ((1 << width - 1) - 1) // (2 * m + 1)


def uniform_costs(alphabet, cost):
    """Every entry cost (kept an int if it is one) but the diagonal's
    zeros."""
    everything = list(alphabet) + ["-"]
    return EditCostTable({
        (a, b): cost for a in everything for b in everything if a != b
    })


def packed_width(items, costs):
    """The lane width min_edit_pairwise(items, costs) packs its pairs
    at, or None where it goes pair by pair."""
    widths = []
    real = metrics._weighted_blocks

    def spy(items, m, scaled, width, fmt, blocks):
        widths.append(width)
        return real(items, m, scaled, width, fmt, blocks)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_weighted_blocks", spy)
        metrics.min_edit_pairwise(items, costs)
    return widths[0] if widths else None


@pytest.mark.parametrize("width, next_width", [
    (8, 16), (16, 32), (32, 64), (64, None),
])
def test_weighted_packed_scan_at_each_lane_width_limit(width, next_width):
    """Every cost c but the diagonal's zeros, with B = (2m + 1)c the
    largest below 2^(W-1), so that distances run to about half of each
    W-bit lane; at c + 1 the scan takes the next width, or the per-pair
    scan past 64 bits.  Strings and codon tuples."""
    rng = random.Random(width)
    m = 7
    c = lane_limit_cost(width, m)
    for alphabet in ("ACGT", CODON_ALPHABET):
        for cost, want in ((c, width), (c + 1, next_width)):
            costs = uniform_costs(alphabet, cost)
            for k in (2, 3, 12):
                items = random_items(rng, alphabet, m, k)
                assert packed_width(items, costs) == want
                assert_weighted_scan_matches(items, costs)


def test_weighted_packed_scan_matches_the_dp_on_random_tables():
    rng = random.Random(0x125)
    for _ in range(40):
        alphabet = rng.choice(("ACGT", "AC", CODON_ALPHABET))
        costs = dyadic_cost_table(rng, alphabet, 0.125 * rng.randrange(17))
        m = rng.randrange(1, 10)
        items = random_items(rng, alphabet, m, rng.randrange(2, 15))
        if len(items) < 2:
            continue
        assert packed_width(items, costs) is not None
        assert_weighted_scan_matches(items, costs)


# items whose scan spans at least three blocks of rows
BLOCK_K = 2 * math.isqrt(metrics._BLOCK) + 2


@pytest.mark.parametrize("alphabet, m, k, weighted", [
    (CODON_ALPHABET, 7, 60, False), ("ACGT", 21, 60, False),
    (CODON_ALPHABET, 7, 40, True), ("ACGT", 21, 40, True),
    (CODON_ALPHABET, 7, BLOCK_K, False), (CODON_ALPHABET, 33, BLOCK_K, False),
])
def test_full_scan_finds_a_repeated_item_in_any_row(alphabet, m, k, weighted):
    """k distinct items but for one repeat, at unit cost or under a
    table with a zero diagonal, so the repeat is the one pair at
    distance 0: wherever its first copy sits (row 0, a middle row, row
    k - 2, and the first, a middle and the last row of the second block
    when there is one) every pair is scanned, and every field matches
    min_pairwise over the DP (over the per-pair distance, itself checked
    against the DP, past m = 8 or under the table)."""
    rng = random.Random(1000 * m + k)
    base = random_items(rng, alphabet, m, k)
    assert len(base) == k
    costs = None
    if weighted:
        entries = {(a, a): 0.0 for a in alphabet}
        entries.update({(a, "-"): 0.75 for a in alphabet})
        entries[alphabet[0], alphabet[1]] = 0.25
        costs = EditCostTable(entries)
    dist = functools.cache(
        dp_edit_distance if m <= 8 and not weighted
        else functools.partial(metrics.edit_distance, costs=costs)
    )
    rows = [0, k // 2 - 1, k - 2]
    blocks = list(metrics._blocks(k))
    if len(blocks) > 1:
        second = blocks[1][0]
        rows += [second[0], second[len(second) // 2], second[-1]]
    for i in rows:
        items = list(base)
        j = (i + k + 1) // 2
        items[j] = items[i]
        got = metrics.min_edit_pairwise(items, costs)
        assert (got.minimum, got.pair, got.count_at_minimum) == (0, (i, j), 1)
        assert (got.pairs, got.exhaustive) == (k * (k - 1) // 2, True)
        assert got == metrics.min_pairwise(items, dist)
        assert type(got.minimum) is (float if weighted else int)


def test_block_layout_covers_every_row_once():
    """The blocks hold rows 0..k-2 in order, each row's k-1-i lanes, at
    most _BLOCK lanes a block unless one row is longer."""
    for k in (2, 3, 12, BLOCK_K, metrics._BLOCK + 3):
        blocks = list(metrics._blocks(k))
        assert [i for rows, _ in blocks for i in rows] == [*range(k - 1)]
        for rows, bounds in blocks:
            assert bounds == [0, *accumulate(k - 1 - i for i in rows)]
            assert bounds[-1] <= metrics._BLOCK or len(rows) == 1
    assert len(list(metrics._blocks(BLOCK_K))) >= 3


@pytest.mark.parametrize("m", [7, 8, 33, 63])
def test_unit_block_scan_matches_the_per_pair_scan(m):
    """BLOCK_K items at lane widths 8, 16, 64 and 64: every field
    against min_pairwise over the DP (over the per-pair bit-vector
    distance, itself checked against the DP, past m = 8), with a pair
    repeated across the first block boundary."""
    rng = random.Random(m)
    items = random_items(rng, "ACGT", m, BLOCK_K)
    assert len(items) == BLOCK_K
    dp = functools.cache(
        dp_edit_distance if m <= 8 else metrics.edit_distance
    )
    assert_packed_scan_matches_dp(items, dp)
    (rows, _), (later, _) = list(metrics._blocks(BLOCK_K))[:2]
    items[later[0] + 1] = items[rows[-1]]
    assert_packed_scan_matches_dp(items, dp)


def test_weighted_block_scan_reading_one_symbol_or_several_per_step():
    """BLOCK_K items whose first three symbols are one symbol, so that
    at those steps every row of a block reads it, and at the others
    several: random dyadic tables, and one with a zero diagonal and a
    repeated pair in a middle row of a later block, the one pair at
    distance 0."""
    rng = random.Random(0x3B10C)
    m = 7
    tail = random_items(rng, "ACGT", m - 3, BLOCK_K)
    items = ["AAA" + x for x in tail]
    assert len(items) == BLOCK_K
    for top in (0.5, 1.5):
        costs = dyadic_cost_table(rng, "ACGT", top)
        assert_weighted_scan_matches(items, costs)
    rows = list(metrics._blocks(BLOCK_K))[1][0]
    i = rows[len(rows) // 2]
    items[i + 5] = items[i]
    zero = EditCostTable({("A", "C"): 0.25, ("G", "-"): 0.75})
    assert_weighted_scan_matches(items, zero)
    got = metrics.min_edit_pairwise(items, zero)
    assert (got.minimum, got.pair, got.count_at_minimum) == (0.0, (i, i + 5), 1)


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_weighted_block_scan_at_each_lane_width(width):
    """The lane-width-limit costs on BLOCK_K items: distances run to
    about half of each W-bit lane in every block."""
    rng = random.Random(0x1A7E + width)
    m = 7
    cost = lane_limit_cost(width, m)
    items = random_items(rng, CODON_ALPHABET, m, BLOCK_K)
    costs = uniform_costs(CODON_ALPHABET, cost)
    assert packed_width(items, costs) == width
    assert_weighted_scan_matches(items, costs)


def test_weighted_scan_goes_pair_by_pair_past_64_bit_lanes():
    """A table with B >= 2^63 and unequal lengths take the per-pair
    scan, with the same result as the packed one would give: that of
    the per-cell DP over exact decimals.  A 0.1 cost packs."""
    rng = random.Random(0xF10A7)
    items = random_items(rng, "ACGT", 6, 10)
    tenth = EditCostTable({("A", "C"): 0.1, ("G", "-"): 0.3})
    # insertions of 2^63, 2^66 at D = 8, so B is past 64-bit lanes
    wide = dyadic_cost_table(rng, "ACGT", 2 ** 63)
    ragged = items[:5] + [x[:3] for x in items[5:]]
    for costs, scanned, width in ((tenth, items, 16), (wide, items, None),
                                  (tenth, ragged, None)):
        assert packed_width(scanned, costs) == width
        assert_weighted_scan_matches(scanned, costs)
        want = metrics.min_pairwise(
            scanned, lambda a, b: dp_edit_distance(a, b, costs)
        )
        assert metrics.min_edit_pairwise(scanned, costs) == want


def test_cost_ratio_is_the_exact_decimal_in_lowest_terms():
    """A float reads as its repr, reduced: 8.0 is 8/1, not 80/10, so
    a table of 8.0 costs packs as tightly as one of 8s.  Ints stay
    exact past 2^53, where floats would round."""
    assert metrics._ratio(1e-05) == (1, 100_000)
    assert metrics._ratio(8.0) == (8, 1)
    assert metrics._ratio(0.125) == (1, 8)
    assert metrics._ratio(0.1) == (1, 10)
    assert metrics._ratio(2.5e20) == (250_000_000_000_000_000_000, 1)
    assert metrics._ratio(0.0) == (0, 1)
    assert metrics._ratio(2 ** 53 + 1) == (2 ** 53 + 1, 1)
    items = ["ACGTACG", "CAGTTGA", "GGGTACA"]
    # B = 15 * 8 = 120 < 2^7
    assert packed_width(items, uniform_costs("ACGT", 8.0)) == 8
    assert packed_width(items, uniform_costs("ACGT", 8)) == 8
    big = uniform_costs("ACGT", 2 ** 53 + 1)
    # three substitutions, summed exactly and rounded once
    three = metrics.edit_distance("AAA", "CCC", big)
    assert three == float(3 * (2 ** 53 + 1)) != 3 * float(2 ** 53 + 1)
    assert_weighted_scan_matches(items, big)


def test_scaled_costs_parse_each_distinct_cost_once():
    """A table's pairs share few costs, most the default 1.0: each
    distinct value and type is parsed once (8 and 8.0 apart, and 2**60
    apart from 2.0**60, which reads as 1152921504606847000), and the
    scaled costs are those of a parse per pair."""
    costs = EditCostTable({
        ("A", "C"): 8, ("C", "A"): 8.0, ("G", "T"): 2 ** 60,
        ("T", "G"): 2.0 ** 60, ("A", "-"): 0.1, ("-", "A"): 0.1,
        ("C", "G"): 1.0,
    })
    items = ["ACGT", "TGCA", "GATC"]
    metrics._ratio.cache_clear()
    denominator, scaled = metrics._scaled_costs(items, costs)
    pairs = [(a, b) for a in "ACGT-" for b in "ACGT-"]
    distinct = {(type(c), c) for c in (costs.cost(a, b) for a, b in pairs)}
    assert len(distinct) == 7
    assert metrics._ratio.cache_info().misses == len(distinct)
    parse = metrics._ratio.__wrapped__
    ratios = {key: parse(costs.cost(*key)) for key in pairs}
    assert denominator == math.lcm(*(q for _, q in ratios.values())) == 10
    assert scaled == {key: p * (denominator // q)
                      for key, (p, q) in ratios.items()}
    assert scaled["G", "T"] == 10 * 2 ** 60 != scaled["T", "G"]


def test_tenth_plus_fifth_is_three_tenths_on_both_routes():
    """0.1 + 0.2 is 0.30000000000000004 in floats; the scans sum the
    exact decimals and round once."""
    costs = EditCostTable({("A", "C"): 0.1, ("G", "T"): 0.2})
    assert metrics.edit_distance("AG", "CT", costs) == 0.3
    packed = ["AG", "CT", "GG"]
    ragged = packed + ["A"]
    assert packed_width(packed, costs) is not None
    assert packed_width(ragged, costs) is None
    for items in (packed, ragged):
        got = metrics.min_edit_pairwise(items, costs)
        assert (got.minimum, got.pair) == (0.3, (0, 1))


def test_min_nonzero_weights_match_pairwise_distance():
    """For a linear span, min nonzero weight equals min pairwise distance."""
    from dnacodes import ring64

    rng = random.Random(8)
    n = 3
    for _ in range(20):
        gens = [rng.randrange(1, 1 << (6 * n)) for _ in range(2)]
        span = {0}
        for g in gens:
            span |= {w ^ g for w in span}
        words = sorted(span)
        if len(words) < 2:
            continue
        wt = metrics.min_nonzero_hamming_weight(words, n, ring64.WORDS)
        pairwise = metrics.min_pairwise(
            words, lambda a, b: ring64.WORDS.word_hamming_weight(a ^ b, n)
        )
        assert wt == pairwise.minimum
        lt = metrics.min_nonzero_lee_weight(words, n)
        pairwise_lee = metrics.min_pairwise(
            words, lambda a, b: ring64.lee_weight(a ^ b)
        )
        assert lt == pairwise_lee.minimum
