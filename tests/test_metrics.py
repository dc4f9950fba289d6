"""Edit distance, Hamming distance, and pairwise-minimum scans."""

import functools
import random

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
    """The hoisted DP adds and compares in the per-cell DP's order, so the
    float results are equal, not merely close.  The tables have
    fractional costs, non-zero diagonal entries and symbols they omit."""
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


def test_min_pairwise_early_exit_is_a_sound_upper_bound():
    rng = random.Random(404)
    for _ in range(50):
        items = [
            tuple(rng.choice("ABCD") for _ in range(4)) for _ in range(12)
        ]
        exact = metrics.min_pairwise(items, metrics.edit_distance)
        bounded = metrics.min_pairwise(
            items, metrics.edit_distance, upper_bound=3
        )
        assert bounded.minimum >= exact.minimum
        assert exact.pairs == 12 * 11 // 2
        if bounded.exhaustive:
            assert bounded.minimum == exact.minimum
        else:
            # the scan stopped because it had already certified the bound
            assert bounded.minimum <= 3


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


def assert_packed_scan_matches_dp(items, upper_bounds, dp):
    """dp: dp_edit_distance, cached across the calls of one test."""
    for ub in upper_bounds:
        want = metrics.min_pairwise(items, dp, ub)
        assert metrics.min_edit_pairwise(items, upper_bound=ub) == want, ub


@pytest.mark.parametrize("m", [1, 7, 8, 15, 16, 31, 32, 33, 63, 64])
@pytest.mark.parametrize("k", [2, 3, 12])
def test_min_edit_pairwise_matches_the_dp_at_lane_edges(m, k):
    """Every field of the packed scan against min_pairwise over the
    per-cell DP, at the lane-width edges (m = 64 takes the per-pair
    path), over strings, codon tuples and a one-symbol alphabet, with
    a repeated item and with bounds that stop after the first row."""
    rng = random.Random(1000 * m + k)
    dp = functools.cache(dp_edit_distance)
    for alphabet in ("ACGT", CODON_ALPHABET):
        items = random_items(rng, alphabet, m, k)
        assert_packed_scan_matches_dp(items, (None, 0, m // 2, m), dp)
        assert_packed_scan_matches_dp(items + items[:1], (None, 0), dp)
    assert_packed_scan_matches_dp(["A" * m] * k, (None, 0), dp)


def test_min_edit_pairwise_unequal_lengths_and_weighted_costs():
    """Unequal lengths (pair by pair) and integer cost tables (the
    packed min-plus scan): same result as min_pairwise over
    edit_distance, with and without a bound."""
    rng = random.Random(0x5CA7)
    costs = random_cost_table(rng, "ACGT")
    for _ in range(20):
        items = [
            "".join(rng.choice("ACGT") for _ in range(rng.randrange(9)))
            for _ in range(rng.randrange(2, 14))
        ]
        assert_packed_scan_matches_dp(items, (None, 0, 2), dp_edit_distance)
        fixed = [x.ljust(8, "A") for x in items]
        for table, ub in ((costs, None), (costs, 3.0), (None, 2)):
            want = metrics.min_pairwise(
                fixed, lambda a, b: metrics.edit_distance(a, b, table), ub
            )
            assert metrics.min_edit_pairwise(fixed, table, ub) == want


@pytest.mark.parametrize("alphabet, m", [(CODON_ALPHABET, 7), ("ACGT", 21)])
def test_min_edit_pairwise_stops_after_the_row_that_meets_the_bound(
    alphabet, m
):
    """About 60 distinct items with one repeated pair: at bound 0 the
    scan stops after the repeat's row, and stopping at row k - 2 still
    scans every pair."""
    rng = random.Random(m)
    base = random_items(rng, alphabet, m, 60)
    k = len(base)
    assert k == 60
    dp = functools.cache(dp_edit_distance)
    assert_packed_scan_matches_dp(base, (None, 1, 2, 3), dp)
    for i, j, rows in ((0, 30, 1), (29, 30, 30), (k - 2, k - 1, k - 1)):
        items = list(base)
        items[j] = items[i]
        got = metrics.min_edit_pairwise(items, upper_bound=0)
        assert (got.minimum, got.pair, got.count_at_minimum) == (0, (i, j), 1)
        assert got.pairs == sum(k - 1 - r for r in range(rows))
        assert got.exhaustive == (rows == k - 1)
        assert_packed_scan_matches_dp(items, (None, 0), dp)


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


def assert_weighted_scan_matches(items, costs, upper_bounds):
    for ub in upper_bounds:
        want = metrics.min_pairwise(
            items, lambda a, b: metrics.edit_distance(a, b, costs), ub
        )
        got = metrics.min_edit_pairwise(items, costs, ub)
        assert got == want, ub
        assert type(got.minimum) is float and type(got.maximum) is float


@pytest.mark.parametrize("width, next_width", [
    (8, 16), (16, 32), (32, 64), (64, None),
])
def test_weighted_packed_scan_at_each_lane_width_limit(width, next_width):
    """Every cost c but the diagonal's zeros, with B = (2m + 1)c the
    largest below 2^(W-1) (below 2^53 for W = 64), so that distances
    run to about half of each W-bit lane; at c + 1 the scan takes the
    next width, or the per-pair scan past 64 bits.  Strings and codon
    tuples, with bounds that stop after the first row or never."""
    rng = random.Random(width)
    m = 7
    c = ((1 << min(width - 1, 53)) - 1) // (2 * m + 1)
    for alphabet in ("ACGT", CODON_ALPHABET):
        everything = list(alphabet) + ["-"]
        for cost, want in ((c, width), (c + 1, next_width)):
            costs = EditCostTable({
                (a, b): float(cost)
                for a in everything for b in everything if a != b
            })
            for k in (2, 3, 12):
                items = random_items(rng, alphabet, m, k)
                exact = metrics._scaled_costs(items, m, costs)
                assert (exact[2] if exact else None) == want
                assert_weighted_scan_matches(
                    items, costs, (None, 0.0, float(cost * m))
                )
                got = metrics.min_edit_pairwise(items, costs, cost * m)
                assert got.pairs == k - 1 and got.exhaustive == (k == 2)


def test_weighted_packed_scan_matches_the_dp_on_random_tables():
    rng = random.Random(0x125)
    for _ in range(40):
        alphabet = rng.choice(("ACGT", "AC", CODON_ALPHABET))
        costs = dyadic_cost_table(rng, alphabet, 0.125 * rng.randrange(17))
        m = rng.randrange(1, 10)
        items = random_items(rng, alphabet, m, rng.randrange(2, 15))
        if len(items) < 2:
            continue
        assert metrics._scaled_costs(items, m, costs) is not None
        assert_weighted_scan_matches(items, costs, (None, 0.5, 2.0))


@pytest.mark.parametrize("alphabet, m", [(CODON_ALPHABET, 7), ("ACGT", 21)])
def test_weighted_packed_scan_stops_after_the_repeated_pair(alphabet, m):
    """With a zero diagonal a repeated item is at distance 0.0, and a
    bound of 0 stops after the row of its first copy."""
    rng = random.Random(m)
    entries = {(a, a): 0.0 for a in alphabet}
    entries.update({(a, "-"): 0.75 for a in alphabet})
    entries[alphabet[0], alphabet[1]] = 0.25
    costs = EditCostTable(entries)
    base = random_items(rng, alphabet, m, 40)
    k = len(base)
    for i, j in ((0, 20), (19, 20), (k - 2, k - 1)):
        items = list(base)
        items[j] = items[i]
        got = metrics.min_edit_pairwise(items, costs, upper_bound=0)
        assert (got.minimum, got.pair, got.count_at_minimum) == (0.0, (i, j), 1)
        assert got.pairs == sum(k - 1 - r for r in range(i + 1))
        assert_weighted_scan_matches(items, costs, (None, 0, 1.5))


def test_weighted_scan_falls_back_where_float_sums_may_round():
    """A 0.1 cost, a cost range too wide for 64-bit lanes and unequal
    lengths take the per-pair scan, with the same result."""
    rng = random.Random(0xF10A7)
    items = random_items(rng, "ACGT", 6, 10)
    tenth = EditCostTable({("A", "C"): 0.1, ("G", "-"): 0.3})
    wide = dyadic_cost_table(rng, "ACGT", 2.0 ** 50)
    for costs in (tenth, wide):
        assert metrics._scaled_costs(items, 6, costs) is None
        assert_weighted_scan_matches(items, costs, (None, 0.1, 1.0))
    ragged = items[:5] + [x[:3] for x in items[5:]]
    assert_weighted_scan_matches(
        ragged, dyadic_cost_table(rng, "ACGT", 1.0), (None, 0.5)
    )


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
