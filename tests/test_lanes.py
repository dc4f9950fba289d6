import random
import sys

import pytest

from dnacodes import lanes, ring64, skew


@pytest.mark.parametrize("fits", [True, False], ids=["fits64", "over64"])
@pytest.mark.parametrize(
    "words", [ring64.WORDS, skew.WORDS], ids=["r64", "f2v"]
)
def test_lane_operations_match_tuple_oracles(words, fits):
    """Every packed-word operation against its coordinate-tuple form, at
    lengths whose words fit one 64-bit slot (where reverse_lanes also
    reverses a batch of slots at once) and at longer ones."""
    rng = random.Random(2 * words.lane + fits)
    size, lane = 1 << words.lane, words.lane
    border = 64 // lane  # the longest word that fits 64 bits
    lengths = (1, 2, 3, border - 1, border) if fits else (
        border + 1, border + 2, 2 * border + 1
    )
    for n in lengths:
        for _ in range(30):
            coords = tuple(rng.randrange(size) for _ in range(n))
            w = words.pack_word(coords, n)
            assert w == words.pack_word(coords) < 1 << lane * n
            assert words.unpack_word(w, n) == coords
            assert words.full_mask(n) == words.pack_word([size - 1] * n)
            k = rng.randrange(n + 1)
            rotated = coords[n - k :] + coords[: n - k]
            assert words.unpack_word(words.word_shift(w, n, k), n) == rotated
            assert words.word_shift(w, n) == words.word_shift(w, n, 1)
            rev = tuple(reversed(coords))
            rc = tuple(c ^ words.complement for c in rev)
            assert words.unpack_word(words.word_reverse(w, n), n) == rev
            assert words.unpack_word(words.word_complement(w, n), n) == tuple(
                c ^ words.complement for c in coords
            )
            assert words.unpack_word(words.word_reverse_complement(w, n), n) == rc
            assert words.word_reverse(words.word_reverse(w, n), n) == w
            assert words.word_reverse_complement(
                words.word_reverse_complement(w, n), n
            ) == w
            assert words.word_hamming_weight(w, n) == sum(1 for c in coords if c)
            assert words.word_str(w, n) == ",".join(
                words.symbols[c] for c in coords
            )
        assert words.complement_word(n) == words.pack_word([words.complement] * n)
        with pytest.raises(ValueError):
            words.pack_word([0] * (n - 1) + [size])
        with pytest.raises(ValueError):
            words.pack_word([0] * n, n + 1)
        if fits:
            # k words 64 bits apart, as an array('Q') chunk reads
            batch = [rng.randrange(1 << lane * n) for _ in range(5)]
            order = sys.byteorder
            packed = b"".join(x.to_bytes(8, order) for x in batch)
            ones = int.from_bytes((1).to_bytes(8, order) * len(batch), order)
            out = lanes.reverse_lanes(
                int.from_bytes(packed, order), n, lane, ones
            ).to_bytes(len(packed), order)
            assert [
                int.from_bytes(out[8 * i : 8 * i + 8], order)
                for i in range(len(batch))
            ] == [words.word_reverse(x, n) for x in batch]
