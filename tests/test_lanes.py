import random
import sys
from array import array

import pytest

from dnacodes import codons, cyclic, lanes, ring64, skew


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


# lane * n = 6, 42, 60 (r64) and 4, 16, 64 (f2v): up to a full 64-bit slot
_TEXT_CODES = [cyclic.CyclicCodeR(n, ()) for n in (1, 7, 10)] + [
    skew.SkewCode(n, [(skew.ONE,)]) for n in (2, 8, 32)
]


@pytest.mark.parametrize("code", _TEXT_CODES, ids=lambda c: f"{c.lanes.lane}x{c.n}")
def test_chunk_texts_match_the_per_word_encoder(code):
    """LinearCode.dna_texts (lanes.chunk_texts on packed words) against
    the per-word encoders, on both sides of one and two chunks."""
    n, lane = code.n, code.lanes.lane
    encode = (codons.canonical_table().encode_word if lane == 6
              else skew.word_to_dna)
    rng = random.Random(lane * n)
    top = code.lanes.full_mask(n)
    for size in (1, 4095, 4096, 4097, 8193):
        words = array("Q", (rng.getrandbits(lane * n) for _ in range(size)))
        words[0], words[-1] = top, 0  # every lane at its largest, and none
        texts = list(code.dna_texts(words))
        assert len(texts) == -(-size // lanes._CHUNK)
        assert all(text.endswith("\n") for text in texts)
        assert "".join(texts).splitlines() == [encode(w, n) for w in words]
        assert [code.to_dna(w, n) for w in words[:64]] == [
            encode(w, n) for w in words[:64]]


def test_dna_texts_of_words_past_64_bits_go_word_by_word():
    code = cyclic.CyclicCodeR(11, ())  # 66-bit words: Echelon.span gives a list
    rng = random.Random(11)
    words = [rng.getrandbits(66) for _ in range(5)]
    assert not lanes.fits64(words, 11, 6)
    encode = codons.canonical_table().encode_word
    assert list(code.dna_texts(words)) == [f"{encode(w, 11)}\n" for w in words]
