"""Range-coder container format, exact round trips, and bitrate tracking."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmtune.codec import (
    MAGIC,
    VERSION,
    CodecError,
    CompressedContainer,
    compress,
    compress_to_bytes,
    decompress,
    decompress_from_bytes,
)
from fcmtune.fcm import HyperParams, bitrate, generate
from fcmtune.sequences import Alphabet, SymbolSequence, parse_sequence

AB = Alphabet.from_string("AB")
DNA = Alphabet.from_string("ACGT")


def _roundtrip(seq, params):
    blob = compress_to_bytes(seq, params)
    back = decompress_from_bytes(blob)
    assert back == seq
    return blob


# ---------------------------------------------------------------------------
# container format


def test_container_layout():
    c = CompressedContainer(k=3, alpha=0.5, alphabet=DNA, length=7, payload=b"xyz")
    blob = c.to_bytes()
    assert blob[:4] == MAGIC
    assert blob[4] == VERSION
    assert blob[5] == 3
    assert struct.unpack_from("<d", blob, 6)[0] == 0.5
    assert blob[14] == 4
    assert blob[15:19] == b"ACGT"
    assert struct.unpack_from("<Q", blob, 19)[0] == 7
    assert blob[27:] == b"xyz"


def test_container_round_trip():
    c = CompressedContainer(k=2, alpha=0.25, alphabet=AB, length=100, payload=b"\x00\x01")
    back = CompressedContainer.from_bytes(c.to_bytes())
    assert back == c
    assert back.payload_bits == 16


def test_container_rejects_truncated_header():
    c = CompressedContainer(k=1, alpha=1.0, alphabet=AB, length=4, payload=b"")
    blob = c.to_bytes()
    for cut in (0, 4, 10, len(blob) - 1):
        with pytest.raises(CodecError, match="truncated"):
            CompressedContainer.from_bytes(blob[:cut])


def test_container_rejects_bad_magic():
    blob = bytearray(compress_to_bytes(parse_sequence("ABAB", alphabet=AB),
                                       HyperParams(1, 0.5)))
    blob[0] = ord("X")
    with pytest.raises(CodecError, match="magic"):
        CompressedContainer.from_bytes(bytes(blob))


def test_container_rejects_unknown_version():
    blob = bytearray(compress_to_bytes(parse_sequence("ABAB", alphabet=AB),
                                       HyperParams(1, 0.5)))
    blob[4] = 9
    with pytest.raises(CodecError, match="version 9"):
        CompressedContainer.from_bytes(bytes(blob))


# ---------------------------------------------------------------------------
# compression argument validation


def test_compress_rejects_alpha_zero_with_guidance():
    seq = parse_sequence("ABAB", alphabet=AB)
    with pytest.raises(CodecError, match="epsilon"):
        compress(seq, HyperParams(1, 0.0))


def test_compress_rejects_oversized_k():
    seq = parse_sequence("ABAB", alphabet=AB)
    with pytest.raises(CodecError, match="max 255"):
        compress(seq, HyperParams(256, 0.5))


def test_compress_rejects_non_latin1_alphabet():
    seq = SymbolSequence(Alphabet(symbols=("α", "β")), [0, 1, 0])
    with pytest.raises(CodecError, match="latin-1"):
        compress(seq, HyperParams(1, 0.5))


def test_decompress_rejects_nonpositive_alpha_container():
    c = CompressedContainer(k=1, alpha=0.0, alphabet=AB, length=3, payload=b"\x00" * 8)
    with pytest.raises(CodecError):
        decompress(c)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_decompress_rejects_non_finite_alpha_header(alpha):
    blob = bytearray(compress_to_bytes(parse_sequence("ABBA", alphabet=AB),
                                       HyperParams(1, 0.5)))
    struct.pack_into("<d", blob, 6, alpha)
    with pytest.raises(CodecError, match="finite"):
        decompress_from_bytes(bytes(blob))


@pytest.mark.parametrize("symbols", [b"A", b"AA"])
def test_container_rejects_bad_header_alphabet(symbols):
    head = struct.pack("<4sBBdB", MAGIC, VERSION, 1, 0.5, len(symbols))
    blob = head + symbols + struct.pack("<Q", 0)
    with pytest.raises(CodecError, match="alphabet"):
        CompressedContainer.from_bytes(blob)


@pytest.mark.parametrize("text", ["", "ABBABAAB" * 20], ids=["T0", "T160"])
def test_decompress_rejects_trailing_bytes(text):
    blob = compress_to_bytes(parse_sequence(text, alphabet=AB),
                             HyperParams(2, 0.5))
    with pytest.raises(CodecError, match="trailing"):
        decompress_from_bytes(blob + b"\x00" * 8)


@pytest.mark.parametrize("length", [2**40, 2**63], ids=["2^40", "2^63"])
def test_decompress_rejects_length_beyond_payload(length):
    blob = bytearray(compress_to_bytes(parse_sequence("ABBA" * 8, alphabet=AB),
                                       HyperParams(1, 0.5)))
    struct.pack_into("<Q", blob, 17, length)
    with pytest.raises(CodecError, match="cannot fit"):
        decompress_from_bytes(bytes(blob))


def test_length_bound_leaves_margin_on_a_long_constant_run():
    # a long constant run is the cheapest input per symbol; its payload
    # still holds 32 bits more than the header-length bound charges for T
    T = 150_000
    seq = parse_sequence("A" * T, alphabet=DNA)
    c = compress(seq, HyperParams(0, 0.001))
    assert T * -math.log2(1 - (DNA.r - 1) / (2**16 + DNA.r)) <= 8 * (len(c.payload) - 4)
    assert decompress(c) == seq


# ---------------------------------------------------------------------------
# round trips


def test_round_trip_empty_sequence():
    seq = SymbolSequence(DNA, np.empty(0, dtype=np.int64))
    c = compress(seq, HyperParams(2, 0.5))
    assert c.payload == b""
    assert c.length == 0
    assert decompress(c) == seq


def test_round_trip_shorter_than_context():
    seq = parse_sequence("AC", alphabet=DNA)
    _roundtrip(seq, HyperParams(8, 1.0))


def test_round_trip_k0():
    seq = parse_sequence("ACGTGTACAGTC", alphabet=DNA)
    _roundtrip(seq, HyperParams(0, 0.7))


def test_round_trip_single_symbol():
    seq = parse_sequence("G", alphabet=DNA)
    _roundtrip(seq, HyperParams(0, 1.0))
    _roundtrip(seq, HyperParams(4, 0.01))


@pytest.mark.parametrize("k", [0, 1, 2, 5])
@pytest.mark.parametrize("alpha", [0.01, 0.5, 1.0, 10.0])
def test_round_trip_generated(k, alpha):
    seq = generate(HyperParams(k, max(alpha, 0.1)), 1500, seed=17)
    _roundtrip(seq, HyperParams(k, alpha))


def test_round_trip_order_40():
    seq = generate(HyperParams(40, 0.5), 2000, seed=5)
    _roundtrip(seq, HyperParams(40, 0.5))


@pytest.mark.parametrize("symbols", ["AB", "ABC", "ABCDE", "01234567"])
def test_round_trip_other_alphabet_sizes(symbols):
    ab = Alphabet.from_string(symbols)
    rng = np.random.default_rng(23)
    seq = SymbolSequence(ab, rng.integers(0, ab.r, size=800))
    _roundtrip(seq, HyperParams(2, 0.4))


@given(
    st.text(alphabet="ACGT", min_size=1, max_size=300),
    st.integers(min_value=0, max_value=6),
    st.sampled_from([0.01, 0.1, 0.5, 1.0, 3.0]),
)
@settings(max_examples=80, deadline=None)
def test_round_trip_property(text, k, alpha):
    seq = parse_sequence(text, alphabet=DNA)
    _roundtrip(seq, HyperParams(k, alpha))


def test_mismatched_parameters_still_invert():
    # coding parameters need not match the source: any (k, alpha) is lossless
    seq = generate(HyperParams(3, 0.5), 2_000, seed=29)
    for params in (HyperParams(0, 1.0), HyperParams(1, 0.01), HyperParams(7, 5.0)):
        _roundtrip(seq, params)


# ---------------------------------------------------------------------------
# the payload tracks the theoretical bitrate


@pytest.mark.parametrize("k,alpha", [(0, 1.0), (1, 0.5), (2, 0.1), (3, 0.97)])
def test_payload_tracks_theoretical_bitrate(k, alpha):
    seq = generate(HyperParams(k, max(alpha, 0.1)), 20_000, seed=31)
    c = compress(seq, HyperParams(k, alpha))
    actual = c.payload_bits / seq.T
    theory = bitrate(seq, HyperParams(k, alpha)).bits_per_symbol
    # 6 bytes of coder overhead cost 0.0024 bps here; model quantization
    # stays near 0.001 bps
    assert actual >= theory - 1e-9
    assert actual - theory < 0.02


def test_compression_beats_raw_on_structured_input():
    seq = generate(HyperParams(2, 0.05), 10_000, seed=37)
    params = HyperParams(2, 0.05)
    c = compress(seq, params)
    assert c.payload_bits / seq.T < 2.0  # raw cost is log2(4) = 2 bps
