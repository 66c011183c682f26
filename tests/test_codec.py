"""Range-coder container format, exact round trips, and bitrate tracking."""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fcmtune.codec import (
    MAGIC,
    VERSION,
    CodecError,
    CompressedContainer,
    _coding_table,
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


def test_compress_rejects_an_alphabet_beyond_the_header():
    ab = Alphabet(tuple(map(chr, range(256))))
    with pytest.raises(CodecError, match="max 255 symbols"):
        compress(SymbolSequence(ab, np.arange(256)), HyperParams(1, 0.5))


@pytest.mark.parametrize("fields", [
    dict(k=256), dict(k=-1), dict(length=-1), dict(length=2 ** 64),
    dict(alphabet=Alphabet(tuple(map(chr, range(256))))),
    dict(alphabet=Alphabet(("A", "\u0100"))),
], ids=["k256", "k-1", "length-1", "length2^64", "r256", "non-latin1"])
def test_to_bytes_rejects_fields_beyond_the_header(fields):
    c = CompressedContainer(**{**dict(k=1, alpha=0.5, alphabet=AB, length=3,
                                      payload=b"\x00" * 8), **fields})
    with pytest.raises(CodecError, match="header"):
        c.to_bytes()


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


def test_decompress_never_allocates_from_the_header_length():
    # T = 10^10 passes the length bound for 90,000 payload bytes; the decoder
    # grows its output as it decodes, so the payload runs out first
    payload = np.random.default_rng(41).integers(0, 256, size=90_000, dtype=np.uint8)
    c = CompressedContainer(k=2, alpha=0.5, alphabet=DNA, length=10**10,
                            payload=payload.tobytes())
    with pytest.raises(CodecError, match="truncated payload"):
        decompress(c)


def test_decompress_rejects_an_alphabet_beyond_the_header():
    ab = Alphabet(tuple(map(chr, range(256))))
    c = CompressedContainer(k=1, alpha=0.5, alphabet=ab, length=3, payload=b"\x00" * 8)
    with pytest.raises(CodecError, match="max 255 symbols"):
        decompress(c)


def test_length_bound_leaves_margin_on_a_long_constant_run():
    # a long constant run is the cheapest input per symbol; its payload
    # still holds 32 bits more than the header-length bound charges for T
    T = 150_000
    seq = parse_sequence("A" * T, alphabet=DNA)
    c = compress(seq, HyperParams(0, 0.001))
    assert T * -math.log2(1 - (DNA.r - 1) / (2**16 + DNA.r)) <= 8 * (len(c.payload) - 4)
    assert decompress(c) == seq


_FIELDS = ("magic", "version", "k", "alpha", "r", "alphabet", "payload")


def _field_span(field, r, size):
    """(start, stop) of a header field or the payload in a valid container."""
    return {"magic": (0, 4), "version": (4, 5), "k": (5, 6), "alpha": (6, 14),
            "r": (14, 15), "alphabet": (15, 15 + r), "payload": (23 + r, size)}[field]


@given(
    st.sampled_from(["AB", "ACGT", "ABCDE", "01234567"]),
    st.lists(st.integers(min_value=0, max_value=7), max_size=64),
    st.integers(min_value=0, max_value=5),
    st.sampled_from([0.01, 0.5, 1.0, 7.0]),
    st.integers(min_value=-64, max_value=64),
    st.lists(st.tuples(st.sampled_from(_FIELDS), st.integers(0, 63), st.integers(0, 255)),
             max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_mutated_container_decodes_t_symbols_or_raises_codec_error(
        symbols, codes, k, alpha, shift, edits):
    ab = Alphabet.from_string(symbols)
    seq = SymbolSequence(ab, [c % ab.r for c in codes])
    blob = bytearray(compress_to_bytes(seq, HyperParams(k, alpha)))
    struct.pack_into("<Q", blob, 15 + ab.r, max(0, seq.T + shift))
    for field, offset, value in edits:
        start, stop = _field_span(field, ab.r, len(blob))
        if stop > start:
            blob[start + offset % (stop - start)] = value
    mutant = bytes(blob)
    try:
        length = CompressedContainer.from_bytes(mutant).length
    except CodecError:
        length = 0
    assume(length <= 10**4)
    try:
        back = decompress_from_bytes(mutant)
    except CodecError:
        return
    assert back.T == length


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


@pytest.mark.parametrize("symbols", [
    "AB", "ABC", "ABCDE", "01234567",
    # latin-1 alphabets up to the header's 255 symbols
    "".join(map(chr, range(0xC0, 0xD4))), "".join(map(chr, range(0xC0, 0x100))),
    "".join(map(chr, range(1, 0x100))),
], ids=lambda symbols: symbols if len(symbols) <= 8 else f"latin1-r{len(symbols)}")
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


@pytest.mark.parametrize("alpha", [np.float32(0.1), np.float64(0.3), 2], ids=repr)
def test_round_trip_numpy_and_integer_alphas(alpha):
    # the model runs on the header's double, whatever type alpha came in as
    seq = generate(HyperParams(2, 0.3), 3000, seed=3)
    c = compress(seq, HyperParams(2, alpha))
    assert type(c.alpha) is float
    assert decompress(c) == seq
    assert decompress_from_bytes(c.to_bytes()) == seq


def test_mismatched_parameters_still_invert():
    # coding parameters need not match the source: any (k, alpha) is lossless
    seq = generate(HyperParams(3, 0.5), 2_000, seed=29)
    for params in (HyperParams(0, 1.0), HyperParams(1, 0.01), HyperParams(7, 5.0)):
        _roundtrip(seq, params)


# ---------------------------------------------------------------------------
# format v1 bytes are pinned: SHA-256 of containers made by the scalar
# per-symbol encoder that the vectorized model replaced

ABCD = Alphabet.from_string("ABCD")

_PINNED = [
    # (k, alpha, T, alphabet, seed, sha256 of compress(...).to_bytes())
    (0, 0.4, 1000, ABCD, 3, "017446b5e68a67760c3ea95c49d7d04137e6b934ee3e85bbf41aa9032c7650a3"),
    (3, 0.4, 20_000, ABCD, 11, "753e8cb7dea2db99d645fe168faae5d8de9fe85b58b9449e33ee55ac5cbc7093"),
    (3, 5.0, 7, AB, 2, "af7cf806b2fcbe8f005e89f2c59edd16fafb526ca4d241cd91f34c0f20bca703"),
    (3, 0.01, 1, ABCD, 4, "878a7646463f60fe8acb9576f9cc4c4f568da42c2ffc90703fe1355db0b2099a"),
    (8, 0.01, 1000, AB, 5, "9c93f660b78aaaec25b229435ea6103c8a135f30061b845071fb32dde528b9e9"),
    (8, 0.01, 20_000, ABCD, 6, "c1b2c1d5f336a9a566071a07a07e70a3fb996ce1c87e83239787a4f14fba6d69"),
    (40, 5.0, 1000, ABCD, 7, "a90bc02414c6051a53ba7fbc6f41b6e6fe3b53044ddd09105f7970d4d919c0fe"),
    (40, 0.4, 20_000, AB, 8, "ef0cdbc580038b2e4888d680ead66102544ff927acfa507c5002f386e0fda133"),
]


def _sha(container):
    return hashlib.sha256(container.to_bytes()).hexdigest()


@pytest.mark.parametrize("k,alpha,T,ab,seed,digest", _PINNED,
                         ids=[f"k{p[0]}-a{p[1]}-T{p[2]}-r{p[3].r}" for p in _PINNED])
def test_container_bytes_are_pinned_for_generated_sequences(k, alpha, T, ab, seed, digest):
    params = HyperParams(k, alpha)
    assert _sha(compress(generate(params, T, seed, ab), params)) == digest


def test_container_bytes_are_pinned_for_a_long_constant_run():
    seq = SymbolSequence(DNA, np.zeros(50_000, dtype=np.int64))
    assert _sha(compress(seq, HyperParams(2, 0.01))) == (
        "4d5cd89f4717b90e9c845dc0e628bdb4a2340af3b2c421ed6b173d3d66ab4307")


def test_container_bytes_are_pinned_for_an_empty_sequence():
    seq = SymbolSequence(DNA, np.empty(0, dtype=np.int64))
    assert _sha(compress(seq, HyperParams(3, 0.4))) == (
        "295118f25d2996998ad62624cdc47c9e3c30b313d1a6b845a30f259f6baf511f")


def test_container_bytes_are_pinned_for_twenty_symbols():
    ab = Alphabet.from_string("abcdefghijklmnopqrst")
    seq = SymbolSequence(ab, np.random.default_rng(9).integers(0, 20, size=3000))
    assert _sha(compress(seq, HyperParams(1, 0.05))) == (
        "9ce5007814e32e768801a52b01ab6242f553720ae10d36a4767a5a4054133383")


def test_container_bytes_are_pinned_for_mismatched_parameters():
    seq = generate(HyperParams(3, 0.4), 2000, 12)
    assert _sha(compress(seq, HyperParams(5, 100.0))) == (
        "8fdc8cd44d4ed96978304166d4a0d1fccfca8f4fe2b62950c91d5b83c6b9b441")


def _stepped_table(data, r, k, alpha):
    """(cum, freq, total) per position from the scalar adaptive model: the
    first k uniform, then max(1, round((n + alpha) * scale)) of each
    context's counts before it, scale = 2^16 capped so the total stays
    near 2^16."""
    counts, rows = {}, []
    for t, s in enumerate(data.tolist()):
        if t < k:
            rows.append((s, 1, r))
            continue
        row = counts.setdefault(tuple(data[t - k:t].tolist()), [0] * r)
        mass = sum(row) + r * alpha
        scale = 2.0**16 if mass * 2**16 <= 2**16 else 2**16 / mass
        f = [max(1, int(round((n + alpha) * scale))) for n in row]
        rows.append((sum(f[:s]), f[s], sum(f)))
        row[s] += 1
    return [list(col) for col in zip(*rows)] if rows else [[], [], []]


@st.composite
def _coded_sequences(draw):
    r = draw(st.integers(min_value=2, max_value=6))
    T = draw(st.integers(min_value=0, max_value=500))
    if draw(st.booleans()):  # near-constant: one symbol with a few others
        data = np.zeros(T, dtype=np.int64)
        for t in draw(st.lists(st.integers(0, max(T - 1, 0)), max_size=4)):
            if T:
                data[t] = draw(st.integers(0, r - 1))
    else:
        data = np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, r, size=T)
    return r, data


@given(_coded_sequences(), st.integers(min_value=0, max_value=6),
       st.floats(min_value=1e-3, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_coding_table_equals_the_stepped_coder_model(case, k, alpha):
    r, data = case
    table = [col.tolist() for col in _coding_table(data, r, k, alpha)]
    assert table == _stepped_table(data, r, k, alpha)
    seq = SymbolSequence(Alphabet(tuple("ABCDEF"[:r])), data)
    assert decompress(compress(seq, HyperParams(k, alpha))) == seq


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
