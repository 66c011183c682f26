"""Entropy coding of symbol sequences with the adaptive FCM.

A carry-correct binary range coder (64-bit low, 32-bit range, byte-wise
renormalization) is driven by integer frequencies derived from the same
adaptive count state the bitrate replay uses, so the compressed size tracks
the theoretical bitrate to within coder overhead and frequency quantization.
The encoder knows the whole sequence and computes every position's
frequencies in one numpy pass over the order-k contexts of the n-gram walk;
the decoder learns each symbol only as it decodes it, so ``_decode`` steps
the same model symbol by symbol, one count row per context seen.
The container format is self-contained: (k, alpha, alphabet, T) travel in
the header and decompression needs nothing else.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._ngrams import walk
from .fcm import HyperParams
from .sequences import Alphabet, SequenceError, SymbolSequence

MAGIC = b"FCM1"
VERSION = 1

# frequency scale; totals are kept <= 2^16 + r so range // total stays
# >= ~2^8 after renormalization at 2^24, keeping integer-division rate loss
# near 0.001 bps
_FREQ_SCALE = 1 << 16
_TOTAL_CAP = 1 << 16
_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF
_CHUNK = 1 << 12  # positions the encoder turns into Python ints at a time


class CodecError(Exception):
    """Raised for malformed containers or unsupported coder parameters."""


@dataclass(frozen=True)
class CompressedContainer:
    """A compressed sequence plus the header needed to invert it."""

    k: int
    alpha: float
    alphabet: Alphabet
    length: int
    payload: bytes

    @property
    def payload_bits(self) -> int:
        return 8 * len(self.payload)

    def to_bytes(self) -> bytes:
        """The FCM1 bytes; CodecError when a field does not fit the header."""
        try:
            symbols = "".join(self.alphabet.symbols).encode("latin-1")
            head = struct.pack("<4sBBdB", MAGIC, VERSION, self.k, self.alpha,
                               self.alphabet.r)
            length = struct.pack("<Q", self.length)
        except (struct.error, UnicodeEncodeError) as exc:
            raise CodecError(f"container does not fit the FCM1 header: {exc}") from None
        return head + symbols + length + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompressedContainer":
        fixed = struct.calcsize("<4sBBdB")
        if len(data) < fixed:
            raise CodecError("truncated header")
        magic, version, k, alpha, r = struct.unpack_from("<4sBBdB", data)
        if magic != MAGIC:
            raise CodecError("bad magic")
        if version != VERSION:
            raise CodecError(f"unsupported version {version}")
        off = fixed
        if len(data) < off + r + 8:
            raise CodecError("truncated header")
        symbols = data[off:off + r].decode("latin-1")
        off += r
        (length,) = struct.unpack_from("<Q", data, off)
        off += 8
        try:
            alphabet = Alphabet.from_string(symbols)
        except SequenceError as exc:
            raise CodecError(f"bad header alphabet: {exc}") from None
        return cls(k=k, alpha=alpha, alphabet=alphabet, length=length,
                   payload=data[off:])


def _encode(cums: np.ndarray, freqs: np.ndarray, totals: np.ndarray) -> bytes:
    """LZMA-style range encoding of (cum, freq, total) triples.

    The output starts with a dummy byte (the initial cache). A byte 0xFF
    is held back while a carry out of ``low`` may still raise it. The
    triples become Python ints one chunk at a time, which keeps the
    encoder's memory near that of the arrays.
    """
    low, rng, cache, pending, out = 0, _MASK32, 0, 1, bytearray()
    for lo in range(0, cums.size, _CHUNK):
        chunk = (a[lo:lo + _CHUNK].tolist() for a in (cums, freqs, totals))
        for cum, freq, total in zip(*chunk):
            unit = rng // total
            low += unit * cum
            rng = unit * freq
            while rng < _TOP:  # shift the top byte of low out
                rng <<= 8
                if low < 0xFF000000 or low > _MASK32:
                    carry = low >> 32
                    out.append((cache + carry) & 0xFF)
                    out += bytes([(0xFF + carry) & 0xFF]) * (pending - 1)
                    cache, pending = (low >> 24) & 0xFF, 0
                pending += 1
                low = (low << 8) & _MASK32
    # the five flushing shifts: the cache and held bytes, then low's 4 bytes
    carry = low >> 32
    out.append((cache + carry) & 0xFF)
    out += bytes([(0xFF + carry) & 0xFF]) * (pending - 1)
    return bytes(out + (low & _MASK32).to_bytes(4, "big"))


def _decode(payload: bytes, T: int, k: int, alpha: float, r: int) -> bytearray:
    """Invert ``_encode``, its loop mirrored with the model in locals.

    It steps the model ``_coding_table`` charges as it learns each symbol:
    the first min(k, T) uniform, the others by the same float expressions
    from their context's count row (round of a float is an int, half to even
    as np.rint). The output grows as symbols are decoded, so a header T the
    payload cannot hold ends in "truncated payload" and is never allocated.
    """
    pos = 5 if T else 0
    if len(payload) < pos:
        raise CodecError("truncated payload")
    code, rng = int.from_bytes(payload[:pos], "big") & _MASK32, _MASK32
    out, rows, uniform = bytearray(), {}, [1] * r
    ctx, rk, ra = 0, r ** k, r * alpha
    for t in range(T):
        if t < k:
            row, f, total = None, uniform, r
        else:
            row = rows.get(ctx)
            if row is None:
                row = rows[ctx] = [0] * r
            mass = sum(row) + ra
            scale = _TOTAL_CAP / mass if mass * _FREQ_SCALE > _TOTAL_CAP else float(_FREQ_SCALE)
            f = [max(1, round((n + alpha) * scale)) for n in row]
            total = sum(f)
        unit = rng // total
        target = code // unit
        if target >= total:
            target = total - 1
        s = cum = 0
        while cum + f[s] <= target:
            cum += f[s]
            s += 1
        code -= unit * cum
        rng = unit * f[s]
        while rng < _TOP:  # shift the next payload byte into code
            if pos >= len(payload):
                raise CodecError("truncated payload")
            code = ((code << 8) | payload[pos]) & _MASK32
            rng <<= 8
            pos += 1
        out.append(s)
        if row is not None:
            row[s] += 1
        ctx = (ctx * r + s) % rk
    if pos != len(payload):
        raise CodecError("trailing bytes after the payload")
    return out


def _coding_table(data: np.ndarray, r: int, k: int, alpha: float):
    """(cum, freq, total) of every position under the adaptive model.

    The first min(k, T) positions are uniform (cum = symbol, freq = 1,
    total = r). Every later symbol s is charged the frequencies
    max(1, round((n + alpha) * scale)) of the counts n its order-k context
    has seen before it, with scale = 2^16, reduced proportionally when the
    context mass would push the total past 2^16 (the coder needs
    total << 2^24 or the range division gets lossy). Positions are taken in
    walk level k's order, grouped by context; a position's row sum is the
    level's ``occ``, its context's earlier occurrences, and each symbol's n
    is a grouped exclusive cumsum, one symbol at a time so memory stays
    O(T). A level of all-distinct grams ends the walk early: its contexts,
    like level k's, are all new. np.rint rounds half to even as
    ``_decode``'s round does, so both sides compute the same integers.
    """
    T = data.size
    cum, freq, total = data.copy(), np.ones(T, dtype=np.int64), np.full(T, r, dtype=np.int64)
    if T <= k:
        return cum, freq, total
    for level in walk(data, r, k, CodecError):
        if level.counts.size == level.ids.size:
            break
    order = level.order[level.order < T - k]  # the k-gram at T-k precedes no symbol
    seen = level.occ[order]
    start = np.arange(T - k) - seen
    pos = order + k
    syms = data[pos]
    mass = seen + r * alpha
    scale = np.where(mass * _FREQ_SCALE > _TOTAL_CAP, _TOTAL_CAP / mass,
                     float(_FREQ_SCALE))
    c, f, t = (np.zeros(T - k, dtype=np.int64) for _ in range(3))
    for s in range(r):  # t sums the frequencies of the symbols below s
        hit = syms == s
        n = np.cumsum(hit) - hit
        fs = np.maximum(1, np.rint((n - n[start] + alpha) * scale)).astype(np.int64)
        np.copyto(c, t, where=hit)
        np.copyto(f, fs, where=hit)
        t += fs
    cum[pos], freq[pos], total[pos] = c, f, t
    return cum, freq, total


def compress(seq: SymbolSequence, params: HyperParams) -> CompressedContainer:
    """Encode a sequence under an adaptive order-k Lidstone model.

    The first min(k, T) symbols are coded uniformly; every later symbol is
    coded with the Lidstone frequencies of its order-k context given the
    counts of the prefix before it, mirroring the bitrate replay step for
    step. The encoder knows the whole sequence, so it computes every
    position's (cum, freq, total) in one numpy pass (``_coding_table``) and
    only the range-coder loop runs per symbol; ``_decode`` steps the same
    model as it learns each symbol.
    """
    if params.alpha <= 0.0:
        raise CodecError(
            "alpha must be positive for coding; substitute a small epsilon "
            "such as 0.01 for an alpha = 0 model")
    if params.k > 255:
        raise CodecError("k does not fit the container header (max 255)")
    if seq.alphabet.r > 255:
        raise CodecError("the alphabet does not fit the container header (max 255 symbols)")
    for sym in seq.alphabet.symbols:
        if len(sym.encode("latin-1", errors="ignore")) != 1:
            raise CodecError("alphabet symbols must be single latin-1 bytes")
    alpha = float(params.alpha)  # the header's double, which the decoder reads
    payload = b""
    if seq.T:
        payload = _encode(*_coding_table(seq.data, seq.alphabet.r, params.k, alpha))
    return CompressedContainer(params.k, alpha, seq.alphabet, seq.T, payload)


def decompress(container: CompressedContainer) -> SymbolSequence:
    """Invert compress; exact by the shared adaptive model."""
    if not (math.isfinite(container.alpha) and container.alpha > 0.0):
        raise CodecError("container alpha must be finite and positive")
    r = container.alphabet.r
    if r > 255:  # the decoder's output holds symbols as bytes
        raise CodecError("the alphabet does not fit the container header (max 255 symbols)")
    t_total = container.length
    # each symbol narrows the range at least by the largest frequency share
    # (total - (r-1)) / total, total <= 2^16 + r; each payload byte holds 8 bits
    if t_total * -math.log2(1.0 - (r - 1) / (_TOTAL_CAP + r)) > 8 * len(container.payload):
        raise CodecError(f"header length {t_total} cannot fit the payload")
    data = _decode(container.payload, t_total, container.k, container.alpha, r)
    return SymbolSequence(container.alphabet, np.frombuffer(data, dtype=np.uint8))


def compress_to_bytes(seq: SymbolSequence, params: HyperParams) -> bytes:
    return compress(seq, params).to_bytes()


def decompress_from_bytes(data: bytes) -> SymbolSequence:
    return decompress(CompressedContainer.from_bytes(data))
