"""Entropy coding of symbol sequences with the adaptive FCM.

A carry-correct binary range coder (64-bit low, 32-bit range, byte-wise
renormalization) is driven by integer frequencies derived from the same
adaptive count state the bitrate replay uses, so the compressed size tracks
the theoretical bitrate to within coder overhead and frequency quantization.
The encoder knows the whole sequence and computes every position's
frequencies in one numpy pass over the order-k contexts of the n-gram walk;
the decoder learns each symbol only as it decodes it, so it steps
``_CoderModel``, the scalar definition of the same model, symbol by symbol.
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
        symbols = "".join(self.alphabet.symbols).encode("latin-1")
        head = struct.pack("<4sBBdB", MAGIC, VERSION, self.k, self.alpha,
                           self.alphabet.r)
        return head + symbols + struct.pack("<Q", self.length) + self.payload

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


class _RangeDecoder:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.range = _MASK32
        self.code = 0
        for _ in range(5):
            self.code = ((self.code << 8) | self._byte()) & _MASK32
        self.unit = 1

    def _byte(self) -> int:
        if self.pos >= len(self.data):
            raise CodecError("truncated payload")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def decode_target(self, total: int) -> int:
        self.unit = self.range // total
        t = self.code // self.unit
        return total - 1 if t >= total else t

    def decode_update(self, cum: int, freq: int):
        self.code -= cum * self.unit
        self.range = self.unit * freq
        while self.range < _TOP:
            self.code = ((self.code << 8) | self._byte()) & _MASK32
            self.range = (self.range << 8) & _MASK32


class _CoderModel:
    """Adaptive Lidstone frequencies, stepped by the decoder symbol by symbol;
    the encoder's ``_coding_table`` gives the same for every position at once.

    Frequencies are max(1, round((n_s + alpha) * scale)) with scale = 2^16,
    reduced proportionally when the context mass would push the total past
    2^16 (the coder needs total << 2^24 or the range division gets lossy).
    """

    def __init__(self, alpha: float, r: int):
        self.alpha = alpha
        self.r = r
        self.counts: dict[int, list[int]] = {}

    def freqs(self, ctx: int) -> list[int]:
        alpha = self.alpha
        row = self.counts.get(ctx)
        if row is None:
            row = [0] * self.r
        mass = sum(row) + self.r * alpha
        scale = float(_FREQ_SCALE)
        if mass * scale > _TOTAL_CAP:
            scale = _TOTAL_CAP / mass
        return [max(1, int(round((n + alpha) * scale))) for n in row]

    def update(self, ctx: int, s: int):
        row = self.counts.get(ctx)
        if row is None:
            row = self.counts[ctx] = [0] * self.r
        row[s] += 1


def _context_groups(data: np.ndarray, r: int, k: int):
    """Positions 0..T-k-1 sorted by the order-k context starting there, in
    the order of walk level k (by context, then position), and for each the
    index of its context's first entry in that order."""
    m = data.size - k
    for level in walk(data, r, k, CodecError):
        if level.counts.size == level.ids.size:  # distinct grams: every context is new
            return np.arange(m), np.arange(m)
    order = level.order[level.order < m]
    new = np.diff(level.ids[order], prepend=-1) != 0
    return order, np.maximum.accumulate(np.where(new, np.arange(m), 0))


def _coding_table(data: np.ndarray, r: int, k: int, alpha: float):
    """(cum, freq, total) of every position as ``_CoderModel`` charges them.

    The first min(k, T) positions are uniform (cum = symbol, freq = 1,
    total = r). The others are grouped by their order-k context; within a
    group the row sum before a position is its rank, and the count n of
    each symbol before it is a grouped exclusive cumsum, one symbol at a
    time so memory stays O(T). The frequencies use ``_CoderModel.freqs``'
    float expressions, np.rint rounding half to even as round does.
    """
    T = data.size
    cum, freq, total = data.copy(), np.ones(T, dtype=np.int64), np.full(T, r, dtype=np.int64)
    if T <= k:
        return cum, freq, total
    order, start = _context_groups(data, r, k)
    pos = order + k
    syms = data[pos]
    mass = (np.arange(T - k) - start) + r * alpha
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
    only the range-coder loop runs per symbol; the decoder steps
    ``_CoderModel``, the scalar definition of the same model.
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
    t_total = container.length
    # each symbol narrows the range at least by the largest frequency share
    # (total - (r-1)) / total, total <= 2^16 + r; each payload byte holds 8 bits
    if t_total * -math.log2(1.0 - (r - 1) / (_TOTAL_CAP + r)) > 8 * len(container.payload):
        raise CodecError(f"header length {t_total} cannot fit the payload")
    out = np.empty(t_total, dtype=np.int64)
    if t_total == 0:
        if container.payload:
            raise CodecError("trailing bytes after the payload")
        return SymbolSequence(container.alphabet, out)
    dec = _RangeDecoder(container.payload)
    nboot = min(container.k, t_total)
    for t in range(nboot):
        s = dec.decode_target(r)
        dec.decode_update(s, 1)
        out[t] = s
    model = _CoderModel(container.alpha, r)
    rk = r ** container.k
    ctx = 0
    for t in range(nboot):
        ctx = (ctx * r + int(out[t])) % rk
    for t in range(nboot, t_total):
        f = model.freqs(ctx)
        target = dec.decode_target(sum(f))
        cum = 0
        s = 0
        while cum + f[s] <= target:
            cum += f[s]
            s += 1
        dec.decode_update(cum, f[s])
        out[t] = s
        model.update(ctx, s)
        ctx = (ctx * r + s) % rk
    if dec.pos != len(container.payload):
        raise CodecError("trailing bytes after the payload")
    return SymbolSequence(container.alphabet, out)


def compress_to_bytes(seq: SymbolSequence, params: HyperParams) -> bytes:
    return compress(seq, params).to_bytes()


def decompress_from_bytes(data: bytes) -> SymbolSequence:
    return decompress(CompressedContainer.from_bytes(data))
