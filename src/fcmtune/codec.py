"""Entropy coding of symbol sequences with the adaptive FCM.

A carry-correct binary range coder (64-bit low, 32-bit range, byte-wise
renormalization) is driven by integer frequencies derived from the same
adaptive count state the bitrate replay uses, so the compressed size tracks
the theoretical bitrate to within coder overhead and frequency quantization.
The container format is self-contained: (k, alpha, alphabet, T) travel in
the header and decompression needs nothing else.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

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


class _RangeEncoder:
    """LZMA-style range encoder; emits one leading dummy byte."""

    def __init__(self):
        self.low = 0
        self.range = _MASK32
        self.cache = 0
        self.cache_size = 1
        self.out = bytearray()

    def _shift_low(self):
        if self.low < 0xFF000000 or self.low > _MASK32:
            carry = self.low >> 32
            temp = self.cache
            while True:
                self.out.append((temp + carry) & 0xFF)
                temp = 0xFF
                self.cache_size -= 1
                if self.cache_size == 0:
                    break
            self.cache = (self.low >> 24) & 0xFF
        self.cache_size += 1
        self.low = (self.low << 8) & _MASK32

    def encode(self, cum: int, freq: int, total: int):
        unit = self.range // total
        self.low += unit * cum
        self.range = unit * freq
        while self.range < _TOP:
            self.range = (self.range << 8) & _MASK32
            self._shift_low()

    def flush(self) -> bytes:
        for _ in range(5):
            self._shift_low()
        return bytes(self.out)


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
    """Adaptive Lidstone frequencies, stepped identically on both sides.

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


def compress(seq: SymbolSequence, params: HyperParams) -> CompressedContainer:
    """Encode a sequence under an adaptive order-k Lidstone model.

    The first min(k, T) symbols are coded uniformly; every later symbol is
    coded with the Lidstone frequencies of its order-k context and the count
    state is then updated, mirroring the bitrate replay step for step.
    """
    if params.alpha <= 0.0:
        raise CodecError(
            "alpha must be positive for coding; substitute a small epsilon "
            "such as 0.01 for an alpha = 0 model")
    if params.k > 255:
        raise CodecError("k does not fit the container header (max 255)")
    r = seq.alphabet.r
    for sym in seq.alphabet.symbols:
        if len(sym.encode("latin-1", errors="ignore")) != 1:
            raise CodecError("alphabet symbols must be single latin-1 bytes")
    data = seq.data
    t_total = seq.T
    if t_total == 0:
        return CompressedContainer(params.k, params.alpha, seq.alphabet, 0, b"")
    enc = _RangeEncoder()
    nboot = min(params.k, t_total)
    for t in range(nboot):
        enc.encode(int(data[t]), 1, r)
    model = _CoderModel(params.alpha, r)
    rk = r ** params.k
    ctx = 0
    for t in range(nboot):
        ctx = (ctx * r + int(data[t])) % rk
    for t in range(nboot, t_total):
        s = int(data[t])
        f = model.freqs(ctx)
        enc.encode(sum(f[:s]), f[s], sum(f))
        model.update(ctx, s)
        ctx = (ctx * r + s) % rk
    return CompressedContainer(params.k, params.alpha, seq.alphabet, t_total,
                               enc.flush())


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
