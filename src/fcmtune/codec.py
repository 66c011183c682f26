"""Entropy coding of symbol sequences with the adaptive FCM.

A carry-correct binary range coder (64-bit low, 32-bit range, byte-wise
renormalization) is driven by integer frequencies derived from the same
adaptive count state the bitrate replay uses, so the compressed size tracks
the theoretical bitrate to within coder overhead and frequency quantization.
The encoder knows the whole sequence and computes every position's
frequencies in one numpy pass over the order-k contexts of the n-gram sort;
the decoder learns each symbol only as it decodes it, so ``_decode`` steps
the same model symbol by symbol. A context seen fewer than 16 times shares
one interned state (frequencies, total, successors) with every context of
equal counts; a busier one steps its own count row.
The container format is self-contained: (k, alpha, alphabet, T) travel in
the header and decompression needs nothing else.
"""

from __future__ import annotations

import math
import numbers
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
# the decoder shares one frequency row among contexts with equal counts
# while their total is below _SHARE_BELOW, in states holding at most
# _SHARED_ENTRIES frequencies in all (see _decode)
_SHARE_BELOW = 16
_SHARED_ENTRIES = 1 << 10


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
    from their context's counts (round of a float is an int, half to even
    as np.rint). The output grows as symbols are decoded, so a header T the
    payload cannot hold ends in "truncated payload" and is never allocated.

    In a sparse high-order model most symbols are decoded in contexts seen
    a few times, and their count vectors repeat across contexts. So a
    context whose count total is below ``_SHARE_BELOW`` points at a shared,
    immutable state (f, total, successors, counts), interned by its count
    tuple: decoding s moves the context to the state's successor s, made on
    first use, with no frequencies recomputed. A context gets its own
    mutable count row when it reaches ``_SHARE_BELOW`` counts, or for a new
    count vector once the states hold ``_SHARED_ENTRIES`` frequencies. f
    and total are the same function of the counts either way.

    Both bounds are needed: a busy context's counts rarely repeat, and
    each state costs 3r entries. Interning every vector, with neither bound,
    decoded a k = 3 source 2.6x slower and held 9.7 MB of tracemalloc per
    20k-symbol decode, against 26 kB for one row per context. With no entry
    budget, 338k symbols of text (r = 133, k = 3) peaked at 229 MB of RSS,
    against 65 MB. A 2^16-entry budget held 2.26 MB of tracemalloc at
    r = 255, k = 1, T = 2e4, where one row per context holds 0.57 MB; 2^10
    holds 0.62 MB and shares as fast at r = 4.
    """
    pos = 5 if T else 0
    if len(payload) < pos:
        raise CodecError("truncated payload")
    code, rng = int.from_bytes(payload[:pos], "big") & _MASK32, _MASK32
    ra, shared = r * alpha, {}

    def state(counts):
        """The shared state of a count tuple; None when the budget is spent."""
        st = shared.get(counts)
        if st is None and len(shared) * r < _SHARED_ENTRIES:
            mass = sum(counts) + ra
            scale = _TOTAL_CAP / mass if mass * _FREQ_SCALE > _TOTAL_CAP else float(_FREQ_SCALE)
            f = [round((n + alpha) * scale) or 1 for n in counts]
            st = shared[counts] = (f, sum(f), [None] * r, counts)
        return st

    empty = state((0,) * r)
    out, rows, uniform, spare = bytearray(), {}, [1] * r, [0] * r
    ctx, rk = 0, r ** k
    for t in range(T):
        if t < k:  # the uniform prefix counts into a spare row
            row, f, total, succ = spare, uniform, r, None
        else:
            row = rows.get(ctx, empty)
            if row.__class__ is list:  # state()'s f inline: a call cost long_dense 7%
                mass = sum(row) + ra
                scale = (_TOTAL_CAP / mass if mass * _FREQ_SCALE > _TOTAL_CAP
                         else float(_FREQ_SCALE))
                f = [round((n + alpha) * scale) or 1 for n in row]
                total, succ = sum(f), None
            else:
                f, total, succ, counts = row
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
        if succ is None:
            row[s] += 1
        elif (nxt := succ[s]) is not None:
            rows[ctx] = nxt
        else:
            nxt = counts[:s] + (counts[s] + 1,) + counts[s + 1:]
            if sum(nxt) < _SHARE_BELOW and (st := state(nxt)) is not None:
                rows[ctx] = succ[s] = st
            else:
                rows[ctx] = list(nxt)
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
    n-gram level k's ``order``, grouped by context, the one positional sort
    the coder makes; a position's row sum is its rank within its context's
    group, its context's earlier occurrences, and each symbol's n is a
    grouped exclusive cumsum, one symbol at a time so memory stays O(T). A
    level of all-distinct grams ends the levels early: its contexts, like
    level k's, are all new. np.rint rounds half to even as
    ``_decode``'s round does, so both sides compute the same integers.
    """
    T = data.size
    cum, freq, total = data.copy(), np.ones(T, dtype=np.int64), np.full(T, r, dtype=np.int64)
    if T <= k:
        return cum, freq, total
    for level in walk(data, r, k, CodecError):
        if level.counts.size == level.m:
            break
    # a position's rank within its gram's group, less those of the k-grams
    # from T-k on, which precede no symbol and end their groups
    order = level.order
    seen = np.arange(level.m) - np.repeat(np.cumsum(level.counts) - level.counts, level.counts)
    keep = order < T - k
    order, seen = order[keep], seen[keep]
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


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def decompress(container: CompressedContainer) -> SymbolSequence:
    """Invert compress; exact by the shared adaptive model.

    A hand-built container is checked as ``from_bytes`` would build it: k an
    integer in 0..255, length an integer >= 0 (bools are neither), payload
    bytes and alpha finite and positive; CodecError otherwise.
    """
    k, alpha, t_total, payload = (container.k, container.alpha, container.length,
                                  container.payload)
    if not (_is_int(k) and 0 <= k <= 255):
        raise CodecError(f"container k must be an integer in 0..255, got {k!r}")
    if not (_is_int(t_total) and t_total >= 0):
        raise CodecError(f"container length must be an integer >= 0, got {t_total!r}")
    if not isinstance(payload, bytes):
        raise CodecError(f"container payload must be bytes, got {type(payload).__name__}")
    if not (isinstance(alpha, numbers.Real) and math.isfinite(alpha) and alpha > 0.0):
        raise CodecError("container alpha must be finite and positive")
    if not isinstance(container.alphabet, Alphabet):
        raise CodecError("container alphabet must be an Alphabet")
    r = container.alphabet.r
    if r > 255:  # the decoder's output holds symbols as bytes
        raise CodecError("the alphabet does not fit the container header (max 255 symbols)")
    # each symbol narrows the range at least by the largest frequency share
    # (total - (r-1)) / total, total <= 2^16 + r; each payload byte holds 8 bits
    if t_total * -math.log2(1.0 - (r - 1) / (_TOTAL_CAP + r)) > 8 * len(payload):
        raise CodecError(f"header length {t_total} cannot fit the payload")
    data = _decode(payload, int(t_total), int(k), float(alpha), r)
    return SymbolSequence(container.alphabet, np.frombuffer(data, dtype=np.uint8))


def compress_to_bytes(seq: SymbolSequence, params: HyperParams) -> bytes:
    return compress(seq, params).to_bytes()


def decompress_from_bytes(data: bytes) -> SymbolSequence:
    return decompress(CompressedContainer.from_bytes(data))
