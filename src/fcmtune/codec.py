"""Entropy coding of symbol sequences with the adaptive FCM.

A carry-correct range coder (32-bit range, byte-wise renormalization, the
byte layout of LZMA's) is driven by integer frequencies derived from the same
adaptive count state the bitrate replay uses, so the compressed size tracks
the theoretical bitrate to within coder overhead and frequency quantization.
The encoder knows the whole sequence and computes every position's
frequencies in numpy, one fused pass per symbol over the order-k contexts of
the n-gram sort. Its only per-symbol Python is the range recurrence: the
carries of the low end are one big-integer sum, which numpy and Python's
integers assemble into the payload after the loop (``_encode``). The decoder
learns each symbol only as it decodes it, so ``_decode`` steps the same
model symbol by symbol. A context seen fewer than 16 times shares
one interned state (frequencies, total, successors) with every context of
equal counts; a busier one steps its own count row.
The container is self-contained: (k, alpha, alphabet, T) travel in a header
that ``CompressedContainer`` checks when built; decoding needs nothing else.
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
_CHUNK = 1 << 12  # positions the encoder's range loop takes as Python ints at a time
# the decoder shares one frequency row among contexts with equal counts
# while their total is below _SHARE_BELOW, in states holding at most
# _SHARED_ENTRIES frequencies in all (see _decode)
_SHARE_BELOW = 16
_SHARED_ENTRIES = 1 << 10


class CodecError(Exception):
    """Raised for malformed containers or unsupported coder parameters."""


def _is_int(x) -> bool:  # int first: the ABC's check alone takes about 1 us
    return isinstance(x, (int, numbers.Integral)) and not isinstance(x, bool)


@dataclass(frozen=True)
class CompressedContainer:
    """A compressed sequence plus the header needed to invert it.

    Construction raises CodecError unless every field fits the FCM1 header:
    k in 0..255 and length in 0..2^64-1 integers (not bools), alpha real,
    finite and > 0, an Alphabet of <= 255 latin-1 symbols, payload bytes.
    k and length are stored as int, alpha as float.
    """

    k: int
    alpha: float
    alphabet: Alphabet
    length: int
    payload: bytes

    def __post_init__(self):
        k, alphabet, length = self.k, self.alphabet, self.length
        if not (_is_int(k) and 0 <= k <= 255):
            raise CodecError(f"container k must be an int in 0..255 (header max 255), got {k!r}")
        try:
            alpha = float(self.alpha) if isinstance(self.alpha, (float, numbers.Real)) else math.nan
        except OverflowError:  # an integer beyond the doubles
            alpha = math.inf
        if not 0.0 < alpha < math.inf:
            raise CodecError(f"container alpha must be finite and positive, got {self.alpha!r}; "
                             "substitute a small epsilon such as 0.01 for an alpha = 0 model")
        if not isinstance(alphabet, Alphabet):
            raise CodecError(f"container alphabet must be an Alphabet, got {alphabet!r}")
        if alphabet.r > 255:  # the decoder's output holds symbols as bytes
            raise CodecError("container alphabet does not fit the FCM1 header (max 255 symbols)")
        if max(alphabet.symbols) > "\xff":  # each symbol is one character (Alphabet)
            raise CodecError("container alphabet symbols must be latin-1 to fit the FCM1 header")
        if not (_is_int(length) and 0 <= length < 1 << 64):
            raise CodecError("container length must be an integer in 0..2^64-1 "
                             f"(the FCM1 header's u64), got {length!r}")
        if not isinstance(self.payload, bytes):
            raise CodecError(f"container payload must be bytes, got {type(self.payload).__name__}")
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "length", int(length))

    @property
    def payload_bits(self) -> int:
        return 8 * len(self.payload)

    def to_bytes(self) -> bytes:
        """The FCM1 bytes."""
        head = struct.pack("<4sBBdB", MAGIC, VERSION, self.k, self.alpha, self.alphabet.r)
        symbols = "".join(self.alphabet.symbols).encode("latin-1")
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

    The coded value is one big integer: each symbol adds unit * cum to the
    low end of the interval, scaled by 256 for every byte shift after it.
    A coder that steps the low end too (a 33-bit low, a cache byte and a
    count of 0xFF bytes held back while a carry may still raise them) only
    performs this integer's additions byte by byte. So the per-symbol loop
    steps only the range (unit = range // total, range = unit * freq, shift
    until range >= 2^24) and keeps each symbol's unit, a chunk at a time, in
    an int64 array. numpy then counts each symbol's shifts from unit * freq
    and sums unit * cum between consecutive shifts into w[p]; the payload is
    sum_p w[p] * 256^(S - p), S shifts in all, as 1 + S + 4 big-endian
    bytes. The first byte is the stepped coder's dummy initial cache and is
    always 0: each step keeps low + range within the previous interval,
    inside [0, 2^32) at the first step's scale.
    """
    rng, units = _MASK32, np.empty(cums.size, dtype=np.int64)
    for lo in range(0, cums.size, _CHUNK):
        chunk = []
        keep = chunk.append
        for freq, total in zip(freqs[lo:lo + _CHUNK].tolist(),
                               totals[lo:lo + _CHUNK].tolist()):
            unit = rng // total
            rng = unit * freq
            while rng < _TOP:
                rng <<= 8
            keep(unit)
        units[lo:lo + _CHUNK] = chunk
    # unit * freq >= 255 (range >= 2^24, total < 2^16 + 2^8), so a symbol
    # shifts at most 3 bytes
    after = units * freqs
    shifts = (after < 1 << 24).astype(np.int64)
    shifts += after < 1 << 16
    shifts += after < 1 << 8
    S, before = int(shifts.sum()), np.cumsum(shifts) - shifts
    del after, shifts
    # unit * cum <= unit * (total - freq) <= range - next range, so the sum
    # over a run of symbols with no shift between them telescopes to less
    # than the range at its start: each w[p] < 2^32, exact in the float64
    # bincount and one big-endian uint32 word. A word spans bytes p + 1 to
    # p + 4, so words p apart by 4 do not overlap: four integers of
    # interleaved words, added, carry through every byte
    words = np.bincount(before, weights=units * cums, minlength=S + 1).astype(">u4")
    value = 0
    for c in range(4):
        part = words[c::4]
        if part.size:
            value += int.from_bytes(part.tobytes(), "big") << 8 * (S - c - 4 * (part.size - 1))
    return value.to_bytes(1 + S + 4, "big")


def _decode(payload: bytes, T: int, k: int, alpha: float, r: int) -> bytearray:
    """Invert ``_encode``, stepping range and code a symbol at a time.

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
                # an own row holds a count, so its mass is >= 1 and the cap
                # binds (at mass 1.0 both scales are 2^16)
                scale = _TOTAL_CAP / (sum(row) + ra)
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
    grouped exclusive cumsum. Each symbol takes one pass of in-place
    float64 operations on a few T-long arrays, so memory stays O(T) for any
    r: its counts, its frequencies, and multiply-adds of the 0/1 hit mask
    that set cum and freq where it occurs (each position is hit once, so
    the sums are exact); the arrays become int64 once, at the end. A level
    of all-distinct grams ends the levels early: its contexts, like level
    k's, are all new. np.rint rounds half to even as ``_decode``'s round
    does, so both sides compute the same integers.
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
    c, f, t, n, tmp = (np.zeros(T - k) for _ in range(5))
    for s in range(r):  # t sums the frequencies of the symbols below s
        hit = syms == s
        n[0] = 0.0  # n counts the hits before each position, then in its group
        np.cumsum(hit[:-1], dtype=np.float64, out=n[1:])
        n -= np.take(n, start, out=tmp)
        n += alpha
        n *= scale
        np.rint(n, out=n)
        np.maximum(n, 1.0, out=n)
        # each position is hit by one symbol: c and f take t and n there
        c += np.multiply(t, hit, out=tmp)
        f += np.multiply(n, hit, out=tmp)
        t += n
    cum[pos], freq[pos], total[pos] = c.astype(np.int64), f.astype(np.int64), t.astype(np.int64)
    return cum, freq, total


def compress(seq: SymbolSequence, params: HyperParams) -> CompressedContainer:
    """Encode a sequence under an adaptive order-k Lidstone model.

    The first min(k, T) symbols are coded uniformly; every later symbol is
    coded with the Lidstone frequencies of its order-k context given the
    counts of the prefix before it, mirroring the bitrate replay step for
    step. The encoder knows the whole sequence, so it computes every
    position's (cum, freq, total) in numpy (``_coding_table``), and only the
    range recurrence runs per symbol (``_encode``); ``_decode`` steps the
    same model as it learns each symbol.
    """
    head = CompressedContainer(params.k, params.alpha, seq.alphabet, seq.T, b"")
    if not seq.T:
        return head
    payload = _encode(*_coding_table(seq.data, head.alphabet.r, head.k, head.alpha))
    return CompressedContainer(head.k, head.alpha, head.alphabet, head.length, payload)


def decompress(container: CompressedContainer) -> SymbolSequence:
    """Invert compress exactly; CodecError unless the payload decodes to length symbols."""
    r, payload = container.alphabet.r, container.payload
    # each symbol narrows the range at least by the largest frequency share
    # (total - (r-1)) / total, total <= 2^16 + r; each payload byte holds 8 bits
    if container.length * -math.log2(1.0 - (r - 1) / (_TOTAL_CAP + r)) > 8 * len(payload):
        raise CodecError(f"header length {container.length} cannot fit the payload")
    data = _decode(payload, container.length, container.k, container.alpha, r)
    return SymbolSequence(container.alphabet, np.frombuffer(data, dtype=np.uint8))


def compress_to_bytes(seq: SymbolSequence, params: HyperParams) -> bytes:
    return compress(seq, params).to_bytes()


def decompress_from_bytes(data: bytes) -> SymbolSequence:
    return decompress(CompressedContainer.from_bytes(data))
