"""Alphabets and index-encoded categorical sequences.

Every other module works on integer-coded sequences; this module owns the
mapping between character streams and index arrays, plus plain-text file I/O.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SYMBOLS = "ABCD"
DNA_SYMBOLS = "ACGT"


class SequenceError(ValueError):
    """Text cannot be encoded over the requested alphabet."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct single-character symbols.

    Parameters
    ----------
    symbols : tuple of str
        Symbol labels; position in the tuple is the symbol's index.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise SequenceError("alphabet needs at least 2 symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise SequenceError("alphabet symbols must be distinct")
        if any(len(s) != 1 for s in self.symbols):
            raise SequenceError("alphabet symbols must be single characters")

    @classmethod
    def from_string(cls, text: str) -> "Alphabet":
        return cls(tuple(text))

    @property
    def r(self) -> int:
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise SequenceError(f"symbol {symbol!r} not in alphabet") from None


DEFAULT_ALPHABET = Alphabet.from_string(DEFAULT_SYMBOLS)
DNA_ALPHABET = Alphabet.from_string(DNA_SYMBOLS)


class SymbolSequence:
    """A categorical time series stored as an int64 index array.

    The data array is made read-only on construction; sequences are treated
    as immutable values everywhere downstream.
    """

    __slots__ = ("alphabet", "data")

    def __init__(self, alphabet: Alphabet, data):
        arr = np.ascontiguousarray(data, dtype=np.int64)
        if arr.ndim != 1:
            raise SequenceError("sequence data must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= alphabet.r):
            raise SequenceError("sequence contains indices outside the alphabet")
        arr.setflags(write=False)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SymbolSequence is immutable")

    @property
    def T(self) -> int:
        return int(self.data.size)

    def __len__(self) -> int:
        return self.T

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymbolSequence)
            and self.alphabet == other.alphabet
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        head = render_sequence(self) if self.T <= 16 else render_sequence(self)[:16] + "..."
        return f"SymbolSequence(r={self.alphabet.r}, T={self.T}, {head!r})"


def parse_sequence(text: str, alphabet: Alphabet | None = None) -> SymbolSequence:
    """Encode a character stream over an alphabet.

    Whitespace (spaces, tabs, newlines) is ignored; any other character
    outside the alphabet is an error reporting the character and its offset
    in the raw text. With ``alphabet=None`` the alphabet is inferred from
    the distinct characters in order of first appearance.
    """
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    if alphabet is None:
        distinct, first = np.unique(points, return_index=True)
        symbols = [ch for ch in map(chr, distinct[np.argsort(first)].tolist())
                   if not ch.isspace()]
        if len(symbols) < 2:
            raise SequenceError("cannot infer an alphabet with fewer than 2 distinct symbols")
        alphabet = Alphabet(tuple(symbols))
    # code point -> index; whitespace and code points past the table map to -1
    table = np.full(max(map(ord, alphabet.symbols)) + 2, -1, dtype=np.int64)
    for i, ch in enumerate(alphabet.symbols):
        if not ch.isspace():
            table[ord(ch)] = i
    indices = table[np.minimum(points, table.size - 1)]
    for offset in np.flatnonzero(indices < 0).tolist():
        if not text[offset].isspace():
            raise SequenceError(
                f"character {text[offset]!r} at offset {offset} is not in the alphabet")
    return SymbolSequence(alphabet, indices[indices >= 0])


def render_sequence(seq: SymbolSequence) -> str:
    """Inverse of :func:`parse_sequence` for the same alphabet."""
    table = seq.alphabet.symbols
    return "".join(table[i] for i in seq.data.tolist())


def read_sequence_file(path, alphabet: Alphabet | None = None) -> SymbolSequence:
    with open(path, "r", encoding="ascii") as fh:
        return parse_sequence(fh.read(), alphabet)


def write_sequence_file(path, seq: SymbolSequence, wrap: int = 0) -> None:
    text = render_sequence(seq)
    with open(path, "w", encoding="ascii") as fh:
        if wrap > 0:
            for start in range(0, len(text), wrap):
                fh.write(text[start : start + wrap])
                fh.write("\n")
        else:
            fh.write(text)
