"""Alphabet handling, parsing, rendering, and sequence file round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmtune.sequences import (
    DEFAULT_ALPHABET,
    DNA_ALPHABET,
    Alphabet,
    SequenceError,
    SymbolSequence,
    parse_sequence,
    read_sequence_file,
    render_sequence,
    write_sequence_file,
)


def test_alphabet_from_string():
    ab = Alphabet.from_string("ACGT")
    assert ab.symbols == ("A", "C", "G", "T")
    assert ab.r == 4
    assert ab.index("G") == 2


def test_alphabet_rejects_too_small():
    with pytest.raises(SequenceError):
        Alphabet.from_string("A")
    with pytest.raises(SequenceError):
        Alphabet.from_string("")


def test_alphabet_rejects_duplicates():
    with pytest.raises(SequenceError):
        Alphabet.from_string("AAB")


def test_alphabet_rejects_multichar_symbols():
    with pytest.raises(SequenceError):
        Alphabet(symbols=("AB", "C"))


def test_alphabet_index_unknown_symbol():
    ab = Alphabet.from_string("AB")
    with pytest.raises(SequenceError):
        ab.index("Z")


def test_default_alphabets():
    assert DEFAULT_ALPHABET.symbols == ("A", "B", "C", "D")
    assert DNA_ALPHABET.symbols == ("A", "C", "G", "T")


def test_parse_sequence_explicit_alphabet():
    seq = parse_sequence("ACGT", alphabet=DNA_ALPHABET)
    assert seq.T == 4
    np.testing.assert_array_equal(seq.data, [0, 1, 2, 3])


def test_parse_sequence_ignores_whitespace():
    seq = parse_sequence("AC\nGT \tA", alphabet=DNA_ALPHABET)
    assert seq.T == 5
    np.testing.assert_array_equal(seq.data, [0, 1, 2, 3, 0])


def test_parse_sequence_unknown_symbol_reports_offset():
    with pytest.raises(SequenceError, match="offset 2"):
        parse_sequence("ACXT", alphabet=DNA_ALPHABET)


def test_parse_sequence_inferred_alphabet_first_appearance():
    # inferred alphabets index symbols by first appearance, not sorted order
    seq = parse_sequence("BAAB")
    assert seq.alphabet.symbols == ("B", "A")
    np.testing.assert_array_equal(seq.data, [0, 1, 1, 0])


def test_parse_sequence_inference_needs_two_symbols():
    with pytest.raises(SequenceError):
        parse_sequence("AAAA")
    with pytest.raises(SequenceError):
        parse_sequence("")


def test_symbol_sequence_is_immutable():
    seq = parse_sequence("ACGT", alphabet=DNA_ALPHABET)
    with pytest.raises(AttributeError):
        seq.data = np.zeros(4)
    with pytest.raises(ValueError):
        seq.data[0] = 3


def test_symbol_sequence_rejects_out_of_range_codes():
    with pytest.raises(SequenceError):
        SymbolSequence(DNA_ALPHABET, [0, 4])
    with pytest.raises(SequenceError):
        SymbolSequence(DNA_ALPHABET, [-1])


def test_symbol_sequence_equality():
    a = parse_sequence("ACGT", alphabet=DNA_ALPHABET)
    b = parse_sequence("ACGT", alphabet=DNA_ALPHABET)
    c = parse_sequence("ACGA", alphabet=DNA_ALPHABET)
    assert a == b
    assert a != c
    # same codes under a different alphabet are a different sequence
    assert a != SymbolSequence(Alphabet.from_string("ACGU"), a.data)


def test_render_sequence_inverts_parse():
    text = "ACGTACGTAA"
    assert render_sequence(parse_sequence(text, alphabet=DNA_ALPHABET)) == text


@given(st.text(alphabet="ACGT", min_size=1, max_size=200))
def test_parse_render_round_trip(text):
    seq = parse_sequence(text, alphabet=DNA_ALPHABET)
    assert render_sequence(seq) == text
    assert seq.T == len(text)


def test_sequence_file_round_trip(tmp_path):
    path = tmp_path / "seq.txt"
    seq = parse_sequence("ACGTACGTACGT", alphabet=DNA_ALPHABET)
    write_sequence_file(path, seq)
    back = read_sequence_file(path, alphabet=DNA_ALPHABET)
    assert back == seq


def test_write_sequence_file_rejects_symbols_outside_latin1(tmp_path):
    seq = SymbolSequence(Alphabet(("α", "β")), [0, 1, 0])
    with pytest.raises(SequenceError, match="latin-1"):
        write_sequence_file(tmp_path / "greek.txt", seq)


def test_write_sequence_file_rejects_whitespace_symbols(tmp_path):
    # parse_sequence skips whitespace, so such a file would read back shorter
    seq = SymbolSequence(Alphabet(("A", " ", "\xa0", "B")), [0, 1, 2, 3, 1, 0])
    with pytest.raises(SequenceError, match="whitespace"):
        write_sequence_file(tmp_path / "spaced.txt", seq)


def test_sequence_file_wrap(tmp_path):
    path = tmp_path / "seq.txt"
    seq = parse_sequence("ACGTACGTAC", alphabet=DNA_ALPHABET)
    write_sequence_file(path, seq, wrap=4)
    text = path.read_text()
    assert text == "ACGT\nACGT\nAC\n"
    assert read_sequence_file(path, alphabet=DNA_ALPHABET) == seq


def test_repr_truncates_long_sequences():
    seq = parse_sequence("A" * 100 + "C", alphabet=DNA_ALPHABET)
    assert len(repr(seq)) < 100
    assert "T=101" in repr(seq)


def _parse_per_character(text, alphabet=None):
    """The per-character parser that the vectorized one replaced, kept as
    its oracle: (alphabet symbols, indices) or the SequenceError message."""
    if alphabet is None:
        seen = {}
        for ch in text:
            if not ch.isspace():
                seen.setdefault(ch, None)
        if len(seen) < 2:
            return "cannot infer an alphabet with fewer than 2 distinct symbols"
        alphabet = Alphabet(tuple(seen))
    lookup = {s: i for i, s in enumerate(alphabet.symbols)}
    indices = []
    for offset, ch in enumerate(text):
        if ch.isspace():
            continue
        idx = lookup.get(ch)
        if idx is None:
            return f"character {ch!r} at offset {offset} is not in the alphabet"
        indices.append(idx)
    return alphabet.symbols, indices


# alphabet characters, ASCII and Unicode whitespace, other ASCII, latin-1,
# astral and lone-surrogate characters
_PARSE_CHARS = st.sampled_from(list("ACGTacgt \t\n\r\x0b\x0c\x1c\x85\xa0 　"
                                    "XZ09é\xffΩ\U0001f600\ud800"))


@given(st.lists(_PARSE_CHARS, max_size=80).map("".join),
       st.sampled_from([None, "ACGT", "AC", "ACGT\xff", "Ω\U0001f600", "A \tC", "\ud800G"]))
@settings(max_examples=300)
def test_parse_sequence_matches_the_per_character_loop(text, symbols):
    alphabet = None if symbols is None else Alphabet.from_string(symbols)
    expected = _parse_per_character(text, alphabet)
    try:
        seq = parse_sequence(text, alphabet)
    except SequenceError as exc:
        assert str(exc) == expected
        return
    assert (seq.alphabet.symbols, seq.data.tolist()) == expected
    assert seq.data.dtype == np.int64
