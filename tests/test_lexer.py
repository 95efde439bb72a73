"""The master-regex lexer against the character loops it replaced."""

import random

import pytest

from feather import tvl
from feather.model import STRUCTURAL
from feather.tokens import (KEYWORDS, LEXICON, STRING_PUNCT, TVL_KEYWORDS, LexError,
                            Lexicon, _tvl_word, first_unlexable, lex, tokenize)
from feather.tvl import TvlError, import_tvl

from conftest import PLAIN_TVL_LEXICON, reference_tokenize, reference_tvl_tokenize

# The reference loops read "²" and "٣" as digits (int() then fails on "²").
# The lexer reads digits as ASCII only, and treats a non-ASCII digit as it
# treats "½": a word character that cannot start a word or a number.
NON_ASCII_DIGITS = "²٣"
AS_HALF = str.maketrans({d: "½" for d in NON_ASCII_DIGITS})

ALPHABET = (sorted(STRING_PUNCT)
            + ['"', "\t", "\r", "\n", "\0", "_name", "_bogus", "<=", "<>", "1.5", "12.",
               "é", "É", "²", "٣", "½", "a", "Z", "7", "{", "}", "<", ">", "=", "-3",
               "+2.5", '"ab 1"']
            + sorted(KEYWORDS | STRUCTURAL.keys() | TVL_KEYWORDS))
# pieces that lex in each language, so that longer token streams occur too
FEATHER_PIECES = sorted(KEYWORDS | STRUCTURAL.keys()) + [" ", "\n", ";", "(", ".", "V", "x", "3"]
TVL_PIECES = sorted(TVL_KEYWORDS) + [" ", "\n", "{", "}", ",", ";", "x", "-3", "2.5"]


def feather_outcome(lexer, text):
    """Tokens as (kind, text, value, line, col), or an error as (message, line, col)."""
    try:
        return [(t.kind, t.text.translate(AS_HALF), repr(t.value).translate(AS_HALF),
                 t.line, t.col) for t in lexer(text)]
    except LexError as e:
        return (e.message.translate(AS_HALF), e.line, e.col)


def tvl_outcome(lexer, text):
    """Tokens as (kind, value, line), or an error message."""
    try:
        return [(t.kind, repr(t.value).translate(AS_HALF), t.line) for t in lexer(text)]
    except TvlError as e:
        return str(e).translate(AS_HALF)


def tvl_lex(text):
    try:
        return lex(text, PLAIN_TVL_LEXICON)
    except LexError as e:
        # the loop had one message for both; the lexer names which it is
        message = e.message.replace("unterminated string literal", "bad string literal")
        message = message.replace("empty string literal", "bad string literal")
        raise TvlError(f"line {e.line}: {message}") from None


@pytest.mark.parametrize("outcome, new, reference, pieces", [
    (feather_outcome, tokenize, reference_tokenize, FEATHER_PIECES),
    (tvl_outcome, tvl_lex, reference_tvl_tokenize, TVL_PIECES),
], ids=["feather", "tvl"])
def test_lexer_equals_the_reference_loop(outcome, new, reference, pieces):
    rng = random.Random(20191)
    differs = 0
    for case in range(20_000):
        text = "".join(rng.choice(ALPHABET if rng.random() < 0.3 else pieces)
                       for _ in range(rng.randint(0, 16)))
        got = outcome(new, text)
        # with its non-ASCII digits read as "½", the loop must agree exactly
        assert got == outcome(reference, text.translate(AS_HALF)), (case, text)
        try:
            want = outcome(reference, text)
        except ValueError:  # int() of a digit it cannot convert
            want = None
        if got != want:
            # the loop read a non-ASCII digit into a number: now an error
            differs += 1
            message = got if isinstance(got, str) else got[0]
            assert "unexpected character" in message, (case, text)
    assert differs >= 100


@pytest.mark.parametrize("text", ["²", "1²", "12.²", "٣", "1٣", "x = 1.٣"])
def test_non_ascii_digits_are_unexpected(text):
    with pytest.raises(LexError, match="unexpected character"):
        tokenize(text)
    with pytest.raises(LexError, match="unexpected character"):
        lex(text, tvl.LEXICON)


def test_identifiers_keep_unicode_word_characters():
    assert [(t.kind, t.text) for t in tokenize("x² É٣ é_1")][:3] == [
        ("IDENT", "x²"), ("VAR", "É٣"), ("IDENT", "é_1")]
    with pytest.raises(LexError, match=r"unexpected character '½'"):
        tokenize("½x")


def test_integer_literal_past_the_digit_limit():
    digits = "1" * 5000
    with pytest.raises(ValueError):
        reference_tokenize(digits)
    with pytest.raises(LexError) as e:
        tokenize(f"x\n  {digits}")
    assert (e.value.message, e.value.line, e.value.col) == (
        "integer literal out of range", 2, 3)
    with pytest.raises(TvlError, match="^line 2: integer literal out of range$"):
        import_tvl(f"root R {{\n  int w is -{digits};\n}}\n")


def test_positions_across_blank_lines_and_end_of_input():
    tokens = tokenize('\n \r\n\t"a" x\n\n  ;  ')
    assert [(t.kind, t.line, t.col) for t in tokens] == [
        ("STRING", 3, 2), ("IDENT", 3, 6), (";", 5, 3), ("EOF", 5, 6)]


@pytest.mark.parametrize("text, message", [
    ('root R { string s is ""; }', "line 1: empty string literal"),
    ('root R {\n string s is "ab\n"; }', "line 2: unterminated string literal"),
    ('root R {\n string s is "a\tb"; }', "line 2: character '\\t' not allowed in a string"),
    ("root R { int w is +; }", "line 1: unexpected character '+'"),
    ("root _R { }", "line 1: unexpected character '_'"),
])
def test_tvl_lexical_errors(text, message):
    with pytest.raises(TvlError) as e:
        import_tvl(text)
    assert str(e.value) == message


def one_token(name: str, kind: str) -> bool:
    """Whether `name`, written as a writer writes a token of `kind`, lexes
    as that one token with `name` as its value. A STRING is written quoted
    and, like an IDENT, read with the script lexicon; an ID and an
    ATTRIBUTE_ID are read with TVL's, and an ATTRIBUTE_ID must pass the TVL
    parser's `parse_attr_id`."""
    lexicon = LEXICON if kind in ("STRING", "IDENT") else tvl.LEXICON
    try:
        tokens = lex(f'"{name}"' if kind == "STRING" else name, lexicon)
    except LexError:
        return False
    if tokens.kinds != [kind.replace("ATTRIBUTE_", ""), "EOF"] or tokens.values[0] != name:
        return False
    try:
        return kind != "ATTRIBUTE_ID" or tvl._TvlParser(name).parse_attr_id() == name
    except TvlError:
        return False


def test_a_tvl_id_is_what_the_tvl_lexer_reads_as_one():
    # the same for each kind of token a writer writes: each character below
    # U+3000 and a sample above, first and after a letter, the keywords of
    # both languages, a name that holds a newline, and the empty name
    chars = [chr(cp) for cp in [*range(0x3000), *range(0x3000, 0x30000, 97)]]
    names = ([n for c in chars for n in (c + "x", "x" + c)]
             + sorted(TVL_KEYWORDS | KEYWORDS | STRUCTURAL.keys()) + ["x\nx", ""])
    for kind in ("STRING", "IDENT", "ID", "ATTRIBUTE_ID"):
        lexes = {name: one_token(name, kind) for name in names}
        for name in names:
            assert (first_unlexable([name], kind) is None) == lexes[name], (kind, name)
        # a batch, mostly of names that lex, is checked in one match: its
        # culprit is the first name that does not lex, or None
        rng = random.Random(kind)
        good = [n for n in names if lexes[n]]
        bad = [n for n in names if not lexes[n]]
        assert len(good) > 100 and len(bad) > 100, kind
        for _ in range(3000):
            batch = [rng.choice(bad if rng.random() < 0.1 else good)
                     for _ in range(rng.randint(0, 12))]
            rng.shuffle(batch)
            want = next((n for n in batch if not lexes[n]), None)
            assert first_unlexable(batch, kind) == want, (kind, batch)
        assert first_unlexable(good, kind) is None
        assert first_unlexable(good + bad, kind) == bad[0]


def test_a_phrase_of_one_group_is_refused():
    # its value would be the captured text, not a tuple, and the stream, and
    # an error, would quote that text instead of the leading keyword
    with pytest.raises(ValueError, match="MEMBERS has 1 value groups"):
        Lexicon(TVL_KEYWORDS, "{},;", _tvl_word, phrases=(
            ("MEMBERS", r"group[ \t\r\n]+allof[ \t\r\n]*\{[ \t\r\n]*([A-Z]\w*)[ \t\r\n]*\}", 1),))
