"""Lexer for transformation scripts, shared with the TVL importer.

Whitespace between tokens is insignificant; there is no comment syntax.
String literals admit letters, digits, spaces, and a fixed punctuation set,
so an embedded double quote is impossible. Digits are ASCII only.

A language is a `Lexicon`: its keywords, symbols, whether numbers carry a
sign, and a classifier for the other words. The lexicon is compiled into one
master regex, and `lex` makes one match per token, the blanks before a token
folding into its match.
"""

from __future__ import annotations

import math
import re
from typing import Callable, NamedTuple

from .model import STRUCTURAL_ATTRS

KEYWORDS = {
    "root", "feature", "attribute", "constraint", "requires", "excludes",
    "mandatory", "optional", "alternative", "or", "to",
    "add", "update", "updateall", "remove", "removeall",
    "with", "attributes", "set", "where", "and", "not",
    "true", "false", "inherited", "numeric", "boolean", "string",
    "leftfeature", "rightfeature", "constrainttype",
}

STRUCTURALS = set(STRUCTURAL_ATTRS)

SYMBOLS = ("<=", ">=", "<>", ";", ",", "(", ")", ".", "=", ":",
           "+", "-", "*", "/", "%", "<", ">")

STRING_PUNCT = set("~!@#$%^&*()_+[]'/.,-;: ")


class Token(NamedTuple):
    kind: str  # keyword/symbol text, or STRING / INT / REAL / IDENT / VAR / ID / EOF
    text: str
    value: object
    line: int
    col: int


class LexError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_STRING_CHAR = "[0-9A-Za-z" + "".join(map(re.escape, sorted(STRING_PUNCT))) + "]"
_STRING_BODY = re.compile(_STRING_CHAR + "*")

# group numbers of a master regex, in the order its alternatives are tried
_WORD, _SYMBOL, _NEWLINES, _STRING, _REAL, _INT, _OTHER = range(1, 8)


class Lexicon:
    """One language's lexical table, compiled into its master regex.

    A word is a run of `\\w` characters, which are those for which
    `str.isalnum()` holds, and `_`, that does not start with an ASCII digit
    (a number does). A keyword's kind is the keyword itself;
    `classify(word, line, col)` gives the kind of any other word, or raises
    LexError.
    """

    def __init__(self, keywords, symbols, classify: Callable,
                 signed_numbers: bool = False):
        number = "[+-]?[0-9]+" if signed_numbers else "[0-9]+"
        symbol = "|".join(map(re.escape, sorted(symbols, key=len, reverse=True)))
        self.keywords = {word: word for word in keywords}
        self.classify = classify
        self.pattern = re.compile(
            r"[ \t\r]*(?:([^\W0-9]\w*)"
            f"|({symbol})"
            "|(\n(?:[ \t\r]*\n)*)"  # ends after the last newline of a blank run
            f'|"({_STRING_CHAR}+)"'
            rf"|({number}\.[0-9]+)"
            f"|({number})"
            "|([^ \t\r\n]))")


def lex(text: str, lexicon: Lexicon) -> list:
    """The tokens of `text`, ending with EOF; raises LexError."""
    tokens = []
    append = tokens.append
    new = tuple.__new__  # builds a Token without its Python-level __new__
    keyword, classify = lexicon.keywords.get, lexicon.classify
    line, line_start = 1, 0  # line_start: offset of the line's first character
    for m in lexicon.pattern.finditer(text):
        k = m.lastindex
        if k == _NEWLINES:
            line += text.count("\n", m.start(k), m.end())
            line_start = m.end()
            continue
        value = m[k]
        col = m.start(k) - line_start + 1
        if k == _WORD:
            kind = keyword(value) or classify(value, line, col)
            append(new(Token, (kind, value, value, line, col)))
        elif k == _SYMBOL:
            append(new(Token, (value, value, value, line, col)))
        elif k == _STRING:
            append(new(Token, ("STRING", value, value, line, col - 1)))
        elif k == _INT:
            try:
                number = int(value)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise LexError("integer literal out of range", line, col) from None
            append(new(Token, ("INT", value, number, line, col)))
        elif k == _REAL:
            number = float(value)
            if not math.isfinite(number):
                raise LexError("real literal out of range", line, col)
            append(new(Token, ("REAL", value, number, line, col)))
        else:
            _fail(text, m.start(k), line, col)
    append(new(Token, ("EOF", "", None, line, len(text) - line_start + 1)))
    return tokens


def _fail(text: str, start: int, line: int, col: int):
    """Raise the error for the character at `start`, which starts no token."""
    ch = text[start]
    if ch != '"':
        raise LexError(f"unexpected character {ch!r}", line, col)
    end = _STRING_BODY.match(text, start + 1).end()
    stop = text[end:end + 1]
    if stop == '"':
        raise LexError("empty string literal", line, col)
    if stop in ("", "\n"):
        raise LexError("unterminated string literal", line, col)
    raise LexError(f"character {stop!r} not allowed in a string",
                   line, col + end - start)


def _feather_word(word: str, line: int, col: int) -> str:
    if word[0] == "_":
        raise LexError(f"unknown structural attribute {word!r}", line, col)
    if not word[0].isalpha():
        raise LexError(f"unexpected character {word[0]!r}", line, col)
    return "VAR" if word[0].isupper() else "IDENT"


LEXICON = Lexicon(KEYWORDS | STRUCTURALS, SYMBOLS, _feather_word)


def tokenize(text: str) -> list:
    return lex(text, LEXICON)
