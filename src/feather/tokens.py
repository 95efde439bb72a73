"""Lexer for transformation scripts, shared with the TVL importer.

Whitespace between tokens is insignificant; there is no comment syntax.
String literals admit letters, digits, spaces, and a fixed punctuation set,
so an embedded double quote is impossible. Digits are ASCII only.

A language is a `Lexicon`: its keywords, symbols, whether numbers carry a
sign, and a classifier for the other words. The lexicon is compiled into one
master regex, and `lex` makes one match per token, the blanks before a token
folding into its match. The result is a `Tokens` stream of parallel columns;
line and column are worked out from a token's offset only when asked for.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

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

# kind: keyword/symbol text, or STRING / INT / REAL / IDENT / VAR / ID / EOF
Token = namedtuple("Token", "kind text value line col")


class LexError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message, self.line, self.col = message, line, col


_STRING_CHAR = "[0-9A-Za-z" + "".join(map(re.escape, sorted(STRING_PUNCT))) + "]"
_STRING_BODY = re.compile(_STRING_CHAR + "*")
_NUMBER = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+)?")

# group numbers of a master regex, in the order its alternatives are tried;
# at the end of the text no group takes part
_WORD, _STRING, _REAL, _INT, _OTHER = range(1, 6)


class Lexicon:
    """One language's lexical table, compiled into its master regex.

    A word is a run of `\\w` characters, which are those for which
    `str.isalnum()` holds, and `_`, that does not start with an ASCII digit
    (a number does). A keyword's kind is the keyword itself, and so is a
    symbol's; `classify(word)` gives the kind of any other word, or raises
    ValueError with the message of the LexError to report.
    """

    def __init__(self, keywords, symbols, classify, signed_numbers: bool = False):
        number = "[+-]?[0-9]+" if signed_numbers else "[0-9]+"
        symbol = "|".join(map(re.escape, sorted(symbols, key=len, reverse=True)))
        self.kinds = {word: word for word in (*keywords, *symbols)}
        self.classify = classify
        self.pattern = re.compile(
            rf"[ \t\r\n]*(?:([^\W0-9]\w*|{symbol})"
            f'|"({_STRING_CHAR}+)"'
            rf"|({number}\.[0-9]+)"
            f"|({number})"
            r"|([^ \t\r\n])|\Z)")


class Tokens:
    """The tokens of `source` as parallel lists: `kinds`, `values`, and
    `starts`, each token's offset (a string's is that of its opening quote).
    The last token is EOF, at the end of the source. The stream also reads
    as a sequence of `Token`s, each built when it is read.
    """

    __slots__ = ("source", "kinds", "values", "starts", "_offset", "_line")

    def __init__(self, source: str, kinds: list, values: list, starts: list):
        self.source, self.kinds, self.values, self.starts = source, kinds, values, starts
        self._offset, self._line = 0, 1  # the offset last asked for, and its line

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> Token:
        i = range(len(self.kinds))[i]
        return Token(self.kinds[i], self.text(i), self.values[i], *self.position(i))

    def text(self, i: int) -> str:
        """The source text of token `i`: a string without its quotes, and
        the empty text for EOF."""
        kind = self.kinds[i]
        if kind == "INT" or kind == "REAL":
            return _NUMBER.match(self.source, self.starts[i])[0]
        return "" if kind == "EOF" else self.values[i]

    def line(self, i: int) -> int:
        """The line of token `i`, from 1, counted on from the offset last
        asked for, or from the start if that lies ahead."""
        offset = self.starts[i]
        if offset < self._offset:
            self._offset, self._line = 0, 1
        self._line += self.source.count("\n", self._offset, offset)
        self._offset = offset
        return self._line

    def position(self, i: int) -> tuple:
        """(line, column) of token `i`, both from 1."""
        return self.line(i), self.starts[i] - self.source.rfind("\n", 0, self.starts[i])


class Cursor:
    """Walks the kinds and values of a token stream. `pos` never passes EOF,
    the last token; a method that skips a token has seen its kind. A
    subclass reports an error at token `pos`, or the next, in `fail`."""

    def __init__(self, tokens: Tokens):
        self.tokens, self.kinds, self.values = tokens, tokens.kinds, tokens.values
        self.pos = 0

    def at(self, *kinds: str) -> bool:
        return self.kinds[self.pos] in kinds

    def skip(self, kind: str) -> bool:  # steps over the next token if it is of `kind`
        found = self.kinds[self.pos] == kind
        self.pos += found
        return found

    def text(self) -> str:  # the next token's source text, "" at EOF
        return self.tokens.text(self.pos)

    def expect(self, kind: str, what: str | None = None):
        """The value of the next token, which must be of `kind`."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.fail(f"expected {what or repr(kind)}, found {self.text() or 'end of input'!r}")
        self.pos = pos + 1
        return self.values[pos]

    def check_new_attribute(self, name: str, declared, owner: str, at: int) -> None:
        """Fail at token `at`, where a declaration of attribute `name` of
        feature `owner` starts, if `declared` holds the name already."""
        if name in declared:
            self.fail(f'duplicate attribute "{name}" in feature "{owner}"', at)


def lex(text: str, lexicon: Lexicon) -> Tokens:
    """The tokens of `text`, ending with EOF; raises LexError."""
    kinds, values, starts = [], [], []
    add_kind, add_value, add_start = kinds.append, values.append, starts.append
    known = lexicon.kinds.copy()  # grows by the other words of this text
    for m in lexicon.pattern.finditer(text):
        k = m.lastindex
        if k == _WORD:
            value = m[1]
            kind = known.get(value)
            if kind is None:
                try:
                    kind = known[value] = lexicon.classify(value)
                except ValueError as e:
                    _raise(str(e), text, m.start(1))
            add_kind(kind)
            add_value(value)
            add_start(m.start(1))
        elif k == _STRING:
            add_kind("STRING")
            add_value(m[2])
            add_start(m.start(2) - 1)
        elif k == _INT:
            try:
                add_value(int(m[4]))
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                _raise("integer literal out of range", text, m.start(4))
            add_kind("INT")
            add_start(m.start(4))
        elif k == _REAL:
            number = float(m[3])
            if not math.isfinite(number):
                _raise("real literal out of range", text, m.start(3))
            add_kind("REAL")
            add_value(number)
            add_start(m.start(3))
        elif k == _OTHER:
            _fail(text, m.start(5))
        else:  # the end of the text
            break
    add_kind("EOF")
    add_value(None)
    add_start(len(text))
    return Tokens(text, kinds, values, starts)


def _raise(message: str, text: str, offset: int):
    raise LexError(message, text.count("\n", 0, offset) + 1,
                   offset - text.rfind("\n", 0, offset))


def _fail(text: str, start: int):
    """Raise the error for the character at `start`, which starts no token."""
    ch = text[start]
    if ch != '"':
        _raise(f"unexpected character {ch!r}", text, start)
    end = _STRING_BODY.match(text, start + 1).end()
    stop = text[end:end + 1]
    if stop == '"':
        _raise("empty string literal", text, start)
    if stop in ("", "\n"):
        _raise("unterminated string literal", text, start)
    _raise(f"character {stop!r} not allowed in a string", text, end)


def _feather_word(word: str) -> str:
    if word[0] == "_":
        raise ValueError(f"unknown structural attribute {word!r}")
    if not word[0].isalpha():
        raise ValueError(f"unexpected character {word[0]!r}")
    return "VAR" if word[0].isupper() else "IDENT"


LEXICON = Lexicon(KEYWORDS | STRUCTURALS, SYMBOLS, _feather_word)


def tokenize(text: str) -> Tokens:
    return lex(text, LEXICON)
