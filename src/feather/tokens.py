"""Lexer for transformation scripts, shared with the TVL importer.

Whitespace between tokens is insignificant; there is no comment syntax.
String literals admit letters, digits, spaces, and a fixed punctuation set,
so an embedded double quote is impossible. Digits are ASCII only.

A language is a `Lexicon`: its keywords, symbols, whether numbers carry a
sign, a classifier for the other words, and phrases, runs of tokens read as
one token (a declarations file has two: a whole constraint, a feature's
head). The lexicon is compiled into one master regex when `lex` first uses
it, and `lex` makes one match per token, the blanks before a token folding
into its match. The result is a `Tokens` stream of parallel columns; line
and column are worked out from a token's offset only when asked for.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from .model import STRUCTURAL_ATTRS, DecompKind

KEYWORDS = {
    "root", "feature", "attribute", "constraint", "requires", "excludes",
    "mandatory", "optional", "alternative", "or", "to",
    "add", "update", "updateall", "remove", "removeall",
    "with", "attributes", "set", "where", "and", "not",
    "true", "false", "inherited", "numeric", "boolean", "string",
    "leftfeature", "rightfeature", "constrainttype",
}

STRUCTURALS = set(STRUCTURAL_ATTRS)

# TVL's, here so that the TVL writer can refuse them without loading the reader
TVL_KEYWORDS = {
    "enum", "string", "in", "root", "group", "allof", "oneof", "someof",
    "opt", "int", "real", "bool", "is", "requires", "excludes", "true", "false",
}

SYMBOLS = ("<=", ">=", "<>", ";", ",", "(", ")", ".", "=", ":",
           "+", "-", "*", "/", "%", "<", ">")

STRING_PUNCT = set("~!@#$%^&*()_+[]'/.,-;: ")

# kind: keyword/symbol text, or STRING / INT / REAL / IDENT / VAR / ID / EOF
Token = namedtuple("Token", "kind text value line col")


class LexError(Exception):
    """An error at a position of a text, shown as `line L, column C: message`."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message, self.line, self.col = message, line, col


STRING_CHAR = "[0-9A-Za-z" + "".join(map(re.escape, sorted(STRING_PUNCT))) + "]"
_BLANKS = r"[ \t\r\n]*"
_WORD = r"[^\W0-9]\w*"
# the paths that report an error or show a token compile their regexes when
# first taken, through the re module's cache
_NUMBER = r"[+-]?[0-9]+(?:\.[0-9]+)?"


class Lexicon:
    """One language's lexical table, compiled into its master regex.

    A word is a run of `\\w` characters, which are those for which
    `str.isalnum()` holds, and `_`, that does not start with an ASCII digit
    (a number does). A keyword's kind is the keyword itself, and so is a
    symbol's; `classify(word)` gives the kind of any other word, or raises
    ValueError with the message of the LexError to report. `phrases` lists
    (kind, regex, number of groups), each a run of tokens read as one token
    of that kind, tried before a word; its regex must match only text that
    lexes the same token by token, and its groups, two or more, become the
    token's value, a tuple.
    """

    def __init__(self, keywords, symbols, classify, signed_numbers: bool = False,
                 phrases=()):
        number = "[+-]?[0-9]+" if signed_numbers else "[0-9]+"
        symbol = "|".join(map(re.escape, sorted(symbols, key=len, reverse=True)))
        self.kinds = {word: word for word in (*keywords, *symbols)}
        self.classify = classify
        self.phrases, group = {}, 1  # a phrase's group to its kind and value groups
        for kind, _, groups in phrases:
            if groups < 2:  # m.group() of one group is no tuple
                raise ValueError(f"phrase {kind} has {groups} value groups, fewer than two")
            self.phrases[group] = kind, tuple(range(group + 1, group + 1 + groups))
            group += 1 + groups
        self.word = group  # the group of a word; string, real, integer and other follow
        self.source = (_BLANKS + "(?:" + "".join(f"({regex})|" for _, regex, _ in phrases)
                       + rf"({_WORD}|{symbol})"
                       f'|"({STRING_CHAR}+)"'
                       rf"|({number}\.[0-9]+)"
                       f"|({number})"
                       r"|([^ \t\r\n])|\Z)")
        self.pattern = None

    def compiled(self):
        """The master regex, compiled on first use."""
        self.pattern = self.pattern or re.compile(self.source)
        return self.pattern


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
        kind, value = self.kinds[i], self.values[i]
        if kind == "INT" or kind == "REAL":
            return re.compile(_NUMBER).match(self.source, self.starts[i])[0]
        if type(value) is tuple:  # a phrase, which reads as its leading keyword
            return re.compile(r"\w+").match(self.source, self.starts[i])[0]
        return "" if kind == "EOF" else value

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
    phrases, word = lexicon.phrases, lexicon.word
    string, real, integer, other = range(word + 1, word + 5)
    for m in lexicon.compiled().finditer(text):
        k = m.lastindex
        if k == word:
            value = m[k]
            kind = known.get(value)
            if kind is None:
                try:
                    kind = known[value] = lexicon.classify(value)
                except ValueError as e:
                    _raise(str(e), text, m.start(k))
            add_kind(kind)
            add_value(value)
            add_start(m.start(k))
        elif k in phrases:
            kind, groups = phrases[k]
            add_kind(kind)
            add_value(m.group(*groups))
            add_start(m.start(k))
        elif k == string:
            add_kind("STRING")
            add_value(m[k])
            add_start(m.start(k) - 1)
        elif k == integer:
            try:
                add_value(int(m[k]))
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                _raise("integer literal out of range", text, m.start(k))
            add_kind("INT")
            add_start(m.start(k))
        elif k == real:
            number = float(m[k])
            if not math.isfinite(number):
                _raise("real literal out of range", text, m.start(k))
            add_kind("REAL")
            add_value(number)
            add_start(m.start(k))
        elif k == other:
            _fail(text, m.start(k))
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
    end = re.compile(STRING_CHAR + "*").match(text, start + 1).end()
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


def _tvl_word(word: str) -> str:
    if not word[0].isalpha():
        raise ValueError(f"unexpected character {word[0]!r}")
    return "ID"


LEXICON = Lexicon(KEYWORDS | STRUCTURALS, SYMBOLS, _feather_word)


def _lexes_as(name: str, kind: str, keywords, classify) -> bool:
    """Whether `name` lexes as one `kind` word: no keyword, and `classify` gives `kind`."""
    try:
        return bool(re.fullmatch(_WORD, name)) and name not in keywords and classify(name) == kind
    except ValueError:
        return False


def is_ident(name: str) -> bool:
    """Whether `name` lexes as one Feather IDENT, as an attribute name must."""
    return _lexes_as(name, "IDENT", LEXICON.kinds, _feather_word)


def is_tvl_id(name: str) -> bool:
    """Whether `name` lexes as one TVL ID, as a feature name in TVL must."""
    return _lexes_as(name, "ID", TVL_KEYWORDS, _tvl_word)


_QUOTED = f'{_BLANKS}"({STRING_CHAR}+)"'

# A declarations file's lexicon: a constraint, "constraint" L kind R ";", is
# one CONSTRAINT token, value (L, kind, R), and a feature's head, "feature"
# name parent kind, one FEATURE token, value (name, parent, kind); a group's
# "to" and sibling follow as tokens. The kind ends in (?!\w), so that
# "alternativeto" stays one word; blanks and a quote follow each other keyword.
DECLARATIONS = Lexicon(KEYWORDS | STRUCTURALS, SYMBOLS, _feather_word, phrases=(
    ("CONSTRAINT", f"constraint{_QUOTED}{_BLANKS}(requires|excludes){_QUOTED}{_BLANKS};", 3),
    ("FEATURE", rf"feature{_QUOTED}{_QUOTED}{_BLANKS}"
                rf"({'|'.join(kind.value for kind in DecompKind)})(?!\w)", 3)))


def tokenize(text: str, lexicon: Lexicon = LEXICON) -> Tokens:
    return lex(text, lexicon)
