"""Lexer for transformation scripts.

Whitespace between tokens is insignificant; there is no comment syntax.
String literals admit letters, digits, spaces, and a fixed punctuation set,
so an embedded double quote is impossible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

KEYWORDS = {
    "root", "feature", "attribute", "constraint", "requires", "excludes",
    "mandatory", "optional", "alternative", "or", "to",
    "add", "update", "updateall", "remove", "removeall",
    "with", "attributes", "set", "where", "and", "not",
    "true", "false", "inherited", "numeric", "boolean", "string",
    "leftfeature", "rightfeature", "constrainttype",
}

STRUCTURALS = {"_name", "_parent", "_decomp", "_decompID"}

SYMBOLS = ("<=", ">=", "<>", ";", ",", "(", ")", ".", "=", ":",
           "+", "-", "*", "/", "%", "<", ">")

STRING_PUNCT = set("~!@#$%^&*()_+[]'/.,-;: ")


@dataclass(frozen=True)
class Token:
    kind: str  # keyword/symbol text, or STRING / INT / REAL / IDENT / VAR / EOF
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


def tokenize(text: str) -> list:
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        start_line, start_col = line, col
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"' and text[j] != "\n":
                c = text[j]
                if not (c.isascii() and (c.isalnum() or c in STRING_PUNCT)):
                    raise LexError(f"character {c!r} not allowed in a string",
                                   line, col + (j - i))
                j += 1
            if j >= n or text[j] != '"':
                raise LexError("unterminated string literal", start_line, start_col)
            if j == i + 1:
                raise LexError("empty string literal", start_line, start_col)
            s = text[i + 1:j]
            tokens.append(Token("STRING", s, s, start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j + 1 < n and text[j] == "." and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                lit = text[i:j]
                value = float(lit)
                if not math.isfinite(value):
                    raise LexError("real literal out of range", start_line, start_col)
                tokens.append(Token("REAL", lit, value, start_line, start_col))
            else:
                lit = text[i:j]
                tokens.append(Token("INT", lit, int(lit), start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word.startswith("_"):
                if word not in STRUCTURALS:
                    raise LexError(f"unknown structural attribute {word!r}",
                                   start_line, start_col)
                kind = word
            elif word in KEYWORDS:
                kind = word
            elif word[0].isupper():
                kind = "VAR"
            else:
                kind = "IDENT"
            tokens.append(Token(kind, word, word, start_line, start_col))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(sym, sym, sym, start_line, start_col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", None, line, col))
    return tokens
