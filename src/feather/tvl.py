"""Import of the accepted TVL subset; `tvl_export` writes it.

A TVL model is a list of feature blocks; the first one is the root. Group
mapping: an `allof` child is mandatory, or optional when flagged `opt`;
`oneof` becomes one alternative group, `someof` one or group. Constraints
may appear in any block and are collected into the single model-level set.

Import checks what only blocks can get wrong (a duplicate block, an unknown
group member, a block in no group), each error naming the line of the block
at fault, and hands one row per group member to `build.assemble`, which
checks the tree; its `BuildError` becomes a `TvlError` with the same text.
A row, and each constraint, carries the line of the block that lists it.
"""

from __future__ import annotations

from .build import BuildError, assemble, unknown_feature
from .model import DecompKind, FeatureModel
from .tokens import _BLANKS, TVL_KEYWORDS, Cursor, LexError, Lexicon, _tvl_word, lex


class TvlError(Exception):
    """Input is not a valid model in the accepted TVL subset."""


# Two phrases. An int attribute declaration, "int" name "is" N ";", is one
# INT_ATTRIBUTE token, value (name, digits): its name starts with an ASCII
# lowercase letter and is no keyword, and N has at most 18 digits, so that
# it fits and a longer one keeps its error. An allof group, "group" "allof"
# "{" members "}", is one GROUP token, value ("allof", member text): each
# member starts with an ASCII capital, so that none is a keyword, and may be
# flagged "opt". A oneof or someof group lexes token by token: a phrase for
# it would add to every -t run's compile of this lexicon, and the computer
# model has none. A keyword ends before a blank or a symbol, never before a
# word character, so "intx" and "is4" stay words.
_MEMBER = r"(?:opt[ \t\r\n]+)?[A-Z]\w*"
LEXICON = Lexicon(TVL_KEYWORDS, "{},;", _tvl_word, signed_numbers=True, phrases=(
    ("INT_ATTRIBUTE", rf"int[ \t\r\n]+((?!(?:{'|'.join(sorted(TVL_KEYWORDS))})(?!\w))[a-z]\w*)"
                      rf"[ \t\r\n]+is(?!\w){_BLANKS}([+-]?[0-9]{{1,18}}){_BLANKS};", 2),
    ("GROUP", rf"group[ \t\r\n]+(allof){_BLANKS}\{{{_BLANKS}"
              rf"({_MEMBER}(?:{_BLANKS},{_BLANKS}{_MEMBER})*){_BLANKS}\}}", 2)))

# the kinds of the tokens that start an attribute declaration
_ATTRIBUTE_STARTS = ("INT_ATTRIBUTE", "int", "real", "bool", "string")
# the token kind of a value of each attribute type but bool
_VALUE_KINDS = {"int": "INT", "real": "REAL", "string": "STRING"}
# the kind of the members of each group cardinality but allof
_GROUP_KINDS = {"oneof": DecompKind.ALTERNATIVE, "someof": DecompKind.OR}
# the kind of an allof member, by its opt flag
_SOLITARY = (DecompKind.MANDATORY, DecompKind.OPTIONAL)


class _TvlParser(Cursor):
    """The parser of a TVL text, lexed on construction. The parse ends with
    `expect("EOF")`, the one step that passes EOF."""

    def __init__(self, text: str):
        try:
            super().__init__(lex(text, LEXICON))
        except LexError as e:
            raise TvlError(f"line {e.line}: {e.message}") from None

    def fail(self, message: str, pos: int | None = None):
        raise TvlError(f"line {self.tokens.line(self.pos if pos is None else pos)}: {message}")

    def parse(self):
        kinds = self.kinds
        header = None
        if self.skip("enum"):
            self.expect("string")
            self.expect("in")
            self.expect("{")
            header = [self.expect("STRING")]
            while self.skip(","):
                header.append(self.expect("STRING"))
            self.expect("}")
            self.expect(";")
        self.expect("root")
        blocks = [self.parse_block()]
        while kinds[self.pos] == "ID":
            blocks.append(self.parse_block())
        self.expect("EOF")
        return header, blocks

    def parse_block(self) -> tuple:
        """The next block, (name, attributes, groups, constraints, line): a
        group is (cardinality, [(opt?, id)]), a constraint (left, kind, right, line)."""
        kinds, values = self.kinds, self.values
        pos = self.pos  # kept equal to self.pos at each loop's test
        if kinds[pos] != "ID" or kinds[pos + 1] != "{":
            self.expect("ID")  # fails here or at the next token
            self.expect("{")
        name, line = values[pos], self.tokens.line(pos)
        attributes, groups, constraints = {}, [], []
        pos = self.pos = pos + 2
        tag = kinds[pos]
        while tag in _ATTRIBUTE_STARTS:  # phrases or not, in text order
            self.pos = pos + 1
            if tag == "INT_ATTRIBUTE":
                attribute, digits = values[pos]
                self.check_new_attribute(attribute, attributes, name, pos)
                attributes[attribute] = int(digits)
            else:
                attribute = self.parse_attr_id()
                self.check_new_attribute(attribute, attributes, name, pos)
                self.expect("is")
                attributes[attribute] = self.parse_value(tag)
                self.expect(";")
            pos = self.pos
            tag = kinds[pos]
        while tag == "GROUP" or tag == "group":
            if tag == "GROUP":  # the phrase admits blanks, commas and words only
                card, text = values[pos]
                members = [(words[0] == "opt", words[-1])
                           for words in map(str.split, text.split(","))]
                self.pos = pos + 1
            else:
                card = kinds[pos + 1]
                if card not in ("allof", "oneof", "someof"):
                    self.pos += 1
                    self.fail("expected allof, oneof, or someof")
                self.pos += 2
                self.expect("{")
                members = []
                while True:
                    opt = card == "allof" and self.skip("opt")
                    members.append((opt, self.expect("ID")))
                    if not self.skip(","):
                        break
                self.expect("}")
            groups.append((card, members))
            pos = self.pos
            tag = kinds[pos]
        while tag == "ID":
            left = values[self.pos]
            self.pos += 1
            op = kinds[self.pos]
            if op not in ("requires", "excludes"):
                self.fail("expected requires or excludes")
            self.pos += 1
            right = self.expect("ID")
            self.expect(";")
            constraints.append((left, op, right, line))
            tag = kinds[self.pos]
        self.expect("}")
        return name, attributes, groups, constraints, line

    def parse_attr_id(self) -> str:
        if self.kinds[self.pos] != "ID" or not self.values[self.pos][0].islower():
            self.fail("expected a lowercase attribute id")
        self.pos += 1
        return self.values[self.pos - 1]

    def parse_value(self, tag: str):
        kind = self.kinds[self.pos]
        if kind == _VALUE_KINDS.get(tag):
            self.pos += 1
            return self.values[self.pos - 1]
        if tag == "bool" and kind in ("true", "false"):
            self.pos += 1
            return kind == "true"
        self.fail(f"value {self.text() or 'end of input'!r} does not match type {tag}")


def import_tvl(text: str) -> FeatureModel:
    header, blocks = _TvlParser(text).parse()
    declared: dict = {}  # block name -> its attributes
    for name, attributes, _, _, line in blocks:
        if name in declared:
            raise TvlError(f'line {line}: duplicate feature "{name}"')
        declared[name] = attributes

    # a row per group member, in block order; a oneof or someof group is
    # keyed by the index of its first row
    rows = []
    for parent, _, groups, _, line in blocks:
        for card, members in groups:
            kind = _GROUP_KINDS.get(card)
            kinds, key = ((kind, kind), len(rows)) if kind else (_SOLITARY, None)
            for opt, child in members:
                attributes = declared.get(child)
                if attributes is None:
                    raise TvlError(f"line {line}: "
                                   + unknown_feature(f'group under "{parent}"', child))
                rows.append((child, parent, kinds[opt], key, attributes, line))
    if len(rows) < len(blocks) - 1:  # a block is in no group
        placed = {row[0] for row in rows}
        name, _, _, _, line = next(b for b in blocks[1:] if b[0] not in placed)
        raise TvlError(f'line {line}: feature "{name}" is not attached to any group')
    try:
        model = assemble(*blocks[0][:2], rows, [c for b in blocks for c in b[3]])
    except BuildError as e:
        raise TvlError(str(e)) from None
    model.tvl_string_enum = header
    return model
