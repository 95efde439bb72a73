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
from .model import Constraint, DecompKind, FeatureModel
from .parser import ConstraintDecl
from .record import Record
from .tokens import TVL_KEYWORDS, Cursor, LexError, Lexicon, _tvl_word, lex


class TvlError(Exception):
    """Input is not a valid model in the accepted TVL subset."""


LEXICON = Lexicon(TVL_KEYWORDS, "{},;", _tvl_word, signed_numbers=True)

# the token kind of a value of each attribute type but bool
_VALUE_KINDS = {"int": "INT", "real": "REAL", "string": "STRING"}
# the kind of the members of each group cardinality but allof
_GROUP_KINDS = {"oneof": DecompKind.ALTERNATIVE, "someof": DecompKind.OR}
# the kind of an allof member, by its opt flag
_SOLITARY = (DecompKind.MANDATORY, DecompKind.OPTIONAL)


class _Block(Record):
    __slots__ = ("name", "attributes", "groups", "constraints", "line")

    def __init__(self, name: str, attributes: dict | None = None, groups: list | None = None,
                 constraints: list | None = None, line: int = 0):
        self.name = name
        self.attributes = {} if attributes is None else attributes
        self.groups = [] if groups is None else groups  # (cardinality, [(opt?, id)])
        self.constraints = [] if constraints is None else constraints
        self.line = line


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
        blocks = []
        self.expect("root")
        blocks.append(self.parse_block())
        while kinds[self.pos] == "ID":
            blocks.append(self.parse_block())
        self.expect("EOF")
        return header, blocks

    def parse_block(self) -> _Block:
        kinds, values = self.kinds, self.values
        line = self.tokens.line(self.pos)
        block = _Block(self.expect("ID"), line=line)
        self.expect("{")
        while kinds[self.pos] in ("int", "real", "bool", "string"):
            start = self.pos
            tag = kinds[start]
            self.pos += 1
            name = self.parse_attr_id()
            self.check_new_attribute(name, block.attributes, block.name, start)
            self.expect("is")
            block.attributes[name] = self.parse_value(tag)
            self.expect(";")
        while kinds[self.pos] == "group":
            card = kinds[self.pos + 1]
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
            block.groups.append((card, members))
        while kinds[self.pos] == "ID":
            left = values[self.pos]
            self.pos += 1
            op = kinds[self.pos]
            if op not in ("requires", "excludes"):
                self.fail("expected requires or excludes")
            self.pos += 1
            right = self.expect("ID")
            self.expect(";")
            block.constraints.append(Constraint(left, op, right))
        self.expect("}")
        return block

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
    by_name: dict = {}
    for b in blocks:
        if b.name in by_name:
            raise TvlError(f'line {b.line}: duplicate feature "{b.name}"')
        by_name[b.name] = b

    # a row per group member, in block order; a oneof or someof group is
    # keyed by the index of its first row
    rows = []
    for b in blocks:
        for card, members in b.groups:
            kind = _GROUP_KINDS.get(card)
            kinds, key = ((kind, kind), len(rows)) if kind else (_SOLITARY, None)
            for opt, child in members:
                block = by_name.get(child)
                if block is None:
                    raise TvlError(f"line {b.line}: "
                                   + unknown_feature(f'group under "{b.name}"', child))
                rows.append((child, b.name, kinds[opt], key, block.attributes, b.line))
    if len(rows) < len(blocks) - 1:  # a block is in no group
        placed = {row[0] for row in rows}
        missing = next(b for b in blocks[1:] if b.name not in placed)
        raise TvlError(f'line {missing.line}: feature "{missing.name}" '
                       "is not attached to any group")
    try:
        model = assemble(blocks[0].name, blocks[0].attributes, rows,
                         [ConstraintDecl(c.left, c.kind, c.right, b.line)
                          for b in blocks for c in b.constraints])
    except BuildError as e:
        raise TvlError(str(e)) from None
    model.tvl_string_enum = header
    return model
