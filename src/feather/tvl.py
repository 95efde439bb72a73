"""Import/export for the accepted TVL subset.

A TVL model is a list of feature blocks; the first one is the root. Group
mapping: an `allof` child is mandatory, or optional when flagged `opt`;
`oneof` becomes one alternative group, `someof` one or group. Constraints
may appear in any block and are collected into the single model-level set;
export emits them inside the root block.

Import checks what only blocks can get wrong (a duplicate block, an unknown
group member, a block in no group) and hands one row per group member to
`build.assemble`, which checks the tree; its `BuildError` becomes a
`TvlError` with the same text.
"""

from __future__ import annotations

import re

from .build import BuildError, assemble
from .model import Constraint, DecompKind, FeatureModel
from .record import Record
from .serializer import format_real
from .tokens import Cursor, LexError, Lexicon, lex

KEYWORDS = {
    "enum", "string", "in", "root", "group", "allof", "oneof", "someof",
    "opt", "int", "real", "bool", "is", "requires", "excludes", "true", "false",
}

_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


class TvlError(Exception):
    """Input is not a valid model in the accepted TVL subset."""


class TvlExportError(Exception):
    """The model cannot be represented in the TVL subset."""


def _word(word: str) -> str:
    if not word[0].isalpha():
        raise ValueError(f"unexpected character {word[0]!r}")
    return "ID"


LEXICON = Lexicon(KEYWORDS, "{},;", _word, signed_numbers=True)

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

    def fail(self, message: str):
        raise TvlError(f"line {self.tokens.line(self.pos)}: {message}")

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
            if name in block.attributes:
                raise TvlError(f'line {self.tokens.line(start)}: duplicate attribute '
                               f'"{name}" in feature "{block.name}"')
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
            raise TvlError(f'duplicate feature "{b.name}"')
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
                    raise TvlError(
                        f'group under "{b.name}" names unknown feature "{child}"')
                rows.append((child, b.name, kinds[opt], key, block.attributes))
    if len(rows) < len(blocks) - 1:  # a block is in no group
        placed = {row[0] for row in rows}
        missing = next(b.name for b in blocks[1:] if b.name not in placed)
        raise TvlError(f'feature "{missing}" is not attached to any group')
    try:
        model = assemble(blocks[0].name, blocks[0].attributes, rows,
                         [c for b in blocks for c in b.constraints])
    except BuildError as e:
        raise TvlError(str(e)) from None
    model.tvl_string_enum = header
    return model


def _check_exportable(model: FeatureModel) -> None:
    for name in model.features:
        if not _ID_RE.match(name):
            raise TvlExportError(
                f'feature name "{name}" is not a valid TVL identifier')


def _attr_line(name: str, value) -> str:
    if isinstance(value, bool):
        return f"  bool {name} is {'true' if value else 'false'};"
    if isinstance(value, int):
        return f"  int {name} is {value};"
    if isinstance(value, float):
        return f"  real {name} is {format_real(value)};"
    return f'  string {name} is "{value}";'


def export_tvl(model: FeatureModel) -> str:
    _check_exportable(model)
    children = model.child_features()
    lines = []
    if model.tvl_string_enum:
        listed = ", ".join(f'"{s}"' for s in model.tvl_string_enum)
        lines.append(f"enum string in {{ {listed} }};")

    # preorder with an explicit stack: a deep chain must not exhaust the
    # interpreter's recursion limit
    stack = [model.root]
    while stack:
        name = stack.pop()
        f = model.features[name]
        is_root = name == model.root
        lines.append(("root " if is_root else "") + name + " {")
        for attr, value in f.attributes.items():
            lines.append(_attr_line(attr, value))
        kids = children.get(name, [])
        solitary = [k for k in kids if not k.decomp.is_group]
        if solitary:
            listed = ", ".join(
                ("opt " if k.decomp is DecompKind.OPTIONAL else "") + k.name
                for k in solitary)
            lines.append(f"  group allof {{ {listed} }}")
        listing_order = list(solitary)
        emitted = set()
        for k in kids:
            if k.group_id > 0 and k.group_id not in emitted:
                emitted.add(k.group_id)
                members = [m for m in kids if m.group_id == k.group_id]
                card = "oneof" if k.decomp is DecompKind.ALTERNATIVE else "someof"
                listed = ", ".join(m.name for m in members)
                lines.append(f"  group {card} {{ {listed} }}")
                listing_order.extend(members)
        if is_root:
            for c in model.constraints:
                lines.append(f"  {c.left} {c.kind} {c.right};")
        lines.append("}")
        # children in listing order, so that export(import(text)) is stable
        stack.extend(k.name for k in reversed(listing_order))
    return "\n".join(lines) + "\n"
