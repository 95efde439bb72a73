"""Recursive-descent parser: declarations, commands, and static validation.

Produces a ScriptAst. Expression sub-grammar uses C operator precedence
(unary > mul > add > relational > equality > and > or), parsed by precedence
climbing; `not` is a unary operator, so it binds tighter than `and`.
Expressions nested deeper than MAX_EXPR_DEPTH are a parse error.
"""

from __future__ import annotations

from .expressions import AttrRef, Binary, FeatureRef, Lit, Unary, VarRef
from .model import STRUCTURAL, DecompKind
from .record import Record
from .tokens import DECLARATIONS, LEXICON, Cursor, LexError, tokenize

DECOMP_KEYWORDS = {kind.value: kind for kind in DecompKind}

# binding strength of the binary operators, all left-associative
BINARY_PRECEDENCE = {
    "or": 1, "and": 2, "=": 3, "<>": 3, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
}

# The deepest expression nesting accepted, in levels: each unary and binary
# operator between the whole expression and an operand is one level, each
# parenthesis two, its cost in parser frames. Every later walk of the tree
# (usages, -x dump, resolving, slot values) takes one frame per operator, so
# an expression at the limit needs about 425 frames, well within the default
# recursion limit; deeper input is a parse error.
MAX_EXPR_DEPTH = 400


class ParseError(LexError):
    """A syntax error, or a lexical one found while parsing."""


# -- AST -------------------------------------------------------------------


class RootDecl(Record):
    __slots__ = ("name", "attributes", "line")  # attributes: [(ident, literal value)]
    _defaults = {"line": 0}


class FeatureDecl(Record):
    __slots__ = ("name", "parent", "decomp", "sibling", "attributes", "line")

    def __init__(self, name: str, parent: str, decomp: DecompKind,
                 sibling: str | None, attributes: list, line: int = 0):
        self.name, self.parent, self.decomp = name, parent, decomp
        self.sibling = sibling  # present iff decomp is a group kind
        self.attributes, self.line = attributes, line


class ConstraintDecl(Record):
    __slots__ = ("left", "kind", "right", "line")

    def __init__(self, left: str, kind: str, right: str, line: int = 0):
        self.left, self.kind, self.right, self.line = left, kind, right, line


class DecompSpec(Record):
    """Right-hand side of a `_decomp =` assignment."""

    # kind: Lit(DecompKind) or AttrRef(fdesc, "_decomp");
    # sibling: FeatureRef | VarRef | None
    __slots__ = ("kind", "sibling")


class AttrAssign(Record):
    # tag: numeric | boolean | string | inherited; value: an expression
    __slots__ = ("name", "tag", "value")


class Command(Record):
    __slots__ = ("code", "where", "line")
    _defaults = {"code": "", "where": None, "line": 0}


class AddFeature(Command):
    # parent: Lit(str) | AttrRef(VarRef, "_name"); decomp: DecompSpec | None
    __slots__ = ("name", "parent", "decomp", "attrs")
    _defaults = {"code": "addf", "name": "", "parent": None, "decomp": None,
                 "attrs": []}


class UpdateFeature(Command):
    # target: FeatureRef | VarRef
    __slots__ = ("target", "new_name", "parent", "decomp", "attrs")
    _defaults = {"code": "upf", "target": None, "new_name": None, "parent": None,
                 "decomp": None, "attrs": []}


class UpdateAllFeatures(Command):
    __slots__ = ("var", "parent", "decomp", "attrs")
    _defaults = {"code": "upmf", "var": "", "parent": None, "decomp": None, "attrs": []}


class RemoveFeature(Command):
    __slots__ = ("target",)
    _defaults = {"code": "rmf", "target": None}


class RemoveAllFeatures(Command):
    __slots__ = ("var",)
    _defaults = {"code": "rmmf", "var": ""}


class ConstraintCommand(Command):
    __slots__ = ("left", "kind", "right")  # left, right: FeatureRef | VarRef
    _defaults = {"left": None, "kind": "", "right": None}


class AddConstraint(ConstraintCommand):
    __slots__ = ()
    _defaults = {"code": "addc"}


class UpdateConstraint(ConstraintCommand):
    # updates: the slot names, for static checks
    __slots__ = ("new_left", "new_kind", "new_right", "updates")
    _defaults = {"code": "upc", "new_left": None, "new_kind": None,
                 "new_right": None, "updates": []}


class UpdateAllConstraints(UpdateConstraint):
    __slots__ = ()
    _defaults = {"code": "upmc"}


class RemoveConstraint(ConstraintCommand):
    __slots__ = ()
    _defaults = {"code": "rmc"}


class RemoveAllConstraints(ConstraintCommand):
    __slots__ = ()
    _defaults = {"code": "rmmc"}


class ScriptAst(Record):
    __slots__ = ("root", "features", "constraints", "commands")  # root: RootDecl | None
    _defaults = {"root": None, "features": [], "constraints": [], "commands": []}


# -- parser ----------------------------------------------------------------

# the command keywords, each with its constraint command
CONSTRAINT_COMMANDS = {"add": AddConstraint, "update": UpdateConstraint,
                       "updateall": UpdateAllConstraints, "remove": RemoveConstraint,
                       "removeall": RemoveAllConstraints}


class _Parser(Cursor):
    """The parser of transformation scripts."""

    def fail(self, message: str, pos: int | None = None):
        raise ParseError(message, *self.tokens.position(self.pos if pos is None else pos))

    # -- declarations ------------------------------------------------------

    def parse_root(self) -> RootDecl:
        line = self.tokens.line(self.pos)
        self.expect("root", "the root feature declaration")
        name = self.expect("STRING", "the root feature name")
        attrs = self.parse_attr_decls(name)
        self.expect(";")
        return RootDecl(name, attrs, line=line)

    def parse_attr_decls(self, owner: str) -> list:
        attrs = {}
        while self.skip("attribute"):
            at = self.pos - 1
            ident = self.expect("IDENT", "an attribute identifier")
            self.check_new_attribute(ident, attrs, owner, at)
            attrs[ident] = self.parse_literal()
        return list(attrs.items())

    def parse_literal(self):
        sign, kind = None, self.kinds[self.pos]
        if kind == "+" or kind == "-":
            sign = kind
            self.pos += 1
            kind = self.kinds[self.pos]
        if kind == "INT" or kind == "REAL":
            self.pos += 1
            return -self.values[self.pos - 1] if sign == "-" else self.values[self.pos - 1]
        if sign:
            self.fail("expected a numeric literal after the sign")
        if kind == "true" or kind == "false":
            self.pos += 1
            return kind == "true"
        if kind == "STRING":
            self.pos += 1
            return self.values[self.pos - 1]
        self.fail(f"expected a literal value, found {self.text()!r}")

    def parse_feature_decl(self) -> FeatureDecl:
        line = self.tokens.line(self.pos)
        self.pos += 1  # feature, or the whole head
        if self.kinds[self.pos - 1] == "FEATURE":
            name, parent, kind = self.values[self.pos - 1]
            kind = DECOMP_KEYWORDS[kind]
        else:
            name = self.expect("STRING", "a feature name")
            parent = self.expect("STRING", "a parent name")
            kind = DECOMP_KEYWORDS.get(self.kinds[self.pos])
            if kind is None:
                self.fail(f"expected a decomposition kind, found {self.text()!r}")
            self.pos += 1
        sibling = None
        if kind.is_group:
            self.expect("to")
            sibling = self.expect("STRING", "a sibling feature name")
        attrs = self.parse_attr_decls(name)
        self.expect(";")
        return FeatureDecl(name, parent, kind, sibling, attrs, line=line)

    def parse_constraint_decl(self) -> ConstraintDecl:
        line = self.tokens.line(self.pos)
        self.pos += 1  # constraint
        left = self.expect("STRING", "a feature name")
        kind = self.parse_ctc_type()
        right = self.expect("STRING", "a feature name")
        self.expect(";")
        return ConstraintDecl(left, kind, right, line=line)

    def parse_ctc_type(self) -> str:
        kind = self.kinds[self.pos]
        if kind != "requires" and kind != "excludes":
            self.fail(f"expected requires or excludes, found {self.text()!r}")
        self.pos += 1
        return kind

    # -- expressions -------------------------------------------------------

    def parse_expr(self):
        return self._expr(1, 0)[0]

    def _expr(self, min_prec: int, depth: int) -> tuple:
        """(expression, its nesting) over operators binding at least
        `min_prec`, inside `depth` levels of nesting."""
        left, height = self._operand(depth)
        while BINARY_PRECEDENCE.get(self.kinds[self.pos], 0) >= min_prec:
            at, op = self.pos, self.kinds[self.pos]
            self.pos += 1
            right, right_height = self._expr(BINARY_PRECEDENCE[op] + 1, depth + 1)
            height = max(height, right_height) + 1
            self._check_depth(depth + height, at)
            left = Binary(op, left, right)
        return left, height

    def _operand(self, depth: int) -> tuple:
        """(operand, its nesting): unary operators, then a parenthesized
        expression or a primary."""
        ops = []  # positions of the unary operators
        while self.kinds[self.pos] in ("-", "not"):
            ops.append(self.pos)
            self.pos += 1
            self._check_depth(depth + len(ops), ops[-1])
        if self.skip("("):
            self._check_depth(depth + len(ops) + 2, self.pos - 1)
            operand, height = self._expr(1, depth + len(ops) + 2)
            self.expect(")")
            height += 2
        else:
            operand, height = self.parse_primary(), 0
        for at in reversed(ops):
            operand = Unary(self.kinds[at], operand)
        return operand, height + len(ops)

    def _check_depth(self, depth: int, at: int) -> None:
        if depth > MAX_EXPR_DEPTH:
            self.fail("expression nested too deeply", at)

    def parse_primary(self):
        kind, value = self.kinds[self.pos], self.values[self.pos]
        if kind == "INT" or kind == "REAL":
            self.pos += 1
            return Lit(value)
        if kind == "true" or kind == "false":
            self.pos += 1
            return Lit(kind == "true")
        if kind in DECOMP_KEYWORDS:  # decomposition literal in operand position
            self.pos += 1
            return Lit(DECOMP_KEYWORDS[kind])
        if kind == "STRING":
            self.pos += 1
            if self.skip("."):
                return AttrRef(FeatureRef(value), self.parse_attr_name())
            return Lit(value)
        if kind == "VAR":
            self.pos += 1
            self.expect(".", "'.' after a feature variable")
            return AttrRef(VarRef(value), self.parse_attr_name())
        self.fail(f"expected an operand, found {self.text() or 'end of input'!r}")

    def parse_attr_name(self) -> str:
        kind = self.kinds[self.pos]
        if kind == "IDENT" or kind in STRUCTURAL:
            self.pos += 1
            return self.values[self.pos - 1]
        self.fail(f"expected an attribute name, found {self.text()!r}")

    # -- command building blocks ------------------------------------------

    def parse_fdesc(self):
        kind = self.kinds[self.pos]
        if kind == "STRING" or kind == "VAR":
            self.pos += 1
            return (FeatureRef if kind == "STRING" else VarRef)(self.values[self.pos - 1])
        self.fail(f"expected a feature name or variable, found {self.text()!r}")

    def parse_name_desc(self):
        """FeatureNameDescription: "Name" or Var._name, as a string expression."""
        kind, value = self.kinds[self.pos], self.values[self.pos]
        if kind == "STRING":
            self.pos += 1
            return Lit(value)
        if kind == "VAR":
            self.pos += 1
            self.expect(".")
            self.expect("_name", "'_name' after the feature variable")
            return AttrRef(VarRef(value), "_name")
        self.fail(f"expected a feature name or Variable._name, found {self.text()!r}")

    def parse_decomp_spec(self) -> DecompSpec:
        kind = self.kinds[self.pos]
        if kind in DECOMP_KEYWORDS:
            self.pos += 1
            kind = Lit(DECOMP_KEYWORDS[kind])
        else:
            fd = self.parse_fdesc()
            self.expect(".")
            self.expect("_decomp", "'_decomp'")
            kind = AttrRef(fd, "_decomp")
        sibling = None
        if self.skip("to"):
            sibling = self.parse_fdesc()
        return DecompSpec(kind, sibling)

    def parse_structural(self, cmd, kind: str) -> None:
        """`_parent = ...` or `_decomp = ...`, `kind` being the next token,
        into the field of `cmd` without the underscore, which must be unset."""
        self.pos += 1
        self.expect("=")
        if getattr(cmd, kind[1:]) is not None:
            self.fail(f"{kind} is set twice")
        setattr(cmd, kind[1:],
                self.parse_name_desc() if kind == "_parent" else self.parse_decomp_spec())

    def parse_attr_assign(self) -> AttrAssign:
        name = self.expect("IDENT", "an attribute identifier")
        self.expect("=")
        tag = self.kinds[self.pos]
        if tag not in ("inherited", "numeric", "boolean", "string"):
            self.fail(f"expected a value type tag, found {self.text()!r}")
        self.pos += 1
        self.expect(":")
        if tag == "inherited":
            fd = self.parse_fdesc()
            self.expect(".")
            return AttrAssign(name, tag, AttrRef(fd, self.parse_attr_name()))
        if tag == "string":
            return AttrAssign(name, tag, Lit(self.expect("STRING")))
        return AttrAssign(name, tag, self.parse_expr())

    def parse_where(self):
        if self.skip("where"):
            return self.parse_expr()
        return None

    # -- commands ----------------------------------------------------------

    def parse_command(self) -> Command:
        kind = self.kinds[self.pos]  # a key of CONSTRAINT_COMMANDS
        if self.kinds[self.pos + 1] != "feature":
            return self.parse_constraint_command(CONSTRAINT_COMMANDS[kind])
        if kind == "add":
            return self.parse_add_feature()
        if kind in ("update", "updateall"):
            return self.parse_update_feature(multi=kind == "updateall")
        return self.parse_remove_feature(multi=kind == "removeall")

    def parse_add_feature(self) -> AddFeature:
        line = self.tokens.line(self.pos)
        self.pos += 2  # add feature
        name = self.expect("STRING", "the new feature name")
        for kind in ("with", "attributes", "("):
            self.expect(kind)
        cmd = AddFeature(name=name, line=line)
        # the two structural slots come first, in either order
        for _ in range(2):
            kind = self.kinds[self.pos]
            if kind not in ("_parent", "_decomp") or getattr(cmd, kind[1:]) is not None:
                self.fail("add feature requires exactly one _parent and one "
                          "_decomp assignment first")
            self.parse_structural(cmd, kind)
            if not self.skip(",") and self.at(")"):
                break
        if cmd.parent is None or cmd.decomp is None:
            self.fail("add feature requires both _parent and _decomp assignments")
        while not self.at(")"):
            cmd.attrs.append(self.parse_attr_assign())
            if not self.skip(","):
                break
        self.expect(")")
        cmd.where = self.parse_where()
        self.expect(";")
        return cmd

    def parse_update_feature(self, multi: bool) -> Command:
        line = self.tokens.line(self.pos)
        self.pos += 2  # update feature | updateall feature
        if multi:
            cmd = UpdateAllFeatures(var=self.expect("VAR", "a feature variable"), line=line)
        else:
            cmd = UpdateFeature(target=self.parse_fdesc(), line=line)
        self.expect("set")
        while True:
            kind = self.kinds[self.pos]
            if kind == "_name":
                if multi:
                    self.fail("updateall feature cannot set _name")
                self.pos += 1
                self.expect("=")
                new = self.expect("STRING", "the new feature name")
                if cmd.new_name is not None:
                    self.fail("_name is set twice")
                cmd.new_name = new
            elif kind == "_parent" or kind == "_decomp":
                self.parse_structural(cmd, kind)
            else:
                cmd.attrs.append(self.parse_attr_assign())
            if not self.skip(","):
                break
        cmd.where = self.parse_where()
        self.expect(";")
        return cmd

    def parse_remove_feature(self, multi: bool) -> Command:
        line = self.tokens.line(self.pos)
        self.pos += 2  # remove feature | removeall feature
        if multi:
            cmd = RemoveAllFeatures(var=self.expect("VAR", "a feature variable"), line=line)
        else:
            cmd = RemoveFeature(target=self.parse_fdesc(), line=line)
        cmd.where = self.parse_where()
        self.expect(";")
        return cmd

    def parse_constraint_command(self, cls) -> Command:
        line = self.tokens.line(self.pos)
        self.pos += 1  # add | update | updateall | remove | removeall
        self.expect("constraint")
        left = self.parse_fdesc()
        kind = self.parse_ctc_type()
        right = self.parse_fdesc()
        cmd = cls(left=left, kind=kind, right=right, line=line)
        if isinstance(cmd, UpdateConstraint):  # updateall too
            self.expect("set")
            while True:
                kind = self.kinds[self.pos]
                if kind not in ("leftfeature", "rightfeature", "constrainttype"):
                    self.fail(f"expected a constraint element, found {self.text()!r}")
                self.pos += 1
                self.expect("=")
                if kind == "leftfeature":
                    cmd.new_left = self.parse_name_desc()
                elif kind == "rightfeature":
                    cmd.new_right = self.parse_name_desc()
                else:
                    cmd.new_kind = self.parse_ctc_type()
                cmd.updates.append(kind)
                if not self.skip(","):
                    break
        cmd.where = self.parse_where()
        self.expect(";")
        return cmd

    # -- top level ---------------------------------------------------------

    def parse_script(self, declarations: bool = True,
                     commands: bool = True) -> tuple:
        """Parse a whole input; returns (ScriptAst, error diagnostics).

        On a syntax error inside a statement, parsing resynchronizes at the
        next ';' and continues, so several errors can be reported at once.
        """
        ast = ScriptAst()
        errors = []
        if declarations:
            try:
                ast.root = self.parse_root()
            except ParseError as e:
                errors.append(e)
                self._resync()
            kinds, values = self.kinds, self.values
            while kinds[self.pos] in ("feature", "FEATURE", "constraint", "CONSTRAINT"):
                try:
                    if kinds[self.pos] == "CONSTRAINT":  # a whole constraint
                        ast.constraints.append(
                            ConstraintDecl(*values[self.pos], self.tokens.line(self.pos)))
                        self.pos += 1
                    elif kinds[self.pos] == "constraint":
                        ast.constraints.append(self.parse_constraint_decl())
                    else:
                        ast.features.append(self.parse_feature_decl())
                except ParseError as e:
                    errors.append(e)
                    self._resync()
        while self.kinds[self.pos] in CONSTRAINT_COMMANDS:
            if not commands:  # the last error, after those before it, and no tree
                errors.append(ParseError("commands are not allowed in a declarations file",
                                         *self.tokens.position(self.pos)))
                return ScriptAst(), errors
            try:
                ast.commands.append(self.parse_command())
            except ParseError as e:
                errors.append(e)
                self._resync()
        if not self.at("EOF"):
            errors.append(ParseError(f"unexpected input {self.text()!r}",
                                     *self.tokens.position(self.pos)))
        return ast, errors

    def _resync(self) -> None:
        """Step past the next ';', or past a constraint phrase, which holds one."""
        while not self.at(";", "CONSTRAINT", "EOF"):
            self.pos += 1
        self.pos += not self.at("EOF")


def parse_script(text: str) -> tuple:
    """Parse a combined declarations + commands script."""
    return _parse(text, LEXICON, declarations=True, commands=True)


def parse_declarations(text: str) -> tuple:
    return _parse(text, DECLARATIONS, declarations=True, commands=False)


def parse_commands(text: str) -> tuple:
    return _parse(text, LEXICON, declarations=False, commands=True)


def _parse(text: str, lexicon, declarations: bool, commands: bool) -> tuple:
    try:
        tokens = tokenize(text, lexicon)
    except LexError as e:
        return ScriptAst(), [ParseError(e.message, e.line, e.col)]
    return _Parser(tokens).parse_script(declarations, commands)


# -- static validation -----------------------------------------------------


def validate_static(ast: ScriptAst) -> list:
    """Checks of the commands that need no model: an attribute assigned
    twice, a constraint slot updated twice, too many updates in one
    `updateall constraint`. The builder (`build`) checks the declarations.

    Returns a list of diagnostic strings; empty means clean.
    """
    problems = []
    for i, cmd in enumerate(ast.commands, 1):
        if isinstance(cmd, (AddFeature, UpdateFeature, UpdateAllFeatures)):
            seen = set()
            for a in cmd.attrs:
                if a.name in seen:
                    problems.append(
                        f'cmd #{i}: attribute "{a.name}" is assigned twice')
                seen.add(a.name)
        if isinstance(cmd, UpdateConstraint):  # covers updateall too
            for slot in dict.fromkeys(cmd.updates):  # in script order
                if cmd.updates.count(slot) > 1:
                    problems.append(f"cmd #{i}: {slot} is updated twice")
            if cmd.code == "upmc" and len(cmd.updates) > 2:
                problems.append(
                    f"cmd #{i}: updateall constraint allows at most two updates")
    return problems
