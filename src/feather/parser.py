"""Recursive-descent parser: declarations, commands, and static validation.

Produces a ScriptAst. Expression sub-grammar uses C operator precedence
(unary > mul > add > relational > equality > and > or), parsed by precedence
climbing; `not` is a unary operator, so it binds tighter than `and`.
Expressions nested deeper than MAX_EXPR_DEPTH are a parse error.
"""

from __future__ import annotations

from .expressions import AttrRef, Binary, FeatureRef, Lit, Unary, VarRef
from .model import DecompKind
from .record import Record
from .tokens import STRUCTURALS, LexError, Token, tokenize

DECOMP_KEYWORDS = {
    "mandatory": DecompKind.MANDATORY,
    "optional": DecompKind.OPTIONAL,
    "alternative": DecompKind.ALTERNATIVE,
    "or": DecompKind.OR,
}

# attribute-name positions also admit lexer keywords that are plain words
_ATTRNAME_KINDS = ("IDENT",)

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


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


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


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        if not ahead:  # EOF is the last token, and next() never moves past it
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.tokens[self.pos]
        if t.kind != kind:
            want = what or f"{kind!r}"
            raise ParseError(f"expected {want}, found {t.text or 'end of input'!r}",
                            t.line, t.col)
        return self.next()

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    # -- declarations ------------------------------------------------------

    def parse_root(self) -> RootDecl:
        t = self.expect("root", "the root feature declaration")
        name = self.expect("STRING", "the root feature name").value
        attrs = self.parse_attr_decls()
        self.expect(";")
        return RootDecl(name, attrs, line=t.line)

    def parse_attr_decls(self) -> list:
        attrs = []
        while self.at("attribute"):
            self.next()
            ident = self.expect("IDENT", "an attribute identifier").value
            attrs.append((ident, self.parse_literal()))
        return attrs

    def parse_literal(self):
        sign = 1
        if self.at("+", "-"):
            sign = -1 if self.next().kind == "-" else 1
        t = self.peek()
        if t.kind in ("INT", "REAL"):
            self.next()
            return sign * t.value
        if sign == -1:
            self.fail("expected a numeric literal after the sign")
        if t.kind in ("true", "false"):
            self.next()
            return t.kind == "true"
        if t.kind == "STRING":
            self.next()
            return t.value
        self.fail(f"expected a literal value, found {t.text!r}")

    def parse_feature_decl(self) -> FeatureDecl:
        t = self.expect("feature")
        name = self.expect("STRING", "a feature name").value
        parent = self.expect("STRING", "a parent name").value
        kw = self.peek()
        if kw.kind not in DECOMP_KEYWORDS:
            self.fail(f"expected a decomposition kind, found {kw.text!r}")
        self.next()
        kind = DECOMP_KEYWORDS[kw.kind]
        sibling = None
        if kind.is_group:
            self.expect("to")
            sibling = self.expect("STRING", "a sibling feature name").value
        attrs = self.parse_attr_decls()
        self.expect(";")
        return FeatureDecl(name, parent, kind, sibling, attrs, line=t.line)

    def parse_constraint_decl(self) -> ConstraintDecl:
        t = self.expect("constraint")
        left = self.expect("STRING", "a feature name").value
        kind = self.parse_ctc_type()
        right = self.expect("STRING", "a feature name").value
        self.expect(";")
        return ConstraintDecl(left, kind, right, line=t.line)

    def parse_ctc_type(self) -> str:
        if not self.at("requires", "excludes"):
            self.fail(f"expected requires or excludes, found {self.peek().text!r}")
        return self.next().kind

    # -- expressions -------------------------------------------------------

    def parse_expr(self):
        return self._expr(1, 0)[0]

    def _expr(self, min_prec: int, depth: int) -> tuple:
        """(expression, its nesting) over operators binding at least
        `min_prec`, inside `depth` levels of nesting."""
        left, height = self._operand(depth)
        while BINARY_PRECEDENCE.get(self.peek().kind, 0) >= min_prec:
            t = self.next()
            right, right_height = self._expr(BINARY_PRECEDENCE[t.kind] + 1, depth + 1)
            height = max(height, right_height) + 1
            self._check_depth(depth + height, t)
            left = Binary(t.kind, left, right)
        return left, height

    def _operand(self, depth: int) -> tuple:
        """(operand, its nesting): unary operators, then a parenthesized
        expression or a primary."""
        ops = []
        while self.at("-", "not"):
            ops.append(self.next())
            self._check_depth(depth + len(ops), ops[-1])
        t = self.peek()
        if t.kind == "(":
            self.next()
            self._check_depth(depth + len(ops) + 2, t)
            operand, height = self._expr(1, depth + len(ops) + 2)
            self.expect(")")
            height += 2
        else:
            operand, height = self.parse_primary(), 0
        for op in reversed(ops):
            operand = Unary(op.kind, operand)
        return operand, height + len(ops)

    def _check_depth(self, depth: int, t: Token) -> None:
        if depth > MAX_EXPR_DEPTH:
            raise ParseError("expression nested too deeply", t.line, t.col)

    def parse_primary(self):
        t = self.peek()
        if t.kind == "INT" or t.kind == "REAL":
            self.next()
            return Lit(t.value)
        if t.kind in ("true", "false"):
            self.next()
            return Lit(t.kind == "true")
        if t.kind in DECOMP_KEYWORDS:  # decomposition literal in operand position
            self.next()
            return Lit(DECOMP_KEYWORDS[t.kind])
        if t.kind == "STRING":
            self.next()
            if self.at("."):
                self.next()
                return AttrRef(FeatureRef(t.value), self.parse_attr_name())
            return Lit(t.value)
        if t.kind == "VAR":
            self.next()
            self.expect(".", "'.' after a feature variable")
            return AttrRef(VarRef(t.value), self.parse_attr_name())
        self.fail(f"expected an operand, found {t.text or 'end of input'!r}")

    def parse_attr_name(self) -> str:
        t = self.peek()
        if t.kind == "IDENT" or t.kind in STRUCTURALS:
            self.next()
            return t.value
        self.fail(f"expected an attribute name, found {t.text!r}")

    # -- command building blocks ------------------------------------------

    def parse_fdesc(self):
        t = self.peek()
        if t.kind == "STRING":
            self.next()
            return FeatureRef(t.value)
        if t.kind == "VAR":
            self.next()
            return VarRef(t.value)
        self.fail(f"expected a feature name or variable, found {t.text!r}")

    def parse_name_desc(self):
        """FeatureNameDescription: "Name" or Var._name, as a string expression."""
        t = self.peek()
        if t.kind == "STRING":
            self.next()
            return Lit(t.value)
        if t.kind == "VAR":
            self.next()
            self.expect(".")
            self.expect("_name", "'_name' after the feature variable")
            return AttrRef(VarRef(t.value), "_name")
        self.fail(f"expected a feature name or Variable._name, found {t.text!r}")

    def parse_decomp_spec(self) -> DecompSpec:
        t = self.peek()
        if t.kind in DECOMP_KEYWORDS:
            self.next()
            kind = Lit(DECOMP_KEYWORDS[t.kind])
        else:
            fd = self.parse_fdesc()
            self.expect(".")
            self.expect("_decomp", "'_decomp'")
            kind = AttrRef(fd, "_decomp")
        sibling = None
        if self.at("to"):
            self.next()
            sibling = self.parse_fdesc()
        return DecompSpec(kind, sibling)

    def parse_attr_assign(self) -> AttrAssign:
        name = self.expect("IDENT", "an attribute identifier").value
        self.expect("=")
        t = self.peek()
        if t.kind == "inherited":
            self.next()
            self.expect(":")
            fd = self.parse_fdesc()
            self.expect(".")
            return AttrAssign(name, "inherited", AttrRef(fd, self.parse_attr_name()))
        if t.kind == "numeric":
            self.next()
            self.expect(":")
            return AttrAssign(name, "numeric", self.parse_expr())
        if t.kind == "boolean":
            self.next()
            self.expect(":")
            return AttrAssign(name, "boolean", self.parse_expr())
        if t.kind == "string":
            self.next()
            self.expect(":")
            return AttrAssign(name, "string", Lit(self.expect("STRING").value))
        self.fail(f"expected a value type tag, found {t.text!r}")

    def parse_where(self):
        if self.at("where"):
            self.next()
            return self.parse_expr()
        return None

    # -- commands ----------------------------------------------------------

    def parse_command(self) -> Command:
        t = self.peek()
        if t.kind == "add":
            if self.peek(1).kind == "feature":
                return self.parse_add_feature()
            return self.parse_constraint_command("addc")
        if t.kind == "update":
            if self.peek(1).kind == "feature":
                return self.parse_update_feature(multi=False)
            return self.parse_constraint_command("upc")
        if t.kind == "updateall":
            if self.peek(1).kind == "feature":
                return self.parse_update_feature(multi=True)
            return self.parse_constraint_command("upmc")
        if t.kind == "remove":
            if self.peek(1).kind == "feature":
                return self.parse_remove_feature(multi=False)
            return self.parse_constraint_command("rmc")
        if t.kind == "removeall":
            if self.peek(1).kind == "feature":
                return self.parse_remove_feature(multi=True)
            return self.parse_constraint_command("rmmc")
        self.fail(f"expected a command, found {t.text or 'end of input'!r}")

    def parse_add_feature(self) -> AddFeature:
        t = self.expect("add")
        self.expect("feature")
        name = self.expect("STRING", "the new feature name").value
        self.expect("with")
        self.expect("attributes")
        self.expect("(")
        cmd = AddFeature(name=name, line=t.line)
        # the two structural slots come first, in either order
        for _ in range(2):
            s = self.peek()
            if s.kind == "_parent" and cmd.parent is None:
                self.next()
                self.expect("=")
                cmd.parent = self.parse_name_desc()
            elif s.kind == "_decomp" and cmd.decomp is None:
                self.next()
                self.expect("=")
                cmd.decomp = self.parse_decomp_spec()
            else:
                self.fail("add feature requires exactly one _parent and one "
                          "_decomp assignment first")
            if self.at(","):
                self.next()
            elif self.at(")"):
                break
        if cmd.parent is None or cmd.decomp is None:
            self.fail("add feature requires both _parent and _decomp assignments")
        while not self.at(")"):
            cmd.attrs.append(self.parse_attr_assign())
            if self.at(","):
                self.next()
            else:
                break
        self.expect(")")
        cmd.where = self.parse_where()
        self.expect(";")
        return cmd

    def parse_update_feature(self, multi: bool) -> Command:
        t = self.next()  # update | updateall
        self.expect("feature")
        if multi:
            var = self.expect("VAR", "a feature variable").value
            cmd = UpdateAllFeatures(var=var, line=t.line)
        else:
            cmd = UpdateFeature(target=self.parse_fdesc(), line=t.line)
        self.expect("set")
        while True:
            s = self.peek()
            if s.kind == "_name":
                if multi:
                    self.fail("updateall feature cannot set _name")
                self.next()
                self.expect("=")
                new = self.expect("STRING", "the new feature name").value
                if cmd.new_name is not None:
                    self.fail("_name is set twice")
                cmd.new_name = new
            elif s.kind == "_parent":
                self.next()
                self.expect("=")
                if cmd.parent is not None:
                    self.fail("_parent is set twice")
                cmd.parent = self.parse_name_desc()
            elif s.kind == "_decomp":
                self.next()
                self.expect("=")
                if cmd.decomp is not None:
                    self.fail("_decomp is set twice")
                cmd.decomp = self.parse_decomp_spec()
            else:
                cmd.attrs.append(self.parse_attr_assign())
            if self.at(","):
                self.next()
            else:
                break
        cmd.where = self.parse_where()
        self.expect(";")
        return cmd

    def parse_remove_feature(self, multi: bool) -> Command:
        t = self.next()  # remove | removeall
        self.expect("feature")
        if multi:
            cmd = RemoveAllFeatures(var=self.expect("VAR", "a feature variable").value,
                                    line=t.line)
        else:
            cmd = RemoveFeature(target=self.parse_fdesc(), line=t.line)
        cmd.where = self.parse_where()
        self.expect(";")
        return cmd

    def parse_constraint_command(self, code: str) -> Command:
        t = self.next()  # add | update | updateall | remove | removeall
        self.expect("constraint")
        left = self.parse_fdesc()
        kind = self.parse_ctc_type()
        right = self.parse_fdesc()
        cls = {"addc": AddConstraint, "upc": UpdateConstraint,
               "upmc": UpdateAllConstraints, "rmc": RemoveConstraint,
               "rmmc": RemoveAllConstraints}[code]
        cmd = cls(left=left, kind=kind, right=right, line=t.line)
        if code in ("upc", "upmc"):
            self.expect("set")
            while True:
                s = self.peek()
                if s.kind == "leftfeature":
                    self.next()
                    self.expect("=")
                    cmd.new_left = self.parse_name_desc()
                    cmd.updates.append("leftfeature")
                elif s.kind == "rightfeature":
                    self.next()
                    self.expect("=")
                    cmd.new_right = self.parse_name_desc()
                    cmd.updates.append("rightfeature")
                elif s.kind == "constrainttype":
                    self.next()
                    self.expect("=")
                    cmd.new_kind = self.parse_ctc_type()
                    cmd.updates.append("constrainttype")
                else:
                    self.fail(f"expected a constraint element, found {s.text!r}")
                if self.at(","):
                    self.next()
                else:
                    break
        cmd.where = self.parse_where()
        self.expect(";")
        return cmd

    # -- top level ---------------------------------------------------------

    COMMAND_STARTS = ("add", "update", "updateall", "remove", "removeall")

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
            while self.at("feature", "constraint"):
                try:
                    if self.at("feature"):
                        ast.features.append(self.parse_feature_decl())
                    else:
                        ast.constraints.append(self.parse_constraint_decl())
                except ParseError as e:
                    errors.append(e)
                    self._resync()
        while self.at(*self.COMMAND_STARTS):
            if not commands:
                self.fail("commands are not allowed in a declarations file")
            try:
                ast.commands.append(self.parse_command())
            except ParseError as e:
                errors.append(e)
                self._resync()
        if not self.at("EOF"):
            t = self.peek()
            errors.append(ParseError(
                f"unexpected input {t.text!r}", t.line, t.col))
        return ast, errors

    def _resync(self) -> None:
        while not self.at(";", "EOF"):
            self.next()
        if self.at(";"):
            self.next()


def parse_script(text: str) -> tuple:
    """Parse a combined declarations + commands script."""
    return _parse(text, declarations=True, commands=True)


def parse_declarations(text: str) -> tuple:
    return _parse(text, declarations=True, commands=False)


def parse_commands(text: str) -> tuple:
    return _parse(text, declarations=False, commands=True)


def _parse(text: str, declarations: bool, commands: bool) -> tuple:
    try:
        tokens = tokenize(text)
    except LexError as e:
        return ScriptAst(), [ParseError(e.message, e.line, e.col)]
    try:
        return _Parser(tokens).parse_script(declarations, commands)
    except ParseError as e:
        return ScriptAst(), [e]


# -- static validation -----------------------------------------------------


def validate_static(ast: ScriptAst) -> list:
    """Script-level checks that need no model: duplicates, forward arity.

    Returns a list of diagnostic strings; empty means clean.
    """
    problems = []
    declared = set()
    if ast.root is not None:
        declared.add(ast.root.name)
        _check_attr_dups(ast.root.name, ast.root.attributes, problems)
    for fd in ast.features:
        if fd.name in declared:
            problems.append(f'line {fd.line}: duplicate declaration of feature "{fd.name}"')
        declared.add(fd.name)
        _check_attr_dups(fd.name, fd.attributes, problems)
    for cd in ast.constraints:
        for end in (cd.left, cd.right):
            if end not in declared:
                problems.append(
                    f'line {cd.line}: constraint names undeclared feature "{end}"')
    for i, cmd in enumerate(ast.commands, 1):
        if isinstance(cmd, (AddFeature, UpdateFeature, UpdateAllFeatures)):
            seen = set()
            for a in cmd.attrs:
                if a.name in seen:
                    problems.append(
                        f'cmd #{i}: attribute "{a.name}" is assigned twice')
                seen.add(a.name)
        if isinstance(cmd, UpdateConstraint):  # covers updateall too
            for slot in set(cmd.updates):
                if cmd.updates.count(slot) > 1:
                    problems.append(f"cmd #{i}: {slot} is updated twice")
            if cmd.code == "upmc" and len(cmd.updates) > 2:
                problems.append(
                    f"cmd #{i}: updateall constraint allows at most two updates")
    return problems


def _check_attr_dups(owner: str, attrs: list, problems: list) -> None:
    seen = set()
    for ident, _ in attrs:
        if ident in seen:
            problems.append(f'duplicate attribute "{ident}" in feature "{owner}"')
        seen.add(ident)
