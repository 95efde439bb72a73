"""The intermediate code of `-x`: a line-oriented dump of a parsed script,
expressions in postfix."""

from __future__ import annotations

from .expressions import AttrRef, Binary, FeatureRef, Lit, Unary, VarRef
from .model import DecompKind
from .parser import (
    AddFeature,
    ConstraintCommand,
    RemoveAllFeatures,
    RemoveFeature,
    UpdateAllFeatures,
    UpdateConstraint,
    UpdateFeature,
)
from .serializer import format_value


def _postfix(expr) -> list:
    if isinstance(expr, FeatureRef):
        return [f'"{expr.name}"']
    if isinstance(expr, VarRef):
        return [expr.name]
    if isinstance(expr, Lit):
        if isinstance(expr.value, DecompKind):
            return [str(expr.value)]
        return [format_value(expr.value)]
    if isinstance(expr, AttrRef):
        subject = _postfix(expr.subject)[0]
        return [f"{subject}.{expr.attr}"]
    if isinstance(expr, Unary):
        return _postfix(expr.operand) + [expr.op]
    if isinstance(expr, Binary):
        return _postfix(expr.left) + _postfix(expr.right) + [expr.op]
    raise TypeError(f"not an expression: {expr!r}")


def postfix_text(expr) -> str:
    return " ".join(_postfix(expr))


def _dump_decomp(spec) -> str:
    text = postfix_text(spec.kind)
    if spec.sibling is not None:
        text += f" to {postfix_text(spec.sibling)}"
    return text


def dump_intermediate(ast) -> str:
    """A line-oriented dump of the script with expressions in postfix."""
    lines = []
    if ast.root is not None:
        name, attributes, _ = ast.root
        lines.append(f'root "{name}"')
        for ident, value in attributes.items():
            lines.append(f"  attr {ident} {format_value(value)}")
    for name, parent, kind, sibling, attributes, _ in ast.features:
        decomp = str(kind) if sibling is None else f'{kind} to "{sibling}"'
        lines.append(f'feature "{name}" "{parent}" {decomp}')
        for ident, value in attributes.items():
            lines.append(f"  attr {ident} {format_value(value)}")
    for left, kind, right, _ in ast.constraints:
        lines.append(f'constraint "{left}" {kind} "{right}"')
    for i, cmd in enumerate(ast.commands, 1):
        lines.append(f"cmd {i} {cmd.code}")
        if isinstance(cmd, AddFeature):
            lines.append(f'  name "{cmd.name}"')
        if isinstance(cmd, (UpdateFeature, RemoveFeature)):
            lines.append(f"  target {postfix_text(cmd.target)}")
        if isinstance(cmd, (UpdateAllFeatures, RemoveAllFeatures)):
            lines.append(f"  target {cmd.var}")
        if isinstance(cmd, UpdateFeature) and cmd.new_name is not None:
            lines.append(f'  name "{cmd.new_name}"')
        if isinstance(cmd, (AddFeature, UpdateFeature, UpdateAllFeatures)):
            if cmd.parent is not None:
                lines.append(f"  parent {postfix_text(cmd.parent)}")
            if cmd.decomp is not None:
                lines.append(f"  decomp {_dump_decomp(cmd.decomp)}")
            for a in cmd.attrs:
                lines.append(f"  attr {a.tag} {a.name} {postfix_text(a.value)}")
        if isinstance(cmd, ConstraintCommand):
            lines.append(f"  constraint {postfix_text(cmd.left)} {cmd.kind} "
                         f"{postfix_text(cmd.right)}")
        if isinstance(cmd, UpdateConstraint):
            if cmd.new_left is not None:
                lines.append(f"  leftfeature {postfix_text(cmd.new_left)}")
            if cmd.new_kind is not None:
                lines.append(f"  constrainttype {cmd.new_kind}")
            if cmd.new_right is not None:
                lines.append(f"  rightfeature {postfix_text(cmd.new_right)}")
        if cmd.where is not None:
            lines.append(f"  where {postfix_text(cmd.where)}")
    return "\n".join(lines) + "\n"
