"""Serializing a FeatureModel back to declaration syntax.

Output order is fixed: root first, then a preorder traversal of the tree
(children in insertion order), then the constraints. The first group member
met in preorder carries a self-referencing sibling clause; later members
reference that first member.
"""

from __future__ import annotations

from .model import FeatureModel


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format_real(v)
    return f'"{v}"'


def format_real(v: float) -> str:
    s = repr(float(v))
    if "e" in s or "E" in s:
        import decimal  # loaded here: few runs print an exponent
        s = format(decimal.Decimal(s), "f")
    if "." not in s:
        s += ".0"
    return s


def _attr_text(attributes: dict) -> str:
    return "".join(
        f" attribute {ident} {format_value(v)}"
        for ident, v in attributes.items()
    )


def serialize_declarations(model: FeatureModel) -> str:
    lines = []
    root = model.features[model.root]
    lines.append(f'root "{root.name}"{_attr_text(root.attributes)};')

    children = model.child_features()
    group_first: dict = {}
    stack = list(reversed(children.get(model.root, [])))
    while stack:
        f = stack.pop()
        if f.group_id > 0:
            sibling = group_first.setdefault(f.group_id, f.name)
            decomp = f'{f.decomp} to "{sibling}"'
        else:
            decomp = str(f.decomp)
        lines.append(
            f'feature "{f.name}" "{f.parent}" {decomp}{_attr_text(f.attributes)};')
        stack.extend(reversed(children.get(f.name, [])))

    for c in model.constraints:
        lines.append(f'constraint "{c.left}" {c.kind} "{c.right}";')
    return "\n".join(lines) + "\n"
