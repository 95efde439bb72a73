"""Serializing a FeatureModel back to declaration syntax.

Output order is fixed: root first, then a preorder traversal of the tree
(children in insertion order), then the constraints. The first group member
met in preorder carries a self-referencing sibling clause; later members
reference that first member.
"""

from __future__ import annotations

import re
from itertools import chain

from .model import FeatureModel
from .tokens import STRING_CHAR, is_ident


class ExportError(Exception):
    """The model cannot be written in the output's language."""


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


def _readable(strings) -> bool:
    """Whether the readers take each of `strings` as a string literal: none
    is empty or holds a character outside `tokens.STRING_CHAR`."""
    return "" not in strings and bool(re.fullmatch(f"{STRING_CHAR}*", "".join(strings)))


def unreadable_value(model: FeatureModel) -> str | None:
    """The first string attribute value that the readers refuse, as `value
    "v" of attribute "a" of feature "F"`, or None."""
    features = model.features.values()
    if _readable([v for f in features for v in f.attributes.values() if type(v) is str]):
        return None
    return next(f'value "{v}" of attribute "{a}" of feature "{f.name}"' for f in features
                for a, v in f.attributes.items() if type(v) is str and not _readable([v]))


def _attr_text(attributes: dict) -> str:
    return "".join(
        f" attribute {ident} {format_value(v)}"
        for ident, v in attributes.items()
    )


def serialize_declarations(model: FeatureModel) -> str:
    """The model as declarations; ExportError if a string cannot hold a
    feature name or a string value, or an attribute name is not an identifier."""
    names = model.features
    if not _readable(names):
        bad = next(n for n in names if not _readable([n]))
        raise ExportError(f'feature name "{bad}" is not a valid Feather string')
    bad = unreadable_value(model)
    if bad is not None:
        raise ExportError(f"{bad} is not a valid Feather string")
    for attr in dict.fromkeys(chain.from_iterable(f.attributes for f in names.values())):
        if not is_ident(attr):
            owner = next(f.name for f in names.values() if attr in f.attributes)
            raise ExportError(f'attribute name "{attr}" of feature "{owner}" '
                              "is not a valid Feather identifier")
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
