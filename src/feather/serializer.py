"""Serializing a FeatureModel back to declaration syntax.

Output order is fixed: root first, then a preorder traversal of the tree
(children in insertion order), then the constraints. The first group member
met in preorder carries a self-referencing sibling clause; later members
reference that first member.
"""

from __future__ import annotations

from itertools import chain

from .model import FeatureModel
from .tokens import first_unlexable


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


def attribute_names(model: FeatureModel) -> dict:
    """The model's attribute names, each once, in the order of first use."""
    return dict.fromkeys(chain.from_iterable(f.attributes for f in model.features.values()))


def unreadable_value(model: FeatureModel) -> str | None:
    """The first string attribute value that the readers refuse, as `value
    "v" of attribute "a" of feature "F"`, or None."""
    features = model.features.values()
    bad = first_unlexable([v for f in features for v in f.attributes.values()
                           if type(v) is str], "STRING")
    return None if bad is None else next(
        f'value "{v}" of attribute "{a}" of feature "{f.name}"'
        for f in features for a, v in f.attributes.items() if v == bad)


def _attr_text(attributes: dict) -> str:
    return "".join(f" attribute {ident} {format_value(v)}" for ident, v in attributes.items())


def serialize_declarations(model: FeatureModel) -> str:
    """The model as declarations; ExportError if a string cannot hold a
    feature name or a string value, or an attribute name is not an identifier."""
    names = model.features
    bad = first_unlexable(names, "STRING")
    if bad is not None:
        raise ExportError(f'feature name "{bad}" is not a valid Feather string')
    bad = unreadable_value(model)
    if bad is not None:
        raise ExportError(f"{bad} is not a valid Feather string")
    bad = first_unlexable(attribute_names(model), "IDENT")
    if bad is not None:
        owner = next(f.name for f in names.values() if bad in f.attributes)
        raise ExportError(f'attribute name "{bad}" of feature "{owner}" '
                          "is not a valid Feather identifier")
    lines = [f'root "{model.root}"{_attr_text(names[model.root].attributes)};']

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
        lines.append(f'feature "{f.name}" "{f.parent}" {decomp}{_attr_text(f.attributes)};')
        stack.extend(reversed(children.get(f.name, [])))

    lines.extend(f'constraint "{c.left}" {c.kind} "{c.right}";' for c in model.constraints)
    return "\n".join(lines) + "\n"
