"""Serializing a FeatureModel back to declaration syntax.

Output order is fixed: root first, then a preorder traversal of the tree
(children in insertion order), then the constraints. The first group member
met in preorder carries a self-referencing sibling clause; later members
reference that first member.
"""

from __future__ import annotations

import math
from itertools import chain

from .expressions import _max_str_digits, _writable
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


# the attribute value types: each has a literal in both languages
_LITERAL_TYPES = (str, bool, int, float)
_NUMBER_TYPES = (bool, int, float)


def _unreadable(v, where: str = "", language: str = "") -> str | None:
    """Why the readers refuse `v` as the attribute value `where`, or None."""
    if type(v) is str:
        return None if first_unlexable([v], "STRING") is None else (
            f'value "{v}" {where} is not a valid {language} string')
    if type(v) not in _LITERAL_TYPES:
        return f"value {where} is a {type(v).__name__}, not an attribute value"
    if type(v) is float and not math.isfinite(v):
        return f"value {v} {where} is not a finite real"
    if type(v) is int and not _writable(v):
        return f"integer value {where} has more than {_max_str_digits()} digits"
    return None


def unreadable_value(model: FeatureModel, language: str) -> str | None:
    """Why the readers refuse the first attribute value they refuse, or
    None: a string that does not lex as one, a real that is not finite, an
    integer longer than str() writes, or a value of no attribute type."""
    features = model.features.values()
    # a number under 8 ** the digit limit, 3 bits per digit, has a literal
    # that the readers read; every other value gets a closer look
    limit = _max_str_digits()
    high = 8 ** limit if limit else math.inf
    low = -high
    looked = [v for f in features for v in f.attributes.values()
              if not (type(v) in _NUMBER_TYPES and low < v < high)]
    if (first_unlexable([v for v in looked if type(v) is str], "STRING") is None
            and not any(map(_unreadable, [v for v in looked if type(v) is not str]))):
        return None
    for f in features:
        for a, v in f.attributes.items():
            if why := _unreadable(v, f'of attribute "{a}" of feature "{f.name}"', language):
                return why
    return None


def _attr_text(attributes: dict) -> str:
    return "".join(f" attribute {ident} {format_value(v)}" for ident, v in attributes.items())


def serialize_declarations(model: FeatureModel) -> str:
    """The model as declarations; ExportError if a string cannot hold a
    feature name, an attribute value has no literal that the reader reads,
    or an attribute name is not an identifier."""
    names = model.features
    bad = first_unlexable(names, "STRING")
    if bad is not None:
        raise ExportError(f'feature name "{bad}" is not a valid Feather string')
    bad = unreadable_value(model, "Feather")
    if bad is not None:
        raise ExportError(bad)
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
