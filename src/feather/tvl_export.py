"""Export to the accepted TVL subset, whose mapping `tvl` describes.

Kept apart from the importer, so that a run that only writes TVL loads
neither the TVL reader nor its lexicon.
"""

from __future__ import annotations

from .model import BOOLEAN, INTEGER, REAL, STRING, DecompKind, FeatureModel, type_of
from .serializer import ExportError, attribute_names, format_value, unreadable_value
from .tokens import first_unlexable

# TVL's name of each attribute value type
_TVL_TYPES = {INTEGER: "int", REAL: "real", BOOLEAN: "bool", STRING: "string"}


class TvlExportError(ExportError):
    """The model cannot be represented in the TVL subset."""


def _check_exportable(model: FeatureModel) -> None:
    name = first_unlexable(model.features, "ID")
    attr = first_unlexable(attribute_names(model), "ATTRIBUTE_ID")
    if name is not None or attr is not None:  # the first feature at fault
        f = next(f for f in model.features.values() if f.name == name or attr in f.attributes)
        if f.name == name:
            raise TvlExportError(f'feature name "{name}" is not a valid TVL identifier')
        raise TvlExportError(f'attribute name "{attr}" of feature "{f.name}" '
                             "is not a valid TVL attribute id")
    bad = unreadable_value(model, "TVL")
    if bad is not None:
        raise TvlExportError(bad)
    bad = first_unlexable(model.tvl_string_enum or (), "STRING")
    if bad is not None:
        raise TvlExportError(f'enum string "{bad}" is not a valid TVL string')


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
            lines.append(f"  {_TVL_TYPES[type_of(value)]} {attr} is {format_value(value)};")
        kids = children.get(name, [])
        solitary = [k for k in kids if not k.decomp.is_group]
        if solitary:
            listed = ", ".join(("opt " if k.decomp is DecompKind.OPTIONAL else "") + k.name
                               for k in solitary)
            lines.append(f"  group allof {{ {listed} }}")
        listing_order = list(solitary)
        groups: dict = {}  # group id -> members, both in first-appearance order
        for k in kids:
            if k.group_id > 0:
                groups.setdefault(k.group_id, []).append(k)
        for members in groups.values():
            card = "oneof" if members[0].decomp is DecompKind.ALTERNATIVE else "someof"
            listed = ", ".join(m.name for m in members)
            lines.append(f"  group {card} {{ {listed} }}")
            listing_order.extend(members)
        if is_root:
            lines.extend(f"  {c.left} {c.kind} {c.right};" for c in model.constraints)
        lines.append("}")
        # children in listing order, so that export(import(text)) is stable
        stack.extend(k.name for k in reversed(listing_order))
    return "\n".join(lines) + "\n"
