"""Export to the accepted TVL subset, whose mapping `tvl` describes.

Kept apart from the importer, so that a run that only writes TVL loads
neither the TVL reader nor its lexicon.
"""

from __future__ import annotations

import re

from .model import DecompKind, FeatureModel
from .serializer import format_real

_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


class TvlExportError(Exception):
    """The model cannot be represented in the TVL subset."""


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
