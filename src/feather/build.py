"""Constructing a FeatureModel: one builder, `assemble`, for both front ends.

`build_model` hands it a row per declared feature. Declaration order does
not matter, and group membership ("alternative to X" / "or to X") is the
union of the sibling references. `tvl.import_tvl` hands it TVL blocks.
"""

from __future__ import annotations

from .model import Constraint, Feature, FeatureModel, effect_key
from .parser import ScriptAst


class BuildError(Exception):
    """Declarations do not form a valid feature model."""


def assemble(root: str, root_attributes: dict, rows: list, constraints) -> FeatureModel:
    """The model of a root, rows of (name, parent, kind, group key,
    attributes) in feature order and constraints (`left`, `kind`, `right`),
    checked in linear time. Rows that share a group key (not None) form one
    group; groups are numbered in order of first appearance. Of constraints
    with one effect the first is stored."""
    model = FeatureModel.with_root(root, root_attributes)
    features = model.features
    children: dict = {}  # parent -> child names, in row order
    groups: dict = {}  # group key -> (kind, parent, id) of its first row
    for name, parent, kind, key, attributes in rows:
        if name in features:
            raise BuildError(f'feature "{name}" is declared twice')
        gid = 0
        if key is not None:
            group = groups.setdefault(key, (kind, parent, len(groups) + 1))
            if group[0] is not kind or group[1] != parent:
                mixed = "decomposition kinds" if group[0] is not kind else "parents"
                members = [row[0] for row in rows if row[3] == key]
                raise BuildError(f"group of {members} mixes {mixed}")
            gid = group[2]
        features[name] = Feature(name, parent, kind, gid, attributes)
        children.setdefault(parent, []).append(name)
    model.next_group_id = len(groups) + 1

    # children holds parents in row order, so the first row naming an undeclared
    # parent is the one reported
    for parent, kids in children.items():
        if parent not in features:
            raise BuildError(f'feature "{kids[0]}" names undeclared parent "{parent}"')

    stored = model._constraints
    for c in constraints:
        left, kind, right = c.left, c.kind, c.right
        if left not in features or right not in features:
            end = right if left in features else left
            raise BuildError(
                f'constraint ({left} {kind} {right}) names unknown feature "{end}"')
        key = effect_key(left, kind, right)
        if key not in stored:
            stored[key] = Constraint(left, kind, right)

    # every parent is declared, so the parents of a feature the root does
    # not reach lead round a cycle, through features it does not reach
    reached = [root]
    for name in reached:  # the list grows as the walk reaches features
        reached += children.get(name, ())
    if len(reached) < len(features):
        seen = set(reached)
        name = next(n for n in features if n not in seen)
        while name not in seen:
            seen.add(name)
            name = features[name].parent
        raise BuildError(f'parent declarations form a cycle through "{name}"')
    return model


def build_model(ast: ScriptAst) -> FeatureModel:
    if ast.root is None:
        raise BuildError("missing root feature declaration")
    # group membership: union sibling references; a sibling must join a group
    joined = {fd.name for fd in ast.features if fd.sibling is not None}
    parent_of: dict = {}
    for fd in ast.features:
        if fd.sibling in joined:
            _union(parent_of, fd.name, fd.sibling)
        elif fd.sibling is not None:
            if all(d.name != fd.sibling for d in [ast.root, *ast.features]):
                raise BuildError(
                    f'feature "{fd.name}" names undeclared sibling "{fd.sibling}"')
            raise BuildError(f'"{fd.sibling}" is referenced as a group sibling '
                             f'but does not join a group')

    rows = [(fd.name, fd.parent, fd.decomp,
             None if fd.sibling is None else _find(parent_of, fd.name),
             dict(fd.attributes)) for fd in ast.features]
    return assemble(ast.root.name, dict(ast.root.attributes), rows, ast.constraints)


def _find(parent_of: dict, x: str) -> str:
    root = x
    while parent_of.get(root, root) != root:
        root = parent_of[root]
    while parent_of.get(x, x) != x:
        parent_of[x], x = root, parent_of[x]
    return root


def _union(parent_of: dict, a: str, b: str) -> None:
    ra, rb = _find(parent_of, a), _find(parent_of, b)
    if ra != rb:
        parent_of[rb] = ra
