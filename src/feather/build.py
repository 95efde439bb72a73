"""Constructing a FeatureModel from parsed declarations.

Declaration order does not matter: a child can be declared before its
parent, and group membership ("alternative to X" / "or to X") is resolved
after all declarations are read by unioning the sibling references.
"""

from __future__ import annotations

from .model import Feature, FeatureModel, Constraint
from .parser import ScriptAst


class BuildError(Exception):
    """Declarations do not form a valid feature model."""


def build_model(ast: ScriptAst) -> FeatureModel:
    if ast.root is None:
        raise BuildError("missing root feature declaration")
    declared = {ast.root.name} | {fd.name for fd in ast.features}

    by_name = {fd.name: fd for fd in ast.features}
    for fd in ast.features:
        if fd.parent not in declared:
            raise BuildError(
                f'feature "{fd.name}" names undeclared parent "{fd.parent}"')
        if fd.name == ast.root.name:
            raise BuildError(f'the root feature "{fd.name}" is declared twice')

    # the parent graph must be a tree rooted at the root feature; a walk
    # stops at the first feature known to reach the root
    reaches_root = {ast.root.name}
    for fd in ast.features:
        seen = set()
        n = fd.name
        while n not in reaches_root:
            if n in seen:
                raise BuildError(f'parent declarations form a cycle through "{n}"')
            seen.add(n)
            n = by_name[n].parent
        reaches_root |= seen

    # group membership: union sibling references, then check consistency
    parent_of = {}
    for fd in ast.features:
        if fd.sibling is not None:
            if fd.sibling not in declared:
                raise BuildError(
                    f'feature "{fd.name}" names undeclared sibling "{fd.sibling}"')
            _union(parent_of, fd.name, fd.sibling)

    groups = {}
    for fd in ast.features:
        if fd.sibling is not None:
            groups.setdefault(_find(parent_of, fd.name), []).append(fd.name)
    for members in groups.values():
        decls = [by_name.get(m) for m in members]
        if any(d is None or d.sibling is None for d in decls):
            bad = next(m for m, d in zip(members, decls)
                       if d is None or d.sibling is None)
            raise BuildError(
                f'"{bad}" is referenced as a group sibling but does not join a group')
        if len({d.decomp for d in decls}) > 1:
            raise BuildError(
                f"group of {members} mixes decomposition kinds")
        if len({d.parent for d in decls}) > 1:
            raise BuildError(
                f"group of {members} mixes parents")

    model = FeatureModel.with_root(ast.root.name, dict(ast.root.attributes))
    group_ids = {}
    for fd in ast.features:  # declaration order fixes the enumeration order
        gid = 0
        if fd.sibling is not None:
            rep = _find(parent_of, fd.name)
            if rep not in group_ids:
                group_ids[rep] = model.fresh_group_id()
            gid = group_ids[rep]
        model.features[fd.name] = Feature(
            fd.name, parent=fd.parent, decomp=fd.decomp, group_id=gid,
            attributes=dict(fd.attributes))

    for cd in ast.constraints:
        for end in (cd.left, cd.right):
            if end not in model.features:
                raise BuildError(f'constraint names undeclared feature "{end}"')
        model.add_constraint(Constraint(cd.left, cd.kind, cd.right))
    return model


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
