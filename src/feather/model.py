"""Feature model data structure and integrity-preserving edits.

A model is a tree of named features plus a set of cross-tree constraints.
Decomposition information (parent, kind, group id) is stored inline on each
feature; the root carries neither a parent nor a decomposition.

A feature stored in a model is a value: an edit stores a new feature in its
place, so a copy shares every feature with the model it was taken from.
"""

from __future__ import annotations

import enum

from .record import FrozenRecord, Record


class DecompKind(enum.Enum):
    MANDATORY = "mandatory"
    OPTIONAL = "optional"
    ALTERNATIVE = "alternative"
    OR = "or"

    @property
    def is_group(self) -> bool:
        return self in (DecompKind.ALTERNATIVE, DecompKind.OR)

    def __str__(self) -> str:
        return self.value


# the attributes every feature has; also reserved words of the script lexer
STRUCTURAL_ATTRS = ("_name", "_parent", "_decomp", "_decompID")


class ModelError(Exception):
    """Raised when a primitive edit would break model integrity."""


class Constraint(FrozenRecord):
    """Cross-tree constraint: left requires/excludes right."""

    __slots__ = ("left", "kind", "right")  # kind: "requires" | "excludes"

    def __init__(self, left: str, kind: str, right: str):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "right", right)

    def effect_key(self) -> tuple:
        # excludes is symmetric: (X exc Y) and (Y exc X) have the same effect
        if self.kind == "excludes":
            return ("excludes",) + tuple(sorted((self.left, self.right)))
        return ("requires", self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.kind} {self.right})"


class Feature(Record):
    __slots__ = ("name", "parent", "decomp", "group_id", "attributes")

    def __init__(self, name: str, parent: str | None = None,
                 decomp: DecompKind | None = None, group_id: int = 0,
                 attributes: dict | None = None):
        self.name, self.parent, self.decomp = name, parent, decomp
        self.group_id = group_id
        self.attributes = {} if attributes is None else attributes

    @property
    def is_root(self) -> bool:
        return self.parent is None


class FeatureModel(Record):
    # features: name -> Feature, insertion-ordered.
    # tvl_string_enum: an optional "enum string in {...}" header carried over
    # from a TVL input; purely decorative, never enforced.
    # _constraints: effect_key() -> Constraint, insertion-ordered; holds at
    # most one constraint per effect, so lookups, additions and removals are O(1)
    __slots__ = ("features", "root", "next_group_id", "tvl_string_enum", "_constraints")
    _defaults = {"features": {}, "root": "", "next_group_id": 1,
                 "tvl_string_enum": None, "_constraints": {}}

    # -- construction ------------------------------------------------------

    @classmethod
    def with_root(cls, name: str, attributes: dict | None = None) -> "FeatureModel":
        m = cls()
        m.features[name] = Feature(name, attributes=dict(attributes or {}))
        m.root = name
        return m

    def copy(self) -> "FeatureModel":
        """A model that edits apart from this one and shares its features."""
        return FeatureModel(dict(self.features), self.root, self.next_group_id,
                            self.tvl_string_enum, dict(self._constraints))

    # -- queries -----------------------------------------------------------

    @property
    def constraints(self) -> list:
        """The stored constraints in insertion order, as a new list.

        Read-only: edits go through add_constraint and remove_constraint.
        """
        return list(self._constraints.values())

    def feature(self, name: str) -> Feature:
        try:
            return self.features[name]
        except KeyError:
            raise ModelError(f"unknown feature {name!r}") from None

    def child_features(self) -> dict:
        """Each parent's name -> its child features, in insertion order."""
        kids: dict = {}
        for f in self.features.values():
            if f.parent is not None:
                kids.setdefault(f.parent, []).append(f)
        return kids

    def subtree(self, name: str) -> set:
        """The feature plus all its transitive descendants."""
        kids = self.child_features()
        result = set()
        stack = [self.feature(name)]
        while stack:
            f = stack.pop()
            result.add(f.name)
            stack.extend(kids.get(f.name, ()))
        return result

    def group_members(self, group_id: int) -> list:
        return [f.name for f in self.features.values() if f.group_id == group_id]

    def stored_constraint(self, c: Constraint) -> Constraint | None:
        """The stored constraint with the same effect as c, if any."""
        return self._constraints.get(c.effect_key())

    # -- edits -------------------------------------------------------------

    def fresh_group_id(self) -> int:
        gid = self.next_group_id
        self.next_group_id += 1
        return gid

    def attach_feature(
        self,
        feature: Feature,
        parent: str,
        decomp: DecompKind,
        join_group: int | None = None,
    ) -> None:
        """Store a feature with the name and attributes of `feature` under a parent.

        join_group must be the id of an existing group under that parent with
        the same kind; without it, group kinds open a fresh group.
        """
        name = feature.name
        if name in self.features:
            raise ModelError(f"feature name {name!r} is in use")
        self.feature(parent)
        gid = self._assign_group(name, parent, decomp, join_group)
        self.features[name] = Feature(name, parent, decomp, gid, feature.attributes)

    def _assign_group(self, name: str, parent: str, decomp: DecompKind,
                      join_group: int | None) -> int:
        """The group id of `name` under `parent`; `name` alone is no group to join."""
        if not decomp.is_group:
            if join_group is not None:
                raise ModelError("solitary relations cannot join a group")
            return 0
        if join_group is None:
            return self.fresh_group_id()
        members = [m for m in self.group_members(join_group) if m != name]
        if not members:
            raise ModelError(f"no group with id {join_group}")
        rep = self.features[members[0]]
        if rep.parent != parent or rep.decomp != decomp:
            raise ModelError(
                f"group {join_group} is a {rep.decomp} group under {rep.parent!r}, "
                f"cannot join as {decomp} under {parent!r}"
            )
        return join_group

    def move_feature(
        self,
        name: str,
        new_parent: str,
        decomp: DecompKind,
        join_group: int | None = None,
    ) -> None:
        """Reparent a feature; its subtree follows implicitly."""
        f = self.feature(name)
        if f.is_root:
            raise ModelError("the root feature cannot be moved")
        self.feature(new_parent)
        n = new_parent
        while n is not None:  # walk up: a cycle needs name among the ancestors
            if n == name:
                raise ModelError(
                    f"moving {name!r} under {new_parent!r} would create a cycle"
                )
            n = self.features[n].parent
        gid = self._assign_group(name, new_parent, decomp, join_group)
        self.features[name] = Feature(name, new_parent, decomp, gid, f.attributes)

    def rename_feature(self, name: str, new_name: str) -> None:
        self.feature(name)
        if new_name == name:
            return
        if new_name in self.features:
            raise ModelError(f"feature name {new_name!r} is in use")
        features = {}
        for g in self.features.values():
            if g.name == name:
                g = Feature(new_name, g.parent, g.decomp, g.group_id, g.attributes)
            elif g.parent == name:
                g = Feature(g.name, new_name, g.decomp, g.group_id, g.attributes)
            features[g.name] = g
        self.features = features
        if self.root == name:
            self.root = new_name
        # a fresh name maps distinct effects to distinct effects
        renamed = (
            Constraint(
                new_name if c.left == name else c.left,
                c.kind,
                new_name if c.right == name else c.right,
            )
            for c in self._constraints.values()
        )
        self._constraints = {c.effect_key(): c for c in renamed}

    def update_attributes(self, name: str, values: dict) -> None:
        """Set attributes of a feature, keeping the others."""
        f = self.feature(name)
        self.features[name] = Feature(name, f.parent, f.decomp, f.group_id,
                                      {**f.attributes, **values})

    def remove_subtree(self, name: str) -> set:
        """Remove a feature with all descendants and their constraints."""
        f = self.feature(name)
        if f.is_root:
            raise ModelError("the root feature cannot be removed")
        doomed = self.subtree(name)
        for n in doomed:
            del self.features[n]
        self._constraints = {
            k: c for k, c in self._constraints.items()
            if c.left not in doomed and c.right not in doomed
        }
        return doomed

    def add_constraint(self, c: Constraint) -> bool:
        """Add a constraint unless a same-effect one is already stored."""
        self.feature(c.left)
        self.feature(c.right)
        key = c.effect_key()
        if key in self._constraints:
            return False
        self._constraints[key] = c
        return True

    def remove_constraint(self, c: Constraint) -> bool:
        """Remove the stored constraint with the same effect as c, if any."""
        return self._constraints.pop(c.effect_key(), None) is not None

    # -- integrity ---------------------------------------------------------

    def validate(self) -> list:
        """Check every model invariant; returns a list of violation strings."""
        problems = []
        roots = [f for f in self.features.values() if f.parent is None]
        if self.root not in self.features:
            problems.append(f"root: root name {self.root!r} is not a feature")
        if len(roots) != 1:
            problems.append(f"root: expected exactly one root, found {len(roots)}")
        elif roots[0].name != self.root:
            problems.append(
                f"root: parentless feature {roots[0].name!r} is not the declared root"
            )
        if roots and (roots[0].decomp is not None or roots[0].group_id != 0):
            problems.append("root: root carries decomposition information")

        for name, f in self.features.items():
            if f.name != name:
                problems.append(f"naming: key {name!r} maps to feature {f.name!r}")
            if f.parent is None:
                continue
            if f.parent not in self.features:
                problems.append(f"tree: parent of {name!r} ({f.parent!r}) does not exist")
            if f.decomp is None:
                problems.append(f"decomp: non-root {name!r} has no decomposition kind")
            elif f.decomp.is_group != (f.group_id > 0):
                problems.append(
                    f"group: {name!r} has kind {f.decomp} but group id {f.group_id}"
                )
            for attr in f.attributes:
                if attr in STRUCTURAL_ATTRS or not attr[:1].islower():
                    problems.append(f"attribute: {name!r} has bad identifier {attr!r}")

        # parent graph must be a tree rooted at the root; a walk stops at the
        # first feature already known to lead into a cycle or not
        cyclic: dict = {}
        for name in self.features:
            path = set()
            n = name
            while n in self.features and n not in cyclic and n not in path:
                path.add(n)
                n = self.features[n].parent
            verdict = cyclic.get(n, n in path)
            cyclic.update(dict.fromkeys(path, verdict))
        problems += [f"tree: cycle through {name!r}"
                     for name in self.features if cyclic[name]]

        groups: dict = {}
        for f in self.features.values():
            if f.group_id > 0:
                groups.setdefault(f.group_id, []).append(f)
        for gid, members in groups.items():
            if len({m.parent for m in members}) > 1:
                problems.append(f"group: members of group {gid} have different parents")
            if len({m.decomp for m in members}) > 1:
                problems.append(f"group: members of group {gid} have different kinds")
            if gid >= self.next_group_id:
                problems.append(f"group: id {gid} not below next_group_id counter")

        for key, c in self._constraints.items():
            for end in (c.left, c.right):
                if end not in self.features:
                    problems.append(f"constraint: {c} names unknown feature {end!r}")
            if key != c.effect_key():
                problems.append(f"constraint: {c} is stored under key {key!r}")
        return problems
