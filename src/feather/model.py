"""Feature model data structure and integrity-preserving edits.

A model is a tree of named features plus a set of cross-tree constraints.
Decomposition information (parent, kind, group id) is stored inline on each
feature; the root carries neither a parent nor a decomposition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


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


STRUCTURAL_ATTRS = ("_name", "_parent", "_decomp", "_decompID")


class ModelError(Exception):
    """Raised when a primitive edit would break model integrity."""


@dataclass(frozen=True)
class Constraint:
    """Cross-tree constraint: left requires/excludes right."""

    left: str
    kind: str  # "requires" | "excludes"
    right: str

    def effect_key(self) -> tuple:
        # excludes is symmetric: (X exc Y) and (Y exc X) have the same effect
        if self.kind == "excludes":
            return ("excludes",) + tuple(sorted((self.left, self.right)))
        return ("requires", self.left, self.right)

    def involves(self, name: str) -> bool:
        return self.left == name or self.right == name

    def __str__(self) -> str:
        return f"({self.left} {self.kind} {self.right})"


@dataclass
class Feature:
    name: str
    parent: str | None = None
    decomp: DecompKind | None = None
    group_id: int = 0
    attributes: dict = field(default_factory=dict)

    @property
    def is_root(self) -> bool:
        return self.parent is None


@dataclass
class FeatureModel:
    features: dict = field(default_factory=dict)  # name -> Feature, insertion-ordered
    root: str = ""
    next_group_id: int = 1
    # Optional "enum string in {...}" header carried over from a TVL input;
    # purely decorative, never enforced.
    tvl_string_enum: list | None = None
    # effect_key() -> Constraint, insertion-ordered; holds at most one
    # constraint per effect, so lookups, additions and removals are O(1)
    _constraints: dict = field(default_factory=dict)

    # -- construction ------------------------------------------------------

    @classmethod
    def with_root(cls, name: str, attributes: dict | None = None) -> "FeatureModel":
        m = cls()
        m.features[name] = Feature(name, attributes=dict(attributes or {}))
        m.root = name
        return m

    def copy(self) -> "FeatureModel":
        m = FeatureModel(
            root=self.root,
            next_group_id=self.next_group_id,
            tvl_string_enum=list(self.tvl_string_enum) if self.tvl_string_enum else None,
        )
        m.features = {
            n: Feature(f.name, f.parent, f.decomp, f.group_id, dict(f.attributes))
            for n, f in self.features.items()
        }
        m._constraints = dict(self._constraints)
        return m

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

    def children(self, name: str) -> list:
        return [f.name for f in self.features.values() if f.parent == name]

    def subtree(self, name: str) -> set:
        """The feature plus all its transitive descendants."""
        self.feature(name)
        kids: dict = {}
        for f in self.features.values():
            if f.parent is not None:
                kids.setdefault(f.parent, []).append(f.name)
        result = set()
        stack = [name]
        while stack:
            n = stack.pop()
            result.add(n)
            stack.extend(kids.get(n, ()))
        return result

    def group_members(self, group_id: int) -> list:
        return [f.name for f in self.features.values() if f.group_id == group_id]

    def stored_constraint(self, c: Constraint) -> Constraint | None:
        """The stored constraint with the same effect as c, if any."""
        return self._constraints.get(c.effect_key())

    def has_constraint(self, c: Constraint) -> bool:
        return c.effect_key() in self._constraints

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
        """Insert a new feature under an existing parent.

        join_group must be the id of an existing group under that parent with
        the same kind; without it, group kinds open a fresh group.
        """
        if feature.name in self.features:
            raise ModelError(f"feature name {feature.name!r} is in use")
        self.feature(parent)
        feature.parent = parent
        feature.decomp = decomp
        feature.group_id = self._assign_group(parent, decomp, join_group)
        self.features[feature.name] = feature

    def _assign_group(self, parent: str, decomp: DecompKind, join_group: int | None) -> int:
        if not decomp.is_group:
            if join_group is not None:
                raise ModelError("solitary relations cannot join a group")
            return 0
        if join_group is None:
            return self.fresh_group_id()
        members = self.group_members(join_group)
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
        # detach first so a group joined by this feature alone cannot be matched
        old = (f.parent, f.decomp, f.group_id)
        f.parent, f.decomp, f.group_id = None, None, 0
        try:
            gid = self._assign_group(new_parent, decomp, join_group)
        except ModelError:
            f.parent, f.decomp, f.group_id = old
            raise
        f.parent, f.decomp, f.group_id = new_parent, decomp, gid

    def rename_feature(self, name: str, new_name: str) -> None:
        f = self.feature(name)
        if new_name == name:
            return
        if new_name in self.features:
            raise ModelError(f"feature name {new_name!r} is in use")
        order = list(self.features.values())
        f.name = new_name
        self.features = {g.name: g for g in order}
        for g in self.features.values():
            if g.parent == name:
                g.parent = new_name
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

        # parent graph must be a tree rooted at the root
        for name in self.features:
            seen = set()
            n = name
            while n is not None:
                if n in seen:
                    problems.append(f"tree: cycle through {name!r}")
                    break
                seen.add(n)
                f = self.features.get(n)
                if f is None:
                    break
                n = f.parent

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
