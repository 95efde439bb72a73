"""Feature model data structure and integrity-preserving edits.

A model is a tree of named features plus a set of cross-tree constraints.
Decomposition information (parent, kind, group id) is stored inline on each
feature; the root carries neither a parent nor a decomposition.

A feature stored in a model is a value: an edit stores a new feature in its
place, so a copy shares every feature with the model it was taken from.

Two indices derived from the features spare the edits a scan of the model:
children (parent name -> child names) and groups (group id -> member
names). Both are built from `features` in one pass when an edit first needs
one, and from then on the edits keep them current. The writers never read
them, so output follows the order of `features`. A copy shares the index
entries as it shares the features: the first write to an entry, in either
model, stores a private copy that later writes change in place. So an entry
two models may reach is never changed in place, and a bulk edit copies each
entry it touches once.
"""

from __future__ import annotations

import enum

from .record import FrozenRecord, Record, slot_setters


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


def effect_key(left: str, kind: str, right: str) -> tuple:
    """The key of the effect of the constraint `left kind right`."""
    # excludes is symmetric: (X exc Y) and (Y exc X) have the same effect
    if kind == "excludes":
        return ("excludes", left, right) if left <= right else ("excludes", right, left)
    return ("requires", left, right)


class Constraint(FrozenRecord):
    """Cross-tree constraint: left requires/excludes right."""

    __slots__ = ("left", "kind", "right")  # kind: "requires" | "excludes"

    def __init__(self, left: str, kind: str, right: str):
        _set_left(self, left)
        _set_kind(self, kind)
        _set_right(self, right)

    def effect_key(self) -> tuple:
        return effect_key(self.left, self.kind, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.kind} {self.right})"


_set_left, _set_kind, _set_right = slot_setters(Constraint)


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


class _Index:
    """Key -> ordered set of names (a dict of name -> None), whose entries
    the model holding it may share with its copies.

    `owned` holds the keys of the entries no other model reaches; only
    those are changed in place. A write to any other entry first stores a
    private copy of it.
    """

    __slots__ = ("entries", "owned")

    def __init__(self, entries: dict, owned: set):
        self.entries, self.owned = entries, owned

    def copy(self) -> "_Index":
        self.owned = set()  # from now on every entry is shared with the copy
        return _Index(dict(self.entries), set())

    def add(self, key, name: str) -> None:
        self._own(key)[name] = None

    def discard(self, key, name: str) -> None:
        entry = self._own(key)
        del entry[name]
        if not entry:
            self.drop(key)

    def drop(self, key) -> None:
        self.entries.pop(key, None)
        self.owned.discard(key)

    def _own(self, key) -> dict:
        if key not in self.owned:
            self.entries[key] = dict(self.entries.get(key, {}))
            self.owned.add(key)
        return self.entries[key]


class FeatureModel(Record):
    # features: name -> Feature, insertion-ordered.
    # tvl_string_enum: an optional "enum string in {...}" header carried over
    # from a TVL input; purely decorative, never enforced.
    # _constraints: effect_key() -> Constraint, insertion-ordered; holds at
    # most one constraint per effect, so lookups, additions and removals are O(1)
    # _children, _groups: the derived indices (see the module docstring),
    # both None until first needed; they are not fields
    __slots__ = ("features", "root", "next_group_id", "tvl_string_enum", "_constraints",
                 "_children", "_groups")
    _defaults = {"features": {}, "root": "", "next_group_id": 1,
                 "tvl_string_enum": None, "_constraints": {}}
    _derived = ("_children", "_groups")

    # -- construction ------------------------------------------------------

    @classmethod
    def with_root(cls, name: str, attributes: dict | None = None) -> "FeatureModel":
        m = cls()
        m.features[name] = Feature(name, attributes=dict(attributes or {}))
        m.root = name
        return m

    def copy(self) -> "FeatureModel":
        """A model that edits apart from this one and shares its features
        and index entries."""
        m = FeatureModel(dict(self.features), self.root, self.next_group_id,
                         self.tvl_string_enum, dict(self._constraints))
        if self._children is not None:
            m._children, m._groups = self._children.copy(), self._groups.copy()
        return m

    def _indices(self) -> tuple:
        """The children and groups indices, both built in one scan on first use."""
        if self._children is None:
            children: dict = {}
            groups: dict = {}
            for f in self.features.values():
                if f.parent is not None:
                    children.setdefault(f.parent, {})[f.name] = None
                if f.group_id:
                    groups.setdefault(f.group_id, {})[f.name] = None
            self._children = _Index(children, set(children))
            self._groups = _Index(groups, set(groups))
        return self._children, self._groups

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
        """Each parent's name -> its child features, in the order of
        `features`; the writers' listing, built in one scan."""
        kids: dict = {}
        for f in self.features.values():
            if f.parent is not None:
                kids.setdefault(f.parent, []).append(f)
        return kids

    def subtree(self, name: str) -> set:
        """The feature plus all its transitive descendants."""
        self.feature(name)
        kids = self._indices()[0].entries
        result = set()
        stack = [name]
        while stack:
            n = stack.pop()
            result.add(n)
            stack.extend(kids.get(n, ()))
        return result

    def group_members(self, group_id: int):
        """The names in a group, in no fixed order: a view to read at once."""
        return self._indices()[1].entries.get(group_id, {}).keys()

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
        self._store(Feature(name, parent, decomp, gid, feature.attributes))

    def _store(self, f: Feature) -> None:
        """Store f, a non-root feature, in place of the one of its name, if
        any, and move its name to its parent's and group's index entries."""
        name, old = f.name, self.features.get(f.name)
        self.features[name] = f
        if self._children is None:
            return
        for index, was, now in ((self._children, old and old.parent, f.parent),
                                (self._groups, old and old.group_id, f.group_id)):
            if was != now:
                if was:
                    index.discard(was, name)
                if now:
                    index.add(now, name)

    def _assign_group(self, name: str, parent: str, decomp: DecompKind,
                      join_group: int | None) -> int:
        """The group id of `name` under `parent`; `name` alone is no group to join."""
        if not decomp.is_group:
            if join_group is not None:
                raise ModelError("solitary relations cannot join a group")
            return 0
        if join_group is None:
            return self.fresh_group_id()
        # any other member stands for the group: members share parent and kind
        rep = next((m for m in self.group_members(join_group) if m != name), None)
        if rep is None:
            raise ModelError(f"no group with id {join_group}")
        rep = self.features[rep]
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
        self._store(Feature(name, new_parent, decomp, gid, f.attributes))

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
        self._children = self._groups = None  # rebuilt when next needed
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

    def remove_subtree(self, *names: str) -> set:
        """Remove features with all their descendants, and every constraint
        naming one of them; returns the removed names.

        A name already removed as a descendant of an earlier one is skipped.
        Each subtree is walked in the children index, and the constraints
        are filtered once, after all removals.
        """
        for name in names:
            if self.feature(name).is_root:
                raise ModelError("the root feature cannot be removed")
        doomed: set = set()
        for name in names:
            if name in doomed:
                continue
            gone = self.subtree(name)  # builds the indices
            f = self.features[name]
            self._children.discard(f.parent, name)
            if f.group_id:
                self._groups.discard(f.group_id, name)
            for n in gone:
                f = self.features.pop(n)
                if n != name:  # its parent and all its siblings go too
                    self._children.drop(f.parent)
                    self._groups.drop(f.group_id)
            doomed |= gone
        if any(c.left in doomed or c.right in doomed for c in self._constraints.values()):
            self._constraints = {
                k: c for k, c in self._constraints.items()
                if c.left not in doomed and c.right not in doomed
            }
        return doomed

    def add_constraint(self, c: Constraint) -> bool:
        """Add a constraint unless a same-effect one is already stored."""
        features = self.features
        if c.left not in features or c.right not in features:
            end = c.right if c.left in features else c.left
            raise ModelError(f"unknown feature {end!r}")
        key = effect_key(c.left, c.kind, c.right)
        if key in self._constraints:
            return False
        self._constraints[key] = c
        return True

    def remove_constraint(self, c: Constraint) -> bool:
        """Remove the stored constraint with the same effect as c, if any."""
        return self._constraints.pop(c.effect_key(), None) is not None
