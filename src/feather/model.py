"""Feature model data structure and integrity-preserving edits.

A model is a tree of named features plus a set of cross-tree constraints.
Decomposition information (parent, kind, group id) is stored inline on each
feature; the root carries neither a parent nor a decomposition.

A feature stored in a model is a value: an edit stores a new feature in its
place, so a copy shares every feature with the model it was taken from.

Two indices derived from the features spare the edits a scan of the model:
children (parent name -> child names) and groups (group id -> member
names), each a dict of key -> ordered set of names (a dict of name -> None).
Both are built from `features` in one pass when an edit first needs one,
and from then on the edits change them in place. The writers never read
them, so output follows the order of `features`. An index belongs to one
model: `copy()` hands both to the copy, and the model copied builds them
again when it next needs one.

Attribute columns (`column`, `buckets`) belong to a model the same way. A
move drops those of `_parent`, `_decomp` and `_decompID`, and any other
edit drops each column it changes, a removal all of them. A column reads
each feature with `attr_reader`, the one reading of an attribute as a typed
value that the type rules and the resolver share, and a bucket keys it with
`join_key`, as `=` compares.
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


# value types, as the type rules name them
INTEGER = "integer"
REAL = "real"
BOOLEAN = "boolean"
STRING = "string"
DECOMP = "decomp"
DECOMP_ID = "decomp_id"

NUMERIC = (INTEGER, REAL)
TYPES = NUMERIC + (BOOLEAN, STRING, DECOMP, DECOMP_ID)

_TYPE_OF = {bool: BOOLEAN, int: INTEGER, float: REAL, str: STRING, DecompKind: DECOMP}


def type_of(value) -> str:
    try:
        return _TYPE_OF[type(value)]
    except KeyError:
        raise TypeError(f"unsupported attribute value {value!r}") from None


# The attributes every feature has, each with its type, a reader of its
# value and whether the root has it: the root has no decomposition
# relation. Their names are reserved words of the script lexer.
STRUCTURAL = {
    "_name": (STRING, lambda f: f.name, True),
    "_parent": (STRING, lambda f: f.parent if f.parent is not None else "", True),
    "_decomp": (DECOMP, lambda f: f.decomp, False),
    "_decompID": (DECOMP_ID, lambda f: ("decompID", f.group_id), False),
}


def attr_reader(attr: str):
    """A reader of one attribute: (type, value), or None where a feature lacks it."""
    if attr in STRUCTURAL:
        t, value, on_root = STRUCTURAL[attr]
        return lambda f: (t, value(f)) if on_root or not f.is_root else None

    def read(f):
        v = f.attributes.get(attr)
        return None if v is None else (type_of(v), v)
    return read


def join_key(t: str, value):
    """Hash key of a typed value: values `=` calls equal share a key.

    None when the value is NaN, which equals nothing. Numbers are keyed by
    their value: an int and a float that `=` calls equal are equal and hash
    alike, so 1 = 1.0 while 2**53 + 1 is not 2**53. Other values are keyed by
    type, so true never equals 1.
    """
    if t not in NUMERIC:
        return t, value
    return None if value != value else ("numeric", value)


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


# a frozen record stores its fields through the slots' own setters
_set_left, _set_kind, _set_right = (Constraint.__dict__[s].__set__ for s in Constraint.__slots__)


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
    # _children, _groups, _columns (attribute -> [column, buckets]): derived
    # (see the module docstring), None until first needed and after copy()
    __slots__ = ("features", "root", "next_group_id", "tvl_string_enum", "_constraints",
                 "_children", "_groups", "_columns")
    _defaults = {"features": {}, "root": "", "next_group_id": 1,
                 "tvl_string_enum": None, "_constraints": {}}
    _derived = ("_children", "_groups", "_columns")

    # -- construction ------------------------------------------------------

    @classmethod
    def with_root(cls, name: str, attributes: dict | None = None) -> "FeatureModel":
        m = cls()
        m.features[name] = Feature(name, attributes=dict(attributes or {}))
        m.root = name
        return m

    def copy(self) -> "FeatureModel":
        """A model that edits apart from this one and shares its features.
        The copy takes this model's indices and columns: `execute` edits only
        the copy, and this model builds them again if it needs them."""
        m = FeatureModel(dict(self.features), self.root, self.next_group_id,
                         self.tvl_string_enum, dict(self._constraints))
        m._children, m._groups, m._columns = self._children, self._groups, self._columns
        self._children = self._groups = self._columns = None
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
            self._children, self._groups = children, groups
        return self._children, self._groups

    def column(self, attr: str) -> dict:
        """Each feature that has `attr`, by name in feature order, to its
        (type, value) as attr_reader reads it; built on first use. Read-only."""
        columns = self._columns = self._columns or {}
        if attr not in columns:
            read = attr_reader(attr)
            columns[attr] = [{f.name: pair for f in self.features.values()
                              if (pair := read(f)) is not None}, None]
        return columns[attr][0]

    def buckets(self, attr: str) -> dict:
        """The names of `attr`'s column grouped in feature order by join_key,
        None in no group; built on first use. Read-only."""
        column, entry = self.column(attr), self._columns[attr]
        if entry[1] is None:
            by_entry: dict = {}  # join_key() runs once per distinct entry
            for name, pair in column.items():
                by_entry.setdefault(pair, []).append(name)
            groups = entry[1] = {}
            for pair, names in by_entry.items():
                if (k := join_key(*pair)) is not None:  # 1 and 1.0 share a key: feature order
                    groups[k] = names if k not in groups else [
                        n for n, p in column.items() if join_key(*p) == k]
        return entry[1]

    def _drop_columns(self, attrs) -> None:
        """Drop the columns of `attrs`, which an edit is about to change."""
        for attr in attrs if self._columns else ():
            self._columns.pop(attr, None)

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
        kids = self._indices()[0]
        result = set()
        stack = [name]
        while stack:
            n = stack.pop()
            result.add(n)
            stack.extend(kids.get(n, ()))
        return result

    def group_members(self, group_id: int):
        """The names in a group, in no fixed order: a view to read at once."""
        return self._indices()[1].get(group_id, {}).keys()

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
        if join_group is not None and not self.fits_group(name, parent, decomp, join_group):
            raise ModelError(f"{name!r} cannot join group {join_group} "
                             f"as {decomp} under {parent!r}")
        gid = self.fresh_group_id() if join_group is None and decomp.is_group else join_group or 0
        self._drop_columns((*STRUCTURAL, *feature.attributes))
        self.features[name] = Feature(name, parent, decomp, gid, feature.attributes)
        if self._children is not None:
            self._children.setdefault(parent, {})[name] = None
            if gid:
                self._groups.setdefault(gid, {})[name] = None

    def fits_group(self, name: str, parent: str, kind: DecompKind, gid: int) -> bool:
        """Whether `name` can join group `gid` as a `kind` child of `parent`:
        another member stands for the group with the same parent and kind,
        as the members of a group share both."""
        rep = next((self.features[m] for m in self.group_members(gid) if m != name), None)
        return rep is not None and rep.parent == parent and rep.decomp == kind

    def move_features(self, names, new_parent: str, decomp: DecompKind,
                      join_group: int | None = None) -> list:
        """Reparent features, in order, under one parent as `decomp`
        children of one group; each subtree follows implicitly. Returns the
        names it refuses and leaves as they were: a feature the move would
        put under itself (the root among them) and one that does not fit
        join_group. Without join_group a group kind opens a fresh group each."""
        self.feature(new_parent)
        above, n = set(), new_parent
        while n is not None:  # no feature on this walk may move under new_parent
            above.add(n)
            n = self.features[n].parent
        children, groups = self._indices()
        self._drop_columns(("_parent", "_decomp", "_decompID"))
        fresh, refused = join_group is None and decomp.is_group, []
        for name in names:
            f = self.feature(name)
            if name in above or join_group is not None and not self.fits_group(
                    name, new_parent, decomp, join_group):
                refused.append(name)
                continue
            gid = self.fresh_group_id() if fresh else join_group or 0
            self.features[name] = Feature(name, new_parent, decomp, gid, f.attributes)
            _discard(children, f.parent, name)
            if f.group_id:
                _discard(groups, f.group_id, name)
            children.setdefault(new_parent, {})[name] = None
            if gid:
                groups.setdefault(gid, {})[name] = None
        return refused

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
        self._children = self._groups = self._columns = None  # rebuilt when next needed
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
        self._drop_columns(values)
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
        children, groups = self._indices()
        for name in names:
            if name in doomed:
                continue
            gone = self.subtree(name)
            f = self.features[name]
            _discard(children, f.parent, name)
            if f.group_id:
                _discard(groups, f.group_id, name)
            for n in gone:
                f = self.features.pop(n)
                if n != name:  # its parent and all its siblings go too
                    children.pop(f.parent, None)
                    groups.pop(f.group_id, None)
            doomed |= gone
        self._columns = None  # built again when next read
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


def _discard(index: dict, key, name: str) -> None:
    """Take `name` out of the entry `key`, and the entry out if it empties."""
    entry = index[key]
    del entry[name]
    if not entry:
        del index[key]
