"""Execution of the ten command types.

`execute` resolves each command's feature variables jointly against the
current model, once; without resolutions the command ends in a warning.
Otherwise it hands one working copy of the model, which shares the model's
features (see `feather.model`), to the command's executor. Each verb has one
executor; a single-target command is the one-target case of its
multi-target form (`multi`).
The executor derives every value it assigns from the resolution tuples, each
slot compiled once (`_deriver`: the slot's values under the tuples must
agree, or the command is ambiguous; a slot naming no variable is evaluated
once). A feature command derives a target's slot when that target's check
reaches it, in one order for every verb: the parent, the decomposition, then
each attribute after its presence check. It checks the ambiguity and
integrity rules, then edits the copy and returns the command's diagnostics.
`execute` is the one atomicity point: an error discards the copy, even after
a write, so a failing command leaves no edit behind (multi-target commands
may commit a defined partial effect).
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator

from .expressions import (
    EvalError,
    TypeCheckError,
    VarRef,
    compile_expr,
    referenced_usages,
)
from .model import BOOLEAN, NUMERIC, Constraint, DecompKind, Feature, FeatureModel, effect_key
from .parser import (
    AddConstraint,
    AddFeature,
    Command,
    RemoveAllConstraints,
    RemoveAllFeatures,
    RemoveConstraint,
    RemoveFeature,
    UpdateAllConstraints,
    UpdateAllFeatures,
    UpdateConstraint,
    UpdateFeature,
)
from .record import Record
from .resolver import ResolutionSet, resolve
from .serializer import format_value

NO_RESOLUTIONS_MSG = "No resolutions could be found to satisfy the where clause"
PARENT_AMBIGUITY = "Command is ambiguous on what the new parent will be"
DECOMP_AMBIGUITY = "Command is ambiguous on what the new decomposition relation will be"
FIT_ERROR = "The described transformation does not fit the model structure"


class RunMode(enum.Enum):
    IGNORE_ALL = "ignore_all"
    STOP_ON_ERROR = "stop_on_error"
    STOP_ON_WARNING = "stop_on_warning"


class Diagnostic(Record):
    # index: the 1-based command position in the script; severity: "warning" | "error"
    __slots__ = ("index", "code", "severity", "message")

    def render(self) -> str:
        return f"cmd #{self.index} ({self.code}) : {self.message}"


class CommandError(Exception):
    """Aborts a command with an error diagnostic; the model keeps its state."""


def _fmt(value) -> str:
    if isinstance(value, (str, Constraint, DecompKind)):
        return str(value)
    return format_value(value)


def _listing(values) -> str:
    return "(" + ", ".join(_fmt(v) for v in values) + ")"


# -- gathering variables and usages ---------------------------------------

# the usage context of an attribute value, by its tag
_TAG_CONTEXTS = {"numeric": "numeric", "boolean": BOOLEAN}


def _command_parts(cmd: Command) -> list:
    """The parts of a command that can name feature variables, in order:
    (expression, usage context of its value) and (feature descriptor,
    attribute usages its feature must admit) pairs."""
    parts: list = []
    if isinstance(cmd, (AddFeature, UpdateFeature, UpdateAllFeatures)):
        # updating an attribute requires the target to carry it already
        carried = [(a.name, "any") for a in cmd.attrs]
        if isinstance(cmd, UpdateFeature):
            parts.append((cmd.target, carried))
        if isinstance(cmd, UpdateAllFeatures):
            parts.append((VarRef(cmd.var), carried))
        if cmd.parent is not None:
            parts.append((cmd.parent, "any"))
        if cmd.decomp is not None:
            parts += [(cmd.decomp.kind, "any"), (cmd.decomp.sibling, [])]
        parts += [(a.value, _TAG_CONTEXTS.get(a.tag, "any")) for a in cmd.attrs]
    elif isinstance(cmd, RemoveFeature):
        parts.append((cmd.target, []))
    elif isinstance(cmd, RemoveAllFeatures):
        parts.append((VarRef(cmd.var), []))
    else:  # constraint commands
        parts += [(cmd.left, []), (cmd.right, [])]
        if isinstance(cmd, UpdateConstraint):
            parts += [(e, "any") for e in (cmd.new_left, cmd.new_right)
                      if e is not None]
    if cmd.where is not None:
        parts.append((cmd.where, BOOLEAN))
    return parts


def command_usages(cmd: Command) -> dict:
    """Each feature variable of a command, in order of first occurrence, to
    the merged attribute usages of every part of the command. An expression
    part adds its variables in sorted order."""
    usages: dict = {}
    for part, usage in _command_parts(cmd):
        if isinstance(usage, str):
            used = referenced_usages(part, usage)
            for var in sorted(used):
                usages.setdefault(var, []).extend(used[var])
        elif isinstance(part, VarRef):
            usages.setdefault(part.name, []).extend(usage)
    return usages


# -- slot evaluation -------------------------------------------------------


def _slot(expr, model, expected=None):
    """A slot expression compiled once: a function from a binding to its value.

    Under a binding it checks the type, then the expected type, then
    evaluates, so that a type error anywhere in the expression or a value of
    the wrong type wins over an evaluation error.
    """
    t, value = compile_expr(expr)
    features = model.features

    def run(binding):
        try:
            found = t(features, binding) if callable(t) else t
            if expected == "numeric" and found not in NUMERIC:
                raise TypeCheckError(f"expected a numeric value, found {found}")
            if expected == BOOLEAN and found != BOOLEAN:
                raise TypeCheckError(f"expected a boolean value, found {found}")
            return value(features, binding)
        except (TypeCheckError, EvalError) as e:
            raise CommandError(str(e)) from None
    return run


def _existing(model, name: str, role: str = "feature") -> str:
    """`name`, which must name a feature of the model; `role` is what the
    command calls that feature in the error."""
    if name not in model.features:
        raise CommandError(f'The specified {role} (i.e., "{name}") does not exist')
    return name


def _varies(*parts) -> bool:
    """Whether any of the expressions or feature descriptors names a variable."""
    return any(isinstance(p, VarRef) or referenced_usages(p) for p in parts)


def _deriver(slot, ambiguity_message, list_values=True, constant=False):
    """A function from a non-empty resolution set to the value of `slot`
    under all of its tuples, which must agree. Values of different types
    differ: 5 and 5.0, or true and 1, are two values.

    A constant slot, one that names no variable, has one value per command:
    it is evaluated at its first use, under no binding, and that value is
    returned from then on. Every slot is derived before the command's first
    write, so the value cannot go stale."""
    if constant:
        once = functools.cache(lambda: slot({}))
        return lambda _resolutions: once()

    def derive(resolutions):
        values: dict = {}  # (type, value) -> the value, in first-seen order
        for t in resolutions.tuples:
            v = slot(dict(zip(resolutions.variables, t)))
            values.setdefault((type(v), v), v)
        if len(values) > 1:
            if list_values:
                raise CommandError(f"{ambiguity_message} {_listing(values.values())}")
            raise CommandError(ambiguity_message)
        [value] = values.values()
        return value
    return derive


def _decomp_slot(model, spec):
    """The slot of a `_decomp =` specification: (kind, group id to join)."""
    kind_of, sibling = _slot(spec.kind, model), spec.sibling

    def slot(binding):
        if sibling is None:
            return kind_of(binding), None
        name = binding[sibling.name] if isinstance(sibling, VarRef) else sibling.name
        return kind_of(binding), model.features[_existing(model, name, "sibling")].group_id
    return slot


def _check_group_fit(model, name, kind, gid, parent):
    """Feature `name` may join group `gid`, if any, as a `kind` child of `parent`."""
    if gid is not None and not model.fits_group(name, parent, kind, gid):
        raise CommandError(FIT_ERROR)


def _attr_slot(model, assign):
    value_of = _slot(assign.value, model, _TAG_CONTEXTS.get(assign.tag))

    def slot(binding):
        v = value_of(binding)
        if assign.tag == "inherited" and isinstance(v, (DecompKind, tuple)):
            raise CommandError(
                f'attribute "{assign.name}" cannot inherit a decomposition value')
        return v
    return slot


def _feature_slots(model, cmd) -> tuple:
    """The slots of a feature command, compiled once per command, and
    whether any of them names a variable.

    Keyed "_parent", "_decomp" and by attribute position; each maps a
    resolution set to the slot's derived value.
    """
    slots: dict = {}
    varying: list = []

    def add(key, slot, message, *parts, list_values=True):
        varying.append(_varies(*parts))
        slots[key] = _deriver(slot, message, list_values, constant=not varying[-1])

    if cmd.parent is not None:
        add("_parent", _slot(cmd.parent, model), PARENT_AMBIGUITY, cmd.parent)
    if cmd.decomp is not None:
        add("_decomp", _decomp_slot(model, cmd.decomp), DECOMP_AMBIGUITY,
            cmd.decomp.kind, cmd.decomp.sibling, list_values=False)
    for i, a in enumerate(cmd.attrs):
        add(i, _attr_slot(model, a),
            f'Command is ambiguous on what the value of attribute "{a.name}" will be',
            a.value)
    return slots, any(varying)


# -- feature commands ------------------------------------------------------


def exec_add_feature(model: FeatureModel, cmd: AddFeature, res: ResolutionSet):
    slots, _varying = _feature_slots(model, cmd)
    parent = _existing(model, slots["_parent"](res), "parent")
    if cmd.name in model.features:
        raise CommandError(f'Feature name "{cmd.name}" is in use')
    kind, gid = slots["_decomp"](res)
    _check_group_fit(model, cmd.name, kind, gid, parent)
    attrs = {a.name: slots[i](res) for i, a in enumerate(cmd.attrs)}
    model.attach_feature(Feature(cmd.name, attributes=attrs), parent, kind,
                         join_group=gid)
    return []


def _check_feature_update(model, fname, cmd, derived):
    """One target's update, checked before any edit: (move, attribute values)
    with move the (parent, kind, group id) to move to or None; None for the
    root in a structural update. `derived(key)` is the target's value of
    the slot under `key` (see _feature_slots)."""
    f = model.features[fname]
    structural = cmd.parent is not None or cmd.decomp is not None
    if structural and f.parent is None:  # the root
        return None

    parent = f.parent
    if cmd.parent is not None:
        parent = _existing(model, derived("_parent"), "parent")

    kind, gid = f.decomp, None
    if cmd.decomp is not None:
        kind, gid = derived("_decomp")
        _check_group_fit(model, fname, kind, gid, parent)

    updates = {}
    for i, a in enumerate(cmd.attrs):
        if a.name not in f.attributes:
            raise CommandError(
                f'Feature "{fname}" does not have an attribute named "{a.name}"')
        updates[a.name] = derived(i)
    return ((parent, kind, gid) if structural else None), updates


def _write_feature_updates(model, updates: dict) -> list:
    """Apply checked updates, target -> (move, attribute values) or None
    (see _check_feature_update), in order, moving a run of targets with one
    move in one call. Returns the targets the model refuses, unwritten and in
    order: the root in a structural update, and a move that does not fit."""
    refused = []
    for move, run in itertools.groupby(updates, lambda t: updates[t] and updates[t][0]):
        if move:
            refused += model.move_features(list(run), *move)
        else:
            refused += [t for t in run if updates[t] is None]
    skip = set(refused)
    for t, update in updates.items():
        if update and update[1] and t not in skip:
            model.update_attributes(t, update[1])
    return refused


def _targets(model, cmd, res, multi: bool, verb: str, grouped: bool = False) -> dict:
    """Each feature the command edits, in first-seen order, to its tuples:
    all of them, or if `grouped` those that bind it. A single-target command
    edits one feature, so its one group is all the tuples."""
    if not multi and not isinstance(cmd.target, VarRef):
        return {_existing(model, cmd.target.name): res}
    var = cmd.var if multi else cmd.target.name
    if multi and grouped:
        return _group_by(res, var)
    i = res.variables.index(var)
    targets = dict.fromkeys((t[i] for t in res.tuples), res)
    if not multi and len(targets) > 1:
        raise CommandError("Command is ambiguous on which feature will be "
                           f"{verb} {_listing(targets)}")
    return targets


def _group_by(res: ResolutionSet, var: str) -> dict:
    """The tuples split by their value of `var`, in first-seen order."""
    i = res.variables.index(var)
    subs: dict = {}
    for t in res.tuples:
        sub = subs.get(t[i])
        if sub is None:
            sub = subs[t[i]] = ResolutionSet(res.variables, [])
        sub.tuples.append(t)
    return subs


def exec_update_feature(model: FeatureModel, cmd, res: ResolutionSet, multi: bool):
    # every target is checked against the model as the command found it,
    # before any is written. A target's slot is derived when its check
    # reaches it, at most once: the root in a structural update is refused
    # before any. The model refuses the root and a move that does not fit:
    # `update` fails on such a target, `updateall` skips it
    slots, varying = _feature_slots(model, cmd)
    targets = _targets(model, cmd, res, multi, "updated", grouped=varying)
    # a memo of derived slots per target; targets with all the tuples share one
    memo = lambda sub: functools.cache(lambda key: slots[key](sub))
    shared = memo(res)
    updates = {t: _check_feature_update(model, t, cmd, shared if sub is res else memo(sub))
               for t, sub in targets.items()}
    refused = _write_feature_updates(model, updates)
    if multi:
        skipped = f"Command had a partial effect: skipped {_listing(refused)}"
        return [("warning", skipped)] if refused else []
    [(fname, update)] = updates.items()
    if refused:
        raise CommandError(FIT_ERROR if update else
                           "The root feature cannot figure in a decomposition relation update")
    # a refused move wins over a name in use, so this check follows the move
    if cmd.new_name is not None and cmd.new_name != fname:
        if cmd.new_name in model.features:
            raise CommandError(f'New feature name "{cmd.new_name}" is in use')
        model.rename_feature(fname, cmd.new_name)
    return []


def exec_remove_feature(model: FeatureModel, cmd, res: ResolutionSet, multi: bool):
    targets = list(_targets(model, cmd, res, multi, "removed"))
    diags = []
    if model.root in targets:
        if not multi:
            raise CommandError("The root feature cannot be removed")
        targets.remove(model.root)
        diags.append(("warning", "Command had a partial effect: the root "
                                 "feature cannot be removed"))
    model.remove_subtree(*targets)
    return diags


# -- constraint commands ---------------------------------------------------


def _check_literal_ends(model, cmd):
    for desc in (cmd.left, cmd.right):
        if not isinstance(desc, VarRef):
            _existing(model, desc.name)


def _end_reader(desc, variables):
    """A function from a resolution tuple to the name of a constraint end."""
    if isinstance(desc, VarRef):
        return operator.itemgetter(variables.index(desc.name))
    return lambda t: desc.name


def _candidate_constraints(cmd, res) -> dict:
    """Effect key -> the first constraint with that effect the tuples give,
    in enumeration order: one Constraint per key, none per tuple."""
    left = _end_reader(cmd.left, res.variables)
    right = _end_reader(cmd.right, res.variables)
    kind, out = cmd.kind, {}
    for t in res.tuples:
        a, b = left(t), right(t)
        key = effect_key(a, kind, b)
        if key not in out:
            out[key] = Constraint(a, kind, b)
    return out


def exec_add_constraint(model: FeatureModel, cmd: AddConstraint, res: ResolutionSet):
    _check_literal_ends(model, cmd)
    # the candidates have distinct effects, so only a constraint the model
    # held before the command is reported as existing
    existing = [c for c in _candidate_constraints(cmd, res).values()
                if not model.add_constraint(c)]
    if existing:
        listed = ", ".join(str(c) for c in existing)
        return [("warning", f"Following Cross-tree Constraint(s) already exist: {listed}")]
    return []


def _matched_constraints(model, cmd, res, multi: bool, verb: str) -> dict:
    """Effect key -> the stored constraint the description matches; a
    single-target command may match at most one."""
    _check_literal_ends(model, cmd)
    matched = {key: rep for key, c in _candidate_constraints(cmd, res).items()
               if (rep := model.stored_constraint(c)) is not None}
    if not multi and len(matched) > 1:
        raise CommandError("Command is ambiguous on which constraint will "
                           f"be {verb} {_listing(matched.values())}")
    return matched


def _end_slot(model, expr, side):
    """The slot of a new constraint end, compiled once per command: a
    function from a resolution set to the feature name; None without one."""
    if expr is None:
        return None
    derive = _deriver(_slot(expr, model),
                      f"Command is ambiguous on what the new {side}-feature will be",
                      constant=not _varies(expr))
    return lambda resolutions: _existing(model, derive(resolutions))


def exec_update_constraint(model: FeatureModel, cmd: UpdateConstraint,
                           res: ResolutionSet, multi: bool):
    matched = _matched_constraints(model, cmd, res, multi, "updated")
    if not matched:
        if multi:
            return [("warning", "No constraints match the update all command")]
        raise CommandError("No constraints match the update command")
    new_left = _end_slot(model, cmd.new_left, "left")
    new_right = _end_slot(model, cmd.new_right, "right")
    # the tuples of each matched constraint, read only to derive new ends
    subs = {key: ResolutionSet(res.variables, []) for key in matched}
    left, right = _end_reader(cmd.left, res.variables), _end_reader(cmd.right, res.variables)
    for t in res.tuples if new_left or new_right else ():
        sub = subs.get(effect_key(left(t), cmd.kind, right(t)))
        if sub is not None:
            sub.tuples.append(t)
    new = []
    for key, rep in matched.items():
        a = rep.left if new_left is None else new_left(subs[key])
        b = rep.right if new_right is None else new_right(subs[key])
        new.append(Constraint(a, cmd.new_kind or rep.kind, b))
    for rep in matched.values():
        model.remove_constraint(rep)
    for c in new:
        model.add_constraint(c)
    return []


def exec_remove_constraint(model: FeatureModel, cmd, res: ResolutionSet, multi: bool):
    matched = _matched_constraints(model, cmd, res, multi, "removed")
    if not matched:
        verb = "remove all" if multi else "remove"
        return [("warning", f"No constraints match the {verb} command")]
    for rep in matched.values():
        model.remove_constraint(rep)
    return []


# -- dispatch and script runner -------------------------------------------


# keyed by the exact class: UpdateAllConstraints subclasses UpdateConstraint
_EXECUTORS = {
    AddFeature: exec_add_feature,
    UpdateFeature: functools.partial(exec_update_feature, multi=False),
    UpdateAllFeatures: functools.partial(exec_update_feature, multi=True),
    RemoveFeature: functools.partial(exec_remove_feature, multi=False),
    RemoveAllFeatures: functools.partial(exec_remove_feature, multi=True),
    AddConstraint: exec_add_constraint,
    UpdateConstraint: functools.partial(exec_update_constraint, multi=False),
    UpdateAllConstraints: functools.partial(exec_update_constraint, multi=True),
    RemoveConstraint: functools.partial(exec_remove_constraint, multi=False),
    RemoveAllConstraints: functools.partial(exec_remove_constraint, multi=True),
}


def execute(model: FeatureModel, cmd: Command):
    """Run one command; returns (model', [(severity, message), ...]). Never
    changes `model`: model' is `model` or a copy sharing its unedited features."""
    run = _EXECUTORS.get(type(cmd))
    if run is None:
        raise TypeError(f"unknown command {cmd!r}")
    usages = command_usages(cmd)
    res = resolve(model, list(usages), cmd.where, usages=usages)
    if not res.tuples:
        return model, [("warning", NO_RESOLUTIONS_MSG)]
    work = model.copy()
    try:
        return work, run(work, cmd, res)
    except CommandError as e:
        return model, [("error", str(e))]


def run_script(model: FeatureModel, commands, mode: RunMode):
    """Execute commands in order; returns (model', diagnostics, halted_at).

    The mode governs halting only: a halted run keeps the effects of every
    command executed so far, including the one that raised the final
    warning (errors never have an effect in the first place).
    """
    diagnostics = []
    halted_at = None
    for i, cmd in enumerate(commands, 1):
        model, results = execute(model, cmd)
        found_error = False
        for severity, message in results:
            diagnostics.append(Diagnostic(i, cmd.code, severity, message))
            found_error = found_error or severity == "error"
        if results and mode is RunMode.STOP_ON_WARNING:
            halted_at = i
            break
        if found_error and mode is RunMode.STOP_ON_ERROR:
            halted_at = i
            break
    return model, diagnostics, halted_at
