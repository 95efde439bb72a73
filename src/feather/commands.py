"""Execution of the ten command types.

`execute` resolves each command's feature variables jointly against the
current model, once; without resolutions the command ends in a warning.
Otherwise it hands one working copy of the model, which shares the model's
features (see `feather.model`), to the command's executor.
The executor derives every value it assigns from the resolution tuples, each
slot compiled once (`_deriver`: the slot's values under the tuples must
agree, or the command is ambiguous; a slot naming no variable is evaluated
once). It checks the ambiguity and integrity rules, then edits the copy and
returns the command's diagnostics. `execute` is the one atomicity point: an
error discards the copy, even after a write, so a failing command leaves no
edit behind (multi-target commands may commit a defined partial effect).
"""

from __future__ import annotations

import enum
import functools
import operator

from .expressions import (
    BOOLEAN,
    EvalError,
    NUMERIC,
    TypeCheckError,
    VarRef,
    compile_expr,
    compile_type,
    referenced_usages,
)
from .model import Constraint, DecompKind, Feature, FeatureModel, ModelError, effect_key
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


class _Skip(Exception):
    """Aborts one target of a multi-target command; one that leaves an
    executor aborts the command as a CommandError does."""


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

    Under a binding it runs the type pass, the expected-type check and the
    value pass, in that order, so that a type error anywhere in the
    expression or a value of the wrong type wins over an evaluation error.
    """
    type_pass, value_pass = compile_type(expr), compile_expr(expr)
    features = model.features

    def value(binding):
        try:
            t = type_pass(features, binding)
            if expected == "numeric" and t not in NUMERIC:
                raise TypeCheckError(f"expected a numeric value, found {t}")
            if expected == BOOLEAN and t != BOOLEAN:
                raise TypeCheckError(f"expected a boolean value, found {t}")
            return value_pass(features, binding)[1]
        except (TypeCheckError, EvalError) as e:
            raise CommandError(str(e)) from None
    return value


def _desc_name(desc, binding) -> str:
    if isinstance(desc, VarRef):
        return binding[desc.name]
    return desc.name


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
    kind_of = _slot(spec.kind, model)

    def slot(binding):
        kind = kind_of(binding)
        gid = None
        if spec.sibling is not None:
            sib = _desc_name(spec.sibling, binding)
            if sib not in model.features:
                raise CommandError(
                    f'The specified sibling (i.e., "{sib}") does not exist')
            gid = model.features[sib].group_id
        return (kind, gid)
    return slot


def _check_group_fit(model, kind, gid, parent_name):
    """A group to join must be a group of `kind` under `parent_name`."""
    if gid is not None:
        # any member stands for the group: members share parent and kind
        members = model.group_members(gid)
        rep = model.features[next(iter(members))] if members else None
        if (rep is None or not kind.is_group or rep.decomp != kind
                or rep.parent != parent_name):
            raise CommandError(
                "The described transformation does not fit the model structure")


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
    parent = slots["_parent"](res)
    if parent not in model.features:
        raise CommandError(f'The specified parent (i.e., "{parent}") does not exist')
    if cmd.name in model.features:
        raise CommandError(f'Feature name "{cmd.name}" is in use')
    kind, gid = slots["_decomp"](res)
    _check_group_fit(model, kind, gid, parent)
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
    if structural and f.is_root:
        return None

    parent = f.parent
    if cmd.parent is not None:
        parent = derived("_parent")
        if parent not in model.features:
            raise CommandError(
                f'The specified parent (i.e., "{parent}") does not exist')

    kind, gid = f.decomp, None
    if cmd.decomp is not None:
        kind, gid = derived("_decomp")
        _check_group_fit(model, kind, gid, parent)

    updates = {}
    for i, a in enumerate(cmd.attrs):
        if a.name not in f.attributes:
            raise CommandError(
                f'Feature "{fname}" does not have an attribute named "{a.name}"')
        updates[a.name] = derived(i)
    return ((parent, kind, gid) if structural else None), updates


def _write_feature_update(model, fname, update):
    """Apply a checked update; raises _Skip, before any write, for a root
    target or a move the model refuses."""
    if update is None:
        raise _Skip("The root feature cannot figure in a decomposition "
                    "relation update")
    move, updates = update
    if move is not None:
        parent, kind, gid = move
        try:
            model.move_feature(fname, parent, kind, join_group=gid)
        except ModelError as e:
            raise _Skip(str(e)) from None
    if updates:
        model.update_attributes(fname, updates)


def _single_target(model, cmd, res, verb):
    """The one feature a single-target command edits, with its tuples."""
    if isinstance(cmd.target, VarRef):
        subs = _group_by(res, cmd.target.name)
        if len(subs) > 1:
            raise CommandError("Command is ambiguous on which feature will be "
                               f"{verb} {_listing(subs)}")
        [(fname, sub)] = subs.items()
        return fname, sub
    fname = cmd.target.name
    if fname not in model.features:
        raise CommandError(f'The specified feature (i.e., "{fname}") does not exist')
    return fname, res


def exec_update_feature(model: FeatureModel, cmd: UpdateFeature, res: ResolutionSet):
    fname, sub = _single_target(model, cmd, res, "updated")
    slots, _varying = _feature_slots(model, cmd)
    # slots are derived as the check reaches them
    update = _check_feature_update(model, fname, cmd, lambda key: slots[key](sub))
    _write_feature_update(model, fname, update)
    # a refused move wins over a name in use, so this check follows the move
    if cmd.new_name is not None and cmd.new_name != fname:
        if cmd.new_name in model.features:
            raise CommandError(f'New feature name "{cmd.new_name}" is in use')
        model.rename_feature(fname, cmd.new_name)
    return []


def _group_by(res: ResolutionSet, var: str) -> dict:
    """The tuples split by their value of `var`, in first-seen order."""
    i = res.variables.index(var)
    subs: dict = {}
    for t in res.tuples:
        subs.setdefault(t[i], ResolutionSet(res.variables, [])).tuples.append(t)
    return subs


def exec_update_all_features(model: FeatureModel, cmd: UpdateAllFeatures,
                             res: ResolutionSet):
    # every target is derived, then checked, before any is written: an
    # ambiguity or a failed check leaves the model untouched, each target is
    # checked against the model as the command found it, and only a move the
    # edited model refuses skips a target
    slots, varying = _feature_slots(model, cmd)
    if varying:
        derived = {t: {key: derive(sub) for key, derive in slots.items()}
                   for t, sub in _group_by(res, cmd.var).items()}
    else:  # one set of values serves every target
        i = res.variables.index(cmd.var)
        derived = dict.fromkeys((t[i] for t in res.tuples),
                                {key: derive(res) for key, derive in slots.items()})
    updates = {t: _check_feature_update(model, t, cmd, values.__getitem__)
               for t, values in derived.items()}
    skipped = []
    for t, update in updates.items():
        try:
            _write_feature_update(model, t, update)
        except _Skip:
            skipped.append(t)
    if skipped:
        return [("warning", f"Command had a partial effect: skipped {_listing(skipped)}")]
    return []


def exec_remove_feature(model: FeatureModel, cmd: RemoveFeature, res: ResolutionSet):
    fname, _sub = _single_target(model, cmd, res, "removed")
    if fname == model.root:
        raise CommandError("The root feature cannot be removed")
    model.remove_subtree(fname)
    return []


def exec_remove_all_features(model: FeatureModel, cmd: RemoveAllFeatures,
                             res: ResolutionSet):
    targets = list(_group_by(res, cmd.var))
    diags = []
    if model.root in targets:
        targets.remove(model.root)
        diags.append(("warning", "Command had a partial effect: the root "
                                 "feature cannot be removed"))
    model.remove_subtree(*targets)
    return diags


# -- constraint commands ---------------------------------------------------


def _check_literal_ends(model, cmd):
    for desc in (cmd.left, cmd.right):
        if not isinstance(desc, VarRef) and desc.name not in model.features:
            raise CommandError(
                f'The specified feature (i.e., "{desc.name}") does not exist')


def _end_reader(desc, variables):
    """A function from a resolution tuple to the name of a constraint end."""
    if isinstance(desc, VarRef):
        return operator.itemgetter(variables.index(desc.name))
    return lambda t: desc.name


def _candidate_constraints(cmd, res):
    """Distinct (constraint, supporting tuples) in enumeration order."""
    left = _end_reader(cmd.left, res.variables)
    right = _end_reader(cmd.right, res.variables)
    out: dict = {}  # effect key -> (first constraint with it, tuples)
    for t in res.tuples:
        c = Constraint(left(t), cmd.kind, right(t))
        out.setdefault(c.effect_key(), (c, []))[1].append(t)
    return list(out.values())


def exec_add_constraint(model: FeatureModel, cmd: AddConstraint, res: ResolutionSet):
    _check_literal_ends(model, cmd)
    left = _end_reader(cmd.left, res.variables)
    right = _end_reader(cmd.right, res.variables)
    # `seen` holds the keys of the command's earlier tuples, so that only a
    # constraint the model held before the command is reported as existing
    kind, seen, existing = cmd.kind, set(), []
    for t in res.tuples:
        a, b = left(t), right(t)
        key = effect_key(a, kind, b)
        if key not in seen:
            seen.add(key)
            c = Constraint(a, kind, b)
            if not model.add_constraint(c):
                existing.append(c)
    if existing:
        listed = ", ".join(str(c) for c in existing)
        return [("warning", f"Following Cross-tree Constraint(s) already exist: {listed}")]
    return []


def _matched_constraints(model, cmd, res):
    """Stored constraints matched by the description, with their tuples."""
    matched = []
    for c, tuples in _candidate_constraints(cmd, res):
        rep = model.stored_constraint(c)
        if rep is not None:
            matched.append((rep, tuples))
    return matched


def _end_slot(model, expr, side):
    """The slot of a new constraint end, compiled once per command: a
    function from a resolution set to the feature name; None without one."""
    if expr is None:
        return None
    derive = _deriver(_slot(expr, model),
                      f"Command is ambiguous on what the new {side}-feature will be",
                      constant=not _varies(expr))

    def end(resolutions):
        name = derive(resolutions)
        if name not in model.features:
            raise CommandError(f'The specified feature (i.e., "{name}") does not exist')
        return name
    return end


def exec_update_constraint(model: FeatureModel, cmd: UpdateConstraint,
                           res: ResolutionSet, multi: bool):
    _check_literal_ends(model, cmd)
    matched = _matched_constraints(model, cmd, res)
    if not multi:
        if not matched:
            raise CommandError("No constraints match the update command")
        if len(matched) > 1:
            raise CommandError("Command is ambiguous on which constraint will "
                               f"be updated {_listing([c for c, _ in matched])}")
    new_left = _end_slot(model, cmd.new_left, "left")
    new_right = _end_slot(model, cmd.new_right, "right")
    replacements = []
    for rep, tuples in matched:
        sub = ResolutionSet(res.variables, tuples)
        left = rep.left if new_left is None else new_left(sub)
        right = rep.right if new_right is None else new_right(sub)
        kind = cmd.new_kind if cmd.new_kind is not None else rep.kind
        replacements.append((rep, Constraint(left, kind, right)))
    for rep, _new in replacements:
        model.remove_constraint(rep)
    for _rep, new in replacements:
        model.add_constraint(new)
    if multi and not matched:
        return [("warning", "No constraints match the update all command")]
    return []


def exec_remove_constraint(model: FeatureModel, cmd, res: ResolutionSet, multi: bool):
    _check_literal_ends(model, cmd)
    matched = _matched_constraints(model, cmd, res)
    if not multi:
        if not matched:
            return [("warning", "No constraints match the remove command")]
        if len(matched) > 1:
            raise CommandError("Command is ambiguous on which constraint will "
                               f"be removed {_listing([c for c, _ in matched])}")
    if multi and not matched:
        return [("warning", "No constraints match the remove all command")]
    for rep, _tuples in matched:
        model.remove_constraint(rep)
    return []


# -- dispatch and script runner -------------------------------------------


# keyed by the exact class: UpdateAllConstraints subclasses UpdateConstraint
_EXECUTORS = {
    AddFeature: exec_add_feature,
    UpdateFeature: exec_update_feature,
    UpdateAllFeatures: exec_update_all_features,
    RemoveFeature: exec_remove_feature,
    RemoveAllFeatures: exec_remove_all_features,
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
    except (CommandError, _Skip) as e:
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
