"""Execution of the ten command types.

Every command resolves its feature variables jointly against the current
model, checks its ambiguity and integrity rules, and either transforms the
model or reports a diagnostic. A failing command never leaves a partially
applied edit behind: edits happen on a working copy that is committed only
on success (multi-target commands may commit a defined partial effect).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .expressions import (
    AttrRef,
    BOOLEAN,
    EvalError,
    Lit,
    NUMERIC,
    TypeCheckError,
    VarRef,
    evaluate,
    referenced_usages,
    typecheck,
    variables_in,
)
from .model import Constraint, DecompKind, Feature, FeatureModel, ModelError
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
from .resolver import (
    Ambiguous,
    NO_RESOLUTION,
    ResolutionSet,
    derive_unambiguous,
    merge_usages,
    resolve,
)
from .serializer import format_value

NO_RESOLUTIONS_MSG = "No resolutions could be found to satisfy the where clause"


class RunMode(enum.Enum):
    IGNORE_ALL = "ignore_all"
    STOP_ON_ERROR = "stop_on_error"
    STOP_ON_WARNING = "stop_on_warning"


@dataclass
class Diagnostic:
    index: int  # 1-based command position in the script
    code: str
    severity: str  # "warning" | "error"
    message: str

    def render(self) -> str:
        return f"cmd #{self.index} ({self.code}) : {self.message}"


class CommandError(Exception):
    """Aborts a command with an error diagnostic; the model keeps its state."""


class _Skip(Exception):
    """Aborts one target of a multi-target command."""


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, Constraint):
        return str(value)
    if isinstance(value, DecompKind):
        return str(value)
    return format_value(value)


def _listing(values) -> str:
    return "(" + ", ".join(_fmt(v) for v in values) + ")"


# -- gathering variables and usages ---------------------------------------


def _descriptor_vars(*descs):
    for d in descs:
        if isinstance(d, VarRef):
            yield d.name


def command_variables(cmd: Command) -> list:
    """All feature variables of a command, in order of first occurrence."""
    seen: list = []

    def add(names):
        for n in names:
            if n not in seen:
                seen.append(n)

    def add_expr(expr):
        if expr is not None:
            add(sorted(variables_in(expr)))

    if isinstance(cmd, (AddFeature, UpdateFeature, UpdateAllFeatures)):
        if isinstance(cmd, UpdateFeature):
            add(_descriptor_vars(cmd.target))
        if isinstance(cmd, UpdateAllFeatures):
            add([cmd.var])
        add_expr(cmd.parent)
        if cmd.decomp is not None:
            add_expr(cmd.decomp.kind)
            add(_descriptor_vars(cmd.decomp.sibling))
        for a in cmd.attrs:
            add_expr(a.value)
    elif isinstance(cmd, RemoveFeature):
        add(_descriptor_vars(cmd.target))
    elif isinstance(cmd, RemoveAllFeatures):
        add([cmd.var])
    else:  # constraint commands
        add(_descriptor_vars(cmd.left, cmd.right))
        if isinstance(cmd, UpdateConstraint):
            add_expr(cmd.new_left)
            add_expr(cmd.new_right)
    add_expr(cmd.where)
    return seen


def command_usages(cmd: Command) -> dict:
    """Merged attribute usages of every expression the command contains."""
    maps = []
    if cmd.where is not None:
        maps.append(referenced_usages(cmd.where, BOOLEAN))
    if isinstance(cmd, (AddFeature, UpdateFeature, UpdateAllFeatures)):
        if cmd.parent is not None:
            maps.append(referenced_usages(cmd.parent, "any"))
        if cmd.decomp is not None:
            maps.append(referenced_usages(cmd.decomp.kind, "any"))
        for a in cmd.attrs:
            top = {"numeric": "numeric", "boolean": BOOLEAN}.get(a.tag, "any")
            maps.append(referenced_usages(a.value, top))
        # updating an attribute requires the target to carry it already
        target_var = None
        if isinstance(cmd, UpdateAllFeatures):
            target_var = cmd.var
        elif isinstance(cmd, UpdateFeature) and isinstance(cmd.target, VarRef):
            target_var = cmd.target.name
        if target_var is not None and not isinstance(cmd, AddFeature):
            maps.append({target_var: [(a.name, "any") for a in cmd.attrs]})
    elif isinstance(cmd, UpdateConstraint):
        for e in (cmd.new_left, cmd.new_right):
            if e is not None:
                maps.append(referenced_usages(e, "any"))
    return merge_usages(*maps)


def _resolve_command(model: FeatureModel, cmd: Command) -> ResolutionSet:
    variables = command_variables(cmd)
    return resolve(model, variables, cmd.where, usages=command_usages(cmd))


def _needs_resolution(cmd: Command) -> bool:
    return cmd.where is not None or bool(command_variables(cmd))


# -- slot evaluation -------------------------------------------------------


def _slot_value(expr, model, binding, expected=None):
    try:
        t = typecheck(expr, model, binding)
        if expected == "numeric" and t not in NUMERIC:
            raise TypeCheckError(f"expected a numeric value, found {t}")
        if expected == BOOLEAN and t != BOOLEAN:
            raise TypeCheckError(f"expected a boolean value, found {t}")
        return evaluate(expr, model, binding)
    except (TypeCheckError, EvalError) as e:
        raise CommandError(str(e)) from None


def _desc_name(desc, binding) -> str:
    if isinstance(desc, VarRef):
        return binding[desc.name]
    return desc.name


def _derive(resolutions, fn, ambiguity_message, list_values=True):
    result = derive_unambiguous(resolutions, fn)
    if isinstance(result, Ambiguous):
        if list_values:
            raise CommandError(f"{ambiguity_message} {_listing(result.values)}")
        raise CommandError(ambiguity_message)
    return result


def _derive_decomp(model, resolutions, spec, parent_name):
    """Derive (kind, group id to join) from a `_decomp =` specification."""

    def slot(binding):
        kind = _slot_value(spec.kind, model, binding)
        gid = None
        if spec.sibling is not None:
            sib = _desc_name(spec.sibling, binding)
            if sib not in model.features:
                raise CommandError(
                    f'The specified sibling (i.e., "{sib}") does not exist')
            gid = model.features[sib].group_id
        return (kind, gid)

    derived = _derive(
        resolutions, slot,
        "Command is ambiguous on what the new decomposition relation will be",
        list_values=False)
    if derived is NO_RESOLUTION:
        return derived
    kind, gid = derived
    if gid is not None:
        members = model.group_members(gid) if gid > 0 else []
        rep = model.features[members[0]] if members else None
        if (rep is None or not kind.is_group or rep.decomp != kind
                or rep.parent != parent_name):
            raise CommandError(
                "The described transformation does not fit the model structure")
    return kind, gid


def _derive_attr(model, resolutions, assign):
    expected = {"numeric": "numeric", "boolean": BOOLEAN}.get(assign.tag)

    def slot(binding):
        v = _slot_value(assign.value, model, binding, expected)
        if assign.tag == "inherited" and isinstance(v, (DecompKind, tuple)):
            raise CommandError(
                f'attribute "{assign.name}" cannot inherit a decomposition value')
        return v

    return _derive(
        resolutions, slot,
        f'Command is ambiguous on what the value of attribute "{assign.name}" will be')


# -- feature commands ------------------------------------------------------


def exec_add_feature(model: FeatureModel, cmd: AddFeature):
    res = _resolve_command(model, cmd)
    if not res.tuples:
        return model, [("warning", NO_RESOLUTIONS_MSG)]

    parent = _derive(res, lambda b: _slot_value(cmd.parent, model, b),
                     "Command is ambiguous on what the new parent will be")
    if parent not in model.features:
        raise CommandError(f'The specified parent (i.e., "{parent}") does not exist')
    if cmd.name in model.features:
        raise CommandError(f'Feature name "{cmd.name}" is in use')
    kind, gid = _derive_decomp(model, res, cmd.decomp, parent)

    attrs = {}
    for a in cmd.attrs:
        attrs[a.name] = _derive_attr(model, res, a)

    work = model.copy()
    try:
        work.attach_feature(Feature(cmd.name, attributes=attrs), parent, kind,
                            join_group=gid)
    except ModelError as e:
        raise CommandError(str(e)) from None
    return work, []


def _apply_feature_update(work, fname, cmd, sub, model):
    """One target's update; `sub` holds the tuples projecting to the target,
    `model` is the pre-command snapshot slot values are derived from."""
    f = work.features[fname]
    structural = cmd.parent is not None or cmd.decomp is not None
    if structural and f.is_root:
        raise _Skip("The root feature cannot figure in a decomposition "
                    "relation update")

    new_parent = None
    if cmd.parent is not None:
        new_parent = _derive(sub, lambda b: _slot_value(cmd.parent, model, b),
                             "Command is ambiguous on what the new parent will be")
        if new_parent not in model.features:
            raise CommandError(
                f'The specified parent (i.e., "{new_parent}") does not exist')

    kind = gid = None
    if cmd.decomp is not None:
        target_parent = new_parent if new_parent is not None else f.parent
        kind, gid = _derive_decomp(model, sub, cmd.decomp, target_parent)

    updates = {}
    for a in cmd.attrs:
        if a.name not in f.attributes:
            raise CommandError(
                f'Feature "{fname}" does not have an attribute named "{a.name}"')
        updates[a.name] = _derive_attr(model, sub, a)

    if structural:
        move_parent = new_parent if new_parent is not None else f.parent
        move_kind = kind if kind is not None else f.decomp
        try:
            work.move_feature(fname, move_parent, move_kind, join_group=gid)
        except ModelError as e:
            raise _Skip(str(e)) from None
    f.attributes.update(updates)

    new_name = getattr(cmd, "new_name", None)
    if new_name is not None and new_name != fname:
        if new_name in work.features:
            raise CommandError(f'New feature name "{new_name}" is in use')
        work.rename_feature(fname, new_name)


def exec_update_feature(model: FeatureModel, cmd: UpdateFeature):
    res = _resolve_command(model, cmd)
    if _needs_resolution(cmd) and not res.tuples:
        return model, [("warning", NO_RESOLUTIONS_MSG)]

    if isinstance(cmd.target, VarRef):
        subs = _group_by(res, cmd.target.name)
        if len(subs) > 1:
            raise CommandError("Command is ambiguous on which feature will be "
                               f"updated {_listing(subs)}")
        [(fname, sub)] = subs.items()
    else:
        fname = cmd.target.name
        if fname not in model.features:
            raise CommandError(
                f'The specified feature (i.e., "{fname}") does not exist')
        sub = res

    work = model.copy()
    try:
        _apply_feature_update(work, fname, cmd, sub, model)
    except _Skip as e:
        raise CommandError(str(e)) from None
    return work, []


def _group_by(res: ResolutionSet, var: str) -> dict:
    """The tuples split by their value of `var`, in first-seen order."""
    i = res.variables.index(var)
    subs: dict = {}
    for t in res.tuples:
        subs.setdefault(t[i], ResolutionSet(res.variables, [])).tuples.append(t)
    return subs


def exec_update_all_features(model: FeatureModel, cmd: UpdateAllFeatures):
    res = _resolve_command(model, cmd)
    if not res.tuples:
        return model, [("warning", NO_RESOLUTIONS_MSG)]

    # all slot derivations are checked before any edit: an ambiguity leaves
    # the model untouched, only integrity failures cause a partial effect
    subs = _group_by(res, cmd.var)
    for sub in subs.values():
        _check_feature_update_slots(model, cmd, sub)

    # targets are applied in place: each _Skip is raised before that
    # target's first write, so a skipped target leaves `work` as it was
    work = model.copy()
    skipped = []
    for t, sub in subs.items():
        try:
            _apply_feature_update(work, t, cmd, sub, model)
        except _Skip as e:
            skipped.append((t, str(e)))
    diags = []
    if skipped:
        names = _listing([t for t, _ in skipped])
        diags.append(("warning",
                      f"Command had a partial effect: skipped {names}"))
    return work, diags


def _check_feature_update_slots(model, cmd, sub):
    if cmd.parent is not None:
        _derive(sub, lambda b: _slot_value(cmd.parent, model, b),
                "Command is ambiguous on what the new parent will be")
    if cmd.decomp is not None:
        def slot(binding):
            kind = _slot_value(cmd.decomp.kind, model, binding)
            gid = None
            if cmd.decomp.sibling is not None:
                sib = _desc_name(cmd.decomp.sibling, binding)
                if sib not in model.features:
                    raise CommandError(
                        f'The specified sibling (i.e., "{sib}") does not exist')
                gid = model.features[sib].group_id
            return (kind, gid)
        _derive(sub, slot,
                "Command is ambiguous on what the new decomposition relation will be",
                list_values=False)
    for a in cmd.attrs:
        _derive_attr(model, sub, a)


def exec_remove_feature(model: FeatureModel, cmd: RemoveFeature):
    res = _resolve_command(model, cmd)
    if _needs_resolution(cmd) and not res.tuples:
        return model, [("warning", NO_RESOLUTIONS_MSG)]
    if isinstance(cmd.target, VarRef):
        targets = res.project(cmd.target.name)
        if len(targets) > 1:
            raise CommandError("Command is ambiguous on which feature will be "
                               f"removed {_listing(targets)}")
        fname = targets[0]
    else:
        fname = cmd.target.name
        if fname not in model.features:
            raise CommandError(
                f'The specified feature (i.e., "{fname}") does not exist')
    if fname == model.root:
        raise CommandError("The root feature cannot be removed")
    work = model.copy()
    work.remove_subtree(fname)
    return work, []


def exec_remove_all_features(model: FeatureModel, cmd: RemoveAllFeatures):
    res = _resolve_command(model, cmd)
    if not res.tuples:
        return model, [("warning", NO_RESOLUTIONS_MSG)]
    work = model.copy()
    diags = []
    for fname in res.project(cmd.var):
        if fname == work.root:
            diags.append(("warning", "Command had a partial effect: the root "
                                     "feature cannot be removed"))
            continue
        if fname in work.features:  # may already be gone as a descendant
            work.remove_subtree(fname)
    return work, diags


# -- constraint commands ---------------------------------------------------


def _check_literal_ends(model, cmd):
    for desc in (cmd.left, cmd.right):
        if not isinstance(desc, VarRef) and desc.name not in model.features:
            raise CommandError(
                f'The specified feature (i.e., "{desc.name}") does not exist')


def _candidate_constraints(model, cmd, res):
    """Distinct (constraint, supporting tuples) in enumeration order."""
    out: dict = {}
    for t, binding in zip(res.tuples, res.bindings()):
        c = Constraint(_desc_name(cmd.left, binding), cmd.kind,
                       _desc_name(cmd.right, binding))
        entry = out.setdefault(c.effect_key(), (c, []))
        entry[1].append(t)
    return list(out.values())


def exec_add_constraint(model: FeatureModel, cmd: AddConstraint):
    res = _resolve_command(model, cmd)
    if not res.tuples:
        return model, [("warning", NO_RESOLUTIONS_MSG)]
    _check_literal_ends(model, cmd)
    work = model.copy()
    existing = [c for c, _tuples in _candidate_constraints(model, cmd, res)
                if not work.add_constraint(c)]
    diags = []
    if existing:
        listed = ", ".join(str(c) for c in existing)
        diags.append(("warning",
                      f"Following Cross-tree Constraint(s) already exist: {listed}"))
    return work, diags


def _matched_constraints(model, cmd, res):
    """Stored constraints matched by the description, with their tuples."""
    matched = []
    for c, tuples in _candidate_constraints(model, cmd, res):
        rep = model.stored_constraint(c)
        if rep is not None:
            matched.append((rep, tuples))
    return matched


def _derive_constraint_update(model, cmd, rep, sub):
    def name_slot(expr, side):
        value = _derive(
            sub, lambda b: _slot_value(expr, model, b),
            f"Command is ambiguous on what the new {side}-feature will be")
        if value not in model.features:
            raise CommandError(
                f'The specified feature (i.e., "{value}") does not exist')
        return value

    left = rep.left if cmd.new_left is None else name_slot(cmd.new_left, "left")
    right = rep.right if cmd.new_right is None else name_slot(cmd.new_right, "right")
    kind = cmd.new_kind if cmd.new_kind is not None else rep.kind
    return Constraint(left, kind, right)


def exec_update_constraint(model: FeatureModel, cmd: UpdateConstraint, multi: bool):
    res = _resolve_command(model, cmd)
    if _needs_resolution(cmd) and not res.tuples:
        return model, [("warning", NO_RESOLUTIONS_MSG)]
    _check_literal_ends(model, cmd)
    matched = _matched_constraints(model, cmd, res)
    if not multi:
        if not matched:
            raise CommandError("No constraints match the update command")
        if len(matched) > 1:
            raise CommandError("Command is ambiguous on which constraint will "
                               f"be updated {_listing([c for c, _ in matched])}")
    replacements = []
    for rep, tuples in matched:
        sub = ResolutionSet(res.variables, tuples)
        replacements.append((rep, _derive_constraint_update(model, cmd, rep, sub)))
    work = model.copy()
    for rep, new in replacements:
        work.remove_constraint(rep)
    for _rep, new in replacements:
        work.add_constraint(new)
    diags = []
    if multi and not matched:
        diags.append(("warning", "No constraints match the update all command"))
    return work, diags


def exec_remove_constraint(model: FeatureModel, cmd, multi: bool):
    res = _resolve_command(model, cmd)
    if _needs_resolution(cmd) and not res.tuples:
        return model, [("warning", NO_RESOLUTIONS_MSG)]
    _check_literal_ends(model, cmd)
    matched = _matched_constraints(model, cmd, res)
    if not multi:
        if not matched:
            return model, [("warning", "No constraints match the remove command")]
        if len(matched) > 1:
            raise CommandError("Command is ambiguous on which constraint will "
                               f"be removed {_listing([c for c, _ in matched])}")
    if multi and not matched:
        return model, [("warning", "No constraints match the remove all command")]
    work = model.copy()
    for rep, _tuples in matched:
        work.remove_constraint(rep)
    return work, []


# -- dispatch and script runner -------------------------------------------


def execute(model: FeatureModel, cmd: Command):
    """Run one command; returns (model', [(severity, message), ...])."""
    try:
        if isinstance(cmd, AddFeature):
            return exec_add_feature(model, cmd)
        if isinstance(cmd, UpdateAllFeatures):
            return exec_update_all_features(model, cmd)
        if isinstance(cmd, UpdateFeature):
            return exec_update_feature(model, cmd)
        if isinstance(cmd, RemoveAllFeatures):
            return exec_remove_all_features(model, cmd)
        if isinstance(cmd, RemoveFeature):
            return exec_remove_feature(model, cmd)
        if isinstance(cmd, AddConstraint):
            return exec_add_constraint(model, cmd)
        if isinstance(cmd, (RemoveConstraint, RemoveAllConstraints)):
            return exec_remove_constraint(model, cmd,
                                          multi=isinstance(cmd, RemoveAllConstraints))
        if isinstance(cmd, UpdateConstraint):
            return exec_update_constraint(model, cmd,
                                          multi=isinstance(cmd, UpdateAllConstraints))
        raise TypeError(f"unknown command {cmd!r}")
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
