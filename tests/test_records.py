"""The record classes keep the semantics of the dataclasses they replace:
constructor order and defaults, equality by exact class and fields, the
dataclass repr, frozen nodes that hash and mutable records that do not."""

import pytest

from feather.commands import Diagnostic
from feather.expressions import AttrRef, Binary, FeatureRef, Lit, Unary, VarRef
from feather.model import Constraint, DecompKind, Feature, FeatureModel
from feather.parser import (
    AddConstraint,
    AddFeature,
    AttrAssign,
    Command,
    ConstraintCommand,
    DecompSpec,
    RemoveAllConstraints,
    RemoveAllFeatures,
    RemoveConstraint,
    RemoveFeature,
    ScriptAst,
    UpdateAllConstraints,
    UpdateAllFeatures,
    UpdateConstraint,
    UpdateFeature,
)
from feather.resolver import ResolutionSet

FROZEN = (Constraint, FeatureRef, VarRef, Lit, AttrRef, Unary, Binary)

_COMMAND = ("code", "where", "line")
_CTC = _COMMAND + ("left", "kind", "right")
_CTC_DEFAULTS = {"where": None, "line": 0, "left": None, "kind": "", "right": None}
_UPC = _CTC + ("new_left", "new_kind", "new_right", "updates")
_UPC_DEFAULTS = {**_CTC_DEFAULTS, "new_left": None, "new_kind": None,
                 "new_right": None, "updates": []}

# every record class: its fields in constructor order and the defaults of
# the fields that have one
SPECS = {
    Constraint: (("left", "kind", "right"), {}),
    Feature: (("name", "parent", "decomp", "group_id", "attributes"),
              {"parent": None, "decomp": None, "group_id": 0, "attributes": {}}),
    FeatureModel: (("features", "root", "next_group_id", "tvl_string_enum", "_constraints"),
                   {"features": {}, "root": "", "next_group_id": 1,
                    "tvl_string_enum": None, "_constraints": {}}),
    FeatureRef: (("name",), {}),
    VarRef: (("name",), {}),
    Lit: (("value",), {}),
    AttrRef: (("subject", "attr"), {}),
    Unary: (("op", "operand"), {}),
    Binary: (("op", "left", "right"), {}),
    DecompSpec: (("kind", "sibling"), {}),
    AttrAssign: (("name", "tag", "value"), {}),
    Command: (_COMMAND, {"code": "", "where": None, "line": 0}),
    AddFeature: (_COMMAND + ("name", "parent", "decomp", "attrs"),
                 {"code": "addf", "where": None, "line": 0, "name": "",
                  "parent": None, "decomp": None, "attrs": []}),
    UpdateFeature: (_COMMAND + ("target", "new_name", "parent", "decomp", "attrs"),
                    {"code": "upf", "where": None, "line": 0, "target": None,
                     "new_name": None, "parent": None, "decomp": None, "attrs": []}),
    UpdateAllFeatures: (_COMMAND + ("var", "parent", "decomp", "attrs"),
                        {"code": "upmf", "where": None, "line": 0, "var": "",
                         "parent": None, "decomp": None, "attrs": []}),
    RemoveFeature: (_COMMAND + ("target",),
                    {"code": "rmf", "where": None, "line": 0, "target": None}),
    RemoveAllFeatures: (_COMMAND + ("var",),
                        {"code": "rmmf", "where": None, "line": 0, "var": ""}),
    ConstraintCommand: (_CTC, {"code": "", **_CTC_DEFAULTS}),
    AddConstraint: (_CTC, {"code": "addc", **_CTC_DEFAULTS}),
    UpdateConstraint: (_UPC, {**_UPC_DEFAULTS, "code": "upc"}),
    UpdateAllConstraints: (_UPC, {**_UPC_DEFAULTS, "code": "upmc"}),
    RemoveConstraint: (_CTC, {"code": "rmc", **_CTC_DEFAULTS}),
    RemoveAllConstraints: (_CTC, {"code": "rmmc", **_CTC_DEFAULTS}),
    ScriptAst: (("root", "features", "constraints", "commands"),
                {"root": None, "features": [], "constraints": [], "commands": []}),
    ResolutionSet: (("variables", "tuples"), {}),
    Diagnostic: (("index", "code", "severity", "message"), {}),
}

CLASSES = list(SPECS)


def sample(cls, offset=0):
    """An instance with a distinct value in every field, and those values."""
    values = [f"v{i + offset}" for i in range(len(SPECS[cls][0]))]
    return cls(*values), values


def fields_of(record, fields) -> list:
    return [getattr(record, f) for f in fields]


def test_thirty_record_classes():
    assert len(CLASSES) == 26


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_in_constructor_order(cls):
    fields = SPECS[cls][0]
    record, values = sample(cls)
    assert fields_of(record, fields) == values
    by_name = cls(**dict(zip(fields, values)))
    assert fields_of(by_name, fields) == values
    assert by_name == record and not by_name != record
    other, _ = sample(cls, offset=1)
    assert other != record


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_defaults_and_fresh_containers(cls):
    fields, defaults = SPECS[cls]
    required = [f"v{i}" for i, f in enumerate(fields) if f not in defaults]
    a, b = cls(*required), cls(*required)
    for f, default in defaults.items():
        assert getattr(a, f) == default
        if isinstance(default, (list, dict)):
            assert getattr(a, f) is not getattr(b, f)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_bad_constructor_arguments_are_type_errors(cls):
    fields, defaults = SPECS[cls]
    values = [f"v{i}" for i in range(len(fields))]
    with pytest.raises(TypeError):
        cls(*values, "one too many")
    with pytest.raises(TypeError):
        cls(*values[:1], **{fields[0]: "twice"})
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    if len(defaults) < len(fields):
        with pytest.raises(TypeError):
            cls()


@pytest.mark.parametrize("a, b", [(FeatureRef, VarRef), (AddConstraint, RemoveConstraint),
                                  (RemoveConstraint, RemoveAllConstraints),
                                  (UpdateConstraint, UpdateAllConstraints),
                                  (ConstraintCommand, AddConstraint)],
                         ids=lambda c: c.__name__)
def test_equality_needs_the_same_class(a, b):
    x, values = sample(a)
    y = b(*values)
    assert fields_of(x, SPECS[a][0]) == fields_of(y, SPECS[b][0])
    assert x != y and not x == y


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_records_refuse_edits_and_hash(cls):
    record, values = sample(cls)
    field = SPECS[cls][0][0]
    with pytest.raises(AttributeError):
        setattr(record, field, "other")
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == values[0]
    twin = cls(*values)
    assert twin is not record and hash(twin) == hash(record)
    assert len({record, twin}) == 1


@pytest.mark.parametrize("cls", [c for c in CLASSES if c not in FROZEN],
                         ids=lambda c: c.__name__)
def test_mutable_records_are_unhashable(cls):
    record, _ = sample(cls)
    with pytest.raises(TypeError):
        hash(record)
    field = SPECS[cls][0][-1]
    setattr(record, field, "changed")
    assert getattr(record, field) == "changed"


def test_no_argument_script_and_model():
    assert ScriptAst() == ScriptAst(None, [], [], [])
    assert FeatureModel() == FeatureModel({}, "", 1, None, {})
    assert FeatureModel().constraints == []


def test_dataclass_repr_format():
    assert repr(Constraint("A", "requires", "B")) == \
        "Constraint(left='A', kind='requires', right='B')"
    assert repr(Binary("+", Lit(1), AttrRef(VarRef("V"), "a"))) == (
        "Binary(op='+', left=Lit(value=1), "
        "right=AttrRef(subject=VarRef(name='V'), attr='a'))")
    assert repr(AddFeature()) == ("AddFeature(code='addf', where=None, line=0, name='', "
                                  "parent=None, decomp=None, attrs=[])")
    assert repr(Feature("F", "R", DecompKind.OR, 2)) == (
        "Feature(name='F', parent='R', decomp=<DecompKind.OR: 'or'>, group_id=2, "
        "attributes={})")
    assert repr(ScriptAst()) == \
        "ScriptAst(root=None, features=[], constraints=[], commands=[])"
