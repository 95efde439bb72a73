import gc
import itertools
import random
import time

import pytest

from feather import commands
from feather.commands import RunMode
from feather.expressions import AttrRef, Binary, FeatureRef, Lit, VarRef
from feather.model import Constraint, DecompKind, FeatureModel, ModelError
from feather.parser import (
    AddConstraint,
    AddFeature,
    AttrAssign,
    DecompSpec,
    RemoveAllFeatures,
    UpdateAllConstraints,
    UpdateAllFeatures,
    UpdateConstraint,
    UpdateFeature,
    parse_commands,
)
from feather.resolver import ResolutionSet
from feather.serializer import serialize_declarations

from conftest import (
    ATTR_POOL,
    brute_force_resolve,
    build,
    index_answers,
    isomorphic,
    model_state,
    parse_expr,
    per_tuple_slots,
    random_model,
    random_where,
    reference_add_constraint,
    reference_candidate_constraints,
    reference_remove_all,
    run,
    scan_groups,
    scan_subtrees,
    validate,
)

BRIDGE_PRO = """\
add feature "Bridge Pro"
  with attributes (
    _parent = P._name,
    _decomp = or to ASibling,
    stype = string : "fun",
    extracost = numeric : 8)
  where P.stype = "basic"
    and P.price <= 15
    and ASibling._parent = P._name
    and ASibling.extracost > 0;
"""


def test_add_feature_joins_or_group(services):
    m, diags = run(services, BRIDGE_PRO)
    assert diags == []
    f = m.features["Bridge Pro"]
    assert f.parent == "Package 1"
    assert f.decomp is DecompKind.OR
    assert f.group_id == m.features["3D Racing"].group_id
    assert f.attributes == {"stype": "fun", "extracost": 8}
    assert validate(m) == []


def test_add_feature_ambiguous_parent_no_effect(services):
    # dropping the price condition lets the parent variable resolve to two
    # packages, so the command must not change the model at all
    cmd = BRIDGE_PRO.replace("and P.price <= 15\n    ", "")
    before = serialize_declarations(services)
    m, diags = run(services, cmd)
    assert [d.severity for d in diags] == ["error"]
    assert "ambiguous" in diags[0].message
    assert serialize_declarations(m) == before


def test_add_feature_multiple_sibling_resolutions_not_ambiguous(services):
    # the sibling variable resolves to both or-group members, but both imply
    # the same decomposition relation, so the addition succeeds
    m, diags = run(services, BRIDGE_PRO)
    assert diags == []
    assert "Bridge Pro" in m.features


def test_add_feature_structure_mismatch_rejected(services):
    cmd = """\
    add feature "Imposter"
      with attributes (
        _parent = "Package 1",
        _decomp = alternative to "Don't Wait in the City");
    """
    before = serialize_declarations(services)
    m, diags = run(services, cmd)
    assert [d.severity for d in diags] == ["error"]
    assert "does not fit the model structure" in diags[0].message
    assert serialize_declarations(m) == before


def test_update_feature_attribute(services):
    m, diags = run(services, 'update feature "Dating Club" set extracost = numeric: 5;')
    assert diags == []
    assert m.features["Dating Club"].attributes["extracost"] == 5


def test_update_feature_move_with_attrs(services):
    cmd = """\
    update feature "Dating Club"
      set _parent = "Package 2",
          _decomp = optional,
          extracost = numeric: 8;
    """
    m, diags = run(services, cmd)
    assert diags == []
    f = m.features["Dating Club"]
    assert f.parent == "Package 2"
    assert f.decomp is DecompKind.OPTIONAL
    assert f.group_id == 0
    # Video Chat stays behind in what is now a singleton group
    assert m.features["Video Chat"].group_id > 0
    assert validate(m) == []


def test_update_feature_ambiguous_target_no_effect(services):
    cmd = """\
    update feature F
      set _parent = "Package 2",
          _decomp = optional
      where F._parent = "Package 3"
      and F.stype = "fun";
    """
    before = serialize_declarations(services)
    m, diags = run(services, cmd)
    assert [d.severity for d in diags] == ["error"]
    assert serialize_declarations(m) == before


def test_update_feature_rename_collision(services):
    before = serialize_declarations(services)
    m, diags = run(services, 'update feature "Video Chat" set _name = "Dating Club";')
    assert [(d.severity, d.message) for d in diags] == [
        ("error", 'New feature name "Dating Club" is in use')]
    assert serialize_declarations(m) == before


def test_update_feature_cycle_rejected(services):
    before = serialize_declarations(services)
    m, diags = run(services, 'update feature "Package 3" set _parent = "Dating Club";')
    assert [d.severity for d in diags] == ["error"]
    assert serialize_declarations(m) == before


def test_update_feature_unknown_attribute(services):
    m, diags = run(services, 'update feature "Bull Market" set price = numeric: 1;')
    assert [(d.severity, d.message) for d in diags] == [
        ("error", 'Feature "Bull Market" does not have an attribute named "price"')]


def test_slot_diagnostic_precedence():
    # a slot type-checks in full before it evaluates: a type error anywhere
    # in the value, or the wrong type for the tag, wins over a division by
    # zero to its left
    m = build('root "R";\nfeature "A" "R" optional attribute x 1;\n')
    before = serialize_declarations(m)
    for value, message in [
            ('1 / 0 + "R".missing', 'feature "R" has no attribute named missing'),
            ("(1 / 0) = 1", "expected a numeric value, found boolean"),
            ("1 / 0", "division by zero")]:
        after, diags = run(m, f'update feature "A" set x = numeric: {value};')
        assert [(d.severity, d.message) for d in diags] == [("error", message)]
        assert serialize_declarations(after) == before


def test_command_diagnostic_precedence():
    # when a command breaks two rules, the first check in command order wins
    m = build('root "R" attribute w 0;\n'
              'feature "A" "R" optional attribute w 0 attribute n 1;\n'
              'feature "B" "A" optional attribute n 1;\n'
              'feature "C" "A" optional attribute n 2;\n'
              'constraint "B" requires "C";\n')
    before = serialize_declarations(m)
    for command, message in [
            # the root check comes before the attribute checks
            ('update feature "R" set _decomp = optional, missing = numeric: 1;',
             "The root feature cannot figure in a decomposition relation update"),
            # the parent is derived and checked before the attribute values
            ('update feature "B" set _parent = "Nope", n = numeric: U.n '
             'where U._parent = "A";',
             'The specified parent (i.e., "Nope") does not exist'),
            # every target's slots are derived before any target is skipped:
            # the root would be skipped, "A" has two values for w
            ("updateall feature V set _decomp = optional, w = numeric: U.n "
             "where U._parent = V._name;",
             'Command is ambiguous on what the value of attribute "w" will be (1, 2)'),
            # and before any target's parent is checked
            ('updateall feature V set _parent = "Nope", w = numeric: U.n '
             'where U._parent = V._name;',
             'Command is ambiguous on what the value of attribute "w" will be (1, 2)'),
            # the new left end is derived before the new right end is checked
            ('update constraint "B" requires "C" set leftfeature = L._name, '
             'rightfeature = "Nope" where L._parent = "A";',
             "Command is ambiguous on what the new left-feature will be (B, C)")]:
        after, diags = run(m, command)
        assert [(d.severity, d.message) for d in diags] == [("error", message)]
        assert serialize_declarations(after) == before


DERIVATION_MODEL = ('root "R" attribute x 0;\n'
                    'feature "A" "R" optional attribute n 5 attribute b true;\n'
                    'feature "B" "R" optional attribute n 5.0 attribute b 1;\n'
                    'feature "C" "R" optional attribute n 5 attribute b true;\n')


def derivation_diagnostics(command: str) -> list:
    """The diagnostics of `command` on DERIVATION_MODEL, which it must not edit."""
    m = build(DERIVATION_MODEL)
    after, diags = run(m, command)
    assert serialize_declarations(after) == serialize_declarations(m)
    return [(d.severity, d.message) for d in diags]


def test_derivation_tells_an_integer_from_a_real():
    # 5 = 5.0 holds, but as derived values they differ; A and C agree, and
    # the values are listed in first-seen order
    assert derivation_diagnostics('update feature "R" set x = numeric: V.n where V.n > 0;') == [
        ("error", 'Command is ambiguous on what the value of attribute "x" will be (5, 5.0)')]


def test_derivation_tells_a_boolean_from_an_integer():
    # true and 1 are equal in Python, but not as derived values
    assert derivation_diagnostics('update feature "R" set x = inherited: V.b where V._parent = "R";') == [
        ("error", 'Command is ambiguous on what the value of attribute "x" will be (true, 1)')]


def test_slots_compile_once_per_command(monkeypatch):
    # counts compiles, not time: a slot compiled per target or per matched
    # constraint would make the count grow with the model
    compiled = []
    compile_type = commands.compile_type
    monkeypatch.setattr(commands, "compile_type",
                        lambda expr: compiled.append(expr) or compile_type(expr))

    def compiles(n, command):
        m = build('root "R";\nfeature "T" "R" optional;\nfeature "U" "R" optional;\n'
                  + "".join(f'feature "F{i}" "R" optional attribute x {i};\n'
                            f'constraint "F{i}" requires "T";\n' for i in range(n)))
        compiled.clear()
        after, diags = run(m, command)
        assert diags == [] and serialize_declarations(after) != serialize_declarations(m)
        return len(compiled)

    upmf = ('updateall feature V set _parent = "R", _decomp = optional, '
            'x = numeric: V.x + 1 where V.x >= 0;')
    assert compiles(5, upmf) == compiles(50, upmf) == 3
    upmc = ('updateall constraint V requires "T" '
            'set leftfeature = V._name, rightfeature = "U";')
    assert compiles(5, upmc) == 2


def test_updateall_caps_extracost(services):
    m, diags = run(services, """\
    updateall feature F
      set extracost = numeric: 5
      where F.extracost > 5;
    """)
    assert diags == []
    for name in ("3D Racing", "Ultimate Chess", "Dating Club"):
        assert m.features[name].attributes["extracost"] == 5
    assert m.features["Video Chat"].attributes["extracost"] == 2


def test_updateall_move_into_shared_group(services):
    cmd = """\
    updateall feature F
      set _parent = "Package 3",
          _decomp = or to G
      where F.extracost > 0
            and (F._parent = "Package 1" or
                  F._parent = "Package 2")
            and G._parent = "Package 3"
            and G.stype = "fun";
    """
    m, diags = run(services, cmd)
    assert diags == []
    gid = m.features["Dating Club"].group_id
    moved = ["3D Racing", "Ultimate Chess", "Don't Wait in the City", "All Sideways"]
    for name in moved:
        f = m.features[name]
        assert f.parent == "Package 3"
        assert f.decomp is DecompKind.OR
        assert f.group_id == gid
    assert validate(m) == []


def test_updateall_partial_effect_skips_root(services):
    # the root matches the description but cannot be moved; other matches go
    m, diags = run(services, """\
    updateall feature F
      set _parent = "Infrastructure",
          _decomp = optional
      where F._name = "Web Services" or F._name = "Bull Market";
    """)
    assert [d.severity for d in diags] == ["warning"]
    assert "partial effect" in diags[0].message
    assert m.features["Bull Market"].parent == "Infrastructure"
    assert m.root == "Web Services"
    assert validate(m) == []


def test_updateall_skipped_middle_target_leaves_it_unchanged(services):
    # targets run in declaration order; "Package 3" is the middle one and
    # cannot move under its own child, the other two move into fresh groups
    m, diags = run(services, """\
    updateall feature F
      set _parent = "Dating Club", _decomp = or
      where F._name = "Package 1" or F._name = "Package 3"
            or F._name = "Infrastructure";
    """)
    assert [d.message for d in diags] == [
        "Command had a partial effect: skipped (Package 3)"]
    p3, old = m.features["Package 3"], services.features["Package 3"]
    assert (p3.parent, p3.decomp, p3.group_id) == (old.parent, old.decomp, old.group_id)
    for name in ("Package 1", "Infrastructure"):
        assert m.features[name].parent == "Dating Club"
        assert m.features[name].decomp is DecompKind.OR
    assert validate(m) == []

    single = services
    for name in ("Package 1", "Package 3", "Infrastructure"):
        single, _ = run(single, f'update feature "{name}" '
                                'set _parent = "Dating Club", _decomp = or;')
    assert m.next_group_id == single.next_group_id
    assert serialize_declarations(m) == serialize_declarations(single)


def test_updateall_checks_every_target_against_the_model_it_found():
    # "B" fits "A"'s group as the command found it, but "A" leaves that group
    # first: the move is refused and "B" skipped, not the command rejected
    m = build('root "R";\nfeature "P" "R" optional;\nfeature "Q" "R" optional;\n'
              'feature "A" "P" or to "A";\nfeature "B" "R" optional;\n'
              'feature "C" "Q" or to "C";\n')
    after, diags = run(m, """\
    updateall feature F set _parent = X._name, _decomp = or to S
      where (F._name = "A" and X._name = "Q" and S._name = "C")
         or (F._name = "B" and X._name = "P" and S._name = "A");
    """)
    assert [(d.severity, d.message) for d in diags] == [
        ("warning", "Command had a partial effect: skipped (B)")]
    assert after.features["A"].group_id == m.features["C"].group_id
    b, old = after.features["B"], m.features["B"]
    assert (b.parent, b.decomp, b.group_id) == (old.parent, old.decomp, old.group_id)
    assert validate(after) == []


ATOMIC_MODEL = ('root "R";\nfeature "A" "R" optional attribute n 1;\n'
                'feature "B" "R" optional attribute n 2;\nfeature "C" "A" or to "C";\n'
                'constraint "A" requires "B";\nconstraint "C" excludes "B";\n')


@pytest.mark.parametrize("write, command", [
    ("attach_feature", 'add feature "N" with attributes (_parent = "R", _decomp = or);'),
    ("move_feature", 'update feature "B" set _parent = "A", _decomp = or;'),
    ("rename_feature", 'update feature "B" set _name = "Z";'),
    ("move_feature", "updateall feature V set _decomp = or where V.n > 0;"),
    ("remove_subtree", 'remove feature "A";'),
    ("remove_subtree", "removeall feature V where V.n > 0;"),
    ("add_constraint", 'add constraint "B" requires "A";'),
    ("remove_constraint", 'update constraint "A" requires "B" set rightfeature = "C";'),
    ("remove_constraint", 'updateall constraint V requires "B" set rightfeature = "C";'),
    ("remove_constraint", 'remove constraint "A" requires "B";'),
    ("remove_constraint", 'removeall constraint V requires "B";'),
])
def test_a_command_failing_after_its_first_write_has_no_effect(monkeypatch, write, command):
    # the command writes, then fails: execute must hand back the model it got
    m = build(ATOMIC_MODEL)
    before = (serialize_declarations(m), m.next_group_id)
    original = getattr(FeatureModel, write)
    calls = []

    def write_then_fail(self, *args, **kwargs):
        calls.append(original(self, *args, **kwargs))
        raise commands.CommandError("failed after a write")

    monkeypatch.setattr(FeatureModel, write, write_then_fail)
    after, diags = run(m, command)
    assert calls
    assert [(d.severity, d.message) for d in diags] == [("error", "failed after a write")]
    assert (serialize_declarations(after), after.next_group_id) == before


def test_updateall_no_resolutions_warning(services):
    before = serialize_declarations(services)
    m, diags = run(services, """\
    updateall feature F set extracost = numeric: 5 where F.extracost > 100;
    """)
    assert [(d.severity, d.message) for d in diags] == [
        ("warning", "No resolutions could be found to satisfy the where clause")]
    assert serialize_declarations(m) == before


def test_remove_feature_subtree_and_constraints(services):
    m, diags = run(services, 'remove feature "Package 3";')
    assert diags == []
    assert len(services.features) - len(m.features) == 6
    assert all("Video Chat" not in (c.left, c.right) for c in m.constraints)
    assert validate(m) == []


def test_remove_feature_root_rejected(services):
    before = serialize_declarations(services)
    m, diags = run(services, 'remove feature "Web Services";')
    assert [(d.severity, d.message) for d in diags] == [
        ("error", "The root feature cannot be removed")]
    assert serialize_declarations(m) == before


def test_remove_feature_ambiguous_variable(services):
    before = serialize_declarations(services)
    m, diags = run(services, 'remove feature F where F.stype = "utility";')
    assert [d.severity for d in diags] == ["error"]
    assert serialize_declarations(m) == before


def test_removeall_utility_under_package1(services):
    m, diags = run(services, """\
    removeall feature F
      where F._parent = "Package 1"
            and F.stype = "utility";
    """)
    assert diags == []
    assert len(services.features) - len(m.features) == 2
    assert "My Way or Highway" not in m.features
    assert "Highway Jam" not in m.features
    # the excludes constraint involving a removed feature goes too
    assert all("All Sideways" not in (c.left, c.right) for c in m.constraints)


def test_removeall_partial_effect_on_root(services):
    m, diags = run(services, """\
    removeall feature F where F._name = "Web Services" or F._name = "Bull Market";
    """)
    assert [d.severity for d in diags] == ["warning"]
    assert "Bull Market" not in m.features
    assert m.root == "Web Services"


def test_removeall_matches_removals_one_target_at_a_time():
    # one batched removal per command against the reference, which removes
    # target by target with scans; moves put some descendants before their
    # ancestors in declaration order, and half the models have built indices
    rng = random.Random(4242)
    for case in range(400):
        m = random_model(rng, max_features=30, max_attrs=4)
        names = list(m.features)
        for _ in range(rng.randint(0, 6)):
            try:
                m.move_feature(rng.choice(names), rng.choice(names),
                               rng.choice([DecompKind.MANDATORY, DecompKind.OPTIONAL]))
            except ModelError:
                pass
        for _ in range(rng.randint(0, 3 * len(names))):
            m.add_constraint(Constraint(rng.choice(names), rng.choice(["requires", "excludes"]),
                                        rng.choice(names)))
        if case % 2:
            index_answers(m)
        if case % 4:  # a random set of targets, often nested, sometimes the root
            picked = set(rng.sample(names, rng.randint(1, len(names))))
            where = parse_expr(" or ".join(f'V._name = "{n}"' for n in picked))
        else:
            where = random_where(rng, ["V"], m, depth=1)
            picked = {n for (n,) in brute_force_resolve(m, ["V"], where)}
        cmd = RemoveAllFeatures(var="V", where=where)
        targets = [n for n in m.features if n in picked]
        want, want_diags = reference_remove_all(m, targets)
        got, got_diags = commands.execute(m, cmd)
        assert got_diags == want_diags, case
        assert serialize_declarations(got) == serialize_declarations(want), case
        assert validate(got) == [], case
        assert index_answers(got) == (scan_subtrees(got), scan_groups(got)), case


def test_a_pure_move_stores_one_feature_per_target(services, monkeypatch):
    updated = []
    real = FeatureModel.update_attributes
    monkeypatch.setattr(FeatureModel, "update_attributes",
                        lambda self, *args: updated.append(args) or real(self, *args))
    m, diags = run(services, 'updateall feature F set _parent = "Infrastructure", '
                             '_decomp = optional where F.stype = "utility";')
    assert diags == [] and updated == []
    assert m.features["Stock Wizard"].parent == "Infrastructure"


# -- growth with model size ------------------------------------------------


def removal_model(parts: int) -> FeatureModel:
    """Parts in or-groups of ten, one group per parent under the root; an
    attribute w of 0-9 on every feature and 1.6 constraints per feature."""
    rng = random.Random(parts)
    lines, names = ['root "R";'], []
    for g in range(parts // 10):
        lines.append(f'feature "G{g}" "R" optional attribute w {rng.randint(0, 9)};')
        names.append(f"G{g}")
        for j in range(10):
            lines.append(f'feature "P{g}_{j}" "G{g}" or to "P{g}_0" '
                         f'attribute w {rng.randint(0, 9)};')
            names.append(f"P{g}_{j}")
    for _ in range(len(names) * 8 // 5):
        a, b = rng.sample(names, 2)
        lines.append(f'constraint "{a}" {rng.choice(["requires", "excludes"])} "{b}";')
    return build("\n".join(lines) + "\n")


def move_model(n: int) -> FeatureModel:
    """n features with w = 1 under the root, next to H, which holds S in an or-group."""
    return build('root "R";\nfeature "H" "R" optional;\nfeature "S" "H" or to "S";\n'
                 + "".join(f'feature "X{i}" "R" optional attribute w 1;\n'
                           for i in range(n)))


def best_time(model, command: str) -> float:
    """The best of five runs of one command on the model, in seconds."""
    [cmd] = parse_commands(command)[0].commands
    times = []
    gc.collect()
    gc.disable()  # a collection's cost depends on the whole test run's heap
    try:
        for _ in range(5):
            started = time.perf_counter()
            _, diags = commands.execute(model, cmd)
            times.append(time.perf_counter() - started)
    finally:
        gc.enable()
    assert diags == []
    return min(times)


@pytest.mark.parametrize("make, command", [
    (removal_model, "removeall feature X where X.w > 4;"),
    (move_model, 'updateall feature X set _parent = "H", _decomp = or to "S" where X.w > 0;'),
], ids=["removeall", "bulk-group-move"])
def test_bulk_feature_edits_grow_linearly(make, command):
    # four times the features take about four times as long; per-target
    # scans of the model took 10-29 times as long
    small, large = make(1000), make(4000)
    assert best_time(large, command) <= 8 * best_time(small, command)


def test_add_constraint_simple(services):
    m, diags = run(services, """\
    add constraint "Highway Jam" requires "High Speed Connection Protocol";
    """)
    assert diags == []
    assert m.stored_constraint(
        Constraint("Highway Jam", "requires", "High Speed Connection Protocol")) is not None


def test_add_constraint_multiple_via_variable(services):
    m, diags = run(services, """\
    add constraint F requires
      "High Speed Connection Protocol"
      where F._parent = "Package 3"
      and F.stype = "utility";
    """)
    assert diags == []
    for name in ("Stock Wizard", "Money Money Money", "Bull Market"):
        assert m.stored_constraint(
            Constraint(name, "requires", "High Speed Connection Protocol")) is not None
    assert len(m.constraints) == len(services.constraints) + 3


def test_add_constraint_existing_warning(services):
    m, diags = run(services, """\
    add constraint "Video Chat" requires "High Speed Connection Protocol";
    """)
    assert [(d.severity, d.message) for d in diags] == [
        ("warning", "Following Cross-tree Constraint(s) already exist: "
                    "(Video Chat requires High Speed Connection Protocol)")]
    assert len(m.constraints) == len(services.constraints)


def test_add_constraint_symmetric_excludes_dedup(services):
    m, diags = run(services, 'add constraint "All Sideways" excludes "Highway Jam";')
    assert [d.severity for d in diags] == ["warning"]
    assert len(m.constraints) == len(services.constraints)


def test_candidate_constraints_match_the_reference():
    rng = random.Random(11)
    names, swapped = ("A", "B", "C", "D"), 0
    for _ in range(600):
        variables = ("X", "Y", "Z")[:rng.randint(1, 3)]
        every = list(itertools.product(names, repeat=len(variables)))
        res = ResolutionSet(variables, rng.sample(every, rng.randint(0, min(14, len(every)))))
        left, right = (VarRef(rng.choice(variables)) if rng.random() < 0.7
                       else FeatureRef(rng.choice(names)) for _ in range(2))
        cmd = AddConstraint(left=left, kind=rng.choice(("requires", "excludes")),
                            right=right)
        got = commands._candidate_constraints(cmd, res)
        assert got == reference_candidate_constraints(cmd, res)

        def end(desc, t):
            return t[variables.index(desc.name)] if isinstance(desc, VarRef) else desc.name
        # an excludes whose tuples name its ends in both orders
        swapped += any(len({(end(left, t), end(right, t)) for t in tuples}) > 1
                       for _c, tuples in got)
    assert swapped > 20


def _end(desc, variables, t) -> str:
    return t[variables.index(desc.name)] if isinstance(desc, VarRef) else desc.name


def _outcome(execute, model, cmd, res) -> tuple:
    """What an add-constraint executor does to a copy of the model: its
    diagnostics or error, the constraints in order, and the model."""
    work = model.copy()
    try:
        diags = execute(work, cmd, res)
    except commands.CommandError as e:
        diags = ("error", str(e))
    return diags, work.constraints, work


def test_one_pass_add_constraint_equals_the_reference():
    rng = random.Random(17)
    outcomes = {"warned": 0, "added": 0, "error": 0, "swapped": 0}
    for case in range(600):
        m = random_model(rng, max_features=6, max_attrs=0)
        names = list(m.features)
        for _ in range(rng.randint(0, 6)):  # constraints that already exist
            m.add_constraint(Constraint(rng.choice(names), rng.choice(("requires", "excludes")),
                                        rng.choice(names)))
        variables = ("X", "Y", "Z")[:rng.randint(1, 3)]
        every = list(itertools.product(names, repeat=len(variables)))
        tuples = rng.sample(every, rng.randint(1, min(12, len(every))))
        tuples += rng.choices(tuples, k=rng.randint(0, 2))  # duplicate tuples
        res = ResolutionSet(variables, tuples)
        left, right = (VarRef(rng.choice(variables)) if rng.random() < 0.7
                       else FeatureRef(rng.choice(names + ["Ghost"])) for _ in range(2))
        cmd = AddConstraint(left=left, kind=rng.choice(("requires", "excludes")), right=right)
        got = _outcome(commands.exec_add_constraint, m, cmd, res)
        want = _outcome(reference_add_constraint, m, cmd, res)
        assert got == want, f"case {case}"
        diags = got[0]
        outcomes["error" if diags and diags[0] == "error" else
                 "warned" if diags else "added"] += 1
        # an excludes whose tuples name its ends in both orders
        pairs = {(_end(left, variables, t), _end(right, variables, t)) for t in tuples}
        outcomes["swapped"] += cmd.kind == "excludes" and any(
            a != b and (b, a) in pairs for a, b in pairs)
    assert min(outcomes.values()) >= 15, outcomes


def test_update_constraint_rightfeature(services):
    prepared, diags = run(services, """\
    add feature "Video Protocol"
      with attributes ( _parent = "Infrastructure", _decomp = optional );
    """)
    assert diags == []
    m, diags = run(prepared, """\
    update constraint
      "Video Chat" requires
      "High Speed Connection Protocol"
      set rightfeature = "Video Protocol";
    """)
    assert diags == []
    assert m.stored_constraint(Constraint("Video Chat", "requires", "Video Protocol")) is not None
    assert m.stored_constraint(
        Constraint("Video Chat", "requires", "High Speed Connection Protocol")) is None


def test_update_constraint_requires_unique_match(services):
    withtwo, _ = run(services, """\
    add constraint "Stock Wizard" requires "High Speed Connection Protocol";
    """)
    before = serialize_declarations(withtwo)
    m, diags = run(withtwo, """\
    update constraint F requires "High Speed Connection Protocol"
      set constrainttype = excludes;
    """)
    assert [d.severity for d in diags] == ["error"]
    assert serialize_declarations(m) == before


def test_update_constraint_no_match_is_error(services):
    m, diags = run(services, """\
    update constraint "Stock Wizard" requires "Bull Market"
      set constrainttype = excludes;
    """)
    assert [(d.severity, d.message) for d in diags] == [
        ("error", "No constraints match the update command")]


def test_updateall_constraint_retargets_matches(services):
    prepared, _ = run(services, """\
    add constraint F requires
      "High Speed Connection Protocol"
      where F._parent = "Package 3" and F.stype = "utility";
    add feature "Ultra Speed Protocol"
      with attributes ( _parent = "Infrastructure", _decomp = optional );
    """)
    m, diags = run(prepared, """\
    updateall constraint
      F requires
        "High Speed Connection Protocol"
      set rightfeature = "Ultra Speed Protocol"
      where F._parent = "Package 3"
      and F.stype = "utility";
    """)
    assert diags == []
    for name in ("Stock Wizard", "Money Money Money", "Bull Market"):
        assert m.stored_constraint(Constraint(name, "requires", "Ultra Speed Protocol")) is not None
    # the fun-service constraint was out of scope and stays put
    assert m.stored_constraint(
        Constraint("Video Chat", "requires", "High Speed Connection Protocol")) is not None


def test_updateall_constraint_no_match_warning(services):
    m, diags = run(services, """\
    updateall constraint "Bull Market" requires "Stock Wizard"
      set constrainttype = excludes;
    """)
    assert [(d.severity, d.message) for d in diags] == [
        ("warning", "No constraints match the update all command")]


def test_remove_constraint(services):
    m, diags = run(services, """\
    remove constraint
      "Highway Jam" excludes
      "All Sideways";
    """)
    assert diags == []
    assert len(m.constraints) == len(services.constraints) - 1


def test_remove_constraint_no_match_warning(services):
    m, diags = run(services, 'remove constraint "Bull Market" requires "Stock Wizard";')
    assert [(d.severity, d.message) for d in diags] == [
        ("warning", "No constraints match the remove command")]


def test_removeall_constraints_by_variable(services):
    m, diags = run(services, 'removeall constraint F excludes "All Sideways";')
    assert diags == []
    assert m.constraints == [
        Constraint("Video Chat", "requires", "High Speed Connection Protocol")]


def test_removeall_constraint_no_match_warning(services):
    m, diags = run(services, 'removeall constraint F excludes "Bull Market";')
    assert [(d.severity, d.message) for d in diags] == [
        ("warning", "No constraints match the remove all command")]


# -- run modes --------------------------------------------------------------

MIXED = """\
remove constraint "Bull Market" requires "Stock Wizard";
remove feature "Web Services";
update feature "Dating Club" set extracost = numeric: 5;
"""


def test_mode_ignore_all_runs_everything(services):
    m, diags = run(services, MIXED, RunMode.IGNORE_ALL)
    assert [d.severity for d in diags] == ["warning", "error"]
    assert m.features["Dating Club"].attributes["extracost"] == 5


def test_mode_stop_on_error(services):
    m, diags = run(services, MIXED, RunMode.STOP_ON_ERROR)
    assert [d.severity for d in diags] == ["warning", "error"]
    assert m.features["Dating Club"].attributes["extracost"] == 8


def test_mode_stop_on_warning(services):
    m, diags = run(services, MIXED, RunMode.STOP_ON_WARNING)
    assert [d.severity for d in diags] == ["warning"]
    assert m.features["Dating Club"].attributes["extracost"] == 8


def test_mode_diagnostics_prefix_property(services):
    w = run(services, MIXED, RunMode.STOP_ON_WARNING)[1]
    e = run(services, MIXED, RunMode.STOP_ON_ERROR)[1]
    i = run(services, MIXED, RunMode.IGNORE_ALL)[1]
    renders = lambda ds: [d.render() for d in ds]
    assert renders(i)[:len(renders(e))] == renders(e)
    assert renders(e)[:len(renders(w))] == renders(w)


# -- single/multi equivalence ----------------------------------------------


def test_removeall_equals_single_removals(services):
    multi, _ = run(services, """\
    removeall feature F where F._parent = "Package 1" and F.stype = "utility";
    """)
    single, _ = run(services, """\
    remove feature "My Way or Highway";
    remove feature "Highway Jam";
    """)
    assert isomorphic(multi, single)


def test_updateall_equals_single_updates(services):
    multi, _ = run(services, """\
    updateall feature F set extracost = numeric: 5 where F.extracost > 5;
    """)
    single, _ = run(services, """\
    update feature "3D Racing" set extracost = numeric: 5;
    update feature "Ultimate Chess" set extracost = numeric: 5;
    update feature "Dating Club" set extracost = numeric: 5;
    """)
    assert isomorphic(multi, single)


def random_slot_command(rng, m):
    """An add, update or updateall feature command, or an update constraint
    command with new ends, whose slots mix constants with terms that name a
    variable; a slot may divide by zero, mistype, or read a feature that
    does not exist."""
    variables = ("V", "W")[:rng.randint(1, 2)]
    names = list(m.features)

    def desc():
        if rng.random() < 0.5:
            return VarRef(rng.choice(variables))
        return FeatureRef(rng.choice(names + ["Ghost"]))

    def number():
        term = rng.choice([Lit(rng.randint(0, 3)), AttrRef(desc(), rng.choice(ATTR_POOL[:3]))])
        if rng.random() < 0.4:
            term = Binary(rng.choice("/%"), term, Lit(rng.choice([0, 2])))
        return term

    def name():
        if rng.random() < 0.3:
            return AttrRef(desc(), "_name")
        return Lit(rng.choice(names + ["Ghost"]))

    kind = rng.choice([Lit(rng.choice(list(DecompKind)))] * 2 + [AttrRef(desc(), "_decomp")])
    decomp = DecompSpec(kind, rng.choice([None, desc()]))
    attrs = [AttrAssign(a, "numeric", number())
             for a in rng.sample(ATTR_POOL[:3], rng.randint(0, 2))]
    where = rng.choice([
        None,
        Binary("<>", AttrRef(VarRef(variables[0]), "_name"), Lit(names[0])),
        Binary("=", AttrRef(VarRef(variables[-1]), "_parent"), Lit(rng.choice(names)))])
    parent = rng.choice([None, name()])
    shape = rng.randrange(5)
    if shape == 0:
        return AddFeature(name=rng.choice(["N", names[-1]]), parent=name(), decomp=decomp,
                          attrs=attrs, where=where)
    if shape == 1:
        return UpdateFeature(target=desc(), new_name=None, parent=parent,
                             decomp=rng.choice([None, decomp]), attrs=attrs, where=where)
    if shape == 2:
        return UpdateAllFeatures(var=variables[0], parent=parent,
                                 decomp=rng.choice([None, decomp]), attrs=attrs, where=where)
    new_left, new_right = rng.choice([(name(), None), (None, name()), (name(), name())])
    cls = UpdateConstraint if shape == 3 else UpdateAllConstraints
    return cls(left=desc(), kind=rng.choice(["requires", "excludes"]), right=desc(),
               where=where, new_left=new_left, new_right=new_right,
               updates=["leftfeature"] * bool(new_left) + ["rightfeature"] * bool(new_right))


def test_constant_slots_equal_per_tuple_derivation(monkeypatch):
    # a slot naming no variable is evaluated once per command; the reference
    # evaluates every slot under every tuple and groups every updateall
    rng = random.Random(20261021)
    seen = dict.fromkeys(("edit", "ambiguous", "zero", "type", "unknown"), 0)
    words = {"ambiguous": ("ambiguous on what",), "zero": ("by zero",),
             "type": ("applied to", "expected a", "integers only", "no attribute named"),
             "unknown": ("no feature with",)}
    for case in range(2000):
        m = random_model(rng, max_features=14)
        for a, b in itertools.combinations(list(m.features)[:4], 2):
            m.add_constraint(Constraint(a, "requires", b))
        cmd = random_slot_command(rng, m)
        got, got_diags = commands.execute(m, cmd)
        with monkeypatch.context() as reference:
            per_tuple_slots(reference)
            want, want_diags = commands.execute(m, cmd)
        assert (model_state(got), got_diags) == (model_state(want), want_diags), f"case {case}"
        seen["edit"] += got is not m
        for key, found in words.items():
            seen[key] += any(w in message for _, message in got_diags for w in found)
    assert min(seen.values()) >= 20, seen


def test_a_constant_parent_is_evaluated_once_per_command(monkeypatch):
    evaluated = []
    compile_slot = commands._slot

    def counted_slot(expr, model, expected=None):
        value = compile_slot(expr, model, expected)

        def counted(binding):
            evaluated.append(expr)
            return value(binding)
        return counted

    monkeypatch.setattr(commands, "_slot", counted_slot)
    parts = "".join(f'feature "P{i}" "A" optional attribute n {i};\n' for i in range(40))
    m = build('root "R";\nfeature "A" "R" optional;\nfeature "B" "R" optional;\n' + parts)
    after, diags = run(m, 'updateall feature F set _parent = "B" where F.n >= 0;')
    assert diags == []
    assert [n for n, f in after.features.items() if f.parent == "B"] == [
        f"P{i}" for i in range(40)]
    assert evaluated == [Lit("B")]
