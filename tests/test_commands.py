import random

from feather.commands import RunMode
from feather.model import Constraint, DecompKind
from feather.serializer import serialize_declarations

from conftest import build, isomorphic, run

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
    assert m.validate() == []


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
    assert m.validate() == []


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
    assert m.validate() == []


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
    assert m.validate() == []


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
    assert m.validate() == []

    single = services
    for name in ("Package 1", "Package 3", "Infrastructure"):
        single, _ = run(single, f'update feature "{name}" '
                                'set _parent = "Dating Club", _decomp = or;')
    assert m.next_group_id == single.next_group_id
    assert serialize_declarations(m) == serialize_declarations(single)


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
    assert all(not c.involves("Video Chat") for c in m.constraints)
    assert m.validate() == []


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
    assert all(not c.involves("All Sideways") for c in m.constraints)


def test_removeall_partial_effect_on_root(services):
    m, diags = run(services, """\
    removeall feature F where F._name = "Web Services" or F._name = "Bull Market";
    """)
    assert [d.severity for d in diags] == ["warning"]
    assert "Bull Market" not in m.features
    assert m.root == "Web Services"


def test_add_constraint_simple(services):
    m, diags = run(services, """\
    add constraint "Highway Jam" requires "High Speed Connection Protocol";
    """)
    assert diags == []
    assert m.has_constraint(
        Constraint("Highway Jam", "requires", "High Speed Connection Protocol"))


def test_add_constraint_multiple_via_variable(services):
    m, diags = run(services, """\
    add constraint F requires
      "High Speed Connection Protocol"
      where F._parent = "Package 3"
      and F.stype = "utility";
    """)
    assert diags == []
    for name in ("Stock Wizard", "Money Money Money", "Bull Market"):
        assert m.has_constraint(
            Constraint(name, "requires", "High Speed Connection Protocol"))
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
    assert m.has_constraint(Constraint("Video Chat", "requires", "Video Protocol"))
    assert not m.has_constraint(
        Constraint("Video Chat", "requires", "High Speed Connection Protocol"))


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
        assert m.has_constraint(Constraint(name, "requires", "Ultra Speed Protocol"))
    # the fun-service constraint was out of scope and stays put
    assert m.has_constraint(
        Constraint("Video Chat", "requires", "High Speed Connection Protocol"))


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
