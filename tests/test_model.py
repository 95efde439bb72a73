import pytest

from feather.model import Constraint, DecompKind, Feature, FeatureModel, ModelError


def small():
    m = FeatureModel.with_root("Root", {"price": 10})
    m.attach_feature(Feature("A"), "Root", DecompKind.MANDATORY)
    m.attach_feature(Feature("B"), "Root", DecompKind.OPTIONAL)
    m.attach_feature(Feature("C"), "A", DecompKind.ALTERNATIVE)
    gid = m.features["C"].group_id
    m.attach_feature(Feature("D"), "A", DecompKind.ALTERNATIVE, join_group=gid)
    return m


def test_attach_and_groups():
    m = small()
    assert m.children("A") == ["C", "D"]
    assert m.features["C"].group_id == m.features["D"].group_id > 0
    assert m.features["A"].group_id == 0
    assert m.validate() == []


def test_attach_duplicate_name():
    m = small()
    with pytest.raises(ModelError):
        m.attach_feature(Feature("A"), "Root", DecompKind.OPTIONAL)


def test_join_group_kind_mismatch():
    m = small()
    gid = m.features["C"].group_id
    with pytest.raises(ModelError):
        m.attach_feature(Feature("E"), "A", DecompKind.OR, join_group=gid)
    with pytest.raises(ModelError):
        m.attach_feature(Feature("E"), "B", DecompKind.ALTERNATIVE, join_group=gid)


def test_move_subtree_follows():
    m = small()
    m.move_feature("A", "B", DecompKind.OPTIONAL)
    assert m.features["A"].parent == "B"
    assert m.features["C"].parent == "A"
    assert m.validate() == []


def test_move_rejects_cycle_and_root():
    m = small()
    with pytest.raises(ModelError):
        m.move_feature("A", "C", DecompKind.OPTIONAL)
    with pytest.raises(ModelError):
        m.move_feature("Root", "A", DecompKind.OPTIONAL)
    assert m.validate() == []


def test_move_cannot_join_own_singleton_group():
    m = FeatureModel.with_root("R")
    m.attach_feature(Feature("A"), "R", DecompKind.OR)
    gid = m.features["A"].group_id
    with pytest.raises(ModelError):
        m.move_feature("A", "R", DecompKind.OR, join_group=gid)
    # the failed move must not corrupt the feature
    assert m.features["A"].parent == "R"
    assert m.features["A"].group_id == gid
    assert m.validate() == []


def test_rename_updates_links_and_order():
    m = small()
    m.add_constraint(Constraint("C", "requires", "B"))
    order_before = list(m.features)
    m.rename_feature("A", "AA")
    assert list(m.features) == ["AA" if n == "A" else n for n in order_before]
    assert m.features["C"].parent == "AA"
    assert m.constraints[0] == Constraint("C", "requires", "B")
    m.rename_feature("C", "CC")
    assert m.constraints[0] == Constraint("CC", "requires", "B")
    assert m.validate() == []


def test_rename_collision():
    m = small()
    with pytest.raises(ModelError):
        m.rename_feature("A", "B")


def test_remove_subtree_drops_constraints():
    m = small()
    m.add_constraint(Constraint("C", "requires", "B"))
    m.add_constraint(Constraint("B", "excludes", "Root"))
    doomed = m.remove_subtree("A")
    assert doomed == {"A", "C", "D"}
    assert m.constraints == [Constraint("B", "excludes", "Root")]
    assert m.validate() == []


def test_remove_root_forbidden():
    m = small()
    with pytest.raises(ModelError):
        m.remove_subtree("Root")


def test_constraint_same_effect_dedup():
    m = small()
    assert m.add_constraint(Constraint("A", "excludes", "B"))
    assert not m.add_constraint(Constraint("B", "excludes", "A"))
    assert not m.add_constraint(Constraint("A", "excludes", "B"))
    assert m.add_constraint(Constraint("A", "requires", "B"))
    assert m.add_constraint(Constraint("B", "requires", "A"))
    assert len(m.constraints) == 3


def test_remove_constraint_symmetric():
    m = small()
    m.add_constraint(Constraint("A", "excludes", "B"))
    assert m.remove_constraint(Constraint("B", "excludes", "A"))
    assert not m.remove_constraint(Constraint("A", "excludes", "B"))
    assert m.constraints == []


def test_constraints_keep_insertion_order_and_are_read_only():
    m = small()
    first, second = Constraint("A", "requires", "B"), Constraint("C", "excludes", "D")
    m.add_constraint(first)
    m.add_constraint(second)
    m.remove_constraint(first)
    m.add_constraint(first)  # a re-added constraint goes to the end
    assert m.constraints == [second, first]
    m.constraints.clear()
    assert m.constraints == [second, first]
    assert m.validate() == []


def test_move_cycle_check_on_deep_chain():
    m = FeatureModel.with_root("R")
    parent = "R"
    for i in range(3000):
        m.attach_feature(Feature(f"F{i}"), parent, DecompKind.OPTIONAL)
        parent = f"F{i}"
    with pytest.raises(ModelError, match="cycle"):
        m.move_feature("F0", "F2999", DecompKind.OPTIONAL)
    assert m.features["F0"].parent == "R"
    m.move_feature("F2999", "R", DecompKind.OPTIONAL)
    assert m.validate() == []


def test_copy_is_deep_enough():
    m = small()
    c = m.copy()
    c.features["A"].attributes["x"] = 1
    c.remove_subtree("B")
    assert "x" not in m.features["A"].attributes
    assert "B" in m.features
    assert c.validate() == []
