import time

import pytest

from feather.build import BuildError, build_model
from feather.model import Constraint, DecompKind, Feature, FeatureModel, ModelError
from feather.parser import FeatureDecl, RootDecl, ScriptAst
from feather.tvl import TvlError, import_tvl

from conftest import index_answers, model_state, scan_groups, scan_subtrees, validate


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
    assert [f.name for f in m.child_features()["A"]] == ["C", "D"]
    assert m.features["C"].group_id == m.features["D"].group_id > 0
    assert m.features["A"].group_id == 0
    assert validate(m) == []


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
    assert validate(m) == []


def test_move_rejects_cycle_and_root():
    m = small()
    with pytest.raises(ModelError):
        m.move_feature("A", "C", DecompKind.OPTIONAL)
    with pytest.raises(ModelError):
        m.move_feature("Root", "A", DecompKind.OPTIONAL)
    assert validate(m) == []


def test_move_cannot_join_own_singleton_group():
    m = FeatureModel.with_root("R")
    m.attach_feature(Feature("A"), "R", DecompKind.OR)
    gid = m.features["A"].group_id
    with pytest.raises(ModelError):
        m.move_feature("A", "R", DecompKind.OR, join_group=gid)
    # the failed move must not corrupt the feature
    assert m.features["A"].parent == "R"
    assert m.features["A"].group_id == gid
    assert validate(m) == []


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
    assert validate(m) == []


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
    assert validate(m) == []


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
    assert validate(m) == []


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
    assert validate(m) == []


def chain(depth: int) -> ScriptAst:
    """Declarations of a chain: F0 under the root R, each F(i) under F(i-1)."""
    return ScriptAst(RootDecl("R", []), [
        FeatureDecl(f"F{i}", f"F{i - 1}" if i else "R", DecompKind.MANDATORY, None, [])
        for i in range(depth)])


def closed_chain(depth: int) -> ScriptAst:
    """The chain of `depth` features with its second half closed into a
    cycle: the middle feature hangs under the last one."""
    ast = chain(depth)
    ast.features[depth // 2].parent = f"F{depth - 1}"
    return ast


def closed_chain_tvl(depth: int) -> str:
    """The same features as TVL blocks, each placing its children."""
    kids = {}
    for fd in closed_chain(depth).features:
        kids.setdefault(fd.parent, []).append(fd.name)
    return "root " + "".join(
        f"{name} {{ group allof {{ {', '.join(kids[name])} }} }}\n" if name in kids
        else f"{name} {{ }}\n" for name in ["R"] + [f"F{i}" for i in range(depth)])


def rejects_the_cycle(build):
    def check(arg):
        with pytest.raises((BuildError, TvlError), match="parent declarations form a cycle"):
            build(arg)
    return check


def test_tree_checks_grow_linearly_with_depth():
    # a walk to the root from every feature takes 16 times as long at four
    # times the depth; walks that stop at features already checked take 4.
    # So does a search for a cycle past a long chain if it rebuilds what the
    # root reaches once per feature of the chain
    def best_time(check, arg):
        times = []
        for _ in range(5):
            started = time.perf_counter()
            check(arg)
            times.append(time.perf_counter() - started)
        return min(times)

    shallow, deep = chain(1000), chain(4000)
    assert best_time(build_model, deep) < 8 * best_time(build_model, shallow)
    shallow, deep = build_model(shallow), build_model(deep)
    assert best_time(validate, deep) < 8 * best_time(validate, shallow)
    for check, shallow, deep in [
            (rejects_the_cycle(build_model), closed_chain(1000), closed_chain(4000)),
            (rejects_the_cycle(import_tvl), closed_chain_tvl(1000), closed_chain_tvl(4000))]:
        assert best_time(check, deep) < 8 * best_time(check, shallow)


def test_tree_check_messages():
    ast = chain(3)
    ast.features[0].parent = "F2"
    with pytest.raises(BuildError) as e:
        build_model(ast)
    assert str(e.value) == 'parent declarations form a cycle through "F0"'

    m = build_model(chain(4))
    m.features["F1"].parent = "F3"  # F1 -> F3 -> F2 -> F1
    m.features["G"] = Feature("G", "F2", DecompKind.OPTIONAL)
    m.features["H"] = Feature("H", "Nowhere", DecompKind.OPTIONAL)
    assert [p for p in validate(m) if p.startswith("tree:")] == [
        "tree: parent of 'H' ('Nowhere') does not exist",
        "tree: cycle through 'F1'", "tree: cycle through 'F2'",
        "tree: cycle through 'F3'", "tree: cycle through 'G'"]


# one call of each edit primitive, in an order in which each applies
EDITS = [
    ("attach_feature", Feature("E", attributes={"y": 2}), "B", DecompKind.OR),
    ("move_feature", "C", "Root", DecompKind.OPTIONAL),
    ("rename_feature", "A", "A2"),  # D's parent and a constraint follow
    ("update_attributes", "Root", {"price": 11, "x": 1}),
    ("remove_subtree", "B"),  # E and "D excludes B" go with it
    ("add_constraint", Constraint("C", "excludes", "D")),
    ("remove_constraint", Constraint("C", "requires", "A2")),
    ("fresh_group_id",),
]


def edited_pair():
    """A model with both indices built, and a copy of it."""
    m = small()
    m.add_constraint(Constraint("C", "requires", "A"))
    m.add_constraint(Constraint("D", "excludes", "B"))
    assert index_answers(m) == (scan_subtrees(m), scan_groups(m))
    return m, m.copy()


def test_edits_to_a_copy_never_reach_the_original():
    # the copy shares the original's features and index entries; a write
    # into a shared attribute dict would reach both, so edits go through
    # the primitives
    m, c = edited_pair()
    before = model_state(m), index_answers(m)
    for method, *args in EDITS:
        getattr(c, method)(*args)
        assert (model_state(m), index_answers(m)) == before, method
        assert index_answers(c) == (scan_subtrees(c), scan_groups(c)), method
    assert c.features["D"].parent == "A2"
    assert c.features["Root"].attributes == {"price": 11, "x": 1}
    assert c.constraints == [Constraint("C", "excludes", "D")]
    assert set(c.features) == {"Root", "A2", "C", "D"}
    assert validate(m) == [] and validate(c) == []


def test_edits_to_the_original_never_reach_a_copy():
    # the original built its index entries, and so could write them in
    # place; after copy() it must copy each before its first write
    m, c = edited_pair()
    before = model_state(c), index_answers(c)
    for method, *args in EDITS:
        getattr(m, method)(*args)
        assert (model_state(c), index_answers(c)) == before, method
        assert index_answers(m) == (scan_subtrees(m), scan_groups(m)), method
    assert validate(m) == [] and validate(c) == []


def test_remove_subtree_takes_several_roots():
    m = small()
    m.add_constraint(Constraint("C", "requires", "B"))
    m.add_constraint(Constraint("D", "excludes", "Root"))
    # C goes first, then A's walk no longer meets it; D goes with A
    assert m.remove_subtree("C", "A", "D") == {"A", "C", "D"}
    assert set(m.features) == {"Root", "B"} and m.constraints == []
    assert index_answers(m) == (scan_subtrees(m), scan_groups(m))
    with pytest.raises(ModelError):
        m.remove_subtree("B", "Root")
    assert set(m.features) == {"Root", "B"}  # nothing removed
