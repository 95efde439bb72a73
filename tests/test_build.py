"""The one model builder: `build_model` against the builder it replaced, on
valid and broken declarations, and the declarations that builder accepted
by mistake."""

import random

import pytest

from feather.build import BuildError, build_model
from feather.model import DecompKind
from feather.parser import ConstraintDecl, FeatureDecl, parse_script
from feather.serializer import serialize_declarations

from conftest import model_state, random_model, reference_build_model


def declarations(text: str):
    ast, errors = parse_script(text)
    assert errors == []
    return ast


@pytest.mark.parametrize("sibling", ["B", "R"], ids=["optional", "root"])
def test_a_sibling_must_join_a_group(sibling):
    ast = declarations('root "R";\nfeature "B" "R" optional;\n'
                       f'feature "A" "R" alternative to "{sibling}";\n')
    with pytest.raises(BuildError) as e:
        build_model(ast)
    assert str(e.value) == (
        f'"{sibling}" is referenced as a group sibling but does not join a group')


def test_build_model_rejects_a_duplicate_declaration():
    # the library's build_model runs without validate_static
    ast = declarations('root "R";\nfeature "A" "R" optional;\n'
                       'feature "A" "R" mandatory;\n')
    with pytest.raises(BuildError) as e:
        build_model(ast)
    assert str(e.value) == 'feature "A" is declared twice'


GROUP_KINDS = (DecompKind.ALTERNATIVE, DecompKind.OR)
# the defects the builders reject alike
SAME_CLASS = ("duplicate root", "undeclared parent", "cycle", "undeclared sibling",
              "mixed kinds", "mixed parents", "bad constraint end")
# the defects only the new builder rejects
FLIPS = ("duplicate feature", "sibling outside a group")


def break_declarations(rng, ast, model, defect) -> bool:
    """Give the declarations of `model` one defect; False where the model
    has nothing to break that way."""
    features = ast.features
    members = [fd for fd in features if fd.sibling is not None]
    declared = [model.root] + [fd.name for fd in features]
    if defect in ("undeclared parent", "cycle", "duplicate feature") and not features:
        return False
    if defect in ("undeclared sibling", "mixed kinds", "mixed parents") and not members:
        return False
    member = rng.choice(members) if members else None
    if defect == "duplicate root":
        features.append(FeatureDecl(model.root, rng.choice(declared),
                                    DecompKind.OPTIONAL, None, []))
    elif defect == "duplicate feature":  # the same declaration twice
        fd = rng.choice(features)
        features.append(FeatureDecl(fd.name, fd.parent, fd.decomp, fd.sibling,
                                    list(fd.attributes)))
    elif defect == "undeclared parent":
        rng.choice(features).parent = "Ghost"
    elif defect == "cycle":  # under itself or one of its descendants
        fd = rng.choice(features)
        fd.parent = rng.choice(sorted(model.subtree(fd.name)))
    elif defect == "undeclared sibling":
        member.sibling = "Ghost"
    elif defect == "mixed kinds":
        other = GROUP_KINDS[member.decomp is DecompKind.ALTERNATIVE]
        features.append(FeatureDecl("X", member.parent, other, member.name, []))
    elif defect == "mixed parents":
        parent = rng.choice([n for n in declared if n != member.parent])
        features.append(FeatureDecl("X", parent, member.decomp, member.name, []))
    elif defect == "bad constraint end":
        ends = [rng.choice(declared), "Ghost"]
        rng.shuffle(ends)
        ast.constraints.append(ConstraintDecl(ends[0], rng.choice(["requires", "excludes"]),
                                              ends[1]))
    elif defect == "sibling outside a group":
        outside = [model.root] + [fd.name for fd in features if fd.sibling is None]
        features.append(FeatureDecl("X", rng.choice(declared), rng.choice(GROUP_KINDS),
                                    rng.choice(outside), []))
    return True


def outcome(builder, ast):
    try:
        return model_state(builder(ast))
    except BuildError as e:
        return e


def test_build_model_equals_the_reference():
    # the new builder checks each invariant once, in its own order; on one
    # defect it raises where the reference raised, and on none it builds
    # the same model. Two kinds of declarations the reference accepted are
    # now rejected: a sibling that joins no group, and a duplicate
    rng = random.Random(20261019)
    kinds = ("valid",) + SAME_CLASS + FLIPS
    for case, defect in enumerate(kinds * 40):  # each kind 40 times
        while True:
            model = random_model(rng, max_features=12, max_attrs=2)
            ast = declarations(serialize_declarations(model))
            if defect == "valid" or break_declarations(rng, ast, model, defect):
                break
        rng.shuffle(ast.features)
        got, want = outcome(build_model, ast), outcome(reference_build_model, ast)
        context = f"case {case}, {defect}: {ast}"
        if defect == "valid":
            assert got == want, context
        elif defect in SAME_CLASS:
            assert isinstance(got, BuildError) and isinstance(want, BuildError), context
        else:
            assert isinstance(want, tuple), context
            assert isinstance(got, BuildError), context
            assert ("does not join a group" if defect == "sibling outside a group"
                    else "is declared twice") in str(got), context
