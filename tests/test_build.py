"""The one model builder: `build_model` against the builder it replaced, on
valid and broken declarations, and the declarations that builder accepted
by mistake; the command line reports each defect as the library does."""

import random
import re

import pytest

from feather.build import BuildError, build_model
from feather.cli import main
from feather.model import DecompKind
from feather.parser import ConstraintDecl, FeatureDecl, ScriptAst, parse_declarations, parse_script
from feather.serializer import format_value, serialize_declarations
from feather.tvl import TvlError, import_tvl

from conftest import model_state, random_model, reference_build_model


def declarations(text: str):
    ast, errors = parse_script(text)
    assert errors == []
    return ast


def test_a_model_needs_a_root():
    with pytest.raises(BuildError) as e:
        build_model(ScriptAst())
    assert str(e.value) == "missing root feature declaration"


@pytest.mark.parametrize("sibling", ["B", "R"], ids=["optional", "root"])
def test_a_sibling_must_join_a_group(sibling):
    ast = declarations('root "R";\nfeature "B" "R" optional;\n'
                       f'feature "A" "R" alternative to "{sibling}";\n')
    with pytest.raises(BuildError) as e:
        build_model(ast)
    assert str(e.value) == (
        f'line 3: "{sibling}" is referenced as a group sibling but does not join a group')


def test_build_model_rejects_a_duplicate_declaration():
    # the library's build_model runs without validate_static
    ast = declarations('root "R";\nfeature "A" "R" optional;\n'
                       'feature "A" "R" mandatory;\n')
    with pytest.raises(BuildError) as e:
        build_model(ast)
    assert str(e.value) == 'line 3: feature "A" is declared twice'


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


def declarations_text(ast) -> str:
    """The declarations of `ast` as Feather text, one a line."""
    def attributes(pairs):
        return "".join(f" attribute {name} {format_value(v)}" for name, v in pairs)
    lines = [f'root "{ast.root.name}"{attributes(ast.root.attributes)};']
    for fd in ast.features:
        to = "" if fd.sibling is None else f' to "{fd.sibling}"'
        lines.append(f'feature "{fd.name}" "{fd.parent}" {fd.decomp}{to}'
                     f'{attributes(fd.attributes)};')
    lines += [f'constraint "{cd.left}" {cd.kind} "{cd.right}";' for cd in ast.constraints]
    return "\n".join(lines) + "\n"


def cli_error(tmp_path, capsys, flag: str, text: str) -> str:
    """What the command line prints on standard error for one input file,
    which it must refuse."""
    path = tmp_path / "in"
    path.write_text(text)
    assert main([flag, str(path)]) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("defect", SAME_CLASS + FLIPS)
def test_the_command_line_reports_what_the_library_reports(tmp_path, capsys, defect):
    # the builder's text, with the line of a declaration at fault: one that
    # names what the message names
    rng = random.Random(defect)
    for case in range(10):
        while True:
            model = random_model(rng, max_features=12, max_attrs=2)
            ast = declarations(serialize_declarations(model))
            if break_declarations(rng, ast, model, defect):
                break
        rng.shuffle(ast.features)
        text = declarations_text(ast)
        with pytest.raises(BuildError) as e:
            build_model(declarations(text))
        assert cli_error(tmp_path, capsys, "-d", text) == f"error: {e.value}\n"
        m = re.fullmatch(r"line (\d+): (.*)", str(e.value))
        assert m, (case, text)
        names = re.findall(r"[\"']([^\"']+)[\"']", m[2])
        line = text.splitlines()[int(m[1]) - 1]
        assert any(f'"{name}"' in line for name in names), (case, str(e.value), text)


def feather_error(text: str):
    [error] = parse_declarations(text)[1]
    return error


def tvl_error(text: str):
    with pytest.raises(TvlError) as e:
        import_tvl(text)
    return e.value


@pytest.mark.parametrize("flag, text, library_error", [
    ("-d", 'root "R" attribute v 1 attribute v 2;\n', feather_error),
    ("-t", "root R { int v is 1; real v is 2.5; }\n", tvl_error),
], ids=["feather", "tvl"])
def test_a_repeated_attribute_is_reported_as_the_library_reports_it(tmp_path, capsys, flag,
                                                                     text, library_error):
    error = library_error(text)
    assert str(error).endswith(': duplicate attribute "v" in feature "R"')
    assert cli_error(tmp_path, capsys, flag, text) == f"error: {error}\n"
