import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from feather.parser import parse_declarations, parse_script
from feather.build import build_model
from feather.model import STRUCTURAL, FeatureModel
from feather.tokens import KEYWORDS
from feather.serializer import ExportError, format_real, serialize_declarations
from feather.tvl import TvlError, import_tvl
from feather.tvl_export import export_tvl

from conftest import build, isomorphic, random_model, run

# the punctuation allowed inside string literals, besides letters and digits
STRING_CHARS = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "~!@#$%^&*()_+[]'/.,-;: ")

name_strategy = st.text(alphabet=STRING_CHARS, min_size=1, max_size=12)
seed_strategy = st.integers(min_value=0, max_value=2**32 - 1)


@given(seed_strategy)
@settings(max_examples=80, deadline=None)
def test_serialize_parse_fixpoint(seed):
    model = random_model(random.Random(seed))
    text = serialize_declarations(model)
    again = build(text)
    assert isomorphic(model, again)
    assert serialize_declarations(again) == text


@given(seed_strategy)
@settings(max_examples=60, deadline=None)
def test_declaration_order_invariance(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    text = serialize_declarations(model)
    ast, errors = parse_script(text)
    assert errors == []
    rng.shuffle(ast.features)
    rng.shuffle(ast.constraints)
    assert isomorphic(model, build_model(ast))


@given(name_strategy, name_strategy)
@settings(max_examples=80, deadline=None)
def test_arbitrary_names_survive_serialization(root_name, child_name):
    if root_name == child_name:
        return
    text = (f'root "{root_name}";\n'
            f'feature "{child_name}" "{root_name}" optional '
            f'attribute note "{root_name}";\n')
    model = build(text)
    assert serialize_declarations(model) == text
    again = build(serialize_declarations(model))
    assert again.features[child_name].attributes["note"] == root_name


@given(seed_strategy)
@settings(max_examples=60, deadline=None)
def test_tvl_round_trip_isomorphism(seed):
    model = random_model(random.Random(seed), max_features=20)
    text = export_tvl(model)
    again = import_tvl(text)
    assert isomorphic(model, again)
    assert export_tvl(again) == text


@given(seed_strategy)
@settings(max_examples=40, deadline=None)
def test_feather_to_tvl_to_feather(seed):
    model = random_model(random.Random(seed), max_features=15)
    via_tvl = import_tvl(export_tvl(model))
    assert isomorphic(model, build(serialize_declarations(via_tvl)))


@given(st.lists(st.sampled_from(["A", "B", "Café", "Ωmega", "x_1", "Über", "ǅx", "n2"]),
                min_size=1, max_size=5, unique=True))
@settings(max_examples=60, deadline=None)
def test_declarations_from_tvl_are_read_back_or_refused(names):
    """A TVL name may hold any letter, a Feather string only ASCII ones: the
    writer refuses a name that `parse_declarations` would refuse."""
    group = f"group allof {{ {', '.join(names[1:])} }}" if names[1:] else ""
    model = import_tvl(f"root {names[0]} {{ {group} }}\n"
                       + "".join(f"{n} {{ }}\n" for n in names[1:]))
    try:
        text = serialize_declarations(model)
    except ExportError as e:
        bad = next(n for n in names if not n.isascii())
        assert str(e) == f'feature name "{bad}" is not a valid Feather string'
        return
    assert all(n.isascii() for n in names)
    assert isomorphic(model, build(text))


def test_declarations_read_back_each_attribute_name_the_writer_admits():
    """The writer refuses an attribute name that does not lex as one
    identifier: written anyway, it would not read back as that name."""
    rng = random.Random(24)
    pieces = ["a", "q", "Q", "_", "7", "中", "ǅ", "²", "٣", "-", " ", " 1 attribute b",
              *sorted(KEYWORDS), *sorted(STRUCTURAL)]
    written = refused = 0
    for _ in range(400):
        name = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 3)))
        model = FeatureModel.with_root("R", {name: 1})
        try:
            text = serialize_declarations(model)
        except ExportError as e:
            assert str(e) == (f'attribute name "{name}" of feature "R" '
                              "is not a valid Feather identifier")
            ast, errors = parse_declarations(f'root "R" attribute {name} 1;\n')
            assert errors or build_model(ast).features["R"].attributes != {name: 1}, name
            refused += 1
            continue
        ast, errors = parse_declarations(text)
        assert errors == [] and isomorphic(model, build_model(ast)), text
        written += 1
    assert written >= 30 and refused >= 30, (written, refused)


def test_reals_stay_finite_through_a_round_trip():
    largest = sys.float_info.max
    text = (f'root "R";\n'
            f'feature "A" "R" optional attribute w {format_real(largest)};\n')
    model = build(text)
    assert serialize_declarations(model) == text
    assert import_tvl(export_tvl(model)).features["A"].attributes["w"] == largest
    # a result beyond the largest real is an error; the model stays as it was
    after, diags = run(model, "updateall feature F set w = numeric: "
                              "F.w * 10.0 - F.w * 10.0 where F.w > 0;")
    assert [(d.severity, d.message) for d in diags] == [
        ("error", "real result out of range")]
    assert serialize_declarations(after) == text
    # so is a literal beyond it, in both languages
    too_large = "1" + "0" * 309 + ".0"
    _, errors = parse_script(f'root "R" attribute w {too_large};\n')
    assert [str(e) for e in errors] == ["line 1, column 22: real literal out of range"]
    with pytest.raises(TvlError, match="real literal out of range"):
        import_tvl(f"root R {{ real w is {too_large}; }}\n")
