import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from feather.parser import parse_declarations, parse_script
from feather.build import build_model
from feather.model import STRUCTURAL, Constraint, DecompKind, Feature, FeatureModel
from feather.tokens import KEYWORDS, TVL_KEYWORDS, first_unlexable
from feather.serializer import ExportError, format_real, serialize_declarations
from feather.tvl import TvlError, import_tvl
from feather.tvl_export import TvlExportError, export_tvl

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


# feature and attribute names that both readers take, the keywords of both
# languages, and names that one reader or neither takes
FEATURE_NAMES = ["A", "Bx", "C_1", "D"]
ATTRIBUTE_NAMES = ["w", "n_1", "q", "flag"]
ODD_NAMES = (sorted(KEYWORDS | STRUCTURAL.keys() | TVL_KEYWORDS),
             ["a-b", "a b", "_x", "x²", "中", "Café", "", "a\nb", 'a"b'])


def pool_model(rng: random.Random) -> FeatureModel:
    """A model built through the library, one name in ten of its feature
    names, attribute names, string values and enum strings an odd one."""
    def pick(names):
        return rng.choice(names if rng.random() < 0.9 else rng.choice(ODD_NAMES))

    def attributes():
        return {pick(ATTRIBUTE_NAMES): rng.choice([1, 2.5, True, pick(FEATURE_NAMES)])
                for _ in range(rng.randint(0, 2))}
    names = list(dict.fromkeys(pick(FEATURE_NAMES) for _ in range(rng.randint(1, 4))))
    model = FeatureModel.with_root(names[0], attributes())
    for i, name in enumerate(names[1:], 1):
        model.attach_feature(Feature(name, attributes=attributes()), rng.choice(names[:i]),
                             rng.choice(list(DecompKind)))
    if len(names) > 1:
        model.add_constraint(Constraint(names[-1], rng.choice(["requires", "excludes"]),
                                        rng.choice(names[:-1])))
    if rng.random() < 0.3:
        model.tvl_string_enum = [pick(FEATURE_NAMES) for _ in range(rng.randint(1, 3))]
    return model


def lexes(string: str, kind: str) -> bool:
    return first_unlexable([string], kind) is None


def declarations_refusal(model: FeatureModel) -> str | None:
    """What `serialize_declarations` reports, found one string at a time:
    the feature names, then the string values, then the attribute names."""
    features = model.features.values()
    for f in features:
        if not lexes(f.name, "STRING"):
            return f'feature name "{f.name}" is not a valid Feather string'
    for f in features:
        for a, v in f.attributes.items():
            if type(v) is str and not lexes(v, "STRING"):
                return (f'value "{v}" of attribute "{a}" of feature "{f.name}" '
                        "is not a valid Feather string")
    for f in features:
        for a in f.attributes:
            if not lexes(a, "IDENT"):
                return (f'attribute name "{a}" of feature "{f.name}" '
                        "is not a valid Feather identifier")
    return None


def tvl_refusal(model: FeatureModel) -> str | None:
    """What `export_tvl` reports, found one string at a time: each feature's
    name and then its attribute names, then the string values, then the
    enum strings."""
    features = model.features.values()
    for f in features:
        if not lexes(f.name, "ID"):
            return f'feature name "{f.name}" is not a valid TVL identifier'
        for a in f.attributes:
            if not lexes(a, "ATTRIBUTE_ID"):
                return (f'attribute name "{a}" of feature "{f.name}" '
                        "is not a valid TVL attribute id")
    for f in features:
        for a, v in f.attributes.items():
            if type(v) is str and not lexes(v, "STRING"):
                return (f'value "{v}" of attribute "{a}" of feature "{f.name}" '
                        "is not a valid TVL string")
    for s in model.tvl_string_enum or ():
        if not lexes(s, "STRING"):
            return f'enum string "{s}" is not a valid TVL string'
    return None


def test_each_writer_writes_what_its_reader_reads_or_refuses():
    """Each writer refuses a model, with the error that a scan of one string
    at a time finds first, or writes a text that its reader reads back as
    the same features, attributes and constraints."""
    rng = random.Random(32)
    outcomes = {"tvl": [0, 0], "declarations": [0, 0]}  # written, refused
    for _ in range(600):
        model = pool_model(rng)
        try:
            text = export_tvl(model)
        except TvlExportError as e:
            assert str(e) == tvl_refusal(model)
            outcomes["tvl"][1] += 1
        else:
            assert tvl_refusal(model) is None, text
            again = import_tvl(text)
            assert isomorphic(model, again), text
            assert again.tvl_string_enum == model.tvl_string_enum, text
            outcomes["tvl"][0] += 1
        try:
            text = serialize_declarations(model)
        except ExportError as e:
            assert type(e) is ExportError and str(e) == declarations_refusal(model)
            outcomes["declarations"][1] += 1
        else:
            assert declarations_refusal(model) is None, text
            ast, errors = parse_declarations(text)
            assert errors == [] and isomorphic(model, build_model(ast)), text
            outcomes["declarations"][0] += 1
    assert all(min(counts) >= 100 for counts in outcomes.values()), outcomes


# the digit limit of str(), which the readers' int() shares
DIGITS = sys.get_int_max_str_digits()


@pytest.mark.parametrize("value, message", [
    (float("nan"), 'value nan of attribute "w" of feature "A" is not a finite real'),
    (float("inf"), 'value inf of attribute "w" of feature "A" is not a finite real'),
    (-float("inf"), 'value -inf of attribute "w" of feature "A" is not a finite real'),
    (10**DIGITS, f'integer value of attribute "w" of feature "A" has more than {DIGITS} digits'),
    (-10**DIGITS, f'integer value of attribute "w" of feature "A" has more than {DIGITS} digits'),
    (None, 'value of attribute "w" of feature "A" is a NoneType, not an attribute value'),
    (DecompKind.OR, 'value of attribute "w" of feature "A" is a DecompKind, not an attribute value'),
], ids=["nan", "inf", "-inf", "10**DIGITS", "-10**DIGITS", "None", "decomp"])
def test_each_writer_refuses_a_value_that_no_reader_reads(value, message):
    # neither reader reads such a literal back, so neither writer writes one;
    # the first value at fault is named, alone or before a string at fault
    for later in ({"w": 2}, {"w": value, "s": 'a"b'}):
        model = FeatureModel.with_root("R", {"w": 1, "s": "ok"})
        model.attach_feature(Feature("A", attributes={"v": 2.5, "w": value, "n": 1}), "R",
                             DecompKind.OPTIONAL)
        model.attach_feature(Feature("B", attributes=later), "R", DecompKind.OPTIONAL)
        with pytest.raises(ExportError) as refused:
            serialize_declarations(model)
        assert type(refused.value) is ExportError and str(refused.value) == message
        with pytest.raises(TvlExportError) as refused:
            export_tvl(model)
        assert str(refused.value) == message


def test_each_writer_writes_the_longest_integer_its_reader_reads():
    for value in (10**DIGITS - 1, -(10**DIGITS - 1)):
        model = FeatureModel.with_root("R", {"w": value})
        assert build(serialize_declarations(model)).features["R"].attributes == {"w": value}
        assert import_tvl(export_tvl(model)).features["R"].attributes == {"w": value}


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
