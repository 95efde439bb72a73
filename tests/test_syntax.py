import pytest

from feather.build import BuildError, build_model
from feather.model import DecompKind
from feather.parser import (
    AddFeature,
    UpdateConstraint,
    parse_commands,
    parse_declarations,
    parse_script,
    validate_static,
)
from feather.serializer import serialize_declarations
from feather.tokens import LexError, tokenize

from conftest import SERVICES, build, isomorphic, parse_expr, reference_parse, validate


# -- lexer ------------------------------------------------------------------


def test_tokenize_basics():
    kinds = [t.kind for t in tokenize('feature "A B" 3 4.5 <= <> V x _name')]
    assert kinds == ["feature", "STRING", "INT", "REAL", "<=", "<>",
                     "VAR", "IDENT", "_name", "EOF"]


def test_string_character_set():
    assert tokenize('"a-b_c(1)!"')[0].value == "a-b_c(1)!"
    with pytest.raises(LexError):
        tokenize('"bad\tstring"')
    with pytest.raises(LexError):
        tokenize('""')
    with pytest.raises(LexError):
        tokenize('"unterminated')


def test_identifier_classes():
    assert tokenize("Price")[0].kind == "VAR"
    assert tokenize("price")[0].kind == "IDENT"
    with pytest.raises(LexError):
        tokenize("_bogus")


# -- parser -----------------------------------------------------------------


def test_parse_services_shapes():
    ast, errors = parse_script(SERVICES)
    assert errors == []
    assert ast.root[0] == "Web Services"
    assert len(ast.features) == 17
    assert len(ast.constraints) == 2
    assert ast.commands == []


def test_parse_add_feature_full():
    text = ('add feature "X" with attributes ( _parent = P._name, '
            '_decomp = or to S, stype = string : "fun", cost = numeric : 4 + 1 ) '
            'where P.price <= 15;')
    ast, errors = parse_commands(text)
    assert errors == []
    cmd = ast.commands[0]
    assert isinstance(cmd, AddFeature)
    assert cmd.name == "X"
    assert cmd.decomp.kind.value is DecompKind.OR
    assert len(cmd.attrs) == 2
    assert cmd.where is not None


def test_add_feature_requires_parent_and_decomp():
    ast, errors = parse_commands(
        'add feature "X" with attributes ( _parent = "R" );')
    assert errors


def test_structural_order_is_free():
    a, ea = parse_commands(
        'add feature "X" with attributes ( _parent = "R", _decomp = optional );')
    b, eb = parse_commands(
        'add feature "X" with attributes ( _decomp = optional, _parent = "R" );')
    assert ea == eb == []
    assert a.commands[0].parent == b.commands[0].parent


def test_parse_update_constraint_slots():
    text = ('update constraint "A" requires "B" set leftfeature = "C", '
            'constrainttype = excludes, rightfeature = V._name;')
    ast, errors = parse_commands(text)
    assert errors == []
    cmd = ast.commands[0]
    assert isinstance(cmd, UpdateConstraint)
    assert cmd.new_kind == "excludes"
    assert sorted(cmd.updates) == ["constrainttype", "leftfeature", "rightfeature"]


def test_or_keyword_disambiguation():
    # `or` as a decomposition value and as a boolean operator in one command
    text = ('update feature "A" set _decomp = or to "B" '
            'where "A".x or "A"._decomp = or;')
    ast, errors = parse_commands(text)
    assert errors == []


@pytest.mark.parametrize("value", ["+ true", '+ "s"', "- true", '- "s"'])
def test_a_sign_goes_only_before_a_number(value):
    text = f'root "R" attribute w {value};'
    for ast, errors in (parse_declarations(text), reference_parse(text)):
        assert [str(e) for e in errors] == [
            "line 1, column 24: expected a numeric literal after the sign"]


def test_parse_error_recovery_collects_multiple():
    text = ('remove feature ;\n'
            'remove feature "Good";\n'
            'add constraint "A" wibbles "B";\n')
    ast, errors = parse_commands(text)
    assert len(errors) == 2
    assert len(ast.commands) == 1


def test_updateall_feature_rejects_name():
    ast, errors = parse_commands('updateall feature V set _name = "X";')
    assert errors


def test_static_duplicate_feature():
    # the builder checks the declarations, validate_static only the commands
    ast, errors = parse_script('root "R";\nfeature "A" "R" optional;\n'
                               'feature "A" "R" optional;\n')
    assert errors == []
    with pytest.raises(BuildError) as e:
        build_model(ast)
    assert str(e.value) == 'line 3: feature "A" is declared twice'


def test_static_undeclared_constraint_endpoint():
    ast, errors = parse_script('root "R";\nconstraint "R" requires "Ghost";\n')
    assert errors == []
    with pytest.raises(BuildError) as e:
        build_model(ast)
    assert str(e.value) == (
        'line 2: constraint (R requires Ghost) names unknown feature "Ghost"')


def test_static_double_attribute_assignment():
    ast, errors = parse_commands(
        'update feature "A" set x = numeric : 1, x = numeric : 2;')
    assert errors == []
    assert any("twice" in p for p in validate_static(ast))


def test_static_double_slot_update():
    ast, errors = parse_commands(
        'update constraint "A" requires "B" set leftfeature = "C", '
        'leftfeature = "D";')
    assert errors == []
    assert any("twice" in p for p in validate_static(ast))


@pytest.mark.parametrize("attr, first, second", [
    ("_name", '"B"', '"C"'),
    ("_parent", '"R"', "P._name"),
    ("_decomp", "optional", "alternative to \"S\""),
])
def test_a_structural_attribute_set_twice_is_an_error_where_the_reference_puts_it(
        attr, first, second):
    text = (f'remove feature "Z";\nupdate feature "A"\n  set {attr} = {first},\n'
            f"      {attr} = {second};\n")
    errors = parse_commands(text)[1]
    expected = reference_parse(text, declarations=False)[1]
    assert [e.message for e in errors] == [f"{attr} is set twice"]
    assert [(e.message, e.line, e.col) for e in errors] == [
        (e.message, e.line, e.col) for e in expected]


def test_updateall_constraint_takes_at_most_two_updates():
    ast, errors = parse_commands(
        'remove feature "Z";\nupdateall constraint V requires "B" set leftfeature = "C", '
        'rightfeature = "D", constrainttype = excludes;')
    assert errors == []
    assert validate_static(ast) == ["cmd #2: updateall constraint allows at most two updates"]
    ast = parse_commands('updateall constraint V requires "B" set leftfeature = "C", '
                         "constrainttype = excludes;")[0]
    assert validate_static(ast) == []


# -- build ------------------------------------------------------------------


def test_build_services(services):
    assert services.root == "Web Services"
    assert len(services.features) == 18
    assert validate(services) == []
    racing = services.features["3D Racing"]
    chess = services.features["Ultimate Chess"]
    assert racing.decomp is DecompKind.OR
    assert racing.group_id == chess.group_id > 0


def test_build_order_invariance():
    base = ('root "R";\n'
            'feature "A" "R" mandatory;\n'
            'feature "B" "A" or to "C";\n'
            'feature "C" "A" or to "B";\n'
            'constraint "B" requires "C";\n')
    shuffled = ('root "R";\n'
                'feature "C" "A" or to "B";\n'
                'feature "B" "A" or to "C";\n'
                'feature "A" "R" mandatory;\n'
                'constraint "B" requires "C";\n')
    assert isomorphic(build(base), build(shuffled))


def test_build_rejects_group_kind_conflict():
    text = ('root "R";\n'
            'feature "A" "R" or to "B";\n'
            'feature "B" "R" alternative to "A";\n')
    ast, errors = parse_script(text)
    assert errors == []
    with pytest.raises(BuildError):
        build_model(ast)


def test_build_rejects_unknown_parent():
    ast, errors = parse_script('root "R";\nfeature "A" "Ghost" optional;\n')
    assert errors == []
    with pytest.raises(BuildError):
        build_model(ast)


def test_build_rejects_parent_cycle():
    ast, errors = parse_script('root "R";\nfeature "A" "B" optional;\n'
                               'feature "B" "A" optional;\n')
    assert errors == []
    with pytest.raises(BuildError):
        build_model(ast)


# -- serialization ----------------------------------------------------------


def test_serialize_parse_fixpoint(services):
    text = serialize_declarations(services)
    again = build(text)
    assert isomorphic(services, again)
    assert serialize_declarations(again) == text


def test_serialize_golden_order():
    m = build('root "R" attribute n 1;\n'
              'feature "B" "R" optional;\n'
              'feature "A" "B" alternative to "A" attribute x 1.5;\n'
              'feature "C" "B" alternative to "A";\n'
              'constraint "A" excludes "C";\n')
    assert serialize_declarations(m) == (
        'root "R" attribute n 1;\n'
        'feature "B" "R" optional;\n'
        'feature "A" "B" alternative to "A" attribute x 1.5;\n'
        'feature "C" "B" alternative to "A";\n'
        'constraint "A" excludes "C";\n')


def test_serialize_real_formats():
    m = build('root "R" attribute a 0.5 attribute b 1000000.0;')
    text = serialize_declarations(m)
    assert "attribute a 0.5" in text
    assert "attribute b 1000000.0" in text
    assert "e" not in text.replace("feature", "").replace("attribute", "")
