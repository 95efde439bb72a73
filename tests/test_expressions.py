import functools
import random

import pytest

from feather.expressions import (
    ARITH_OPS,
    REL_OPS,
    AttrRef,
    Binary,
    EvalError,
    FeatureRef,
    Lit,
    TypeCheckError,
    Unary,
    VarRef,
    compile_expr,
    compile_type,
    referenced_usages,
)
from feather.model import DecompKind, Feature, FeatureModel

from conftest import (
    _rand_value_expr,
    _random_operand,
    build,
    evaluate,
    parse_expr,
    random_join_where,
    random_model,
    random_where,
    typecheck,
)


def model():
    m = FeatureModel.with_root("R", {"n": 7, "r": 2.5, "b": True, "s": "hi"})
    m.attach_feature(Feature("A", attributes={"n": 3}), "R", DecompKind.MANDATORY)
    m.attach_feature(Feature("B", attributes={"n": -4}), "R", DecompKind.OR)
    m.attach_feature(
        Feature("C", attributes={"n": 2}), "R", DecompKind.OR,
        join_group=m.features["B"].group_id)
    return m


def ev(text, m=None, binding=None):
    m = m or model()
    e = parse_expr(text)
    typecheck(e, m, binding)
    return evaluate(e, m, binding)


def test_division_is_always_real():
    assert ev("7 / 2 = 3.5") is True
    e = parse_expr("7 / 2")
    assert typecheck(e, model()) == "real"
    assert evaluate(e, model()) == 3.5


def test_integer_arithmetic_stays_integer():
    e = parse_expr("7 + 2 * 3")
    assert typecheck(e, model()) == "integer"
    assert evaluate(e, model()) == 13


def test_mixed_arithmetic_promotes_to_real():
    e = parse_expr('"R".n + "R".r')
    assert typecheck(e, model()) == "real"
    assert evaluate(e, model()) == 9.5


def test_modulo_integers_only_c_truncation():
    assert ev("7 % 2 = 1") is True
    assert ev("-7 % 2 = -1") is True
    assert ev("7 % -2 = 1") is True
    with pytest.raises(TypeCheckError):
        typecheck(parse_expr("7.0 % 2 = 1"), model())


def test_division_and_modulo_by_zero():
    with pytest.raises(EvalError):
        evaluate(parse_expr("1 / 0"), model())
    with pytest.raises(EvalError):
        evaluate(parse_expr("1 % 0"), model())


def test_precedence_mul_before_add_before_relational():
    assert ev("1 + 2 * 3 = 7") is True
    assert ev("2 * 3 + 1 > 6 and 1 - 2 < 0") is True


def test_not_binds_tighter_than_and_or():
    assert ev("not false and false") is False
    assert ev("not (false and false)") is True
    assert ev("not false or true") is True


def test_and_binds_tighter_than_or():
    assert ev("true or false and false") is True
    assert ev("(true or false) and false") is False


def test_unary_minus():
    assert ev("-2 * 3 = -6") is True
    assert ev('- "A".n < 0') is True


def test_numeric_cross_type_equality():
    assert ev("2 = 2.0") is True
    assert ev("2 <> 2.0") is False
    assert ev("2 < 2.5") is True


def test_numeric_equality_is_exact():
    # 2**53 + 1 is the first integer a real cannot hold; `=` must not round it
    big = 2**53
    assert ev(f"{big + 1} = {big}") is False
    assert ev(f"{big + 1} <> {big}") is True
    assert ev(f"{big + 1} <= {big}") is False
    assert ev(f"{big} = {big}.0") is True
    assert ev(f"{big + 1} = {float(big + 1)!r}") is False  # the literal rounds to 2**53


def test_equality_rejects_mixed_classes():
    with pytest.raises(TypeCheckError):
        typecheck(parse_expr('1 = "one"'), model())
    with pytest.raises(TypeCheckError):
        typecheck(parse_expr('true = "true"'), model())
    with pytest.raises(TypeCheckError):
        typecheck(parse_expr("true = 1"), model())


def test_string_equality_on_structurals():
    assert ev('"A"._name = "A"') is True
    assert ev('"A"._parent = "R"') is True
    assert ev('"A"._parent = "A"._name') is False


def test_decomp_checks():
    assert ev('"A"._decomp = mandatory') is True
    assert ev('"B"._decomp = or') is True
    assert ev('"B"._decomp <> alternative') is True
    assert ev('"B"._decompID = "C"._decompID') is True
    assert ev('"A"._decompID = "B"._decompID') is False


def test_root_has_no_decomp():
    with pytest.raises(TypeCheckError):
        typecheck(parse_expr('"R"._decomp = mandatory'), model())
    with pytest.raises(TypeCheckError):
        typecheck(parse_expr('"R"._decompID = "A"._decompID'), model())


def test_no_short_circuit_type_checking():
    # the right conjunct references a missing attribute, so the whole
    # expression is ill formed even though the left side is false
    with pytest.raises(TypeCheckError):
        typecheck(parse_expr('false and "A".missing'), model())
    with pytest.raises(TypeCheckError):
        typecheck(parse_expr('true or "A".missing'), model())


def test_unknown_feature_and_attribute():
    with pytest.raises(TypeCheckError):
        typecheck(parse_expr('"Nope".n = 1'), model())
    with pytest.raises(TypeCheckError):
        typecheck(parse_expr('"A".b'), model())


def test_typecheck_is_dynamic_against_current_model():
    m = model()
    e = parse_expr('"A".n < 5')
    assert typecheck(e, m) == "boolean"
    m.features["A"].attributes["n"] = "now a string"
    with pytest.raises(TypeCheckError):
        typecheck(e, m)


def test_variable_binding():
    m = model()
    e = parse_expr("V.n < 0")
    assert evaluate(e, m, {"V": "B"}) is True
    assert evaluate(e, m, {"V": "A"}) is False
    with pytest.raises(TypeCheckError):
        typecheck(e, m, {})


def test_variables_in():
    e = parse_expr('V.n < W.n and "A".n = 3')
    assert referenced_usages(e).keys() == {"V", "W"}


def test_referenced_usages_contexts():
    u = referenced_usages(parse_expr("V.a < 5 and V.b"))
    assert ("a", "numeric") in u["V"]
    assert ("b", "boolean") in u["V"]
    u = referenced_usages(parse_expr('V.s = "x"'))
    assert ("s", "string") in u["V"]
    u = referenced_usages(parse_expr("V._decomp = or"))
    assert ("_decomp", "decomp") in u["V"]


def test_conflicting_usages_empty_domain():
    from feather.resolver import candidate_domain
    u = referenced_usages(parse_expr('V.a < 5 and V.a = "x"'))
    assert candidate_domain(model(), u["V"]) == []


# -- compiled expressions against the tree-walking typecheck + evaluate -------

# / 0 and % 0, an integer too large for a real, the first integer a real
# cannot hold, NaN and the infinities
EDGE_VALUES = (0, 0.0, -1, 10**400, 2**53 + 1, float("nan"), float("inf"), -float("inf"))


def _edge_model(rng):
    m = random_model(rng, max_features=8)
    for f in m.features.values():
        for attr in f.attributes:
            if rng.random() < 0.4:
                f.attributes[attr] = rng.choice(EDGE_VALUES)
    return m


def _arith_expr(rng, variables, m, depth=2):
    """Arithmetic and comparisons over attributes and edge values."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Lit(rng.choice(EDGE_VALUES + (2, 1.5, True, "red")))
        return _random_operand(rng, variables, m)
    if rng.random() < 0.15:
        return Unary(rng.choice(["-", "not"]), _arith_expr(rng, variables, m, depth - 1))
    if rng.random() < 0.05:  # 10**400 to the 11th power has too many digits to write
        terms = [_random_operand(rng, variables, m)] * 11
        return functools.reduce(lambda a, b: Binary("*", a, b), terms)
    return Binary(rng.choice(ARITH_OPS + REL_OPS + ("=",)),
                  _arith_expr(rng, variables, m, depth - 1),
                  _arith_expr(rng, variables, m, depth - 1))


def _random_binding(rng, variables, m):
    """Each variable bound to a feature, the root or a missing name, or unbound."""
    names = list(m.features) + [m.root, "Ghost"]
    return {v: rng.choice(names) for v in variables if rng.random() < 0.9}


def _outcome(fn):
    try:
        t, v = fn()
    except (TypeCheckError, EvalError) as e:
        return type(e), str(e)
    # 1 and 1.0 differ; NaN is a value like any other here
    return t, type(v), v if v == v else "NaN"


def _type_outcome(fn):
    try:
        return fn()
    except TypeCheckError as e:
        return TypeCheckError, str(e)


def test_compiled_expressions_equal_typecheck_and_evaluate():
    rng = random.Random(4242)
    variables = ["V", "W"]
    seen = {"value": 0, TypeCheckError: 0, EvalError: 0, "eval error first": 0}
    for case in range(500):
        m = _edge_model(rng)
        exprs = [random_where(rng, variables, m), random_join_where(rng, variables, m),
                 _rand_value_expr(rng, m, variables,
                                  rng.choice(["numeric", "boolean", "string", "inherited"])),
                 _arith_expr(rng, variables, m), _arith_expr(rng, variables, m)]
        for expr in exprs:
            run, run_type = compile_expr(expr), compile_type(expr)
            for _ in range(4):
                b = _random_binding(rng, variables, m)
                want = _outcome(lambda: (typecheck(expr, m, b), evaluate(expr, m, b)))
                got = _outcome(lambda: run(m.features, b))
                if got[0] is EvalError and want[0] is TypeCheckError:
                    seen["eval error first"] += 1  # eager: an operand failed first
                else:
                    assert got == want, (case, expr, b)
                assert (_type_outcome(lambda: run_type(m.features, b))
                        == _type_outcome(lambda: typecheck(expr, m, b))), (case, expr, b)
                # a slot runs the type pass and then the value pass: no exemption
                slot = _outcome(lambda: (run_type(m.features, b), run(m.features, b)[1]))
                assert slot == want, (case, expr, b)
                seen["value" if len(want) == 3 else want[0]] += 1
    assert min(seen.values()) >= 20, seen
