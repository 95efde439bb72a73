import random

from feather import expressions, resolver
from feather.expressions import (
    Binary,
    EvalError,
    Lit,
    TypeCheckError,
    compile_expr,
    referenced_usages,
    variables_in,
)
from feather.resolver import (
    NO_RESOLUTION,
    Ambiguous,
    candidate_domain,
    derive_unambiguous,
    resolve,
)

from conftest import (
    JOIN_VALUES,
    brute_force_resolve,
    build,
    parse_expr,
    random_join_model,
    random_join_where,
    random_model,
    random_where,
)


def model():
    return build('root "R" attribute n 1;\n'
                 'feature "A" "R" optional attribute n 5 attribute s "x";\n'
                 'feature "B" "R" optional attribute n 7;\n'
                 'feature "C" "A" or to "C" attribute n 7 attribute s "y";\n'
                 'feature "D" "A" or to "C" attribute s "y";\n')


def test_single_variable_filtering():
    m = model()
    w = parse_expr("V.n > 4")
    rs = resolve(m, ["V"], w)
    assert rs.tuples == [("A",), ("B",), ("C",)]


def test_attribute_presence_prunes_domain():
    m = model()
    u = referenced_usages(parse_expr('V.s = "y"'))
    assert candidate_domain(m, u["V"]) == ["A", "C", "D"]


def test_declaration_order_of_results():
    m = model()
    rs = resolve(m, ["V", "W"], parse_expr("V.n < W.n"))
    assert rs.tuples == [("R", "A"), ("R", "B"), ("R", "C"),
                         ("A", "B"), ("A", "C")]


def test_tuples_follow_declaration_order_whatever_the_search_order():
    # W has the smaller domain (only A and C carry both n and s), so the
    # search binds W first and meets the tuples W-major
    rs = resolve(model(), ["V", "W"], parse_expr('V.n <> W.n and W.s <> "z"'))
    assert rs.tuples == [("R", "A"), ("R", "C"), ("A", "C"), ("B", "A"), ("C", "A")]


def test_join_variables_across_conjuncts():
    m = model()
    w = parse_expr('V._parent = W._name and W.n = 5')
    rs = resolve(m, ["V", "W"], w)
    assert rs.tuples == [("C", "A"), ("D", "A")]


def test_no_resolution_and_ambiguity_derivation():
    m = model()
    empty = resolve(m, ["V"], parse_expr("V.n > 100"))
    assert derive_unambiguous(empty, lambda b: b["V"]) is NO_RESOLUTION

    two = resolve(m, ["V"], parse_expr("V.n = 7"))
    derived = derive_unambiguous(two, lambda b: b["V"])
    assert isinstance(derived, Ambiguous)
    assert derived.values == ["B", "C"]

    same = derive_unambiguous(two, lambda b: m.features[b["V"]].attributes["n"])
    assert same == 7


def test_derivation_distinguishes_int_from_real():
    m = model()
    rs = resolve(m, ["V"], parse_expr('V._name = "A" or V._name = "B"'))
    derived = derive_unambiguous(
        rs, lambda b: 5 if b["V"] == "A" else 5.0)
    assert isinstance(derived, Ambiguous)


def test_failing_binding_is_excluded_not_fatal():
    # V.s only exists on some features; bindings without it simply drop out
    m = model()
    rs = resolve(m, ["V"], parse_expr('V.s = "y" and V.n / (V.n - 7) >= 0'))
    # C has n = 7 so the division raises for it; only bindings that evaluate
    # cleanly to true remain
    assert rs.tuples == []


def test_oracle_equivalence_quick():
    rng = random.Random(20240817)
    for _ in range(60):
        m = random_model(rng, max_features=12)
        nvars = rng.randint(1, 3)
        variables = ["V", "W", "X"][:nvars]
        w = random_where(rng, variables, m)
        got = set(resolve(m, variables, w).tuples)
        want = brute_force_resolve(m, variables, w)
        assert got == want


def test_resolve_without_where_uses_command_usages():
    m = model()
    usages = {"V": [("s", "string")]}
    rs = resolve(m, ["V"], None, usages=usages)
    assert rs.tuples == [("A",), ("C",), ("D",)]


def test_variables_in_helper():
    w = parse_expr('V.n = 1 and "A".n = W.n')
    assert variables_in(w) == {"V", "W"}


def test_equality_joins_equal_the_oracle():
    rng = random.Random(31337)
    satisfiable = 0
    for case in range(500):
        m = random_join_model(rng)
        variables = ("V", "W", "X")[:rng.randint(2, 3)]
        w = random_join_where(rng, variables, m)
        want = brute_force_resolve(m, variables, w)
        assert set(resolve(m, variables, w).tuples) == want, f"case {case}"
        satisfiable += bool(want)
    assert satisfiable >= 100


def test_join_keys_follow_equality():
    m = build('root "R" attribute n 1;\n'
              'feature "A" "R" optional attribute n 1.0 attribute s "R";\n'
              'feature "B" "R" optional attribute n true attribute s "1";\n'
              'feature "C" "R" alternative to "C" attribute n 2;\n'
              'feature "D" "R" alternative to "C";\n')
    assert resolve(m, ["V", "W"], parse_expr("V.n = W.n and V._name <> W._name")
                   ).tuples == [("R", "A"), ("A", "R")]
    assert resolve(m, ["V", "W"], parse_expr("V.s = W._name")).tuples == [("A", "R")]
    assert resolve(m, ["V", "W"], parse_expr("V._decompID = W._decompID and W.n = 2")
                   ).tuples == [("C", "C"), ("D", "C")]
    # optional features share decompID 0; the root has none
    assert resolve(m, ["V", "W"], parse_expr('V._decompID = W._decompID and W._name = "A"')
                   ).tuples == [("A", "A"), ("B", "A")]


def test_equal_join_keys_are_exactly_equality():
    """The hash index alone decides a join conjunct, so two values must share
    a key exactly when `=` on them type-checks and is true."""
    def key(value):
        return resolver._join_key({}, compile_expr(Lit(value)), {})

    equal_pairs = 0
    for a in JOIN_VALUES:
        for b in JOIN_VALUES:
            try:
                holds = compile_expr(Binary("=", Lit(a), Lit(b)))({}, {})[1] is True
            except (TypeCheckError, EvalError):
                holds = False
            same_key = key(a) is not None and key(a) == key(b)
            assert same_key == holds, (a, b)
            equal_pairs += holds
    assert equal_pairs > len(JOIN_VALUES)  # 1 = 1.0 and 2 = 2.0 among them


def test_sibling_join_work_grows_linearly(monkeypatch):
    """Compiled-condition calls for a sibling join double, not quadruple, with the groups."""
    calls = 0
    original = expressions.compile_expr

    def counting(expr):
        compiled = original(expr)

        def run(*args):
            nonlocal calls
            calls += 1
            return compiled(*args)
        return run

    monkeypatch.setattr(resolver, "compile_expr", counting)
    where = parse_expr("X._parent = Y._parent and X.w > Y.w")
    counts = {}
    for groups in (5, 10):
        lines = ['root "R";']
        for g in range(groups):
            lines.append(f'feature "P{g}" "R" optional;')
            lines += [f'feature "P{g}C{i}" "P{g}" optional attribute w {i};'
                      for i in range(20)]
        m = build("\n".join(lines) + "\n")
        calls = 0
        assert len(resolve(m, ["X", "Y"], where).tuples) == groups * 190
        counts[groups] = calls
    assert counts[10] <= 2 * counts[5] + 100
