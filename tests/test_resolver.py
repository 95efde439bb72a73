import gc
import random
from operator import itemgetter

import pytest

from feather import commands, resolver
from feather.expressions import (
    AttrRef,
    Binary,
    EvalError,
    FeatureRef,
    Lit,
    TypeCheckError,
    Unary,
    VarRef,
    compile_expr,
    referenced_usages,
)
from feather.model import Constraint, DecompKind, Feature, FeatureModel, join_key
from feather.parser import parse_commands
from feather.resolver import candidate_domain, resolve

from conftest import (
    ATTR_POOL,
    JOIN_VALUES,
    brute_force_resolve,
    build,
    column_answers,
    parse_expr,
    random_join_model,
    random_join_where,
    random_command,
    random_model,
    random_where,
    reference_variables,
    scan_columns,
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


def test_a_repeated_variable_is_rejected():
    # tuples have one name per declared variable, so each is declared once
    with pytest.raises(ValueError):
        resolve(model(), ["V", "V"], parse_expr("V.n > 0"))
    with pytest.raises(ValueError):
        resolve(model(), ["V", "W", "V"])


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
    assert referenced_usages(w).keys() == {"V", "W"}


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
        t, run = compile_expr(Lit(value))
        return join_key(t, run({}, {}))

    equal_pairs = 0
    for a in JOIN_VALUES:
        for b in JOIN_VALUES:
            t, run = compile_expr(Binary("=", Lit(a), Lit(b)))
            try:
                if callable(t):
                    t({}, {})  # the type pass
                holds = run({}, {}) is True
            except (TypeCheckError, EvalError):
                holds = False
            same_key = key(a) is not None and key(a) == key(b)
            assert same_key == holds, (a, b)
            equal_pairs += holds
    assert equal_pairs > len(JOIN_VALUES)  # 1 = 1.0 and 2 = 2.0 among them


def count_filter_pairs(monkeypatch) -> list:
    """Wrap the operators of the resolver's depth filters: each call appends
    its operator's name to the list returned."""
    tested = []

    def counting(name, op):
        def run(a, b):
            tested.append(name)
            return op(a, b)
        return run

    monkeypatch.setattr(resolver, "_BINARY_OPS",
                        {name: counting(name, op) for name, op in resolver._BINARY_OPS.items()})
    return tested


def test_sibling_join_work_grows_linearly(monkeypatch):
    """Pairs the depth filter tests for a sibling join double, not quadruple,
    with the groups."""
    tested = count_filter_pairs(monkeypatch)
    where = parse_expr("X._parent = Y._parent and X.w > Y.w")
    counts = {}
    for groups in (5, 10):
        lines = ['root "R";']
        for g in range(groups):
            lines.append(f'feature "P{g}" "R" optional;')
            lines += [f'feature "P{g}C{i}" "P{g}" optional attribute w {i};'
                      for i in range(20)]
        m = build("\n".join(lines) + "\n")
        tested.clear()
        assert len(resolve(m, ["X", "Y"], where).tuples) == groups * 190
        counts[groups] = len(tested)
    assert counts[5] >= 5 * 20 * 20  # X.w > Y.w, once per pair of siblings
    assert counts[10] <= 2 * counts[5] + 100


def test_tuples_follow_declaration_order_when_the_search_order_is_it(monkeypatch):
    # V carries both n and s, so its domain is the smaller one and is bound
    # first: the search order is the declaration order, and nothing is sorted
    reorders = []
    monkeypatch.setattr(resolver, "itemgetter",
                        lambda *i: reorders.append(i) or itemgetter(*i))
    rs = resolve(model(), ["V", "W"], parse_expr('V.n <> W.n and V.s <> "z"'))
    assert rs.tuples == [("A", "R"), ("A", "B"), ("A", "C"), ("C", "R"), ("C", "A")]
    assert reorders == []
    # the same clause with the variables declared the other way round
    rs = resolve(model(), ["W", "V"], parse_expr('V.n <> W.n and V.s <> "z"'))
    assert rs.tuples == [("R", "A"), ("R", "C"), ("A", "C"), ("B", "A"), ("C", "A")]
    assert reorders == [(1, 0)]


def test_execute_resolves_once_and_scans_each_domain_once(monkeypatch):
    """The benchmark wraps feather.commands.resolve and
    feather.resolver.candidate_domain by name, and counts as candidates the
    product of the domain sizes, taken before the one-variable filters."""
    resolves, sizes = [], []
    real_resolve, real_domain = commands.resolve, resolver.candidate_domain

    def counting_resolve(*args, **kwargs):
        resolves.append(args)
        return real_resolve(*args, **kwargs)

    def counting_domain(*args, **kwargs):
        out = real_domain(*args, **kwargs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(commands, "resolve", counting_resolve)
    monkeypatch.setattr(resolver, "candidate_domain", counting_domain)
    m = model()  # n on R, A, B, C; s on A, C, D
    cmd = parse_commands('add constraint X requires Y\n'
                         '  where X.n > 6 and Y.s = "x" and X.n > Y.n;')[0].commands[0]
    m2, diagnostics = commands.execute(m, cmd)
    assert diagnostics == []
    assert m2.constraints == [Constraint("B", "requires", "A"),
                              Constraint("C", "requires", "A")]
    assert len(resolves) == 1
    assert sorted(sizes) == [2, 4]  # Y needs n and s, X needs n


def test_execute_hands_each_where_usage_to_the_domain_scan_once(monkeypatch):
    usages, real_domain = [], resolver.candidate_domain

    def recording_domain(model, used):
        usages.append(list(used))
        return real_domain(model, used)

    monkeypatch.setattr(resolver, "candidate_domain", recording_domain)
    cmd = parse_commands("removeall feature V where V.n > 2;")[0].commands[0]
    commands.execute(model(), cmd)
    assert usages == [[("n", "numeric")]]


def test_execute_declares_the_variables_of_a_command_in_order(monkeypatch):
    # where-clause variables come last, sorted; checked against a walk over
    # the command's fields on 6,000 seeded random commands
    declared, real_resolve = [], commands.resolve

    def recording_resolve(model, variables, *args, **kwargs):
        declared.append(list(variables))
        return real_resolve(model, variables, *args, **kwargs)

    monkeypatch.setattr(commands, "resolve", recording_resolve)
    rng = random.Random(31337)
    for case in range(150):
        m = random_model(rng, max_features=25, max_attrs=4)
        for _ in range(40):
            cmd = random_command(rng, m)
            declared.clear()
            m, _ = commands.execute(m, cmd)
            assert declared == [reference_variables(cmd)], (case, cmd)


def test_resolve_leaves_no_reference_cycle():
    # the search is recursive; what resolve allocates must be freed by
    # reference counting when it returns, not left to the cyclic collector
    m = model()
    where = parse_expr("V.n < W.n and W.s <> V.s")
    gc.collect()
    gc.disable()
    try:
        assert resolve(m, ["V", "W"], where).tuples == [("A", "C")]
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the column path against the oracle ---------------------------------------

# A model draws each attribute from one pool. A pool of one type gives columns
# whose type rule is decided once per resolve; JOIN_VALUES gives mixed ones.
COLUMN_POOLS = (JOIN_VALUES, JOIN_VALUES, (0, 1, 2, 2**53, 2**53 + 1, 10**400),
                (0, 1, 2, 2**53, 2**53 + 1, 10**400), (1.0, 2.0, 2.5, float("inf"), float("nan")),
                ("F1", "red", "1"), (True, False))
STRUCTURAL_POOLS = {"_name": ("F0", "F1", "F2"), "_decomp": tuple(DecompKind)}
COLUMN_ATTRS = ATTR_POOL[:3] + ("_name", "_parent", "_decomp", "_decompID")


def random_column_model(rng):
    """A random model, and the pool of values of each attribute."""
    m = random_join_model(rng, max_features=7)
    pools = {attr: rng.choice(COLUMN_POOLS) for attr in ATTR_POOL[:3]}
    for f in m.features.values():
        f.attributes = {a: rng.choice(pools[a]) for a in f.attributes}
    return m, {**pools, **STRUCTURAL_POOLS, "_parent": STRUCTURAL_POOLS["_name"]}


def _column_term(rng, variables, m, pools):
    """A term: mostly a variable's attribute, else a named feature's, which
    may be missing or lack the attribute, else a literal."""
    r = rng.random()
    if r < 0.1:
        return Lit(rng.choice(JOIN_VALUES))
    if r < 0.25:
        name = rng.choice(list(m.features) + ["Ghost"])
        return AttrRef(FeatureRef(name), rng.choice(COLUMN_ATTRS))
    return AttrRef(VarRef(rng.choice(variables)), rng.choice(COLUMN_ATTRS))


def _column_comparison(rng, variables, m, pools, risk=0.35):
    """A comparison whose sides may, with probability `risk`, divide or take
    a modulo by zero, or overflow; the right one is often a value of the left
    one's pool."""
    left = _column_term(rng, variables, m, pools)
    if isinstance(left, AttrRef) and left.attr in pools and rng.random() < 0.6:
        right = Lit(rng.choice(pools[left.attr]))
        if not isinstance(right.value, DecompKind) and rng.random() < 0.5:
            right = Lit(rng.choice([v for v in JOIN_VALUES if type(v) is type(right.value)]))
    else:
        right = _column_term(rng, variables, m, pools)
    sides = [left, right]
    if rng.random() < risk:
        i = rng.randrange(2)
        risky = Lit(rng.choice([0, 0, 2, 0.5, 10**400, float("inf"), 1e308]))
        sides[i] = Binary(rng.choice(["+", "-", "*", "/", "%"]), sides[i], risky)
    pool = pools.get(getattr(left, "attr", None), JOIN_VALUES)
    numeric = pool is JOIN_VALUES or all(type(v) in (int, float) for v in pool)
    ops = ["<", "<=", ">", ">=", "=", "<>"] if numeric else ["=", "=", "<>"]
    return Binary(rng.choice(ops), *sides)


def _column_conjunct(rng, variables, m, pools):
    shape = rng.random()
    if shape < 0.1:  # a boolean column as the conjunct itself
        return AttrRef(VarRef(rng.choice(variables)), rng.choice(ATTR_POOL[:3]))
    if shape < 0.25:
        return Unary("not", _column_comparison(rng, variables, m, pools))
    if shape < 0.35:  # evaluated eagerly: an error on either side makes it false
        return Binary("or", _column_comparison(rng, variables, m, pools),
                      _column_comparison(rng, variables, m, pools, risk=0.8))
    if shape < 0.45:  # even where the left side is true
        column = AttrRef(VarRef(rng.choice(variables)), rng.choice(ATTR_POOL[:3]))
        risky = Binary(rng.choice(["/", "%", "*"]), column, Lit(rng.choice([0, 0, 1e308])))
        return Binary("or", Lit(True), Binary(">", risky, Lit(0)))
    if shape < 0.55:  # no variables at all
        return rng.choice([Lit(True), Lit(False), Binary("=", Lit(1), Lit(1.0)),
                           Binary(">", Binary("/", Lit(1), Lit(0)), Lit(0)),
                           Binary(">", AttrRef(FeatureRef("F0"), "size"), Lit(0))])
    if shape < 0.7 and len(variables) > 1:  # a hash join
        v, u = rng.sample(variables, 2)
        a = rng.choice(COLUMN_ATTRS)
        b = a if rng.random() < 0.7 else rng.choice(COLUMN_ATTRS)
        return Binary("=", AttrRef(VarRef(v), a), AttrRef(VarRef(u), b))
    if shape < 0.8:  # `=` between two columns keeps every type in the domain
        v = rng.choice(variables)
        mixed = [a for a in ATTR_POOL[:3] if pools[a] is JOIN_VALUES] or ATTR_POOL[:3]
        a = rng.choice(mixed)
        b = rng.choice([b for b in ATTR_POOL[:3] if b != a])
        return Binary(rng.choice(["=", "<>"]), AttrRef(VarRef(v), a), AttrRef(VarRef(v), b))
    return _column_comparison(rng, variables, m, pools)


def test_column_path_equals_the_oracle():
    rng = random.Random(20261018)
    satisfiable = 0
    for case in range(1200):
        m, pools = random_column_model(rng)
        variables = ("V", "W", "X")[:rng.choice([1, 1, 2, 2, 3])]
        where = _column_conjunct(rng, variables, m, pools)
        for _ in range(rng.choice([0, 0, 1, 1, 2])):
            where = Binary("and", where, _column_conjunct(rng, variables, m, pools))
        index = {name: i for i, name in enumerate(m.features)}
        want = sorted(brute_force_resolve(m, variables, where),
                      key=lambda t: [index[n] for n in t])
        assert resolve(m, variables, where).tuples == want, f"case {case}"
        satisfiable += bool(want)
    assert satisfiable >= 100


# attribute values of every type, several `=` to 5 or to 1, and literals
# that `=` compares across integer, real, boolean and string
KEY_VALUES = (5, 5.0, 1, 1.0, 0, 2.5, True, False, "5", "1", "red", 10**400)
KEY_LITERALS = (5, 5.0, True, "5", 1, 1.0, False, "1", "F1", DecompKind.OR)


def _literal_conjunct(rng, v):
    """`v.a = lit` or `lit = v.a`, the shape the resolver decides by key;
    the literal is often one of the attribute's values."""
    attr = rng.choice(ATTR_POOL[:2] + ("_name", "_decomp"))
    term = AttrRef(VarRef(v), attr)
    pool = KEY_VALUES if attr in ATTR_POOL else ("F0", "F1", DecompKind.OPTIONAL)
    lit = Lit(rng.choice(rng.choice([KEY_LITERALS, pool])))
    return Binary("=", term, lit) if rng.random() < 0.5 else Binary("=", lit, term)


def test_literal_key_filter_equals_the_oracle():
    rng = random.Random(20261020)
    satisfiable = 0
    for case in range(800):
        m = random_model(rng, max_features=8)
        for f in m.features.values():  # a column mixes types and misses values
            f.attributes = {a: rng.choice(KEY_VALUES) for a in ATTR_POOL[:2]
                            if rng.random() < 0.75}
        variables = ("V", "W")[:rng.randint(1, 2)]
        where = _literal_conjunct(rng, rng.choice(variables))
        if rng.random() < 0.6:
            other = rng.choice([
                _literal_conjunct(rng, rng.choice(variables)),
                random_where(rng, variables, m, depth=rng.randint(0, 1)),
                Binary("=", AttrRef(VarRef(variables[0]), rng.choice(ATTR_POOL[:2])),
                       AttrRef(VarRef(variables[-1]), rng.choice(ATTR_POOL[:2])))])
            where = Binary("and", *rng.sample([where, other], 2))
        index = {name: i for i, name in enumerate(m.features)}
        want = sorted(brute_force_resolve(m, variables, where),
                      key=lambda t: [index[n] for n in t])
        assert resolve(m, variables, where).tuples == want, f"case {case}"
        # domains that admit every type, so that the key alone must tell
        # true from 1 and "5" from 5
        wide = {v: [(a, "any") for a, _ in us]
                for v, us in referenced_usages(where).items()}
        assert resolve(m, variables, where, usages=wide).tuples == want, f"case {case}"
        satisfiable += bool(want)
    assert satisfiable >= 100


def test_buckets_follow_the_key_rules():
    # 1 = 1.0 with the names in feature order, true is not 1, "1" is not 1,
    # and NaN equals nothing, itself included; each answer is the oracle's,
    # and the buckets the answers are taken from are a scan's
    nan = float("nan")
    values = {"A": 1, "B": True, "C": 1.0, "D": nan, "E": "1", "F": 1, "G": 2.0}
    m = FeatureModel.with_root("R")
    for name, v in values.items():
        m.attach_feature(Feature(name, attributes={"a": v}), "R", DecompKind.OPTIONAL)
    expected = [(1, ["A", "C", "F"]), (1.0, ["A", "C", "F"]), (True, ["B"]),
                ("1", ["E"]), (nan, []), (2, ["G"]), (False, [])]  # 1 == True as dict keys
    for lit, names in expected:
        where = Binary("=", AttrRef(VarRef("V"), "a"), Lit(lit))
        assert brute_force_resolve(m, ("V",), where) == {(n,) for n in names}, lit
        assert resolve(m, ["V"], where).tuples == [(n,) for n in names], lit
    answers = column_answers(m)
    assert answers == scan_columns(m, answers)
    assert answers["a"][1] == {("numeric", 1): ["A", "C", "F"], ("boolean", True): ["B"],
                               ("string", "1"): ["E"], ("numeric", 2): ["G"]}


# -- comparison filters against the oracle -------------------------------------

# Pools of one type each, whose columns a comparison between two variables
# may filter by, and one that mixes integers with reals: its columns stay on
# the compiled check.
FILTER_POOLS = {
    "integer": (0, 1, 2, -3, 2**53, 2**53 + 1, 10**400),
    "real": (0.0, 1.0, 2.5, -3.0, float("inf"), float("-inf"), float("nan")),
    "string": ("F1", "red", "1", ""),
    "boolean": (True, False),
    "mixed": (0, 1, 1.0, 2.5, 10**400, float("inf"), float("nan")),
}
FILTER_ATTRS = ATTR_POOL[:3] + ("_name", "_decomp", "_decompID")
COMPARISONS = ("<", "<=", ">", ">=", "=", "<>")


def random_filter_model(rng):
    """A random model whose attributes each draw from one of FILTER_POOLS."""
    m = random_model(rng, max_features=7, max_attrs=0)
    pools = [FILTER_POOLS[rng.choice(list(FILTER_POOLS))] for _ in ATTR_POOL[:3]]
    for f in m.features.values():
        f.attributes = {a: rng.choice(pool) for a, pool in zip(ATTR_POOL, pools)
                        if rng.random() < 0.85}
    return m


def _comparison(rng, v, u):
    """`v.a op u.b` or `u.b op v.a`, often over one attribute."""
    a = rng.choice(FILTER_ATTRS)
    b = a if rng.random() < 0.7 else rng.choice(FILTER_ATTRS)
    sides = [AttrRef(VarRef(v), a), AttrRef(VarRef(u), b)]
    rng.shuffle(sides)
    return Binary(rng.choice(COMPARISONS), *sides)


def _filter_where(rng, variables, m):
    """A comparison between two variables: alone, beside a hash join of the
    same variables, with a second comparison, or with a conjunct that stays
    compiled (arithmetic, or any where-clause)."""
    v, u = rng.sample(variables, 2)
    conjuncts = [_comparison(rng, v, u)]
    shape = rng.randrange(4)
    if shape == 1:
        a = rng.choice(FILTER_ATTRS)
        conjuncts.append(Binary("=", AttrRef(VarRef(v), a), AttrRef(VarRef(u), a)))
    elif shape == 2:
        conjuncts.append(_comparison(rng, *rng.sample(variables, 2)))
    elif shape == 3:
        shifted = Binary("+", AttrRef(VarRef(u), rng.choice(ATTR_POOL[:3])), Lit(1))
        conjuncts.append(rng.choice([
            Binary(rng.choice(COMPARISONS), AttrRef(VarRef(v), rng.choice(ATTR_POOL[:3])),
                   shifted),
            random_where(rng, variables, m, depth=1)]))
    if len(variables) > 2 and rng.random() < 0.7:  # bind the third one too
        conjuncts.append(_comparison(rng, *rng.sample(variables, 2)))
    rng.shuffle(conjuncts)
    where = conjuncts[0]
    for c in conjuncts[1:]:
        where = Binary("and", where, c)
    return where


def test_comparison_filters_equal_the_oracle(monkeypatch):
    rng = random.Random(20261019)
    decided, types = set(), set()  # (operator, side of the filtered variable)
    filters = 0
    original = resolver._comparison_filter

    def tally(conjunct, var, domains, column_of):
        nonlocal filters
        found = original(conjunct, var, domains, column_of)
        if found is not None:
            filters += 1
            side = "left" if conjunct.left.subject.name == var else "right"
            decided.add((conjunct.op, side))
            mine = conjunct.left if side == "left" else conjunct.right
            types.add(column_of(mine)[2][domains[var][0]][0])
            # a column mixing integers with reals is never filtered
            assert len({type(x) for x in found[1].values()}) == 1
            assert len({type(x) for x in found[3].values()}) == 1
        return found

    monkeypatch.setattr(resolver, "_comparison_filter", tally)
    satisfiable = 0
    for case in range(1000):
        m = random_filter_model(rng)
        variables = ("V", "W", "X")[:rng.choice([2, 2, 3])]
        where = _filter_where(rng, variables, m)
        index = {name: i for i, name in enumerate(m.features)}
        want = sorted(brute_force_resolve(m, variables, where),
                      key=lambda t: [index[n] for n in t])
        assert resolve(m, variables, where).tuples == want, f"case {case}"
        satisfiable += bool(want)
    assert satisfiable >= 140 and filters >= 250
    assert decided == {(op, side) for op in COMPARISONS for side in ("left", "right")}
    assert types == {"integer", "real", "string", "boolean", "decomp", "decomp_id"}


def test_a_column_of_two_types_stays_on_the_compiled_check(monkeypatch):
    tested = count_filter_pairs(monkeypatch)
    where = parse_expr("X.w < Y.w")
    mixed = build('root "R";\nfeature "A" "R" optional attribute w 1;\n'
                  'feature "B" "R" optional attribute w 2.5;\n')
    assert resolve(mixed, ["X", "Y"], where).tuples == [("A", "B")]
    assert tested == []
    one_type = build('root "R";\nfeature "A" "R" optional attribute w 1.5;\n'
                     'feature "B" "R" optional attribute w 2.5;\n')
    assert resolve(one_type, ["X", "Y"], where).tuples == [("A", "B")]
    assert tested == [">"] * 4  # Y, bound second, is the right operand


# -- usages that leave out attributes of the where-clause ----------------------


@pytest.mark.parametrize("variables, text, usages, want", [
    (["V"], "V.n > 1", {"V": []}, [("A",), ("B",), ("C",)]),
    (["V"], "V.n = 7", {"V": []}, [("B",), ("C",)]),
    (["V", "W"], "V.n = W.n", {"V": []},
     [("R", "R"), ("A", "A"), ("B", "B"), ("B", "C"), ("C", "B"), ("C", "C")]),
    (["V", "W"], "V.n = W.n", {"W": [("n", "any")]},
     [("R", "R"), ("A", "A"), ("B", "B"), ("B", "C"), ("C", "B"), ("C", "C")]),
    (["V", "W"], "V.n < W.n", {"V": [("n", "numeric")]},
     [("R", "A"), ("R", "B"), ("R", "C"), ("A", "B"), ("A", "C")]),
])
def test_a_term_the_usages_leave_out_is_read_per_binding(variables, text, usages, want):
    # the domain then holds names without the attribute, D here, for which
    # the term fails to typecheck and the conjunct is false
    where = parse_expr(text)
    assert resolve(model(), variables, where, usages=usages).tuples == want
    assert resolve(model(), variables, where).tuples == want


def test_narrowed_usages_give_the_same_tuples():
    """Usages naming a random part of the where-clause's give the tuples of
    the full ones, over where-clauses that the literal filter, the hash join,
    the comparison filter and the compiled check each decide."""
    rng = random.Random(20261021)
    narrowed_cases = 0
    for case in range(1500):
        shape = case % 3
        if shape == 0:
            m = random_model(rng, max_features=10)
            variables = ("V", "W", "X")[:rng.randint(1, 3)]
            where = random_where(rng, variables, m)
        elif shape == 1:
            m = random_join_model(rng)
            variables = ("V", "W", "X")[:rng.randint(2, 3)]
            where = random_join_where(rng, variables, m)
        else:
            m = random_filter_model(rng)
            variables = ("V", "W", "X")[:rng.choice([2, 2, 3])]
            where = _filter_where(rng, variables, m)
        full = referenced_usages(where)
        narrowed = {v: [u for u in us if rng.random() < 0.5]
                    for v, us in full.items() if rng.random() < 0.8}
        narrowed_cases += narrowed != full
        assert resolve(m, variables, where, usages=narrowed).tuples == resolve(
            m, variables, where).tuples, f"case {case}"
    assert narrowed_cases >= 1200
