"""End-to-end acceptance criteria.

Each test prints one PASS line on success (visible with -s or in the
captured output); the assertions themselves carry the tolerances. The
computer-parts generator builds a 1,227-feature model with ground-truth
category sizes so the large replay counts are checked against known values.
"""

import random
import statistics
import time

from feather import commands
from feather.build import build_model
from feather.commands import RunMode, execute, run_script
from feather.model import DecompKind, Feature, FeatureModel
from feather.parser import parse_commands, parse_script
from feather.resolver import resolve
from feather.serializer import serialize_declarations
from feather.tvl import import_tvl
from feather.tvl_export import export_tvl

from conftest import (
    SERVICES,
    brute_force_resolve,
    build,
    column_answers,
    index_answers,
    isomorphic,
    model_state,
    random_command,
    random_model,
    random_where,
    run,
    scan_columns,
    scan_groups,
    scan_subtrees,
    validate,
)


def _ok(num, text):
    print(f"PASS criterion {num}: {text}")


# -- 1: services scenario suite ---------------------------------------------


def test_criterion_1_services_scenarios():
    started = time.perf_counter()
    services = build(SERVICES)

    bridge = """\
    add feature "Bridge Pro"
      with attributes (
        _parent = P._name,
        _decomp = or to ASibling,
        stype = string : "fun",
        extracost = numeric : 8)
      where P.stype = "basic"
        and P.price <= 15
        and ASibling._parent = P._name
        and ASibling.extracost > 0;
    """
    m, diags = run(services, bridge)
    assert diags == []
    assert m.features["Bridge Pro"].parent == "Package 1"
    assert m.features["Bridge Pro"].group_id == m.features["3D Racing"].group_id

    priceless = bridge.replace("and P.price <= 15\n        ", "")
    before = serialize_declarations(services)
    m, diags = run(services, priceless)
    assert [d.severity for d in diags] == ["error"]
    assert serialize_declarations(m) == before

    m, diags = run(services, """\
    removeall feature F
      where F._parent = "Package 1" and F.stype = "utility";
    """)
    assert diags == []
    assert len(services.features) - len(m.features) == 2

    m, diags = run(services, 'remove feature "Package 3";')
    assert diags == []
    assert len(services.features) - len(m.features) == 6

    m, diags = run(services, """\
    update feature F
      set _parent = "Package 2", _decomp = optional
      where F._parent = "Package 3" and F.stype = "fun";
    """)
    assert [d.severity for d in diags] == ["error"]
    assert serialize_declarations(m) == before

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _ok(1, f"services scenario suite exact in {elapsed:.2f}s")


# -- 2: resolver oracle equivalence -----------------------------------------


def test_criterion_2_resolver_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(424242)
    for case in range(500):
        model = random_model(rng, max_features=30, max_attrs=6)
        nvars = rng.randint(1, 3)
        variables = ("V", "W", "X")[:nvars]
        where = random_where(rng, variables, model)
        got = set(resolve(model, variables, where).tuples)
        want = brute_force_resolve(model, variables, where)
        assert got == want, f"case {case} diverged from the oracle"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _ok(2, f"500 random resolutions equal the brute-force oracle in {elapsed:.1f}s")


# -- 3: integrity fuzz -------------------------------------------------------


def test_criterion_3_integrity_fuzz():
    started = time.perf_counter()
    rng = random.Random(987654)
    total = 0
    while total < 10_000:
        model = random_model(rng, max_features=25, max_attrs=4)
        for _ in range(40):
            if total >= 10_000:
                break
            cmd = random_command(rng, model)
            before = serialize_declarations(model)
            after, results = execute(model, cmd)
            violations = validate(after)
            assert violations == [], (cmd, violations)
            if any(severity == "error" for severity, _ in results):
                assert serialize_declarations(after) == before, cmd
            model = after
            total += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _ok(3, f"{total} fuzzed commands kept every invariant in {elapsed:.1f}s")


# -- 4: single/multi equivalence --------------------------------------------


def _variable_free_updateall(rng, model):
    from feather.expressions import AttrRef, Binary, Lit, VarRef
    from feather.parser import AttrAssign, DecompSpec, UpdateAllFeatures

    where = Binary(rng.choice([">", "<=", "="]),
                   AttrRef(VarRef("V"), rng.choice(("cost", "rank", "size"))),
                   Lit(rng.randint(-2, 6)))
    cmd = UpdateAllFeatures(var="V", where=where)
    picks = rng.sample(["move", "attr", "attr2"], rng.randint(1, 2))
    if "move" in picks:
        cmd.parent = Lit(rng.choice(list(model.features)))
        cmd.decomp = DecompSpec(
            Lit(rng.choice([DecompKind.MANDATORY, DecompKind.OPTIONAL])), None)
    if "attr" in picks or "attr2" in picks or cmd.parent is None:
        cmd.attrs.append(AttrAssign(
            rng.choice(("cost", "rank")), "numeric",
            Lit(rng.choice([rng.randint(0, 9), 2.5]))))
    return cmd


def test_criterion_4_single_multi_equivalence():
    from feather.expressions import FeatureRef
    from feather.parser import (
        RemoveAllFeatures,
        RemoveFeature,
        UpdateAllFeatures,
        UpdateFeature,
    )
    from feather.commands import command_usages

    rng = random.Random(13579)
    for case in range(200):
        model = random_model(rng, max_features=20, max_attrs=4)
        if case % 2 == 0:
            cmd = _variable_free_updateall(rng, model)
        else:
            cmd = RemoveAllFeatures(
                var="V", where=random_where(rng, ["V"], model, depth=1))
        targets = [name for (name,) in resolve(
            model, ["V"], cmd.where, usages=command_usages(cmd)).tuples]

        multi, _ = execute(model, cmd)

        single = model
        for name in targets:
            if isinstance(cmd, UpdateAllFeatures):
                one = UpdateFeature(target=FeatureRef(name), parent=cmd.parent,
                                    decomp=cmd.decomp, attrs=cmd.attrs)
            else:
                one = RemoveFeature(target=FeatureRef(name))
            single, _ = execute(single, one)

        assert isomorphic(multi, single), f"case {case} diverged"
    _ok(4, "200 updateall/removeall commands equal their single-command expansions")


# -- 5 & 6: large replay -----------------------------------------------------

PRICING = ["Budget", "Low", "Mid", "High", "Ultra"]  # categories 1..5
PERF_WINDOWS = [(40 * k, 40 * k + 39) for k in range(5)]
RATED_PARTS = 600


def computer_model():
    """1,227 features: root, 42 variation points, 1,154 parts, 30 extras."""
    m = FeatureModel.with_root("Computer")
    vps = [f"VP{i:02d}" for i in range(1, 43)]
    for vp in vps:
        m.attach_feature(Feature(vp), "Computer", DecompKind.MANDATORY)
    categories = {k: [] for k in range(1, 6)}
    rated = {}
    for i in range(1154):
        name = f"Part{i:04d}"
        cat = i % 5 + 1
        attrs = {"priceCat": cat}
        if i < RATED_PARTS:
            attrs["rating"] = 40 * (i % 5) + 20
            rated[name] = attrs["rating"]
        m.attach_feature(Feature(name, attributes=attrs), vps[i % 42],
                         DecompKind.OPTIONAL)
        categories[cat].append(name)
    for i in range(1, 31):
        m.attach_feature(Feature(f"Misc{i:02d}"), vps[i - 1], DecompKind.OPTIONAL)
    assert len(m.features) == 1227
    return m, categories, rated


def branch_a_script():
    lines = ['add feature "Configuration Assistant"\n'
             '  with attributes ( _parent = "Computer", _decomp = mandatory );']
    first = f'"Pricing - {PRICING[4]}"'
    for k in range(5, 0, -1):
        anchor = "alternative" if k == 5 else f"alternative to {first}"
        lines.append(
            f'add feature "Pricing - {PRICING[k - 1]}"\n'
            f'  with attributes ( _parent = "Configuration Assistant", '
            f'_decomp = {anchor}, priceCategory = numeric : {k} );')
    for k in range(5, 0, -1):
        lines.append(
            f'updateall feature F\n'
            f'  set _parent = "Pricing - {PRICING[k - 1]}"\n'
            f'  where F.priceCat = {k};')
    for i in range(1, 43):
        lines.append(f'remove feature "VP{i:02d}";')
    return "\n".join(lines) + "\n"


def test_criterion_5_branch_a_replay():
    started = time.perf_counter()
    model, categories, _ = computer_model()
    ast, errors = parse_commands(branch_a_script())
    assert errors == []
    assert len(ast.commands) == 53

    after, diags, halted = run_script(model, ast.commands, RunMode.STOP_ON_ERROR)
    assert diags == [] and halted is None

    added = set(after.features) - set(model.features)
    removed = set(model.features) - set(after.features)
    moved = [n for n in after.features
             if n in model.features
             and after.features[n].parent != model.features[n].parent]
    assert len(added) == 6
    assert len(moved) == 1154
    assert len(removed) == 72
    for k, members in categories.items():
        target = f"Pricing - {PRICING[k - 1]}"
        assert all(after.features[n].parent == target for n in members)
    assert validate(after) == []

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _ok(5, f"53-command replay: 6 added, 1,154 moved, 72 removed in {elapsed:.1f}s")


def branch_b_script():
    lines = ['add feature "Configuration Assistant"\n'
             '  with attributes ( _parent = "Computer", _decomp = mandatory );',
             'add feature "CA - Pricing"\n'
             '  with attributes ( _parent = "Configuration Assistant", '
             '_decomp = mandatory );',
             'add feature "CA - Performance"\n'
             '  with attributes ( _parent = "Configuration Assistant", '
             '_decomp = mandatory );']
    for k in range(5, 0, -1):
        anchor = ("alternative" if k == 5
                  else f'alternative to "Pricing - {PRICING[4]}"')
        lines.append(
            f'add feature "Pricing - {PRICING[k - 1]}"\n'
            f'  with attributes ( _parent = "CA - Pricing", '
            f'_decomp = {anchor}, priceCategory = numeric : {k} );')
    for k in range(5, 0, -1):
        lo, hi = PERF_WINDOWS[k - 1]
        anchor = ("alternative" if k == 5
                  else f'alternative to "Performance - {PRICING[4]}"')
        lines.append(
            f'add feature "Performance - {PRICING[k - 1]}"\n'
            f'  with attributes ( _parent = "CA - Performance", '
            f'_decomp = {anchor}, perfMax = numeric : {hi}, '
            f'perfMin = numeric : {lo} );')
    lines.append('add constraint F excludes G\n'
                 '  where F.priceCategory <> G.priceCat;')
    lines.append('add constraint F excludes G\n'
                 '  where G.rating > F.perfMax\n'
                 '  or   G.rating < F.perfMin;')
    return "\n".join(lines) + "\n"


def test_criterion_6_branch_b_replay():
    started = time.perf_counter()
    model, categories, rated = computer_model()
    ast, errors = parse_commands(branch_b_script())
    assert errors == []
    assert len(ast.commands) == 15

    # combinatorial ground truth from the generator's category sizes
    parts = sum(len(v) for v in categories.values())
    price_excludes = sum(parts - len(v) for v in categories.values())
    perf_excludes = sum(
        sum(1 for r in rated.values() if r > hi or r < lo)
        for lo, hi in PERF_WINDOWS)
    assert price_excludes + perf_excludes == 7016

    after, diags, halted = run_script(model, ast.commands, RunMode.STOP_ON_ERROR)
    assert diags == [] and halted is None
    assert len(after.features) - len(model.features) == 13
    assert len(after.constraints) - len(model.constraints) == 7016
    assert validate(after) == []

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _ok(6, f"15-command replay: 13 features, 7,016 constraints in {elapsed:.1f}s")


# -- 7: performance sanity ---------------------------------------------------


def perf_model():
    """250 features, 88 constraints, three 30-feature attribute pools."""
    rng = random.Random(5150)
    m = FeatureModel.with_root("P000")
    names = [f"P{i:03d}" for i in range(1, 250)]
    for name in names:
        m.attach_feature(Feature(name), rng.choice(list(m.features)),
                         rng.choice([DecompKind.MANDATORY, DecompKind.OPTIONAL]))
    pools = {"a": names[0:30], "b": names[60:90], "c": names[120:150]}
    for attr, owners in pools.items():
        for i, name in enumerate(owners):
            m.features[name].attributes[attr] = i
    from feather.model import Constraint
    added = 0
    while added < 88:
        x, y = rng.sample(names, 2)
        if m.add_constraint(Constraint(x, "requires", y)):
            added += 1
    return m


def _median_runtime(model, text, runs=10):
    ast, errors = parse_commands(text)
    assert not errors, errors
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _, results = execute(model, ast.commands[0])
        times.append(time.perf_counter() - t0)
        assert not any(sev == "error" for sev, _ in results), results
    return statistics.median(times)


def test_criterion_7_performance_sanity():
    model = perf_model()
    zero_var = [
        'add feature "Fresh" with attributes '
        '( _parent = "P000", _decomp = optional );',
        'update feature "P061" set b = numeric : 99;',
        'remove feature "P249";',
        'add constraint "P010" requires "P020";',
    ]
    for text in zero_var:
        med = _median_runtime(model, text)
        assert med < 0.010, f"{text} median {med * 1000:.2f}ms"

    three_var = ('updateall feature V set a = numeric : V.a + 1 '
                 'where V.a > W.b and W.b > X.c and X.c < 10;')
    med = _median_runtime(model, three_var)
    assert med < 5.0, f"three-variable median {med:.2f}s"
    _ok(7, f"zero-variable commands < 10ms, three-variable command "
           f"median {med * 1000:.0f}ms")


# -- 8: round trips ----------------------------------------------------------


def test_criterion_8_round_trips():
    corpus = [build(SERVICES), computer_model()[0], perf_model()]
    rng = random.Random(11)
    corpus.extend(random_model(rng) for _ in range(50))
    for model in corpus:
        text = serialize_declarations(model)
        again = build(text)
        assert isomorphic(model, again)
        assert serialize_declarations(again) == text

    for seed in range(100):
        model = random_model(random.Random(1000 + seed), max_features=25)
        text = export_tvl(model)
        again = import_tvl(text)
        assert isomorphic(model, again)
        assert export_tvl(again) == text
    _ok(8, "declaration and TVL round trips exact on the whole corpus")


# -- 9: diagnostic transcript conformance ------------------------------------

DIAG_DECLS = """\
root "F1";
feature "F2" "F1" optional;
feature "F3" "F1" optional attribute p 2;
feature "F4" "F1" optional attribute q 1;
feature "F5" "F1" optional attribute r 1;
feature "F6" "F1" optional;
feature "F6-1" "F6" optional attribute g 1;
feature "F6-2" "F6" mandatory attribute g 1;
feature "F6-5" "F6" optional attribute k 1;
feature "F6-7" "F6" optional attribute h 1;
feature "F6-8" "F6" optional attribute k 1;
feature "FFF" "F6" optional attribute h 1;
feature "New Feature" "F1" optional;
feature "A New Name" "F1" optional;
constraint "F2" requires "F6";
"""

DIAG_COMMANDS = """\
add feature "Xx" with attributes ( _parent = "F6-None", _decomp = optional );
add feature "Harmless" with attributes ( _parent = "F1", _decomp = optional );
add feature "New Feature" with attributes ( _parent = "F1", _decomp = optional );
update feature "F2" set _decomp = D._decomp where D.g = 1;
update feature "F3" set p = numeric : 2;
update feature "F3" set _name = "A New Name";
updateall feature V set p = numeric : 1 where V.p > 100;
update feature "F4" set q = numeric : 3;
remove feature "Harmless";
add constraint "F5" requires "F4";
add constraint "F2" requires "F6";
add constraint "F6-5" requires "F6-7";
update constraint "F2" requires "F6" set rightfeature = R._name where R.h = 1;
update constraint "F2" requires "F6" set leftfeature = L._name where L.k = 1;
update constraint "F2" requires "F6" set leftfeature = Z._name where Z.p > 100;
update feature "F5" set r = numeric : 1;
removeall constraint W requires "F6" where W.p > 100;
removeall constraint "F4" excludes "F5";
"""

EXPECTED_DIAGNOSTICS = [
    'cmd #1 (addf) : The specified parent (i.e., "F6-None") does not exist',
    'cmd #3 (addf) : Feature name "New Feature" is in use',
    'cmd #4 (upf) : Command is ambiguous on what the new decomposition '
    'relation will be',
    'cmd #6 (upf) : New feature name "A New Name" is in use',
    'cmd #7 (upmf) : No resolutions could be found to satisfy the where clause',
    'cmd #11 (addc) : Following Cross-tree Constraint(s) already exist: '
    '(F2 requires F6)',
    'cmd #13 (upc) : Command is ambiguous on what the new right-feature '
    'will be (F6-7, FFF)',
    'cmd #14 (upc) : Command is ambiguous on what the new left-feature '
    'will be (F6-5, F6-8)',
    'cmd #15 (upc) : No resolutions could be found to satisfy the where clause',
    'cmd #17 (rmmc) : No resolutions could be found to satisfy the where clause',
    'cmd #18 (rmmc) : No constraints match the remove all command',
]


def test_criterion_9_diagnostic_transcript():
    model = build(DIAG_DECLS)
    ast, errors = parse_commands(DIAG_COMMANDS)
    assert errors == []
    _, diags, halted = run_script(model, ast.commands, RunMode.IGNORE_ALL)
    assert halted is None
    assert [d.render() for d in diags] == EXPECTED_DIAGNOSTICS
    _ok(9, "all 11 diagnostic categories render the exact transcript lines")


# -- execute never changes the model it is given -----------------------------


def test_execute_never_changes_the_model_it_is_given(monkeypatch):
    # a result shares its unchanged features with the input model, so an
    # edit made in place would show in the input; rerun criteria 1, 3, 5 and
    # 6 with every command checked against a snapshot of its input
    checked, original = [], commands.execute

    def checked_execute(model, cmd):
        before = model_state(model)
        result = original(model, cmd)
        assert model_state(model) == before, cmd
        checked.append(cmd)
        return result

    monkeypatch.setattr(commands, "execute", checked_execute)  # run_script's
    monkeypatch.setitem(globals(), "execute", checked_execute)  # criterion 3's
    test_criterion_1_services_scenarios()
    test_criterion_3_integrity_fuzz()
    test_criterion_5_branch_a_replay()
    test_criterion_6_branch_b_replay()
    assert len(checked) == 5 + 10_000 + 53 + 15


def test_indices_answer_as_a_scan_after_every_command(monkeypatch):
    # rerun criterion 3's stream; after every command the subtree of each
    # feature and the members of each group must be what a scan finds
    checked, original = [], commands.execute

    def checked_execute(model, cmd):
        after, results = original(model, cmd)
        assert index_answers(after) == (scan_subtrees(after), scan_groups(after)), cmd
        checked.append(cmd)
        return after, results

    monkeypatch.setitem(globals(), "execute", checked_execute)
    test_criterion_3_integrity_fuzz()
    assert len(checked) == 10_000


def test_columns_answer_as_a_scan_after_every_command(monkeypatch):
    # rerun criterion 3's stream; after every command each attribute column
    # that the model given and the model returned keep, with its buckets
    # where built, must be what a scan of that model's features finds
    checked, kept, original = [], {"columns": 0, "buckets": 0}, commands.execute

    def checked_execute(model, cmd):
        after, results = original(model, cmd)
        for m in (model, after):
            answers = column_answers(m)
            assert answers == scan_columns(m, answers), cmd
        kept["columns"] += len(answers)
        kept["buckets"] += sum(built is not None for _, built in answers.values())
        checked.append(cmd)
        return after, results

    monkeypatch.setitem(globals(), "execute", checked_execute)
    test_criterion_3_integrity_fuzz()
    assert len(checked) == 10_000
    assert kept["columns"] >= 20_000 and kept["buckets"] >= 1_000, kept
