"""Shared fixtures and generators for the test suite.

The services model is a small hand-built fixture exercised by most command
tests. The random generators produce arbitrary well-formed models, where
clauses, and commands for the property and fuzz tests; everything is driven
by a seeded random.Random so failures reproduce.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple

import pytest

from feather.build import BuildError, _find, _union, build_model
from feather import commands
from feather.commands import NO_RESOLUTIONS_MSG, CommandError, RunMode, _listing, run_script
from feather.expressions import (
    _BINARY_OPS,
    _UNARY_OPS,
    AttrRef,
    Binary,
    EvalError,
    FeatureRef,
    Lit,
    TypeCheckError,
    Unary,
    VarRef,
    _binary_type,
    _unary_type,
)
from feather.model import (DECOMP, DECOMP_ID, NUMERIC, STRING, STRUCTURAL, Constraint, DecompKind,
                           Feature, FeatureModel, attr_reader, type_of)
from feather.parser import (
    BINARY_PRECEDENCE,
    DECOMP_KEYWORDS,
    MAX_EXPR_DEPTH,
    AddConstraint,
    AddFeature,
    AttrAssign,
    Command,
    DecompSpec,
    ParseError,
    RemoveAllConstraints,
    RemoveAllFeatures,
    RemoveConstraint,
    RemoveFeature,
    ScriptAst,
    UpdateAllConstraints,
    UpdateAllFeatures,
    UpdateConstraint,
    UpdateFeature,
    parse_commands,
    parse_script,
)
from feather.resolver import ResolutionSet
from feather.tokens import (KEYWORDS, STRING_PUNCT, SYMBOLS, TVL_KEYWORDS, LexError,
                            Lexicon, Token, _tvl_word, lex)
from feather.tvl import TvlError, _TvlParser

SERVICES = """\
root "Web Services";
feature "Package 1" "Web Services" optional attribute stype "basic" attribute price 12.5;
feature "My Way or Highway" "Package 1" optional attribute stype "utility";
feature "Highway Jam" "Package 1" optional attribute stype "utility";
feature "Annoyed Birds" "Package 1" optional attribute stype "fun";
feature "3D Racing" "Package 1" or to "3D Racing" attribute stype "fun" attribute extracost 6;
feature "Ultimate Chess" "Package 1" or to "3D Racing" attribute stype "fun" attribute extracost 9;
feature "Package 2" "Web Services" optional attribute stype "basic" attribute price 24.99;
feature "Don't Wait in the City" "Package 2" alternative to "Don't Wait in the City" attribute stype "fun" attribute extracost 3;
feature "All Sideways" "Package 2" alternative to "Don't Wait in the City" attribute stype "fun" attribute extracost 4;
feature "Package 3" "Web Services" optional attribute stype "premium" attribute price 30.0;
feature "Dating Club" "Package 3" or to "Dating Club" attribute stype "fun" attribute extracost 8;
feature "Video Chat" "Package 3" or to "Dating Club" attribute stype "fun" attribute extracost 2;
feature "Stock Wizard" "Package 3" optional attribute stype "utility";
feature "Money Money Money" "Package 3" optional attribute stype "utility";
feature "Bull Market" "Package 3" optional attribute stype "utility";
feature "Infrastructure" "Web Services" mandatory;
feature "High Speed Connection Protocol" "Infrastructure" optional;
constraint "Video Chat" requires "High Speed Connection Protocol";
constraint "Highway Jam" excludes "All Sideways";
"""


def build(text: str) -> FeatureModel:
    ast, errors = parse_script(text)
    assert not errors, errors
    return build_model(ast)


def run(model: FeatureModel, command_text: str, mode=RunMode.IGNORE_ALL):
    ast, errors = parse_commands(command_text)
    assert not errors, errors
    result, diagnostics, _ = run_script(model, ast.commands, mode)
    return result, diagnostics


def parse_expr(text: str):
    """Parse a standalone expression through a where-clause."""
    ast, errors = parse_commands(f"removeall feature ZZZ where {text};")
    assert not errors, errors
    return ast.commands[0].where


@pytest.fixture
def services() -> FeatureModel:
    return build(SERVICES)


# -- structural comparison --------------------------------------------------


def group_partition(model: FeatureModel) -> set:
    """Sibling groups as frozensets of names; group ids do not matter."""
    return {frozenset(g) for g in scan_groups(model).values()}


def isomorphic(a: FeatureModel, b: FeatureModel) -> bool:
    """Equality up to group id numbering and declaration order."""
    if set(a.features) != set(b.features) or a.root != b.root:
        return False
    for name, fa in a.features.items():
        fb = b.features[name]
        if (fa.parent, fa.decomp, fa.attributes) != (fb.parent, fb.decomp, fb.attributes):
            return False
        if (fa.group_id > 0) != (fb.group_id > 0):
            return False
    if group_partition(a) != group_partition(b):
        return False
    return ({c.effect_key() for c in a.constraints}
            == {c.effect_key() for c in b.constraints})


def model_state(model: FeatureModel) -> tuple:
    """Everything a model holds, as values: equal states mean no edit."""
    features = [(n, f.name, f.parent, f.decomp, f.group_id, dict(f.attributes))
                for n, f in model.features.items()]
    return features, model.constraints, model.root, model.next_group_id


# -- the model invariants ------------------------------------------------------
#
# The program checks each invariant where an edit or a front end could break
# it; this checks all of them on a whole model, as the oracle the tests call.


def validate(model: FeatureModel) -> list:
    """Check every model invariant; returns a list of violation strings."""
    problems = []
    roots = [f for f in model.features.values() if f.parent is None]
    if model.root not in model.features:
        problems.append(f"root: root name {model.root!r} is not a feature")
    if len(roots) != 1:
        problems.append(f"root: expected exactly one root, found {len(roots)}")
    elif roots[0].name != model.root:
        problems.append(
            f"root: parentless feature {roots[0].name!r} is not the declared root"
        )
    if roots and (roots[0].decomp is not None or roots[0].group_id != 0):
        problems.append("root: root carries decomposition information")

    for name, f in model.features.items():
        if f.name != name:
            problems.append(f"naming: key {name!r} maps to feature {f.name!r}")
        if f.parent is None:
            continue
        if f.parent not in model.features:
            problems.append(f"tree: parent of {name!r} ({f.parent!r}) does not exist")
        if f.decomp is None:
            problems.append(f"decomp: non-root {name!r} has no decomposition kind")
        elif f.decomp.is_group != (f.group_id > 0):
            problems.append(
                f"group: {name!r} has kind {f.decomp} but group id {f.group_id}"
            )
        for attr in f.attributes:
            if attr in STRUCTURAL or not attr[:1].islower():
                problems.append(f"attribute: {name!r} has bad identifier {attr!r}")

    # parent graph must be a tree rooted at the root; a walk stops at the
    # first feature already known to lead into a cycle or not
    cyclic: dict = {}
    for name in model.features:
        path = set()
        n = name
        while n in model.features and n not in cyclic and n not in path:
            path.add(n)
            n = model.features[n].parent
        verdict = cyclic.get(n, n in path)
        cyclic.update(dict.fromkeys(path, verdict))
    problems += [f"tree: cycle through {name!r}"
                 for name in model.features if cyclic[name]]

    groups: dict = {}
    for f in model.features.values():
        if f.group_id > 0:
            groups.setdefault(f.group_id, []).append(f)
    for gid, members in groups.items():
        if len({m.parent for m in members}) > 1:
            problems.append(f"group: members of group {gid} have different parents")
        if len({m.decomp for m in members}) > 1:
            problems.append(f"group: members of group {gid} have different kinds")
        if gid >= model.next_group_id:
            problems.append(f"group: id {gid} not below next_group_id counter")

    for key, c in model._constraints.items():
        for end in (c.left, c.right):
            if end not in model.features:
                problems.append(f"constraint: {c} names unknown feature {end!r}")
        if key != c.effect_key():
            problems.append(f"constraint: {c} is stored under key {key!r}")
    return problems


# -- the variables of a command ----------------------------------------------


def _variable_names(expr) -> set:
    if isinstance(expr, VarRef):
        return {expr.name}
    if isinstance(expr, AttrRef):
        return _variable_names(expr.subject)
    if isinstance(expr, Unary):
        return _variable_names(expr.operand)
    if isinstance(expr, Binary):
        return _variable_names(expr.left) | _variable_names(expr.right)
    return set()


def reference_variables(cmd: Command) -> list:
    """A command's feature variables in the order `execute` declares them:
    by first occurrence over the command's fields, the where-clause last,
    the variables of one expression sorted among themselves."""
    found: dict = {}
    if isinstance(cmd, (UpdateAllFeatures, RemoveAllFeatures)):
        found[cmd.var] = None

    def visit(node):
        if isinstance(node, (Lit, AttrRef, Unary, Binary, VarRef, FeatureRef)):
            found.update(dict.fromkeys(sorted(_variable_names(node))))
        elif isinstance(node, (DecompSpec, AttrAssign)):
            for field in node._fields:
                visit(getattr(node, field))
        elif isinstance(node, list):
            for item in node:
                visit(item)

    for field in cmd._fields:
        if field != "where":
            visit(getattr(cmd, field))
    visit(cmd.where)
    return list(found)


# -- scanning reference for the model's indices ------------------------------


def scan_subtrees(model: FeatureModel) -> dict:
    """Each feature's name -> the names of its subtree, by walks up the tree."""
    subtrees = {name: {name} for name in model.features}
    for name, f in model.features.items():
        n = f.parent
        while n is not None:
            subtrees[n].add(name)
            n = model.features[n].parent
    return subtrees


def scan_groups(model: FeatureModel) -> dict:
    """Each group id in use -> the names of its members."""
    groups: dict = {}
    for f in model.features.values():
        if f.group_id > 0:
            groups.setdefault(f.group_id, set()).add(f.name)
    return groups


def index_answers(model: FeatureModel) -> tuple:
    """What `subtree` answers for every feature and `group_members` for
    every group id in use, in the form of (scan_subtrees, scan_groups)."""
    groups = {g: set(model.group_members(g)) for g in range(1, model.next_group_id + 1)}
    return ({name: model.subtree(name) for name in model.features},
            {g: members for g, members in groups.items() if members})


# -- scanning reference for the model's attribute columns --------------------


def equality_key(t: str, value):
    """The class of a typed value under `=`, stated apart from the resolver:
    a number by its value, so 1 = 1.0, and NaN in none; any other value with
    its type, so true is not 1."""
    if t in NUMERIC:
        return None if value != value else ("numeric", value)
    return t, value


def column_answers(model: FeatureModel) -> dict:
    """Each attribute the model keeps a column of -> (its entries in order,
    its buckets or None where none are built)."""
    return {attr: (list(column.items()),
                   None if buckets is None else {k: list(v) for k, v in buckets.items()})
            for attr, (column, buckets) in (model._columns or {}).items()}


def scan_columns(model: FeatureModel, answers: dict) -> dict:
    """What column_answers should say of the attributes in `answers`, from
    a scan of the features; buckets only where `answers` has them."""
    scanned = {}
    for attr, (_, built) in answers.items():
        read = attr_reader(attr)
        entries = [(f.name, read(f)) for f in model.features.values() if read(f) is not None]
        buckets: dict = {}
        for name, pair in entries:
            if (key := equality_key(*pair)) is not None:
                buckets.setdefault(key, []).append(name)
        scanned[attr] = (entries, None if built is None else buckets)
    return scanned


def reference_deriver(slot, ambiguity_message, list_values=True, constant=False):
    """commands._deriver with every slot evaluated under every tuple, as it
    was before a slot naming no variable was evaluated once per command."""
    def derive(resolutions):
        values: dict = {}
        for t in resolutions.tuples:
            v = slot(dict(zip(resolutions.variables, t)))
            values.setdefault((type(v), v), v)
        if len(values) > 1:
            if list_values:
                raise CommandError(f"{ambiguity_message} {_listing(values.values())}")
            raise CommandError(ambiguity_message)
        [value] = values.values()
        return value
    return derive


def per_tuple_slots(monkeypatch) -> None:
    """Make `feather.commands` derive every slot per tuple and group an
    `updateall feature` by target, as it did before constant slots."""
    monkeypatch.setattr(commands, "_deriver", reference_deriver)
    monkeypatch.setattr(commands, "_varies", lambda *parts: True)


def reference_remove_all(model: FeatureModel, targets) -> tuple:
    """`removeall feature` over the resolved target names, one target at a
    time as the program once did it: each subtree found by walks up the
    tree, the constraints filtered after each removal. Returns (model',
    diagnostics), as `execute` does."""
    if not targets:
        return model, [("warning", NO_RESOLUTIONS_MSG)]
    features, constraints, diagnostics = dict(model.features), model.constraints, []
    for name in targets:
        if name == model.root:
            diagnostics = [("warning", "Command had a partial effect: the root "
                                       "feature cannot be removed")]
            continue
        doomed = set()
        for n in features:
            up = n
            while up is not None and up != name:
                up = features[up].parent
            if up == name:
                doomed.add(n)
        for n in doomed:
            del features[n]
        constraints = [c for c in constraints
                       if c.left not in doomed and c.right not in doomed]
    return FeatureModel(features, model.root, model.next_group_id, model.tvl_string_enum,
                        {c.effect_key(): c for c in constraints}), diagnostics


# -- tree-walking reference for the compiled expressions --------------------
#
# typecheck and evaluate walk the tree once per binding. The program compiles
# each expression into a type and a value closure instead
# (expressions.compile_expr); these are the reference they are tested against.


def _attr_type(model: FeatureModel, fname: str, attr: str) -> str:
    if fname not in model.features:
        raise TypeCheckError(f'there is no feature with the name "{fname}"')
    f = model.features[fname]
    if attr == "_name":
        return STRING
    if attr == "_parent":
        return STRING
    if attr == "_decomp":
        if f.is_root:
            raise TypeCheckError(
                f'the root feature "{fname}" has no decomposition relation'
            )
        return DECOMP
    if attr == "_decompID":
        if f.is_root:
            raise TypeCheckError(
                f'the root feature "{fname}" has no decomposition relation'
            )
        return DECOMP_ID
    if attr not in f.attributes:
        raise TypeCheckError(f'feature "{fname}" has no attribute named {attr}')
    return type_of(f.attributes[attr])


def _subject_name(subject, binding: dict) -> str:
    if isinstance(subject, FeatureRef):
        return subject.name
    name = binding.get(subject.name)
    if name is None:
        raise TypeCheckError(f"unbound feature variable {subject.name}")
    return name


def typecheck(expr, model: FeatureModel, binding: dict | None = None) -> str:
    """Return the expression's type or raise TypeCheckError.

    The check is total: `and`/`or` do not short-circuit, every subterm must
    be well formed.
    """
    binding = binding or {}
    if isinstance(expr, Lit):
        return type_of(expr.value)
    if isinstance(expr, AttrRef):
        return _attr_type(model, _subject_name(expr.subject, binding), expr.attr)
    if isinstance(expr, Unary):
        return _unary_type(expr.op, typecheck(expr.operand, model, binding))
    if isinstance(expr, Binary):
        lt = typecheck(expr.left, model, binding)
        rt = typecheck(expr.right, model, binding)
        return _binary_type(expr.op, lt, rt)
    raise TypeError(f"not an expression node: {expr!r}")


def _attr_value(model: FeatureModel, fname: str, attr: str):
    f = model.features[fname]
    if attr == "_name":
        return f.name
    if attr == "_parent":
        return f.parent if f.parent is not None else ""
    if attr == "_decomp":
        return f.decomp
    if attr == "_decompID":
        return ("decompID", f.group_id)
    return f.attributes[attr]


def evaluate(expr, model: FeatureModel, binding: dict | None = None):
    """Evaluate a typechecked expression.

    Raises EvalError on division or modulo by zero and on a number out of
    range: an integer too large to convert to a real or to write in decimal,
    or a real result that is not finite.
    """
    binding = binding or {}
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, AttrRef):
        return _attr_value(model, _subject_name(expr.subject, binding), expr.attr)
    if isinstance(expr, Unary):
        return _UNARY_OPS[expr.op](evaluate(expr.operand, model, binding))
    if isinstance(expr, Binary):
        a = evaluate(expr.left, model, binding)
        b = evaluate(expr.right, model, binding)
        return _BINARY_OPS[expr.op](a, b)
    raise TypeError(f"not an expression node: {expr!r}")


# -- brute-force resolution oracle ------------------------------------------


def brute_force_resolve(model: FeatureModel, variables, where) -> set:
    """Cross-product filtering over all features, no pruning at all."""
    variables = tuple(variables)
    names = list(model.features)
    satisfied = set()
    for combo in itertools.product(names, repeat=len(variables)):
        binding = dict(zip(variables, combo))
        if where is None:
            satisfied.add(combo)
            continue
        try:
            typecheck(where, model, binding)
            if evaluate(where, model, binding) is True:
                satisfied.add(combo)
        except (TypeCheckError, EvalError):
            pass
    return satisfied


def reference_candidate_constraints(cmd, res) -> list:
    """Distinct (constraint, supporting tuples) of a constraint command, as
    commands._candidate_constraints gave them first: one binding dict and one
    Constraint per resolution tuple, then deduplicated by effect key."""
    def name(desc, binding):
        return binding[desc.name] if isinstance(desc, VarRef) else desc.name

    out: dict = {}
    for t in res.tuples:
        binding = dict(zip(res.variables, t))
        c = Constraint(name(cmd.left, binding), cmd.kind, name(cmd.right, binding))
        entry = out.setdefault(c.effect_key(), (c, []))
        entry[1].append(t)
    return list(out.values())


def reference_add_constraint(model: FeatureModel, cmd, res) -> list:
    """commands.exec_add_constraint as it ran before its one pass: the
    distinct candidates of reference_candidate_constraints, each handed to
    add_constraint; the same diagnostics, or the same CommandError."""
    commands._check_literal_ends(model, cmd)
    existing = [c for c, _tuples in reference_candidate_constraints(cmd, res)
                if not model.add_constraint(c)]
    if existing:
        listed = ", ".join(str(c) for c in existing)
        return [("warning", f"Following Cross-tree Constraint(s) already exist: {listed}")]
    return []


def reference_update_constraint(model: FeatureModel, cmd, res, multi: bool) -> list:
    """commands.exec_update_constraint as it ran before its keyed pass: the
    stored constraints the candidates of reference_candidate_constraints
    match, each derived under the tuples that gave its candidate."""
    commands._check_literal_ends(model, cmd)
    matched = [(rep, tuples) for c, tuples in reference_candidate_constraints(cmd, res)
               if (rep := model.stored_constraint(c)) is not None]
    if not multi:
        if not matched:
            raise CommandError("No constraints match the update command")
        if len(matched) > 1:
            raise CommandError("Command is ambiguous on which constraint will "
                               f"be updated {_listing([c for c, _ in matched])}")
    new_left = commands._end_slot(model, cmd.new_left, "left")
    new_right = commands._end_slot(model, cmd.new_right, "right")
    replacements = []
    for rep, tuples in matched:
        sub = ResolutionSet(res.variables, tuples)
        left = rep.left if new_left is None else new_left(sub)
        right = rep.right if new_right is None else new_right(sub)
        kind = cmd.new_kind if cmd.new_kind is not None else rep.kind
        replacements.append((rep, Constraint(left, kind, right)))
    for rep, _new in replacements:
        model.remove_constraint(rep)
    for _rep, new in replacements:
        model.add_constraint(new)
    if multi and not matched:
        return [("warning", "No constraints match the update all command")]
    return []


# -- random model generation ------------------------------------------------

ATTR_POOL = ("size", "cost", "rank", "flag", "label", "ratio")


def random_value(rng: random.Random):
    return rng.choice([
        rng.randint(-5, 9),
        round(rng.uniform(-4.0, 9.0), 2),
        rng.random() < 0.5,
        rng.choice(["red", "green", "blue", "x y"]),
    ])


def random_model(rng: random.Random, max_features: int = 30,
                 max_attrs: int = 6) -> FeatureModel:
    count = rng.randint(1, max_features)
    names = [f"F{i}" for i in range(count)]
    model = FeatureModel.with_root(names[0])
    for name in names[1:]:
        parent = rng.choice(list(model.features))
        kind = rng.choice(list(DecompKind))
        join = None
        if kind.is_group and rng.random() < 0.5:
            siblings = model.child_features().get(parent, [])
            matching = [s.group_id for s in siblings
                        if s.decomp is kind and s.group_id > 0]
            if matching:
                join = rng.choice(matching)
        model.attach_feature(Feature(name), parent, kind, join)
    for f in model.features.values():
        for attr in rng.sample(ATTR_POOL, rng.randint(0, min(max_attrs, len(ATTR_POOL)))):
            f.attributes[attr] = random_value(rng)
    pairs = [(a, b) for a in names for b in names if a != b]
    rng.shuffle(pairs)
    for a, b in pairs[:rng.randint(0, min(6, len(pairs)))]:
        model.add_constraint(Constraint(a, rng.choice(["requires", "excludes"]), b))
    return model


# -- random where-clause generation -----------------------------------------


# -- random command generation ----------------------------------------------


def _rand_name(rng: random.Random, model: FeatureModel) -> str:
    if rng.random() < 0.85:
        return rng.choice(list(model.features))
    return rng.choice(["Ghost", "Nope", "F999"])


def _rand_fdesc(rng, model, variables):
    from feather.expressions import FeatureRef as FR, VarRef as VR
    if variables and rng.random() < 0.4:
        return VR(rng.choice(variables))
    return FR(_rand_name(rng, model))


def _rand_value_expr(rng, model, variables, tag):
    from feather.expressions import Binary as B, Lit as L
    if tag == "numeric":
        e = L(rng.choice([rng.randint(-3, 9), round(rng.uniform(0, 9), 1)]))
        if rng.random() < 0.4:
            e = B(rng.choice("+-*/%"), e, L(rng.randint(0, 3)))
        if rng.random() < 0.3:
            e = B("+", AttrRef(_rand_fdesc(rng, model, variables),
                               rng.choice(ATTR_POOL)), e)
        return e
    if tag == "boolean":
        if rng.random() < 0.5:
            return L(rng.random() < 0.5)
        return random_where(rng, variables, model, depth=1)
    if tag == "string":
        return L(rng.choice(["red", "green", "blue"]))
    # inherited
    return AttrRef(_rand_fdesc(rng, model, variables),
                   rng.choice(ATTR_POOL + ("_name", "_parent", "_decomp")))


def _rand_attr_assigns(rng, model, variables, howmany):
    from feather.parser import AttrAssign
    out = []
    for name in rng.sample(ATTR_POOL, howmany):
        tag = rng.choice(["numeric", "boolean", "string", "inherited"])
        out.append(AttrAssign(name, tag, _rand_value_expr(rng, model, variables, tag)))
    return out


def _rand_decomp_spec(rng, model, variables):
    from feather.parser import DecompSpec
    if rng.random() < 0.25:
        kind = AttrRef(_rand_fdesc(rng, model, variables), "_decomp")
    else:
        kind = Lit(rng.choice(list(DecompKind)))
    sibling = None
    if rng.random() < 0.5:
        sibling = _rand_fdesc(rng, model, variables)
    return DecompSpec(kind, sibling)


def random_command(rng: random.Random, model: FeatureModel):
    """One random command of any of the ten types, possibly ill-behaved."""
    from feather import parser as p
    variables = ["V", "W"][:rng.randint(0, 2)]
    where = (random_where(rng, variables, model)
             if (variables or rng.random() < 0.3) else None)
    kind = rng.randrange(10)
    if kind == 0:
        return p.AddFeature(
            name=rng.choice(["N1", "N2", "N3", rng.choice(list(model.features))]),
            parent=(AttrRef(VarRef(variables[0]), "_name") if variables
                    and rng.random() < 0.4 else Lit(_rand_name(rng, model))),
            decomp=_rand_decomp_spec(rng, model, variables),
            attrs=_rand_attr_assigns(rng, model, variables, rng.randint(0, 2)),
            where=where)
    if kind == 1:
        return p.UpdateFeature(
            target=_rand_fdesc(rng, model, variables),
            new_name=rng.choice([None, "Renamed", rng.choice(list(model.features))]),
            parent=(Lit(_rand_name(rng, model)) if rng.random() < 0.5 else None),
            decomp=(_rand_decomp_spec(rng, model, variables)
                    if rng.random() < 0.5 else None),
            attrs=_rand_attr_assigns(rng, model, variables, rng.randint(0, 2)),
            where=where)
    if kind == 2:
        variables = variables or ["V"]
        return p.UpdateAllFeatures(
            var=variables[0],
            parent=(Lit(_rand_name(rng, model)) if rng.random() < 0.5 else None),
            decomp=(_rand_decomp_spec(rng, model, variables)
                    if rng.random() < 0.5 else None),
            attrs=_rand_attr_assigns(rng, model, variables, rng.randint(0, 2)),
            where=where)
    if kind == 3:
        return p.RemoveFeature(target=_rand_fdesc(rng, model, variables), where=where)
    if kind == 4:
        variables = variables or ["V"]
        return p.RemoveAllFeatures(var=variables[0], where=where)
    left = _rand_fdesc(rng, model, variables)
    right = _rand_fdesc(rng, model, variables)
    ctype = rng.choice(["requires", "excludes"])
    if kind == 5:
        return p.AddConstraint(left=left, kind=ctype, right=right, where=where)
    if kind in (6, 7):
        cls = p.UpdateConstraint if kind == 6 else p.UpdateAllConstraints
        slots = rng.sample(["leftfeature", "constrainttype", "rightfeature"],
                           rng.randint(1, 2))
        return cls(
            left=left, kind=ctype, right=right, where=where,
            new_left=(AttrRef(_rand_fdesc(rng, model, variables), "_name")
                      if "leftfeature" in slots else None),
            new_kind=(rng.choice(["requires", "excludes"])
                      if "constrainttype" in slots else None),
            new_right=(Lit(_rand_name(rng, model))
                       if "rightfeature" in slots else None),
            updates=slots)
    cls = p.RemoveConstraint if kind == 8 else p.RemoveAllConstraints
    return cls(left=left, kind=ctype, right=right, where=where)


def _random_operand(rng: random.Random, variables, model: FeatureModel):
    subject = (VarRef(rng.choice(variables)) if variables and rng.random() < 0.8
               else FeatureRef(rng.choice(list(model.features))))
    attr = rng.choice(ATTR_POOL + ("_name", "_parent", "_decomp", "_decompID"))
    return AttrRef(subject, attr)


def random_where(rng: random.Random, variables, model: FeatureModel, depth: int = 2):
    """A random boolean expression; often ill-typed for some bindings."""
    if depth <= 0 or rng.random() < 0.3:
        left = _random_operand(rng, variables, model)
        if left.attr == "_decomp":
            return Binary(rng.choice(["=", "<>"]), left,
                          Lit(rng.choice(list(DecompKind))))
        if left.attr == "_decompID":
            return Binary(rng.choice(["=", "<>"]), left,
                          _random_operand(rng, variables, model))
        if left.attr in ("_name", "_parent"):
            right = (Lit(rng.choice(["F0", "F1", "F2", "red"]))
                     if rng.random() < 0.5
                     else _random_operand(rng, variables, model))
            return Binary(rng.choice(["=", "<>"]), left, right)
        op = rng.choice(["<", "<=", ">", ">=", "=", "<>"])
        right = (Lit(random_value(rng)) if rng.random() < 0.6
                 else _random_operand(rng, variables, model))
        if rng.random() < 0.3:
            right = Binary(rng.choice(["+", "-", "*", "/"]), right,
                           Lit(rng.randint(1, 4)))
        return Binary(op, left, right)
    op = rng.choice(["and", "and", "or", "not"])
    if op == "not":
        return Unary("not", random_where(rng, variables, model, depth - 1))
    return Binary(op, random_where(rng, variables, model, depth - 1),
                  random_where(rng, variables, model, depth - 1))


# -- random equality joins ---------------------------------------------------

# values that collide across types under `=`: 1 and 1.0 are equal, true and 1
# are not, "F1" equals a feature name; 10**400 equals only itself, NaN equals
# nothing, and 2**53 + 1 is not 2**53 though both round to the same real
JOIN_VALUES = (0, 1, 1.0, 2, 2.0, 2.5, True, False, "F1", "red", "1",
               DecompKind.OR, 10**400, float("inf"), float("nan"), 2**53, 2**53 + 1)
JOIN_ATTRS = ATTR_POOL[:3] + ("_name", "_parent", "_decomp", "_decompID")


def random_join_model(rng: random.Random, max_features: int = 10) -> FeatureModel:
    """A random model whose attribute values come from JOIN_VALUES."""
    model = random_model(rng, max_features=max_features, max_attrs=3)
    for f in model.features.values():
        f.attributes = {attr: rng.choice(JOIN_VALUES)
                        for attr in rng.sample(ATTR_POOL[:3], rng.randint(0, 3))}
    return model


def random_join_where(rng: random.Random, variables, model: FeatureModel):
    """A conjunction holding one or two `V.a = U.b` joins between variables.

    With three variables the joins may chain V to W to X. The remaining
    conjuncts come from random_where, so a join may also sit under `or`.
    """
    def join():
        v, u = rng.sample(variables, 2)
        a = rng.choice(JOIN_ATTRS)
        b = a if rng.random() < 0.5 else rng.choice(JOIN_ATTRS)
        return Binary("=", AttrRef(VarRef(v), a), AttrRef(VarRef(u), b))

    conjuncts = [join() for _ in range(rng.randint(1, 2))]
    conjuncts += [random_where(rng, variables, model, depth=rng.randint(0, 1))
                  for _ in range(rng.randint(0, 1))]
    rng.shuffle(conjuncts)
    where = conjuncts[0]
    for c in conjuncts[1:]:
        where = Binary("and", where, c)
    return where


# -- reference lexers ----------------------------------------------------------

# The character loops the master-regex lexer replaced, kept as oracles. They
# read any character for which str.isdigit() holds as a digit: `int()` then
# raises ValueError on "²", and "٣" reads as 3. See tests/test_lexer.py.

_Tok = namedtuple("_Tok", "kind value line")


def reference_tokenize(text: str) -> list:
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        start_line, start_col = line, col
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"' and text[j] != "\n":
                c = text[j]
                if not (c.isascii() and (c.isalnum() or c in STRING_PUNCT)):
                    raise LexError(f"character {c!r} not allowed in a string",
                                   line, col + (j - i))
                j += 1
            if j >= n or text[j] != '"':
                raise LexError("unterminated string literal", start_line, start_col)
            if j == i + 1:
                raise LexError("empty string literal", start_line, start_col)
            s = text[i + 1:j]
            tokens.append(Token("STRING", s, s, start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j + 1 < n and text[j] == "." and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                lit = text[i:j]
                value = float(lit)
                if not math.isfinite(value):
                    raise LexError("real literal out of range", start_line, start_col)
                tokens.append(Token("REAL", lit, value, start_line, start_col))
            else:
                lit = text[i:j]
                tokens.append(Token("INT", lit, int(lit), start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word.startswith("_"):
                if word not in STRUCTURAL:
                    raise LexError(f"unknown structural attribute {word!r}",
                                   start_line, start_col)
                kind = word
            elif word in KEYWORDS:
                kind = word
            elif word[0].isupper():
                kind = "VAR"
            else:
                kind = "IDENT"
            tokens.append(Token(kind, word, word, start_line, start_col))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(sym, sym, sym, start_line, start_col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", None, line, col))
    return tokens


def reference_tvl_tokenize(text: str) -> list:
    tokens = []
    i, line = 0, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                c = text[j]
                if not (c.isascii() and (c.isalnum() or c in STRING_PUNCT)):
                    raise TvlError(f"line {line}: character {c!r} not allowed in a string")
                j += 1
            if j >= n or text[j] != '"' or j == i + 1:
                raise TvlError(f"line {line}: bad string literal")
            tokens.append(_Tok("STRING", text[i + 1:j], line))
            i = j + 1
            continue
        if ch.isdigit() or (ch in "+-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j + 1 < n and text[j] == "." and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                value = float(text[i:j])
                if not math.isfinite(value):
                    raise TvlError(f"line {line}: real literal out of range")
                tokens.append(_Tok("REAL", value, line))
            else:
                tokens.append(_Tok("INT", int(text[i:j]), line))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(_Tok(word if word in TVL_KEYWORDS else "ID", word, line))
            i = j
            continue
        if ch in "{},;":
            tokens.append(_Tok(ch, ch, line))
            i += 1
            continue
        raise TvlError(f"line {line}: unexpected character {ch!r}")
    tokens.append(_Tok("EOF", None, line))
    return tokens


# -- reference parsers ---------------------------------------------------------

# The Token-walking parsers that the column-walking ones replaced, kept as
# oracles: ReferenceParser reads the tokens of reference_tokenize, and
# ReferenceTvlParser the Token sequence of the TVL lexer. Both build the
# program's own AST records, and the declaration rows and TVL blocks with
# their fields named: a namedtuple equals the plain tuple of its values. See
# tests/test_parser_differential.py.

RootRow = namedtuple("RootRow", "name attributes line")
FeatureRow = namedtuple("FeatureRow", "name parent decomp sibling attributes line")
ConstraintRow = namedtuple("ConstraintRow", "left kind right line")
TvlBlock = namedtuple("TvlBlock", "name attributes groups constraints line")


class ReferenceParser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        if not ahead:  # EOF is the last token, and next() never moves past it
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.tokens[self.pos]
        if t.kind != kind:
            want = what or f"{kind!r}"
            raise ParseError(f"expected {want}, found {t.text or 'end of input'!r}",
                            t.line, t.col)
        return self.next()

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    # -- declarations ------------------------------------------------------

    def parse_root(self) -> RootRow:
        t = self.expect("root", "the root feature declaration")
        name = self.expect("STRING", "the root feature name").value
        attrs = self.parse_attr_decls()
        self.expect(";")
        return RootRow(name, attrs, t.line)

    def parse_attr_decls(self) -> list:
        """(ident, value) pairs, a repeated ident kept: the parser's dict
        refuses it."""
        attrs = []
        while self.at("attribute"):
            self.next()
            ident = self.expect("IDENT", "an attribute identifier").value
            attrs.append((ident, self.parse_literal()))
        return attrs

    def parse_literal(self):
        sign = self.next().kind if self.at("+", "-") else None
        t = self.peek()
        if t.kind in ("INT", "REAL"):
            self.next()
            return -t.value if sign == "-" else t.value
        if sign:
            self.fail("expected a numeric literal after the sign")
        if t.kind in ("true", "false"):
            self.next()
            return t.kind == "true"
        if t.kind == "STRING":
            self.next()
            return t.value
        self.fail(f"expected a literal value, found {t.text!r}")

    def parse_feature_decl(self) -> FeatureRow:
        t = self.expect("feature")
        name = self.expect("STRING", "a feature name").value
        parent = self.expect("STRING", "a parent name").value
        kw = self.peek()
        if kw.kind not in DECOMP_KEYWORDS:
            self.fail(f"expected a decomposition kind, found {kw.text!r}")
        self.next()
        kind = DECOMP_KEYWORDS[kw.kind]
        sibling = None
        if kind.is_group:
            self.expect("to")
            sibling = self.expect("STRING", "a sibling feature name").value
        attrs = self.parse_attr_decls()
        self.expect(";")
        return FeatureRow(name, parent, kind, sibling, attrs, t.line)

    def parse_constraint_decl(self) -> ConstraintRow:
        t = self.expect("constraint")
        left = self.expect("STRING", "a feature name").value
        kind = self.parse_ctc_type()
        right = self.expect("STRING", "a feature name").value
        self.expect(";")
        return ConstraintRow(left, kind, right, t.line)

    def parse_ctc_type(self) -> str:
        if not self.at("requires", "excludes"):
            self.fail(f"expected requires or excludes, found {self.peek().text!r}")
        return self.next().kind

    # -- expressions -------------------------------------------------------

    def parse_expr(self):
        return self._expr(1, 0)[0]

    def _expr(self, min_prec: int, depth: int) -> tuple:
        """(expression, its nesting) over operators binding at least
        `min_prec`, inside `depth` levels of nesting."""
        left, height = self._operand(depth)
        while BINARY_PRECEDENCE.get(self.peek().kind, 0) >= min_prec:
            t = self.next()
            right, right_height = self._expr(BINARY_PRECEDENCE[t.kind] + 1, depth + 1)
            height = max(height, right_height) + 1
            self._check_depth(depth + height, t)
            left = Binary(t.kind, left, right)
        return left, height

    def _operand(self, depth: int) -> tuple:
        """(operand, its nesting): unary operators, then a parenthesized
        expression or a primary."""
        ops = []
        while self.at("-", "not"):
            ops.append(self.next())
            self._check_depth(depth + len(ops), ops[-1])
        t = self.peek()
        if t.kind == "(":
            self.next()
            self._check_depth(depth + len(ops) + 2, t)
            operand, height = self._expr(1, depth + len(ops) + 2)
            self.expect(")")
            height += 2
        else:
            operand, height = self.parse_primary(), 0
        for op in reversed(ops):
            operand = Unary(op.kind, operand)
        return operand, height + len(ops)

    def _check_depth(self, depth: int, t: Token) -> None:
        if depth > MAX_EXPR_DEPTH:
            raise ParseError("expression nested too deeply", t.line, t.col)

    def parse_primary(self):
        t = self.peek()
        if t.kind == "INT" or t.kind == "REAL":
            self.next()
            return Lit(t.value)
        if t.kind in ("true", "false"):
            self.next()
            return Lit(t.kind == "true")
        if t.kind in DECOMP_KEYWORDS:  # decomposition literal in operand position
            self.next()
            return Lit(DECOMP_KEYWORDS[t.kind])
        if t.kind == "STRING":
            self.next()
            if self.at("."):
                self.next()
                return AttrRef(FeatureRef(t.value), self.parse_attr_name())
            return Lit(t.value)
        if t.kind == "VAR":
            self.next()
            self.expect(".", "'.' after a feature variable")
            return AttrRef(VarRef(t.value), self.parse_attr_name())
        self.fail(f"expected an operand, found {t.text or 'end of input'!r}")

    def parse_attr_name(self) -> str:
        t = self.peek()
        if t.kind == "IDENT" or t.kind in STRUCTURAL:
            self.next()
            return t.value
        self.fail(f"expected an attribute name, found {t.text!r}")

    # -- command building blocks ------------------------------------------

    def parse_fdesc(self):
        t = self.peek()
        if t.kind == "STRING":
            self.next()
            return FeatureRef(t.value)
        if t.kind == "VAR":
            self.next()
            return VarRef(t.value)
        self.fail(f"expected a feature name or variable, found {t.text!r}")

    def parse_name_desc(self):
        """FeatureNameDescription: "Name" or Var._name, as a string expression."""
        t = self.peek()
        if t.kind == "STRING":
            self.next()
            return Lit(t.value)
        if t.kind == "VAR":
            self.next()
            self.expect(".")
            self.expect("_name", "'_name' after the feature variable")
            return AttrRef(VarRef(t.value), "_name")
        self.fail(f"expected a feature name or Variable._name, found {t.text!r}")

    def parse_decomp_spec(self) -> DecompSpec:
        t = self.peek()
        if t.kind in DECOMP_KEYWORDS:
            self.next()
            kind = Lit(DECOMP_KEYWORDS[t.kind])
        else:
            fd = self.parse_fdesc()
            self.expect(".")
            self.expect("_decomp", "'_decomp'")
            kind = AttrRef(fd, "_decomp")
        sibling = None
        if self.at("to"):
            self.next()
            sibling = self.parse_fdesc()
        return DecompSpec(kind, sibling)

    def parse_attr_assign(self) -> AttrAssign:
        name = self.expect("IDENT", "an attribute identifier").value
        self.expect("=")
        t = self.peek()
        if t.kind == "inherited":
            self.next()
            self.expect(":")
            fd = self.parse_fdesc()
            self.expect(".")
            return AttrAssign(name, "inherited", AttrRef(fd, self.parse_attr_name()))
        if t.kind == "numeric":
            self.next()
            self.expect(":")
            return AttrAssign(name, "numeric", self.parse_expr())
        if t.kind == "boolean":
            self.next()
            self.expect(":")
            return AttrAssign(name, "boolean", self.parse_expr())
        if t.kind == "string":
            self.next()
            self.expect(":")
            return AttrAssign(name, "string", Lit(self.expect("STRING").value))
        self.fail(f"expected a value type tag, found {t.text!r}")

    def parse_where(self):
        if self.at("where"):
            self.next()
            return self.parse_expr()
        return None

    # -- commands ----------------------------------------------------------

    def parse_command(self) -> Command:
        t = self.peek()
        if t.kind == "add":
            if self.peek(1).kind == "feature":
                return self.parse_add_feature()
            return self.parse_constraint_command("addc")
        if t.kind == "update":
            if self.peek(1).kind == "feature":
                return self.parse_update_feature(multi=False)
            return self.parse_constraint_command("upc")
        if t.kind == "updateall":
            if self.peek(1).kind == "feature":
                return self.parse_update_feature(multi=True)
            return self.parse_constraint_command("upmc")
        if t.kind == "remove":
            if self.peek(1).kind == "feature":
                return self.parse_remove_feature(multi=False)
            return self.parse_constraint_command("rmc")
        if t.kind == "removeall":
            if self.peek(1).kind == "feature":
                return self.parse_remove_feature(multi=True)
            return self.parse_constraint_command("rmmc")
        self.fail(f"expected a command, found {t.text or 'end of input'!r}")

    def parse_add_feature(self) -> AddFeature:
        t = self.expect("add")
        self.expect("feature")
        name = self.expect("STRING", "the new feature name").value
        self.expect("with")
        self.expect("attributes")
        self.expect("(")
        cmd = AddFeature(name=name, line=t.line)
        # the two structural slots come first, in either order
        for _ in range(2):
            s = self.peek()
            if s.kind == "_parent" and cmd.parent is None:
                self.next()
                self.expect("=")
                cmd.parent = self.parse_name_desc()
            elif s.kind == "_decomp" and cmd.decomp is None:
                self.next()
                self.expect("=")
                cmd.decomp = self.parse_decomp_spec()
            else:
                self.fail("add feature requires exactly one _parent and one "
                          "_decomp assignment first")
            if self.at(","):
                self.next()
            elif self.at(")"):
                break
        if cmd.parent is None or cmd.decomp is None:
            self.fail("add feature requires both _parent and _decomp assignments")
        while not self.at(")"):
            cmd.attrs.append(self.parse_attr_assign())
            if self.at(","):
                self.next()
            else:
                break
        self.expect(")")
        cmd.where = self.parse_where()
        self.expect(";")
        return cmd

    def parse_update_feature(self, multi: bool) -> Command:
        t = self.next()  # update | updateall
        self.expect("feature")
        if multi:
            var = self.expect("VAR", "a feature variable").value
            cmd = UpdateAllFeatures(var=var, line=t.line)
        else:
            cmd = UpdateFeature(target=self.parse_fdesc(), line=t.line)
        self.expect("set")
        while True:
            s = self.peek()
            if s.kind == "_name":
                if multi:
                    self.fail("updateall feature cannot set _name")
                self.next()
                self.expect("=")
                new = self.expect("STRING", "the new feature name").value
                if cmd.new_name is not None:
                    self.fail("_name is set twice")
                cmd.new_name = new
            elif s.kind == "_parent":
                self.next()
                self.expect("=")
                if cmd.parent is not None:
                    self.fail("_parent is set twice")
                cmd.parent = self.parse_name_desc()
            elif s.kind == "_decomp":
                self.next()
                self.expect("=")
                if cmd.decomp is not None:
                    self.fail("_decomp is set twice")
                cmd.decomp = self.parse_decomp_spec()
            else:
                cmd.attrs.append(self.parse_attr_assign())
            if self.at(","):
                self.next()
            else:
                break
        cmd.where = self.parse_where()
        self.expect(";")
        return cmd

    def parse_remove_feature(self, multi: bool) -> Command:
        t = self.next()  # remove | removeall
        self.expect("feature")
        if multi:
            cmd = RemoveAllFeatures(var=self.expect("VAR", "a feature variable").value,
                                    line=t.line)
        else:
            cmd = RemoveFeature(target=self.parse_fdesc(), line=t.line)
        cmd.where = self.parse_where()
        self.expect(";")
        return cmd

    def parse_constraint_command(self, code: str) -> Command:
        t = self.next()  # add | update | updateall | remove | removeall
        self.expect("constraint")
        left = self.parse_fdesc()
        kind = self.parse_ctc_type()
        right = self.parse_fdesc()
        cls = {"addc": AddConstraint, "upc": UpdateConstraint,
               "upmc": UpdateAllConstraints, "rmc": RemoveConstraint,
               "rmmc": RemoveAllConstraints}[code]
        cmd = cls(left=left, kind=kind, right=right, line=t.line)
        if code in ("upc", "upmc"):
            self.expect("set")
            while True:
                s = self.peek()
                if s.kind == "leftfeature":
                    self.next()
                    self.expect("=")
                    cmd.new_left = self.parse_name_desc()
                    cmd.updates.append("leftfeature")
                elif s.kind == "rightfeature":
                    self.next()
                    self.expect("=")
                    cmd.new_right = self.parse_name_desc()
                    cmd.updates.append("rightfeature")
                elif s.kind == "constrainttype":
                    self.next()
                    self.expect("=")
                    cmd.new_kind = self.parse_ctc_type()
                    cmd.updates.append("constrainttype")
                else:
                    self.fail(f"expected a constraint element, found {s.text!r}")
                if self.at(","):
                    self.next()
                else:
                    break
        cmd.where = self.parse_where()
        self.expect(";")
        return cmd

    # -- top level ---------------------------------------------------------

    COMMAND_STARTS = ("add", "update", "updateall", "remove", "removeall")

    def parse_script(self, declarations: bool = True,
                     commands: bool = True) -> tuple:
        """Parse a whole input; returns (ScriptAst, error diagnostics).

        On a syntax error inside a statement, parsing resynchronizes at the
        next ';' and continues, so several errors can be reported at once.
        """
        ast = ScriptAst()
        errors = []
        if declarations:
            try:
                ast.root = self.parse_root()
            except ParseError as e:
                errors.append(e)
                self._resync()
            while self.at("feature", "constraint"):
                try:
                    if self.at("feature"):
                        ast.features.append(self.parse_feature_decl())
                    else:
                        ast.constraints.append(self.parse_constraint_decl())
                except ParseError as e:
                    errors.append(e)
                    self._resync()
        while self.at(*self.COMMAND_STARTS):
            if not commands:
                self.fail("commands are not allowed in a declarations file")
            try:
                ast.commands.append(self.parse_command())
            except ParseError as e:
                errors.append(e)
                self._resync()
        if not self.at("EOF"):
            t = self.peek()
            errors.append(ParseError(
                f"unexpected input {t.text!r}", t.line, t.col))
        return ast, errors

    def _resync(self) -> None:
        while not self.at(";", "EOF"):
            self.next()
        if self.at(";"):
            self.next()


def reference_parse(text: str, declarations: bool = True, commands: bool = True) -> tuple:
    """(ScriptAst, errors) as parser._parse gave them with ReferenceParser."""
    try:
        tokens = reference_tokenize(text)
    except LexError as e:
        return ScriptAst(), [ParseError(e.message, e.line, e.col)]
    try:
        return ReferenceParser(tokens).parse_script(declarations, commands)
    except ParseError as e:
        return ScriptAst(), [e]


# TVL's lexicon without the phrases of `feather.tvl.LEXICON`: one token per
# keyword, symbol, name or literal, as the references read it
PLAIN_TVL_LEXICON = Lexicon(TVL_KEYWORDS, "{},;", _tvl_word, signed_numbers=True)


class ReferenceTvlParser:
    def __init__(self, text: str):
        try:
            self.tokens = list(lex(text, PLAIN_TVL_LEXICON))
        except LexError as e:
            raise TvlError(f"line {e.line}: {e.message}") from None
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def found(self) -> str:  # the next token as an error message shows it
        t = self.peek()
        return repr("end of input" if t.kind == "EOF" else t.value)

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise TvlError(f"line {t.line}: expected {kind!r}, found {self.found()}")
        return self.next()

    def parse(self):
        header = None
        if self.peek().kind == "enum":
            self.next()
            self.expect("string")
            self.expect("in")
            self.expect("{")
            header = [self.expect("STRING").value]
            while self.peek().kind == ",":
                self.next()
                header.append(self.expect("STRING").value)
            self.expect("}")
            self.expect(";")
        blocks = []
        self.expect("root")
        blocks.append(self.parse_block())
        while self.peek().kind == "ID":
            blocks.append(self.parse_block())
        self.expect("EOF")
        return header, blocks

    def parse_block(self) -> TvlBlock:
        t = self.expect("ID")
        block = TvlBlock(t.value, {}, [], [], t.line)
        self.expect("{")
        while self.peek().kind in ("int", "real", "bool", "string"):
            tag = self.next().kind
            name = self.parse_attr_id()
            self.expect("is")
            block.attributes[name] = self.parse_value(tag)
            self.expect(";")
        while self.peek().kind == "group":
            self.next()
            card = self.peek()
            if card.kind not in ("allof", "oneof", "someof"):
                raise TvlError(
                    f"line {card.line}: expected allof, oneof, or someof")
            self.next()
            self.expect("{")
            members = []
            while True:
                opt = False
                if card.kind == "allof" and self.peek().kind == "opt":
                    self.next()
                    opt = True
                members.append((opt, self.expect("ID").value))
                if self.peek().kind != ",":
                    break
                self.next()
            self.expect("}")
            block.groups.append((card.kind, members))
        while self.peek().kind == "ID":
            left = self.next().value
            op = self.peek()
            if op.kind not in ("requires", "excludes"):
                raise TvlError(f"line {op.line}: expected requires or excludes")
            self.next()
            right = self.expect("ID").value
            self.expect(";")
            block.constraints.append((left, op.kind, right, block.line))
        self.expect("}")
        return block

    def parse_attr_id(self) -> str:
        t = self.peek()
        if t.kind != "ID" or not t.value[0].islower():
            raise TvlError(f"line {t.line}: expected a lowercase attribute id")
        return self.next().value

    def parse_value(self, tag: str):
        t = self.peek()
        if tag == "int" and t.kind == "INT":
            return self.next().value
        if tag == "real" and t.kind == "REAL":
            return float(self.next().value)
        if tag == "bool" and t.kind in ("true", "false"):
            return self.next().kind == "true"
        if tag == "string" and t.kind == "STRING":
            return self.next().value
        raise TvlError(f"line {t.line}: value {self.found()} does not match type {tag}")


def reference_build_model(ast: ScriptAst) -> FeatureModel:
    """`build_model` as it was before the one builder: its own checks, in
    its own order, and `add_constraint` per constraint."""
    if ast.root is None:
        raise BuildError("missing root feature declaration")
    ast = ScriptAst(RootRow(*ast.root), [FeatureRow(*row) for row in ast.features],
                    [ConstraintRow(*row) for row in ast.constraints])
    declared = {ast.root.name} | {fd.name for fd in ast.features}

    by_name = {fd.name: fd for fd in ast.features}
    for fd in ast.features:
        if fd.parent not in declared:
            raise BuildError(
                f'feature "{fd.name}" names undeclared parent "{fd.parent}"')
        if fd.name == ast.root.name:
            raise BuildError(f'the root feature "{fd.name}" is declared twice')

    # the parent graph must be a tree rooted at the root feature; a walk
    # stops at the first feature known to reach the root
    reaches_root = {ast.root.name}
    for fd in ast.features:
        seen = set()
        n = fd.name
        while n not in reaches_root:
            if n in seen:
                raise BuildError(f'parent declarations form a cycle through "{n}"')
            seen.add(n)
            n = by_name[n].parent
        reaches_root |= seen

    # group membership: union sibling references, then check consistency
    parent_of = {}
    for fd in ast.features:
        if fd.sibling is not None:
            if fd.sibling not in declared:
                raise BuildError(
                    f'feature "{fd.name}" names undeclared sibling "{fd.sibling}"')
            _union(parent_of, fd.name, fd.sibling)

    groups = {}
    for fd in ast.features:
        if fd.sibling is not None:
            groups.setdefault(_find(parent_of, fd.name), []).append(fd.name)
    for members in groups.values():
        decls = [by_name.get(m) for m in members]
        if any(d is None or d.sibling is None for d in decls):
            bad = next(m for m, d in zip(members, decls)
                       if d is None or d.sibling is None)
            raise BuildError(
                f'"{bad}" is referenced as a group sibling but does not join a group')
        if len({d.decomp for d in decls}) > 1:
            raise BuildError(
                f"group of {members} mixes decomposition kinds")
        if len({d.parent for d in decls}) > 1:
            raise BuildError(
                f"group of {members} mixes parents")

    model = FeatureModel.with_root(ast.root.name, dict(ast.root.attributes))
    group_ids = {}
    for fd in ast.features:  # declaration order fixes the enumeration order
        gid = 0
        if fd.sibling is not None:
            rep = _find(parent_of, fd.name)
            if rep not in group_ids:
                group_ids[rep] = model.fresh_group_id()
            gid = group_ids[rep]
        model.features[fd.name] = Feature(
            fd.name, parent=fd.parent, decomp=fd.decomp, group_id=gid,
            attributes=dict(fd.attributes))

    for cd in ast.constraints:
        for end in (cd.left, cd.right):
            if end not in model.features:
                raise BuildError(f'constraint names undeclared feature "{end}"')
        model.add_constraint(Constraint(cd.left, cd.kind, cd.right))
    return model


def reference_import_tvl(text: str) -> FeatureModel:
    """TVL import as it once was: the importer's own checks, then the whole
    of `validate`, whose problems make the error message."""
    header, rows = _TvlParser(text).parse()
    blocks = [TvlBlock(*row) for row in rows]
    by_name: dict = {}
    for b in blocks:
        if b.name in by_name:
            raise TvlError(f'duplicate feature "{b.name}"')
        by_name[b.name] = b

    model = FeatureModel.with_root(blocks[0].name, blocks[0].attributes)
    model.tvl_string_enum = header

    placed = {blocks[0].name}
    for b in blocks:
        for card, members in b.groups:
            gid = model.fresh_group_id() if card in ("oneof", "someof") else 0
            kind = {"oneof": DecompKind.ALTERNATIVE,
                    "someof": DecompKind.OR}.get(card)
            for opt, child in members:
                if child not in by_name:
                    raise TvlError(
                        f'group under "{b.name}" names unknown feature "{child}"')
                if child in placed:
                    raise TvlError(f'feature "{child}" appears in two groups')
                placed.add(child)
                child_kind = kind or (DecompKind.OPTIONAL if opt
                                      else DecompKind.MANDATORY)
                model.features[child] = Feature(
                    child, parent=b.name, decomp=child_kind, group_id=gid,
                    attributes=by_name[child].attributes)
    missing = [b.name for b in blocks if b.name not in placed]
    if missing:
        raise TvlError(f'feature "{missing[0]}" is not attached to any group')

    for b in blocks:
        for left, kind, right, _ in b.constraints:
            c = Constraint(left, kind, right)
            for end in (left, right):
                if end not in by_name:
                    raise TvlError(f'constraint {c} names unknown feature "{end}"')
            model.add_constraint(c)

    problems = validate(model)
    if problems:
        raise TvlError("; ".join(problems))
    return model
