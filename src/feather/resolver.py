"""Resolution of feature variables against the live model.

A command's variables are resolved jointly: the result is the set of
variable-to-feature tuples whose binding satisfies the where-clause. The
resolver only resolves; a command derives the values it assigns from the
tuples itself (commands._deriver).

Each candidate domain is pruned by attribute presence and type
compatibility, read from the model's column of each attribute: name to
(type, value), kept across commands (FeatureModel.column), so that the
variables and commands that use an attribute read it from the features
once. Conjuncts compile once per resolve (compile_expr): a term `V.a` whose
attribute V's usages name reads the column, two dict reads under a binding,
and a column of one type over the domain gives a static type, applied at
compile time; any other term reads its feature. A conjunct that fails to
typecheck or evaluate is false.

Conjuncts of one variable filter its domain before the search; one of the
form `V.a = lit` keeps the names whose key (model.join_key) equals the
literal's, the model's bucket of that key (FeatureModel.buckets).
The search binds the variables smallest domain first, deciding each
conjunct at the depth where its last variable is bound, by that depth's
plan. A conjunct `V.a = U.b` is a hash join: `V`'s domain is indexed once by
the key of its `a` column, and the search visits only the names whose key
equals that of `U.b`. Keys follow `=` exactly (`1 = 1.0`; a boolean never
equals a number), so neither the join nor the literal filter needs a check
of its own. A comparison `V.a op U.b` between bound variables, both columns
of one type that the rule of `op` admits, filters the depth's names in one
pass: `U.b` is read once per binding of the earlier depths and compared
with each name's value by the operator itself, which never raises on such
values. Each depth walks its names in domain order, so only a search order
other than the declaration order needs a sort.
"""

from __future__ import annotations

from operator import itemgetter

from .expressions import (
    AttrRef,
    Binary,
    EvalError,
    Lit,
    TypeCheckError,
    VarRef,
    _BINARY_OPS,
    _binary_type,
    admitted_types,
    compile_expr,
    referenced_usages,
)
from .model import FeatureModel, join_key, type_of
from .record import Record


class ResolutionSet(Record):
    __slots__ = ("variables", "tuples")

    def __init__(self, variables: tuple, tuples: list):
        # tuples: equal-length name tuples, declaration-order lexicographic
        self.variables, self.tuples = variables, tuples


def candidate_domain(model: FeatureModel, usages: list) -> list:
    """Features admissible for a variable given its (attr, context) usages,
    by name in feature order."""
    contexts: dict = {}
    for attr, ctx in usages:
        contexts.setdefault(attr, []).append(ctx)
    columns = {attr: model.column(attr) for attr in contexts}
    names = min(columns.values(), key=len, default=model.features)
    for attr, cs in contexts.items():
        admitted, column = admitted_types(cs), columns[attr]
        if column is names:  # the smallest column: filter its own entries
            names = [n for n, p in column.items() if p[0] in admitted]
        else:
            names = [n for n in names if (p := column.get(n)) is not None and p[0] in admitted]
    return list(names)


def _conjuncts(expr) -> list:
    if isinstance(expr, Binary) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def resolve(model: FeatureModel, variables, where=None,
            usages: dict | None = None) -> ResolutionSet:
    """All tuples over the candidate domains satisfying the where-clause.

    `usages`, variable -> (attribute, context) pairs, restricts the domains:
    a command passes those of every expression it contains, and without it
    the where-clause's own do. Usages that leave out some of the clause's
    give the same tuples. A binding under which the where-clause fails to
    typecheck, or raises a dynamic error, does not satisfy the clause. A
    variable may be declared once only.
    """
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError(f"repeated variable in {variables}")
    conjuncts = _conjuncts(where) if where is not None else []
    uses = [referenced_usages(c) for c in conjuncts]  # each conjunct's, by variable
    if usages is None:
        usages = referenced_usages(where) if where is not None else {}
    features, binding = model.features, {}
    domains = {v: candidate_domain(model, usages.get(v, [])) for v in variables}
    named = {v: {attr for attr, _ in usages.get(v, ())} for v in variables}

    def column_of(term):
        """(V, a, the model's column of a) for a term `V.a` whose variable's
        usages name a, so that V's whole domain has a; else None."""
        if (isinstance(term, AttrRef) and isinstance(term.subject, VarRef)
                and term.attr in named.get(term.subject.name, ())):
            return term.subject.name, term.attr, model.column(term.attr)
        return None

    def leaf(term):
        found = column_of(term)
        if found is None:
            return None
        var, _, column = found
        static = _static_column(column, domains[var])
        if static is None:
            return (lambda features, binding: column[binding[var]][0],
                    lambda features, binding: column[binding[var]][1])
        t, values = static
        return t, lambda features, binding: values[binding[var]]

    single = {v: [] for v in variables}  # conjuncts of one variable, by variable
    joint, constant = [], []  # (conjunct, its variables) of several, conjuncts of none
    for c, used in zip(conjuncts, uses):
        vs = [v for v in used if v in domains]
        if len(vs) > 1:
            joint.append((c, vs))
        elif vs:
            single[vs[0]].append(c)
        else:
            constant.append(c)
    if constant and not _all_hold(constant, leaf)(features, binding):
        return ResolutionSet(variables, [])
    for v, cs in single.items():
        rest = []
        for c in cs:
            found = _oriented(c, v, column_of)
            if found is None or found[0] != "=" or not isinstance(found[2], Lit):
                rest.append(c)
                continue
            # `v.a = lit`: the model's bucket of lit's key, less what the domain lacks
            _, (_, attr, column), lit = found
            names = model.buckets(attr).get(join_key(type_of(lit.value), lit.value), [])
            if len(domains[v]) < len(column):
                kept = set(domains[v])
                names = [n for n in names if n in kept]
            domains[v] = names
        if rest:
            holds = _all_hold(rest, leaf)
            domains[v] = [n for n in domains[v] if holds(features, {v: n})]

    order = sorted(variables, key=lambda v: len(domains[v]))
    depth_of = {v: d for d, v in enumerate(order)}
    scheduled: list = [[] for _ in order]  # conjuncts decided once order[d] is bound
    for c, vs in joint:
        scheduled[max(map(depth_of.__getitem__, vs))].append(c)
    plans = []  # per depth: (variable, hash probe or None, filters, check or None)
    for var, cs in zip(order, scheduled):
        probe, filters, rest = None, [], []
        for c in cs:
            if probe is None and (probe := _equijoin_probe(c, var, domains, column_of)):
                continue  # the index lookup decides it
            found = _comparison_filter(c, var, domains, column_of)
            if found is None:
                rest.append(c)
            else:
                filters.append(found)  # the filter decides it
        plans.append((var, probe, filters, _all_hold(rest, leaf) if rest else None))
    results = [] if order else [()]
    last = len(order) - 1

    def search(depth: int) -> None:
        var, probe, filters, check = plans[depth]
        if probe is None:
            names = domains[var]
        else:
            table, other, keys = probe
            names = table.get(keys[binding[other]], ())
        for op, values, u, u_values in filters:
            x = u_values[binding[u]]
            names = [n for n in names if op(values[n], x)]
        if depth == last:  # the binding holds order[:last], in order
            prefix = tuple(binding.values())
        for name in names:
            binding[var] = name
            if check is None or check(features, binding):
                if depth < last:
                    search(depth + 1)
                else:
                    results.append(prefix + (name,))
        binding.pop(var, None)

    if order:
        search(0)
    del search  # it calls itself through its own cell: a reference cycle
    if tuple(order) != variables:
        index = {name: i for i, name in enumerate(features)}
        results = sorted(map(itemgetter(*map(order.index, variables)), results),
                         key=lambda t: tuple(map(index.__getitem__, t)))
    return ResolutionSet(variables, results)


def _all_hold(conjuncts, leaf):
    """One compiled check of the conjuncts under a binding.

    False as soon as one of them fails to typecheck, or is not true or fails
    to evaluate, as the whole where-clause would. Every conjunct's type is
    checked before the first is evaluated.
    """
    compiled = [compile_expr(c, leaf) for c in conjuncts]
    types = [t for t, _ in compiled if callable(t)]
    values = [value for _, value in compiled]

    def holds(features, binding) -> bool:
        try:
            for t in types:
                t(features, binding)
            for value in values:
                if value(features, binding) is not True:
                    return False
        except (TypeCheckError, EvalError):
            return False
        return True
    return holds


# each comparison with its operands swapped: `a op b` is `b _SWAPPED[op] a`
# on any two values that the type rule of op admits
_SWAPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


def _oriented(conjunct, var, column_of):
    """(op, column_of(var.a), other) for a comparison `var.a op other` or
    `other op var.a`, op swapped in the second form so that it reads as the
    conjunct does; else None, also where column_of answers None for var.a."""
    if isinstance(conjunct, Binary) and conjunct.op in _SWAPPED:
        for op, term, other in ((conjunct.op, conjunct.left, conjunct.right),
                                (_SWAPPED[conjunct.op], conjunct.right, conjunct.left)):
            mine = column_of(term)
            if mine is not None and mine[0] == var:
                return op, mine, other
    return None


def _equijoin_probe(conjunct, var, domains, column_of):
    """A hash index answering `var.a = U.b` for another variable U.

    The conjunct is decided at `var`'s depth, so U is bound before `var`.
    Returns (index, U, keys): the index maps the key of `var.a` to the names
    of `var`'s domain, in domain order, and keys maps each name of U's domain
    to the key of its `U.b`. None when the conjunct has another shape.
    """
    found = _oriented(conjunct, var, column_of)
    if found is None or found[0] != "=" or (other := column_of(found[2])) is None:
        return None
    (_, _, column), (u, _, u_column) = found[1], other
    index: dict = {}
    for name in domains[var]:
        key = join_key(*column[name])
        if key is not None:
            index.setdefault(key, []).append(name)
    return index, u, {name: join_key(*u_column[name]) for name in domains[u]}


def _comparison_filter(conjunct, var, domains, column_of):
    """A filter deciding `var.a op U.b` or `U.b op var.a` for another variable U.

    The conjunct is decided at `var`'s depth, so U is bound before `var`.
    Returns (op, values, U, U's values): the conjunct holds for a name n of
    `var` and U's value x when op(values[n], x) does, op being the conjunct's
    operator with its operands swapped when `var` is on the right. None
    unless both columns hold one type over their domains that the operator's
    rule admits: only then does the operator alone decide, and never raise.
    """
    found = _oriented(conjunct, var, column_of)
    if found is None or (other := column_of(found[2])) is None:
        return None
    (op, (_, _, column), _), (u, _, u_column) = found, other
    static = _static_column(column, domains[var])
    u_static = _static_column(u_column, domains[u])
    if static is None or u_static is None:
        return None
    (t, values), (u_type, u_values) = static, u_static
    try:
        _binary_type(op, t, u_type)
    except TypeCheckError:
        return None
    return _BINARY_OPS[op], values, u, u_values


def _static_column(column, names):
    """(type, name -> value) of a column holding one type over the names,
    else None."""
    types = {column[n][0] for n in names}
    if len(types) != 1:
        return None
    return types.pop(), {n: column[n][1] for n in names}
