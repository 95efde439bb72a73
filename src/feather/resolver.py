"""Resolution of feature variables against the live model.

A command's variables are resolved jointly: the result is the set of
variable-to-feature tuples whose binding satisfies the where-clause. The
resolver only resolves; a command derives the values it assigns from the
tuples itself (commands._deriver).

Each candidate domain is pruned by attribute presence and type
compatibility, read from the model's column of each attribute: name to
(type, value), kept across commands (FeatureModel.column), so that the
variables and commands that use an attribute read it from the features
once. Conjuncts compile once per resolve (compile_expr) against the
columns. A term then costs two dict reads under a binding, and a column of
one type over the domain gives a static type, so that the type rules over
it are applied at compile time. A conjunct that fails to typecheck or
evaluate is false.

Conjuncts of one variable filter its domain before the search; one of the
form `V.a = lit` keeps the names whose key (see below) equals the literal's,
the model's bucket of that key (FeatureModel.buckets).
The search binds the variables smallest domain first, deciding each
conjunct at the depth where its last variable is bound. A conjunct
`V.a = U.b` is a hash join: `V`'s domain is indexed once by the key of its
`a` column, and the search visits only the names whose key equals that of
`U.b`. Keys follow `=` exactly (`1 = 1.0`; a boolean never equals a
number), so neither the join nor the literal filter needs a check of its
own. A comparison `V.a op U.b` between bound variables, both columns of one
type that the rule of `op` admits, filters the depth's names in one pass:
`U.b` is read once per binding of the earlier depths and compared with each
name's value by the operator itself, which never raises on such values.
Each depth walks its names in domain order, so only a search order other
than the declaration order needs a sort.
"""

from __future__ import annotations

from operator import itemgetter

from .expressions import (
    AttrRef,
    Binary,
    EvalError,
    Lit,
    NUMERIC,
    TypeCheckError,
    VarRef,
    _BINARY_OPS,
    _binary_type,
    admitted_types,
    attr_reader,
    compile_expr,
    referenced_usages,
    type_of,
)
from .model import FeatureModel
from .record import Record


class ResolutionSet(Record):
    __slots__ = ("variables", "tuples")

    def __init__(self, variables: tuple, tuples: list):
        # tuples: equal-length name tuples, declaration-order lexicographic
        self.variables, self.tuples = variables, tuples


def candidate_domain(model: FeatureModel, usages: list, columns=None) -> list:
    """Features admissible for a variable given its (attr, context) usages,
    by name in feature order.

    `columns` receives the model's column of each used attribute, which is
    read-only (FeatureModel.column).
    """
    contexts: dict = {}
    for attr, ctx in usages:
        contexts.setdefault(attr, []).append(ctx)
    columns = {} if columns is None else columns
    for attr in contexts:
        columns[attr] = model.column(attr, attr_reader(attr))
    names = min((columns[attr] for attr in contexts), key=len, default=model.features)
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

    `usages` restricts the candidate domains: a command passes the usages
    of every expression it contains, its where-clause included; without
    it, the where-clause's own usages do. A binding under which the
    where-clause fails to typecheck, or raises a dynamic error, does not
    satisfy the clause. A variable may be declared once only.
    """
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError(f"repeated variable in {variables}")
    conjuncts = _conjuncts(where) if where is not None else []
    uses = [referenced_usages(c) for c in conjuncts]  # each conjunct's, by variable
    if usages is None:
        usages = referenced_usages(where) if where is not None else {}
    features, binding = model.features, {}
    columns = {v: {} for v in variables}
    domains = {v: candidate_domain(model, usages.get(v, []), columns[v])
               for v in variables}

    def leaf(term):
        var = _var_term(term)
        if var not in columns:
            return None
        column = columns[var][term.attr]
        static = _static_column(column, domains[var])
        if static is None:
            return (lambda features, binding: column[binding[var]][0],
                    lambda features, binding: column[binding[var]][1])
        t, values = static
        return t, lambda features, binding: values[binding[var]]

    single = {v: [] for v in variables}  # conjuncts of one variable, by variable
    joint, constant = [], []  # (conjunct, its variables) of several, conjuncts of none
    for c, used in zip(conjuncts, uses):
        vs = [v for v in used if v in columns]
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
            match = _literal_key(c)
            if match is None:
                rest.append(c)
            else:  # the model's bucket of the key, less what the domain lacks
                attr, key = match
                names = model.buckets(attr, attr_reader(attr), _join_key).get(key, [])
                if len(domains[v]) < len(columns[v][attr]):
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
    probes: list = [None] * len(order)  # per depth: (hash index, U, U's keys) or None
    filters: list = [[] for _ in order]  # per depth: (op, values, U, U's values)
    for d, cs in enumerate(scheduled):
        for c in cs:
            probes[d] = _equijoin_probe(c, order[d], domains, columns)
            if probes[d] is not None:
                cs.remove(c)  # the index lookup decides it
                break
        for c in list(cs):
            found = _comparison_filter(c, order[d], domains, columns)
            if found is not None:
                filters[d].append(found)
                cs.remove(c)  # the filter decides it
    checks = [_all_hold(cs, leaf) if cs else None for cs in scheduled]
    results = [] if order else [()]
    last = len(order) - 1

    def search(depth: int) -> None:
        var, check, probe = order[depth], checks[depth], probes[depth]
        if probe is None:
            names = domains[var]
        else:
            table, other, keys = probe
            names = table.get(keys[binding[other]], ())
        for op, values, u, u_values in filters[depth]:
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


def _var_term(expr):
    """The variable of a `V.attr` term, else None."""
    if isinstance(expr, AttrRef) and isinstance(expr.subject, VarRef):
        return expr.subject.name
    return None


def _literal_key(conjunct):
    """(a, the key of lit) for a conjunct `V.a = lit` or `lit = V.a`, else None."""
    if isinstance(conjunct, Binary) and conjunct.op == "=":
        for term, lit in ((conjunct.left, conjunct.right),
                          (conjunct.right, conjunct.left)):
            if _var_term(term) is not None and isinstance(lit, Lit):
                return term.attr, _join_key(type_of(lit.value), lit.value)
    return None


def _equijoin_probe(conjunct, var, domains, columns):
    """A hash index answering `var.a = U.b` for another variable U.

    The conjunct is decided at `var`'s depth, so U is bound before `var`.
    Returns (index, U, keys): the index maps the key of `var.a` to the names
    of `var`'s domain, in domain order, and keys maps each name of U's domain
    to the key of its `U.b`. None when the conjunct has another shape.
    """
    if not (isinstance(conjunct, Binary) and conjunct.op == "="):
        return None
    for mine, other in ((conjunct.left, conjunct.right),
                        (conjunct.right, conjunct.left)):
        u = _var_term(other)
        if _var_term(mine) == var and u in domains.keys() - {var}:
            column, index = columns[var][mine.attr], {}
            for name in domains[var]:
                key = _join_key(*column[name])
                if key is not None:
                    index.setdefault(key, []).append(name)
            column = columns[u][other.attr]
            return index, u, {name: _join_key(*column[name]) for name in domains[u]}
    return None


# each comparison with its operands swapped: `a op b` is `b _SWAPPED[op] a`
# on any two values that the type rule of op admits
_SWAPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


def _comparison_filter(conjunct, var, domains, columns):
    """A filter deciding `var.a op U.b` or `U.b op var.a` for another variable U.

    The conjunct is decided at `var`'s depth, so U is bound before `var`.
    Returns (op, values, U, U's values): the conjunct holds for a name n of
    `var` and U's value x when op(values[n], x) does, op being the conjunct's
    operator with its operands swapped when `var` is on the right. None
    unless both columns hold one type over their domains that the operator's
    rule admits: only then does the operator alone decide, and never raise.
    """
    if not (isinstance(conjunct, Binary) and conjunct.op in _SWAPPED):
        return None
    op, mine, other = conjunct.op, conjunct.left, conjunct.right
    if _var_term(mine) != var:
        op, mine, other = _SWAPPED[op], other, mine
    u = _var_term(other)
    if _var_term(mine) != var or u not in domains.keys() - {var}:
        return None
    static = _static_column(columns[var][mine.attr], domains[var])
    u_static = _static_column(columns[u][other.attr], domains[u])
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


def _join_key(t: str, value):
    """Hash key of a typed value: values `=` calls equal share a key.

    None when the value is NaN, which equals nothing. Numbers are keyed by
    their value: an int and a float that `=` calls equal are equal and hash
    alike, so 1 = 1.0 while 2**53 + 1 is not 2**53. Other values are keyed by
    type, so true never equals 1.
    """
    if t not in NUMERIC:
        return t, value
    return None if value != value else ("numeric", value)

