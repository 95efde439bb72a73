"""Resolution of feature variables against the live model.

A command's variables are resolved jointly: the result is the set of
variable-to-feature tuples whose binding satisfies the where-clause. The
search binds variables smallest domain first. Per-variable candidate domains
are pruned by attribute presence and type compatibility, and each
where-conjunct is scheduled once, at the depth where its last variable is
bound. A conjunct `V.a = U.b` between two variables is a hash-indexed
equality join: `V`'s domain is indexed once by the key of `a`, and at `V`'s
depth the search visits only the names whose key equals that of `U.b`.
Keys follow `=` exactly (`1 = 1.0`; a boolean never equals a number), so
the index returns exactly the bindings under which the join is true, and the
join needs no check of its own. All prunings are semantics-preserving: every
surviving binding is checked against every other conjunct. The conjuncts
decided at one depth are compiled once per resolve (compile_expr) into one
check that type-checks and evaluates in one pass; a conjunct that fails
either way is false.
"""

from __future__ import annotations

from .expressions import (
    AttrRef,
    Binary,
    EvalError,
    NUMERIC,
    STRUCTURAL,
    TypeCheckError,
    VarRef,
    compatible,
    compile_expr,
    referenced_usages,
    type_of,
    variables_in,
)
from .model import FeatureModel
from .record import Record


class ResolutionSet(Record):
    __slots__ = ("variables", "tuples")

    def __init__(self, variables: tuple, tuples: list):
        # tuples: equal-length name tuples, declaration-order lexicographic
        self.variables, self.tuples = variables, tuples

    def bindings(self):
        for t in self.tuples:
            yield dict(zip(self.variables, t))

    def project(self, var: str) -> list:
        """Distinct values for one variable, preserving enumeration order."""
        i = self.variables.index(var)
        seen, out = set(), []
        for t in self.tuples:
            if t[i] not in seen:
                seen.add(t[i])
                out.append(t[i])
        return out


class Ambiguous(Record):
    __slots__ = ("values",)


class NoResolution:
    pass


NO_RESOLUTION = NoResolution()


def candidate_domain(model: FeatureModel, usages: list) -> list:
    """Features admissible for a variable given its (attr, context) usages."""
    out = []
    for f in model.features.values():
        if all(_admits(f, attr, ctx) for attr, ctx in usages):
            out.append(f.name)
    return out


def _admits(f, attr: str, ctx: str) -> bool:
    if attr in STRUCTURAL:
        t, _read, on_root = STRUCTURAL[attr]
        return (on_root or not f.is_root) and compatible(t, ctx)
    if attr not in f.attributes:
        return False
    return compatible(type_of(f.attributes[attr]), ctx)


def merge_usages(*usage_maps: dict) -> dict:
    merged: dict = {}
    for m in usage_maps:
        for var, pairs in m.items():
            merged.setdefault(var, []).extend(pairs)
    return merged


def _conjuncts(expr) -> list:
    if isinstance(expr, Binary) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def resolve(model: FeatureModel, variables, where=None,
            usages: dict | None = None) -> ResolutionSet:
    """All tuples over the candidate domains satisfying the where-clause.

    `usages` widens the domain restriction beyond the where-clause (a command
    passes the usages of every expression it contains); when omitted it is
    computed from the where-clause alone. A binding under which the
    where-clause fails to typecheck, or raises a dynamic error, does not
    satisfy the clause.
    """
    variables = tuple(variables)
    if usages is None:
        usages = referenced_usages(where) if where is not None else {}
    domains = {v: candidate_domain(model, usages.get(v, [])) for v in variables}
    features = model.features
    binding: dict = {}

    # variables with the smallest domains first; output order is restored below
    order = sorted(variables, key=lambda v: len(domains[v]))
    depth_of = {v: d for d, v in enumerate(order)}
    scheduled: list = [[] for _ in order]  # conjuncts decided once order[d] is bound
    constant = []  # conjuncts without variables
    for c in _conjuncts(where) if where is not None else []:
        vs = variables_in(c) & depth_of.keys()
        if vs:
            scheduled[max(depth_of[v] for v in vs)].append(c)
        else:
            constant.append(c)
    if constant and not _all_hold(constant)(features, binding):
        return ResolutionSet(variables, [])
    probes: list = [None] * len(order)  # per depth: (hash index, probe term) or None
    for d, cs in enumerate(scheduled):
        for c in cs:
            probes[d] = _equijoin_probe(features, c, order[d], domains)
            if probes[d] is not None:
                cs.remove(c)  # the index lookup decides it
                break
    checks = [_all_hold(cs) if cs else None for cs in scheduled]

    results = []

    def search(depth: int) -> None:
        if depth == len(order):
            results.append(tuple(binding[v] for v in variables))
            return
        var, check = order[depth], checks[depth]
        if probes[depth] is None:
            names = domains[var]
        else:
            table, term = probes[depth]
            names = table.get(_join_key(features, term, binding), ())
        for name in names:
            binding[var] = name
            if check is None or check(features, binding):
                search(depth + 1)
        binding.pop(var, None)

    search(0)

    # one variable's tuples already follow its domain, in declaration order
    if len(variables) > 1 and len(results) > 1:
        index = {name: i for i, name in enumerate(features)}
        results.sort(key=lambda t: tuple(index[n] for n in t))
    return ResolutionSet(variables, results)


def _all_hold(conjuncts):
    """One compiled check of the conjuncts under a binding.

    False as soon as one of them is not true, or fails to typecheck or
    evaluate, as the whole where-clause would.
    """
    compiled = [compile_expr(c) for c in conjuncts]

    def holds(features, binding) -> bool:
        try:
            for c in compiled:
                if c(features, binding)[1] is not True:
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


def _equijoin_probe(features, conjunct, var, domains):
    """A hash index answering `var.a = U.b` for another variable U.

    The conjunct is decided at `var`'s depth, so U is bound before `var`.
    Returns (index, compiled U.b): the index maps the key of `var.a` to the
    names of `var`'s domain, in domain order, and the search looks up the key
    of `U.b` under the current binding. None when the conjunct has another
    shape.
    """
    if not (isinstance(conjunct, Binary) and conjunct.op == "="):
        return None
    for mine, other in ((conjunct.left, conjunct.right),
                        (conjunct.right, conjunct.left)):
        if _var_term(mine) == var and _var_term(other) in domains.keys() - {var}:
            term, index = compile_expr(mine), {}
            for name in domains[var]:
                key = _join_key(features, term, {var: name})
                if key is not None:
                    index.setdefault(key, []).append(name)
            return index, compile_expr(other)
    return None


def _join_key(features, term, binding):
    """Hash key of a compiled term's value: values `=` calls equal share a key.

    None when the term fails to typecheck or its value is NaN, which equals
    nothing. Numbers are keyed by their value: an int and a float that `=`
    calls equal are equal and hash alike, so 1 = 1.0 while 2**53 + 1 is not
    2**53. Other values are keyed by type, so true never equals 1.
    """
    try:
        t, value = term(features, binding)
    except TypeCheckError:
        return None
    if t not in NUMERIC:
        return t, value
    return None if value != value else ("numeric", value)


def derive_unambiguous(resolutions: ResolutionSet, evaluate_slot):
    """Evaluate a slot under every resolution tuple.

    Returns the common value when all tuples agree, Ambiguous(values) when
    they differ, NO_RESOLUTION on an empty set. Type tags matter: an integer
    and a real of equal magnitude count as different derived values.
    """
    if not resolutions.tuples:
        return NO_RESOLUTION
    values, keys = [], set()
    for binding in resolutions.bindings():
        v = evaluate_slot(binding)
        key = (type(v).__name__, v)
        if key not in keys:
            keys.add(key)
            values.append(v)
    if len(values) == 1:
        return values[0]
    return Ambiguous(values)
