"""Typed expression AST with C-style precedence evaluation.

Expressions are evaluated against a model plus a binding from feature
variables to concrete feature names. Type checking is dynamic: it consults
the current model state, so the same expression can be well formed before a
command and ill formed after it. A command compiles its expressions once,
with compile_expr, into a type and a value: the type is static where the
rules decide it without a model, else a type pass to run under a binding;
the value is evaluated under a binding only after the type has been
checked, so a type error always wins over an evaluation error.

A term reads its attribute as the model does (`model.attr_reader`): the
value types, their names and the attributes every feature has are the
model's, and the type rules here are stated over them.
"""

from __future__ import annotations

import math
import operator
import sys

from .model import BOOLEAN, INTEGER, NUMERIC, REAL, STRUCTURAL, TYPES, attr_reader, type_of
from .record import FrozenRecord

ARITH_OPS = ("+", "-", "*", "/", "%")
REL_OPS = ("<", "<=", ">", ">=")
EQ_OPS = ("=", "<>")
BOOL_OPS = ("and", "or")


class TypeCheckError(Exception):
    """Expression is not well formed against the current model/binding."""


class EvalError(Exception):
    """Dynamic evaluation failure (division or modulo by zero, overflow)."""


class FeatureRef(FrozenRecord):
    """A literal feature name, written "Name" in source."""

    __slots__ = ("name",)


class VarRef(FrozenRecord):
    """A feature variable, resolved at execution time."""

    __slots__ = ("name",)


class Lit(FrozenRecord):
    __slots__ = ("value",)  # int | float | bool | str | DecompKind


class AttrRef(FrozenRecord):
    __slots__ = ("subject", "attr")  # subject: FeatureRef | VarRef


class Unary(FrozenRecord):
    __slots__ = ("op", "operand")  # op: "-" | "not"


class Binary(FrozenRecord):
    __slots__ = ("op", "left", "right")


# -- type rules ------------------------------------------------------------


def _unary_type(op: str, t: str) -> str:
    if op == "-":
        if t not in NUMERIC:
            raise TypeCheckError(f"unary - applied to {t} operand")
        return t
    if t != BOOLEAN:
        raise TypeCheckError(f"not applied to {t} operand")
    return BOOLEAN


def _binary_type(op: str, lt: str, rt: str) -> str:
    """The type of `lt op rt`."""
    if op in ARITH_OPS:
        if lt not in NUMERIC or rt not in NUMERIC:
            raise TypeCheckError(f"{op} applied to {lt} and {rt} operands")
        if op == "/":
            return REAL
        if op == "%":
            if lt != INTEGER or rt != INTEGER:
                raise TypeCheckError("% is defined on integers only")
            return INTEGER
        return INTEGER if lt == INTEGER and rt == INTEGER else REAL
    if op in REL_OPS:
        if lt not in NUMERIC or rt not in NUMERIC:
            raise TypeCheckError(f"{op} applied to {lt} and {rt} operands")
        return BOOLEAN
    if op in EQ_OPS:
        ok = (lt in NUMERIC and rt in NUMERIC) or lt == rt
        if not ok:
            raise TypeCheckError(f"{op} applied to {lt} and {rt} operands")
        return BOOLEAN
    if op in BOOL_OPS:
        if lt != BOOLEAN or rt != BOOLEAN:
            raise TypeCheckError(f"{op} applied to {lt} and {rt} operands")
        return BOOLEAN
    raise TypeError(f"not a binary operator: {op!r}")


# -- operators -------------------------------------------------------------


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _div(a, b):
    if b == 0:
        raise EvalError("division by zero")
    return a / b


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("modulo by zero")
    return a - _trunc_div(a, b) * b


def _checked(arith):
    """`arith`, with every number out of range an EvalError."""
    def apply(a, b):
        try:
            v = arith(a, b)
        except OverflowError:
            raise EvalError("number out of range") from None
        if isinstance(v, float) and not math.isfinite(v):
            raise EvalError("real result out of range")
        if type(v) is int and not _writable(v):
            raise EvalError("number out of range")
        return v
    return apply


# 0 means no limit, as on interpreters without the limit
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _writable(n: int) -> bool:
    """Whether str(n) has at most sys.get_int_max_str_digits() digits."""
    limit = _max_str_digits()
    # |n| < 2**bit_length <= 8**limit < 10**limit
    return not limit or n.bit_length() <= 3 * limit or abs(n) < 10 ** limit


# What each operator means. compile_expr applies one only to operands that
# passed its type rule: those of `=` and `<>` are then of one class (numbers,
# or two values of the same type), so Python's `==` is exact equality, an
# int against a real included.
_UNARY_OPS = {"-": operator.neg, "not": operator.not_}
_BINARY_OPS = {
    "+": _checked(operator.add), "-": _checked(operator.sub),
    "*": _checked(operator.mul), "/": _checked(_div), "%": _checked(_mod),
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "=": operator.eq, "<>": operator.ne, "and": operator.and_, "or": operator.or_,
}


# -- compilation -----------------------------------------------------------


def compile_expr(expr, leaf=None):
    """Compile an expression into (type, value), each node's parts chosen here.

    `type` is the static type, a string, where the operand types are static
    and the rule holds, else a closure `(features, binding) -> type` raising
    the first TypeCheckError, left to right; no rule short-circuits. `value`,
    a closure `(features, binding) -> value`, runs only once the type has
    been checked under the binding, and raises only EvalError. `features` is
    a model's feature dict; `leaf(term)` may compile an attribute term to
    such a pair in place of the model read, or give None.
    """
    if isinstance(expr, Lit):
        value = expr.value
        return type_of(value), lambda features, binding: value
    if isinstance(expr, AttrRef):
        return (leaf and leaf(expr)) or _compile_attr(expr.subject, expr.attr)
    if isinstance(expr, Unary):
        op, apply = expr.op, _UNARY_OPS[expr.op]
        t, operand = compile_expr(expr.operand, leaf)
        return (_node_type(_unary_type, op, t),
                lambda features, binding: apply(operand(features, binding)))
    if isinstance(expr, Binary):
        op, apply = expr.op, _BINARY_OPS[expr.op]
        lt, left = compile_expr(expr.left, leaf)
        rt, right = compile_expr(expr.right, leaf)
        return (_node_type(_binary_type, op, lt, rt), lambda features, binding: apply(
            left(features, binding), right(features, binding)))
    raise TypeError(f"not an expression node: {expr!r}")


def _node_type(rule, op: str, *types):
    """The type of an operator node, from its operands' types by `rule`:
    static where they all are and the rule holds, else a closure."""
    if all(type(t) is str for t in types):
        try:
            return rule(op, *types)
        except TypeCheckError:
            pass
    passes = [t if callable(t) else lambda features, binding, t=t: t for t in types]
    return lambda features, binding: rule(op, *[p(features, binding) for p in passes])


def _compile_attr(subject, attr: str):
    """The (type, value) closures of the term `subject.attr`."""
    read, var = attr_reader(attr), subject.name
    named = isinstance(subject, FeatureRef)
    lacks = ('the root feature "{}" has no decomposition relation' if attr in STRUCTURAL
             else f'feature "{{}}" has no attribute named {attr}')

    def term_type(features, binding):
        name = var if named else binding.get(var)
        if name is None:
            raise TypeCheckError(f"unbound feature variable {var}")
        f = features.get(name)
        if f is None:
            raise TypeCheckError(f'there is no feature with the name "{name}"')
        pair = read(f)
        if pair is None:
            raise TypeCheckError(lacks.format(name))
        return pair[0]
    return term_type, lambda features, binding: read(
        features[var if named else binding[var]])[1]


# -- usage extraction ------------------------------------------------------


# usage contexts: numeric / boolean / string / decomp / decomp_id / any
def referenced_usages(expr, top_context: str = BOOLEAN) -> dict:
    """Per-variable list of (attribute, demanded-context) pairs.

    The context is what the surrounding operator requires of the term:
    "numeric" under arithmetic/relational operators, "boolean" under logical
    ones, the partner's type under equality when it is statically known, and
    "any" otherwise. Structural attributes always report their fixed type.
    """
    usages: dict = {}
    _walk_usages(expr, _ctx_class(top_context), usages)
    return usages


def _ctx_class(t: str) -> str:
    return "numeric" if t in NUMERIC else t


def _record(usages: dict, var: str, attr: str, ctx: str) -> None:
    if attr in STRUCTURAL:
        ctx = _ctx_class(STRUCTURAL[attr][0])
    usages.setdefault(var, []).append((attr, ctx))


def _static_type(expr) -> str | None:
    """Type of a subexpression when derivable without a model, else None."""
    if isinstance(expr, Lit):
        return type_of(expr.value)
    if isinstance(expr, AttrRef):
        return STRUCTURAL[expr.attr][0] if expr.attr in STRUCTURAL else None
    if isinstance(expr, Unary):
        return BOOLEAN if expr.op == "not" else None
    if isinstance(expr, Binary):
        if expr.op in REL_OPS + EQ_OPS + BOOL_OPS:
            return BOOLEAN
        if expr.op == "/":
            return REAL
        return None  # numeric, exact kind unknown
    return None


def _walk_usages(expr, ctx: str, usages: dict) -> None:
    if isinstance(expr, Lit):
        return
    if isinstance(expr, AttrRef):
        if isinstance(expr.subject, VarRef):
            _record(usages, expr.subject.name, expr.attr, ctx)
        return
    if isinstance(expr, Unary):
        _walk_usages(expr.operand, "numeric" if expr.op == "-" else BOOLEAN, usages)
        return
    if isinstance(expr, Binary):
        op = expr.op
        if op in ARITH_OPS or op in REL_OPS:
            _walk_usages(expr.left, "numeric", usages)
            _walk_usages(expr.right, "numeric", usages)
        elif op in BOOL_OPS:
            _walk_usages(expr.left, BOOLEAN, usages)
            _walk_usages(expr.right, BOOLEAN, usages)
        else:  # equality: each side constrained by the partner's static type
            lt, rt = _static_type(expr.left), _static_type(expr.right)
            _walk_usages(expr.left, _ctx_class(rt) if rt else "any", usages)
            _walk_usages(expr.right, _ctx_class(lt) if lt else "any", usages)


def admitted_types(contexts) -> set:
    """The types of the attribute values that satisfy every usage context."""
    admitted = set(TYPES)
    for ctx in contexts:
        if ctx != "any":
            admitted &= set(NUMERIC) if ctx == "numeric" else {ctx}
    return admitted
