"""Typed expression AST with C-style precedence evaluation.

Expressions are evaluated against a model plus a binding from feature
variables to concrete feature names. Type checking is dynamic: it consults
the current model state, so the same expression can be well formed before a
command and ill formed after it. A command compiles its expressions once
and runs them under every binding. compile_typed's closure type-checks and
evaluates at once, applying when compiling the rules over static types;
compile_expr's wraps it to give (type, value); compile_type's type-checks
only. A where-conjunct runs the first; a slot runs the last and then the
second, so that every type error in it is reported before an evaluation error.
"""

from __future__ import annotations

import math
import operator
import sys

from .model import DecompKind
from .record import FrozenRecord, slot_setters

# value types, as reported by the type pass
INTEGER = "integer"
REAL = "real"
BOOLEAN = "boolean"
STRING = "string"
DECOMP = "decomp"
DECOMP_ID = "decomp_id"

NUMERIC = (INTEGER, REAL)
TYPES = NUMERIC + (BOOLEAN, STRING, DECOMP, DECOMP_ID)

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

    def __init__(self, name: str):
        _set_feature_name(self, name)


class VarRef(FrozenRecord):
    """A feature variable, resolved at execution time."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_var_name(self, name)


class Lit(FrozenRecord):
    __slots__ = ("value",)  # int | float | bool | str | DecompKind

    def __init__(self, value):
        _set_lit_value(self, value)


class AttrRef(FrozenRecord):
    __slots__ = ("subject", "attr")  # subject: FeatureRef | VarRef

    def __init__(self, subject, attr: str):
        _set_attr_subject(self, subject)
        _set_attr_attr(self, attr)


class Unary(FrozenRecord):
    __slots__ = ("op", "operand")  # op: "-" | "not"

    def __init__(self, op: str, operand):
        _set_unary_op(self, op)
        _set_unary_operand(self, operand)


class Binary(FrozenRecord):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        _set_binary_op(self, op)
        _set_binary_left(self, left)
        _set_binary_right(self, right)


[_set_feature_name] = slot_setters(FeatureRef)
[_set_var_name] = slot_setters(VarRef)
[_set_lit_value] = slot_setters(Lit)
_set_attr_subject, _set_attr_attr = slot_setters(AttrRef)
_set_unary_op, _set_unary_operand = slot_setters(Unary)
_set_binary_op, _set_binary_left, _set_binary_right = slot_setters(Binary)


_TYPE_OF = {bool: BOOLEAN, int: INTEGER, float: REAL, str: STRING, DecompKind: DECOMP}


def type_of(value) -> str:
    try:
        return _TYPE_OF[type(value)]
    except KeyError:
        raise TypeError(f"unsupported attribute value {value!r}") from None


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
    """The type of `lt op rt`; the rule compile_type and compile_expr share."""
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


def compile_expr(expr):
    """Compile an expression into a closure `(features, binding) -> (type, value)`.

    `features` is a model's feature dict. The closure raises TypeCheckError
    for an ill-formed term and EvalError for a division or modulo by zero or
    a number out of range. It is eager, left to right, so an evaluation error
    in one operand is raised before a type error in a later operand; run
    compile_type's closure first to report every type error first. Each
    node's attribute access, operator and type rule are chosen here, once,
    rather than under every binding. It wraps compile_typed's closure.
    """
    return _tagged(*compile_typed(expr))


def compile_typed(expr, leaf=None):
    """Compile an expression into (static type or None, closure).

    A static type is one every binding gives: a binary node's rule is applied
    here, once, and the closure returns the value alone. Otherwise, as for a
    unary node or a rule failing on static types (raised after both operands
    ran), the closure returns (type, value). `leaf(term)` may compile an
    attribute term in place of the model read, to such a pair, or give None.
    """
    if isinstance(expr, Lit):
        value = expr.value
        return type_of(value), lambda features, binding: value
    if isinstance(expr, AttrRef):
        return (leaf and leaf(expr)) or (None, _compile_attr(expr.subject, expr.attr))
    if isinstance(expr, Unary):
        op, apply = expr.op, _UNARY_OPS[expr.op]
        operand = _tagged(*compile_typed(expr.operand, leaf))

        def unary(features, binding):
            t, v = operand(features, binding)
            return _unary_type(op, t), apply(v)
        return None, unary
    if isinstance(expr, Binary):
        op, apply = expr.op, _BINARY_OPS[expr.op]
        lt, left = compile_typed(expr.left, leaf)
        rt, right = compile_typed(expr.right, leaf)
        try:
            if lt is not None and rt is not None:
                return _binary_type(op, lt, rt), lambda features, binding: apply(
                    left(features, binding), right(features, binding))
        except TypeCheckError:
            pass
        left, right = _tagged(lt, left), _tagged(rt, right)

        def binary(features, binding):
            lt, a = left(features, binding)
            rt, b = right(features, binding)
            return _binary_type(op, lt, rt), apply(a, b)
        return None, binary
    raise TypeError(f"not an expression node: {expr!r}")


def _tagged(t, run):
    """The (type, value) closure of a compiled node of static type t."""
    return run if t is None else lambda features, binding: (t, run(features, binding))


def compile_type(expr):
    """Compile an expression into a closure `(features, binding) -> type`.

    The type pass alone: it raises the TypeCheckError of the first ill-formed
    term, left to right, and no type rule short-circuits. It evaluates no
    operator, so it never raises EvalError.
    """
    if isinstance(expr, Lit):
        t = type_of(expr.value)
        return lambda features, binding: t
    if isinstance(expr, AttrRef):
        read = _compile_attr(expr.subject, expr.attr)
        return lambda features, binding: read(features, binding)[0]
    if isinstance(expr, Unary):
        op, operand = expr.op, compile_type(expr.operand)
        return lambda features, binding: _unary_type(op, operand(features, binding))
    if isinstance(expr, Binary):
        op, left, right = expr.op, compile_type(expr.left), compile_type(expr.right)
        return lambda features, binding: _binary_type(
            op, left(features, binding), right(features, binding))
    raise TypeError(f"not an expression node: {expr!r}")


def attr_reader(attr: str):
    """A reader of one attribute: (type, value), or None where a feature lacks it."""
    if attr in STRUCTURAL:
        t, value, on_root = STRUCTURAL[attr]
        return lambda f: (t, value(f)) if on_root or not f.is_root else None

    def read(f):
        v = f.attributes.get(attr)
        return None if v is None else (type_of(v), v)
    return read


def _compile_attr(subject, attr: str):
    read, var = attr_reader(attr), subject.name
    named = isinstance(subject, FeatureRef)
    lacks = ('the root feature "{}" has no decomposition relation' if attr in STRUCTURAL
             else f'feature "{{}}" has no attribute named {attr}')

    def term(features, binding):
        name = var if named else binding.get(var)
        if name is None:
            raise TypeCheckError(f"unbound feature variable {var}")
        f = features.get(name)
        if f is None:
            raise TypeCheckError(f'there is no feature with the name "{name}"')
        pair = read(f)
        if pair is None:
            raise TypeCheckError(lacks.format(name))
        return pair
    return term


# The attributes every feature has (model.STRUCTURAL_ATTRS), each with its
# type, a reader of its value and whether the root has it: the root has no
# decomposition relation.
STRUCTURAL = {
    "_name": (STRING, lambda f: f.name, True),
    "_parent": (STRING, lambda f: f.parent if f.parent is not None else "", True),
    "_decomp": (DECOMP, lambda f: f.decomp, False),
    "_decompID": (DECOMP_ID, lambda f: ("decompID", f.group_id), False),
}


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
