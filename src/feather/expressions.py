"""Typed expression AST with C-style precedence evaluation.

Expressions are evaluated against a model plus a binding from feature
variables to concrete feature names. Type checking is dynamic: it consults
the current model state, so the same expression can be well formed before a
command and ill formed after it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import DecompKind, FeatureModel

# value types, as reported by typecheck
INTEGER = "integer"
REAL = "real"
BOOLEAN = "boolean"
STRING = "string"
DECOMP = "decomp"
DECOMP_ID = "decomp_id"

NUMERIC = (INTEGER, REAL)

ARITH_OPS = ("+", "-", "*", "/", "%")
REL_OPS = ("<", "<=", ">", ">=")
EQ_OPS = ("=", "<>")
BOOL_OPS = ("and", "or")


class TypeCheckError(Exception):
    """Expression is not well formed against the current model/binding."""


class EvalError(Exception):
    """Dynamic evaluation failure (division or modulo by zero, overflow)."""


@dataclass(frozen=True)
class FeatureRef:
    """A literal feature name, written "Name" in source."""

    name: str


@dataclass(frozen=True)
class VarRef:
    """A feature variable, resolved at execution time."""

    name: str


@dataclass(frozen=True)
class Lit:
    value: object  # int | float | bool | str | DecompKind


@dataclass(frozen=True)
class AttrRef:
    subject: object  # FeatureRef | VarRef
    attr: str


@dataclass(frozen=True)
class Unary:
    op: str  # "-" | "not"
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object


def type_of(value) -> str:
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        return REAL
    if isinstance(value, str):
        return STRING
    if isinstance(value, DecompKind):
        return DECOMP
    raise TypeError(f"unsupported attribute value {value!r}")


def variables_in(expr) -> set:
    """All feature-variable names occurring in the expression."""
    out: set = set()
    _collect_vars(expr, out)
    return out


def _collect_vars(expr, out: set) -> None:
    if isinstance(expr, AttrRef):
        if isinstance(expr.subject, VarRef):
            out.add(expr.subject.name)
    elif isinstance(expr, Unary):
        _collect_vars(expr.operand, out)
    elif isinstance(expr, Binary):
        _collect_vars(expr.left, out)
        _collect_vars(expr.right, out)


# -- type checking ---------------------------------------------------------


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
        t = typecheck(expr.operand, model, binding)
        if expr.op == "-":
            if t not in NUMERIC:
                raise TypeCheckError(f"unary - applied to {t} operand")
            return t
        if t != BOOLEAN:
            raise TypeCheckError(f"not applied to {t} operand")
        return BOOLEAN
    if isinstance(expr, Binary):
        lt = typecheck(expr.left, model, binding)
        rt = typecheck(expr.right, model, binding)
        op = expr.op
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
    raise TypeError(f"not an expression node: {expr!r}")


# -- evaluation ------------------------------------------------------------


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


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


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
        v = evaluate(expr.operand, model, binding)
        return (-v) if expr.op == "-" else (not v)
    if isinstance(expr, Binary):
        a = evaluate(expr.left, model, binding)
        b = evaluate(expr.right, model, binding)
        try:
            v = _apply(expr.op, a, b)
        except OverflowError:
            raise EvalError("number out of range") from None
        if isinstance(v, float) and not math.isfinite(v):
            raise EvalError("real result out of range")
        if type(v) is int and not _writable(v):
            raise EvalError("number out of range")
        return v
    raise TypeError(f"not an expression node: {expr!r}")


# 0 means no limit, as on interpreters without the limit
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _writable(n: int) -> bool:
    """Whether str(n) has at most sys.get_int_max_str_digits() digits."""
    limit = _max_str_digits()
    # |n| < 2**bit_length <= 8**limit < 10**limit
    return not limit or n.bit_length() <= 3 * limit or abs(n) < 10 ** limit


def _apply(op: str, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise EvalError("division by zero")
        return a / b
    if op == "%":
        if b == 0:
            raise EvalError("modulo by zero")
        return a - _trunc_div(a, b) * b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if op == "=":
        return _equal(a, b)
    if op == "<>":
        return not _equal(a, b)
    if op == "and":
        return a and b
    if op == "or":
        return a or b
    raise TypeError(f"not a binary operator: {op!r}")


def _equal(a, b) -> bool:
    # Python compares an int with a float exactly, never through a rounded real
    return _eq_class(a) == _eq_class(b) and a == b


def _eq_class(v) -> str:
    if isinstance(v, bool):
        return BOOLEAN
    if isinstance(v, (int, float)):
        return "numeric"
    if isinstance(v, tuple):
        return DECOMP_ID
    if isinstance(v, DecompKind):
        return DECOMP
    return STRING


# -- usage extraction ------------------------------------------------------

# usage contexts: numeric / boolean / string / decomp / decomp_id / any
STRUCTURAL_TYPES = {
    "_name": STRING,
    "_parent": STRING,
    "_decomp": DECOMP,
    "_decompID": DECOMP_ID,
}


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
    fixed = STRUCTURAL_TYPES.get(attr)
    if fixed is not None:
        ctx = _ctx_class(fixed)
    usages.setdefault(var, []).append((attr, ctx))


def _static_type(expr) -> str | None:
    """Type of a subexpression when derivable without a model, else None."""
    if isinstance(expr, Lit):
        return type_of(expr.value)
    if isinstance(expr, AttrRef):
        return STRUCTURAL_TYPES.get(expr.attr)
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


def compatible(value_type: str, ctx: str) -> bool:
    """Whether an attribute of value_type satisfies a usage context."""
    if ctx == "any":
        return True
    if ctx == "numeric":
        return value_type in NUMERIC
    return value_type == ctx
