"""Plain record classes: fields in slots, compared and shown like dataclasses.

A record's fields are the `__slots__` of its classes, base class first (one
base per class). Two records are equal when they are of the same class with
equal fields, and a record shows as `Cls(field=value, ...)`. A record is
mutable and unhashable; a frozen one refuses assignment and deletion and
hashes by its fields. Slots a class names in `_derived` are not fields:
they start as None and take no part in equality or the repr.
"""


class Record:
    """The generic constructor takes the fields in order, positionally or by
    name. A field missing from `_defaults` is required; a default list or
    dict is copied for each instance. A class built in bulk defines its own
    `__init__`."""

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}
    _derived: tuple = ()

    def __init_subclass__(cls):
        base = cls.__mro__[1]
        derived = cls.__dict__.get("_derived", ())
        cls._fields = base._fields + tuple(
            s for s in cls.__dict__.get("__slots__", ()) if s not in derived)
        cls._defaults = {**base._defaults, **cls.__dict__.get("_defaults", {})}
        cls._derived = base._derived + derived

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        values = dict(zip(fields, args), **kwargs)
        if (len(args) > len(fields) or len(values) < len(args) + len(kwargs)
                or not values.keys() <= set(fields)):
            raise TypeError(f"{cls.__name__}() takes the fields {fields}, "
                            f"got {args!r} and {kwargs!r}")
        for name in fields:
            if name in values:
                value = values[name]
            elif name in cls._defaults:
                value = cls._defaults[name]
                if isinstance(value, (list, dict)):
                    value = value.copy()
            else:
                raise TypeError(f"{cls.__name__}() is missing the field {name!r}")
            object.__setattr__(self, name, value)
        for name in cls._derived:
            object.__setattr__(self, name, None)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

