"""The base of the package's immutable value classes.

A value is its class plus its fields.  A value class annotates its fields
in order, gives a field a default by assigning it in the class body, and
states its rules in _check; Frozen builds every value from the
annotations (positional arguments, then keywords, then defaults, then
_check), and derives equality (same class, equal field tuples), the hash
(of the field tuple) and the repr from them.  DecisionReport, whose
stats field is a dict, sets __hash__ = None; MarkedNfa takes back
object's __eq__ and __hash__ and compares by identity.  This module
imports only operator, which Python loads at startup, where dataclasses
pulls in inspect, ast, dis and tokenize and compiles each class's methods
at every import: two thirds of the time that `import rrkit.cli` took.
"""

from operator import attrgetter


class Frozen:
    """Assigning or deleting an attribute raises AttributeError.  Instances
    keep a __dict__, so functools.cached_property, which writes there
    directly, still caches on them."""

    def __init_subclass__(cls) -> None:
        # the annotated field names, a getter of their values as a tuple
        # (every value class has two fields or more), and the defaults
        # assigned in the class body; a subclass that annotates nothing
        # keeps its parent's
        fields = cls.__dict__.get("__annotations__")
        if fields:
            cls._fields = tuple(fields)
            cls._key = attrgetter(*fields)
            cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            self.__dict__.update(zip(fields, args))
        else:
            name = type(self).__qualname__
            if len(args) > len(fields):
                raise TypeError(
                    f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
                )
            given = dict(zip(fields, args))
            for key in kwargs:
                if key not in fields:
                    raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
                if key in given:
                    raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values = {**self._defaults, **given, **kwargs}
            missing = [field for field in fields if field not in values]
            if missing:
                raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
            self.__dict__.update((field, values[field]) for field in fields)
        self._check()

    def _check(self) -> None:
        """Raise InputError when the fields break the class's rules; a class
        without rules keeps this one."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
