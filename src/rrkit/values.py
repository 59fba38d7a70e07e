"""The base of the package's immutable value classes.

A value is its class plus its fields.  A value class annotates its fields
in order and writes its own __init__, which stores each field with
set_field and then checks the values; Frozen derives equality (same
class, equal field tuples), the hash (of the field tuple) and the repr
from the annotations.  DecisionReport, whose stats field is a dict, sets
__hash__ = None; MarkedNfa takes back object's __eq__ and __hash__ and
compares by identity.  This module imports only operator, which Python
loads at startup, where dataclasses pulls in inspect, ast, dis and
tokenize and compiles each class's methods at every import: two thirds
of the time that `import rrkit.cli` took.
"""

from operator import attrgetter

# object's own setattr stores a field past Frozen.__setattr__, and keeps
# the instance's attribute layout as a plain assignment would
set_field = object.__setattr__


class Frozen:
    """Assigning or deleting an attribute raises AttributeError.  Instances
    keep a __dict__, so functools.cached_property, which writes there
    directly, still caches on them."""

    def __init_subclass__(cls) -> None:
        # the annotated field names, and a getter of their values as a tuple
        # (every value class has two fields or more); a subclass that
        # annotates nothing keeps its parent's
        fields = cls.__dict__.get("__annotations__")
        if fields:
            cls._fields = tuple(fields)
            cls._key = attrgetter(*fields)

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
