"""The base of the package's immutable value classes.

A value class annotates its fields in order and writes its own __init__,
which stores each field with set_field and then checks the values.  It
writes __eq__ (same class, equal field tuples) and __hash__ (the hash of
the field tuple) out as well; or writes __eq__ alone, which leaves its
instances unhashable, when a field such as a dict has no hash; or leaves
both out to compare by identity.
Written-out methods construct, compare and hash as fast as the ones the
dataclasses module generates, and this module imports nothing, where
dataclasses pulls in inspect, ast, dis and tokenize and compiles each
class's methods at every import: together, two thirds of the time that
`import rrkit.cli` took.
"""

# object's own setattr stores a field past Frozen.__setattr__, and keeps
# the instance's attribute layout as a plain assignment would
set_field = object.__setattr__


class Frozen:
    """Assigning or deleting an attribute raises AttributeError.  Instances
    keep a __dict__, so functools.cached_property, which writes there
    directly, still caches on them."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in type(self).__annotations__
        )
        return f"{type(self).__qualname__}({fields})"
