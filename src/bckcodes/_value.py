"""The base of the package's immutable records: dataclass-style equality,
hashing and repr without importing `dataclasses`, which loads `inspect`.

A subclass's fields are the names annotated in its body, in order, and
its own `__init__` stores them with ``vars(self).update(...)``.
Instances of the same class are equal when their compared fields are:
every field except those named by the class keyword ``uncompared``.
The hash is that of the compared fields.  Assigning or deleting an
attribute raises `AttributeError` with the messages of a frozen
dataclass.  There are no ``__slots__``: `functools.cached_property`
stores its value in the instance ``__dict__``.
"""

from operator import attrgetter


class Value:
    def __init_subclass__(cls, uncompared=()):
        if "__annotations__" in vars(cls):  # a subclass declaring no fields keeps its base's
            cls._fields = tuple(cls.__annotations__)
            cls._key = attrgetter(*(f for f in cls._fields if f not in uncompared))

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._key(self) == self._key(other) if same else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _asdict(self) -> dict:
        """The fields by name, in field order (not recursive)."""
        return {f: getattr(self, f) for f in self._fields}
