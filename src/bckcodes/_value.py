"""The base of the package's immutable records: dataclass-style equality,
hashing and repr without importing `dataclasses`, which loads `inspect`.

A subclass's fields are the names annotated in its body, in order.  A
subclass that declares fields and no ``__init__`` gets one, compiled
once when the class is created: its parameters are the fields in order,
a field with a class-level value (``witness: int | None = None``) takes
that value as its default, and its body stores the arguments with
``vars(self).update(...)``, as a hand-written one would.  A subclass
that validates its input writes its own ``__init__`` and stores the
fields the same way.  Instances of the same class are equal when their
compared fields are: every field except those named by the class
keyword ``uncompared``.  The hash is that of the compared fields.
Assigning or deleting an attribute raises `AttributeError` with the
messages of a frozen dataclass.  There are no ``__slots__``:
`functools.cached_property` stores its value in the instance
``__dict__``.
"""

from operator import attrgetter


class Value:
    def __init_subclass__(cls, uncompared=()):
        if "__annotations__" in vars(cls):  # a subclass declaring no fields keeps its base's
            cls._fields = tuple(cls.__annotations__)
            cls._key = attrgetter(*(f for f in cls._fields if f not in uncompared))
            if "__init__" not in vars(cls):
                cls.__init__ = _storing_init(cls)

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


def _storing_init(cls):
    """``cls.__init__(self, *fields)``, storing each argument as its field.

    The defaults are the class-level values, read as globals when the
    ``def`` runs, so a field without one after a field with one is a
    `SyntaxError`, as in a hand-written signature.  The qualified name
    is ``Cls.__init__``, which is what a wrong-arity `TypeError` prints.
    """
    defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}
    params = ", ".join(f"{f}={f}" if f in defaults else f for f in cls._fields)
    stores = ", ".join(f"{f}={f}" for f in cls._fields)
    exec(f"def __init__(self, {params}):\n    vars(self).update({stores})\n", defaults)
    init = defaults["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init
