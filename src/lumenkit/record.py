"""The immutable-record base of the package's value types."""


class Record:
    """A read-only record whose fields are its class annotations, in order.

    Each record class writes its own ``__init__``, which checks its
    arguments and stores each field in the instance ``__dict__``; after
    that, assigning or deleting an attribute raises ``AttributeError``.
    Records compare, hash and print by their fields, as frozen dataclasses
    do.  A record compared by identity resets ``__eq__`` and ``__hash__``
    to ``object``'s.  ``functools.cached_property`` works on records,
    because it too writes the instance ``__dict__``.

    The base builds no code per class: a generated ``__init__`` costs
    import time in every process, and a generic one costs time in every
    instance.
    """

    _fields = ()  # field names, set per subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = {}
        for base in reversed(cls.__mro__):
            fields.update(dict.fromkeys(base.__dict__.get("__annotations__", ())))
        cls._fields = tuple(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
