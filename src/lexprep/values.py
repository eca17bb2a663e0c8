"""The base of every value type: equality, hash, `repr` and read-only fields.

A value type lists its fields in `__slots__`, in the order its `__init__`
takes them. Equality, hash and `repr` read the fields named in `_compared`,
all of them unless the class names fewer; values of two types are never equal.
"""


class Value:
    """A mutable value: compared field by field, and so unhashable."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._compared = cls.__dict__.get("_compared", cls.__slots__)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({shown})"


class FrozenValue(Value):
    """A value whose fields are set once, by `__init__` through `_set_fields`."""

    __slots__ = ()

    def _set_fields(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # `copy` and `pickle` would restore each slot through the refused `setattr`.
        return _rebuilt, (type(self), tuple([getattr(self, name) for name in self.__slots__]))

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")


def _rebuilt(kind: type, fields: tuple) -> FrozenValue:
    """A copied or unpickled frozen value: every slot set as it was, checks not rerun."""
    value = kind.__new__(kind)
    value._set_fields(*fields)
    return value
