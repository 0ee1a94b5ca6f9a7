"""The one base of the package's ten result records.

A record lists its fields in __slots__ and inherits what
@dataclass(frozen=True, slots=True) would generate: equality and a hash
over the fields named in _compared (every field unless the class narrows
it), the dataclass repr, assignment and deletion refused with
dataclasses.FrozenInstanceError, and pickling and copying through
__reduce__.  Defining a record generates and compiles nothing, so importing
the package imports neither dataclasses nor the inspect, ast and tokenize
modules it pulls in; FrozenInstanceError is imported only when it is raised.

A record's __init__ stores its fields through the slots' own descriptors,
which the frozen __setattr__ does not block, at about half the cost of
object.__setattr__.  The three records built once per pair
(Classification, RecipeTrace and ScanRow) call the setters slot_setters
returns, one per field; every other record, Decomposition among them,
calls _set_fields.  ScanReport is mutable: it restores object's
__setattr__ and __delattr__ and has no hash.
"""

from __future__ import annotations

from operator import attrgetter


def slot_setters(cls) -> tuple:
    """The __set__ of each slot descriptor of a record class, in field order."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


def _rebuilt(cls, values):
    """The record of class cls with the given field values, as pickled by Record.__reduce__."""
    record = object.__new__(cls)
    record._set_fields(*values)
    return record


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__dict__.get("_compared", cls.__slots__))
        cls._setters = slot_setters(cls)

    def _set_fields(self, *values) -> None:
        """Store the field values in field order, through the slot descriptors."""
        for store, value in zip(self._setters, values):
            store(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuilt, (type(self), tuple(getattr(self, name) for name in self.__slots__))
