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
which the frozen __setattr__ does not block, by _set_fields.  The three
records built once per pair (Classification, RecipeTrace and ScanRow) are
built in a __new__ instead, as an instance of an open twin (the record plus
Open) whose fields are stored by plain assignment and whose __class__ is
then set to the record: on Python 3.11 and a 2-vCPU Xeon VM, 0.33 us for
five fields against 0.44 us through the descriptors.  The library calls the
__new__ of a trace or a classification directly, past type.__call__.  A
twin whose record replaces a slot's descriptor by a property (RecipeTrace's
narrative) keeps the slot's descriptor as its own attribute, so __new__
still stores that field by the plain path.  ScanReport is mutable: it takes
Open itself and has no hash.
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
        if cls.__slots__:  # an open twin adds no field and keeps its record's
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


class Open:
    """Restores object's __setattr__ and __delattr__ ahead of Record's frozen ones.

    An open twin is class _OpenX(Open, X) with __slots__ = (): it has the
    layout of the record X, so an instance can take X as its __class__.
    """

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
