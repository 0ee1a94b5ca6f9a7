"""The one base of the package's ten result records.

A record lists its fields in __slots__ and inherits what
@dataclass(frozen=True, slots=True) would generate: equality and a hash
over the fields named in _compared (every field unless the class narrows
it), the dataclass repr, assignment and deletion refused with
dataclasses.FrozenInstanceError, and pickling and copying through
__reduce__.  Defining a record generates and compiles nothing, so importing
the package imports neither dataclasses nor the inspect, ast and tokenize
modules it pulls in; FrozenInstanceError is imported only when it is raised.

Every record is built one way: as an instance of its open twin, whose
fields are stored by plain assignment and whose __class__ is then set to
the record.  Record.__init_subclass__ makes the twin, cls._open: it adds no
field, takes object's __setattr__ and __delattr__, and holds its own copy of
each slot's descriptor, so a property the record later puts over a slot
(RecipeTrace's narrative) does not hide the slot from it.  _rebuilt builds
a record this way from its field values, for unpickling and for every
constructor but three: the records built once per pair (Classification,
RecipeTrace and ScanRow) unroll the same stores in a __new__, which the
library calls directly, past type.__call__.  On Python 3.11 and a 2-vCPU
Xeon VM that took 0.33 us for five fields against 0.44 us through the slot
descriptors.  ScanReport is mutable: it takes object's __setattr__ and
__delattr__ itself and has no hash.
"""

from __future__ import annotations

from operator import attrgetter


def _rebuilt(cls, values):
    """The cls record with these field values, built on its twin; Record.__reduce__ pickles by it."""
    record = object.__new__(cls._open)
    for name, value in zip(cls.__slots__, values):
        setattr(record, name, value)
    record.__class__ = cls
    return record


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:  # an open twin adds no field and keeps its record's
            cls._key = attrgetter(*cls.__dict__.get("_compared", cls.__slots__))
            slots = {name: cls.__dict__[name] for name in cls.__slots__}
            body = {"__slots__": (), "__setattr__": object.__setattr__, "__delattr__": object.__delattr__}
            cls._open = type(f"_Open{cls.__name__}", (cls,), body | slots)

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
