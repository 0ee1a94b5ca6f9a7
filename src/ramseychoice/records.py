"""Frozen records filled at slot cost.

A frozen dataclass's generated __init__ stores each field through
object.__setattr__, which costs about as much as the rest of building a
small record.  The slots' own descriptors store without that detour, and the
frozen __setattr__ does not block them.  A record class declared with
@dataclass(frozen=True, slots=True, init=False) writes its own __init__ that
calls the setters slot_setters returns; assignment still raises
FrozenInstanceError.  init=False keeps @dataclass from generating (and
compiling) an __init__ that the class's own would replace anyway.
"""

from __future__ import annotations

from dataclasses import fields


def slot_setters(cls) -> tuple:
    """The __set__ of each field's slot descriptor of a slotted dataclass, in field order."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))
