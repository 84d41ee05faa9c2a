"""Plain value classes over ``__slots__``, in place of ``dataclasses`` (whose import
pulls in ``inspect``, ``dis`` and ``ast``).

A ``Record`` equals a record of the same class with equal fields, is shown as
``Name(field=value, ...)`` and is unhashable; a ``FrozenRecord`` also hashes
by its fields.  The fields are the subclass's ``__slots__``, in order, and each
subclass writes its own ``__init__``.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))
