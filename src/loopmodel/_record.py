"""Plain value classes: the package's record types share one small base.

A record lists its fields in ``_fields``, in constructor order, and
sets them in its own ``__init__``, which also validates them.  The base
gives value equality over ``_compared`` (all fields unless a class
narrows it), the ``Name(field=value, ...)`` repr, and pickling and
copying through the constructor.  ``Frozen`` records are hashable and
refuse assignment; their ``__init__`` sets fields with ``set_field``.
"""
from __future__ import annotations

from operator import attrgetter

FORMAT_VERSION = 1  # of the one JSON artifact format, in every to_json_obj

# how a frozen record's __init__ sets a field past the refusing __setattr__
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls._compared or cls._fields
        if fields:  # Frozen itself has none
            # a plain attribute, not a method: called as self._key(self)
            cls._key = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
