"""Base class of the package's value records, in place of ``dataclasses``, whose
import and generated methods cost a cold run about 30 ms.

A record names its fields in ``__slots__``, in constructor order, and sets them
in its own validating ``__init__``.  Records compare and hash field by field,
and equal only records of their own class; one holding a list or dict has no hash.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        values = attrgetter(*cls.__slots__)
        cls._values = staticmethod(values if len(cls.__slots__) > 1 else lambda r: (values(r),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def _replace(self, **changes: object):
        """A copy with the given fields changed, built and validated by __init__."""
        return self.__class__(**dict(zip(self.__slots__, self._values(self)), **changes))
