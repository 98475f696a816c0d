"""Exact computer algebra for octic plane arrangements: incidence analysis
of one-parameter families, degeneration classification, blow-up bookkeeping
on diagrams, semistable component assembly, and the weight spectral
sequence of the central fiber."""

__version__ = "0.1.0"


class Record:
    """Base of the records that are not tuples: a subclass lists its fields
    in ``_fields``, in the order its ``__init__`` takes them, and a record
    equals one of its own class with equal fields, hashes as the tuple of
    its fields and prints as ``Name(field=value, ...)``.

    A record that validates or normalises its fields, holds mutable state,
    or must differ from a record of another class holding the same values
    is one of these; every other record is a ``typing.NamedTuple``.
    """

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))
