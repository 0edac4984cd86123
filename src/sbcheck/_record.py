"""Immutable value records, the base of every node, model and result class.

A :class:`Record` subclass lists its slots in ``__slots__``, its fields
first and in the order its constructor takes them, and sets them in its
``__init__``.  A slot named ``pos`` (a source position) or starting with
``_`` (a table derived from the fields) is no field: ``==``, ``hash`` and
``repr`` read the fields alone.  Assignment raises :class:`AttributeError`,
so a changed value is built with the constructor.
"""


set_field = object.__setattr__  # sets a slot in ``__init__``, past the refusing ``__setattr__``


class Record:
    __slots__ = ()
    _fields = ()  # the field names, in constructor order

    def __init_subclass__(cls):
        slots = [s for c in reversed(cls.__mro__) for s in vars(c).get("__slots__", ())]
        cls._fields = tuple(s for s in slots if s != "pos" and not s.startswith("_"))

    def __init__(self, *values):
        """Set the fields, in order, to ``values``."""
        for name, value in zip(self._fields, values, strict=True):
            set_field(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        """Restore the slots for :mod:`copy` and :mod:`pickle`, from ``(None, slots)``."""
        for name, value in state[1].items():
            set_field(self, name, value)
