"""Immutable value records, the base of every node, model and result class.

A :class:`Record` subclass lists its slots in ``__slots__``, its fields
first and in constructor order.  :class:`Record`'s own constructor takes
the fields by position, in that order, or by name; a slot named ``pos``
(a source position) comes after them and defaults to None.  A class
defines its own ``__init__`` only to check its fields or to fill a slot
starting with ``_`` (a table derived from the fields).  Neither ``pos``
nor a ``_`` slot is a field.  Assignment raises :class:`AttributeError`,
so a changed value is built with the constructor, and a copy, shallow or
deep, is the record itself.

One walk, :func:`_entries`, lists the records and plain tuples under a
record children first, each with its fields (or all its slots), from an
explicit stack; one replay, :func:`_replay`, rebuilds a value from such a
list.  ``==`` compares two field lists, ``hash`` hashes one, ``repr``
replays one into text, and :mod:`pickle` writes the slot list and
replays it into records.  So formulas of any depth compare, hash, print
and pickle without a frame per level of nesting.
"""

from itertools import compress

set_field = object.__setattr__  # sets a slot in ``__init__``, past the refusing ``__setattr__``


class Record:
    __slots__ = ()
    _slots = ()  # every slot, the class's own last
    _fields = ()  # the field names, in constructor order
    _params = ()  # the constructor's parameters: the fields, then ``pos`` if there is one

    def __init_subclass__(cls):
        slots = [s for c in reversed(cls.__mro__) for s in vars(c).get("__slots__", ())]
        cls._slots = tuple(slots)
        cls._fields = tuple(s for s in slots if s != "pos" and not s.startswith("_"))
        cls._params = cls._fields + (("pos",) if "pos" in slots else ())

    def __init__(self, *args, **kwargs):
        """Set the parameters from ``args``, in order, and the rest from
        ``kwargs``; ``pos`` defaults to None.  A missing, unknown, surplus
        or twice-given argument raises :class:`TypeError`.  A call that
        gives every parameter by position, as the parsers build their
        nodes, sets them in one loop without looking at ``kwargs``."""
        names = self._params
        if len(args) == len(names) and not kwargs:
            for name, value in zip(names, args):
                set_field(self, name, value)
            return
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() got too many arguments")
        for name, value in zip(names, args):
            set_field(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                set_field(self, name, kwargs.pop(name))
            elif name == "pos":
                set_field(self, name, None)
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{type(self).__name__}() got {problem} argument {name!r}")

    def __eq__(self, other):
        """Same class and equal fields, compared as the two field lists."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _entries(self, "_fields") == _entries(other, "_fields")

    def __hash__(self):
        return hash(tuple(_entries(self, "_fields")))

    def __repr__(self):
        return _replay(_entries(self, "_fields"), repr, _text)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return _replay, (_entries(self, "_slots"), _same, _made)


class _Below:
    """In an entry list, a value that is a record or tuple listed before it."""


def _entries(root, names):
    """The records and plain tuples under ``root``, ``root`` last and each
    after those under it, found from one explicit stack.  Each is ``(class,
    values)``: a tuple's items, or a record's values of the slots that its
    class lists in the attribute ``names`` (``"_fields"`` or ``"_slots"``),
    with :class:`_Below` standing for each value that is itself listed."""
    todo, entries = [root], []
    while todo:  # each value before those below it, read backwards
        value = todo.pop()
        cls = value.__class__
        values = value if cls is tuple else [getattr(value, s) for s in getattr(cls, names)]
        below = [v.__class__ is tuple or isinstance(v, Record) for v in values]
        todo += compress(values, below)
        entries.append((cls, tuple([_Below if b else v for v, b in zip(values, below)])))
    return entries[::-1]


def _replay(entries, leaf, build):
    """``build(class, results)`` of the last of ``entries``, where the
    results are ``leaf(value)`` for a plain value and the result of the
    entry listed for each :class:`_Below`."""
    built = []
    for cls, values in entries:
        n = len(built) - sum(v is _Below for v in values)
        below = iter(built[n:])
        del built[n:]
        built.append(build(cls, [next(below) if v is _Below else leaf(v) for v in values]))
    return built[0]


def _same(value):
    return value


def _made(cls, values):
    """The tuple, or the record with these slot values, that unpickles."""
    if cls is tuple:
        return tuple(values)
    record = cls.__new__(cls)
    for name, value in zip(cls._slots, values):
        set_field(record, name, value)
    return record


def _text(cls, texts):
    """The repr of a record or tuple of class ``cls`` from the reprs of its values."""
    if cls is tuple:
        return f"({texts[0]},)" if len(texts) == 1 else f"({', '.join(texts)})"
    fields = ", ".join([f"{name}={text}" for name, text in zip(cls._fields, texts)])
    return f"{cls.__qualname__}({fields})"
