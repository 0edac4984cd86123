"""Immutable value records, the base of every node, model and result class.

A :class:`Record` subclass lists its slots in ``__slots__``, its fields
first and in constructor order.  :class:`Record`'s own constructor takes
the fields by position, in that order, or by name; a slot named ``pos``
(a source position) comes after them and defaults to None.  A class
defines its own ``__init__`` only to check its fields or to fill a slot
starting with ``_`` (a table derived from the fields).  Neither ``pos``
nor a ``_`` slot is a field: ``==``, ``hash`` and ``repr`` read the
fields alone, and walk nested records and tuples without recursion, so
formulas of any depth compare and print.  Assignment raises
:class:`AttributeError`, so a changed value is built with the
constructor, and a copy, shallow or deep, is the record itself.  A record
pickles with all its slots as a flat list of the records and tuples
under it, so :mod:`pickle` too takes no frame per level of nesting.
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

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        """Same class and equal fields.  The values are compared from an
        explicit stack that descends into records of one class and tuples
        of one length, so no depth of nesting costs a frame."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self._values(), other._values())]  # value tuples of one length
        while todo:
            xs, ys = todo.pop()
            for x, y in zip(xs, ys):
                if x is y:
                    continue
                if x.__class__ is y.__class__ and isinstance(x, Record):
                    todo.append((x._values(), y._values()))
                elif x.__class__ is y.__class__ is tuple and len(x) == len(y):
                    todo.append((x, y))
                elif not x == y:
                    return False
        return True

    def _fold(self, leaf, combine):
        """Fold the values under this record bottom-up from one explicit stack.

        A record or plain tuple among them gives ``combine(value, results)``
        over the results for its own values (a record's are its fields),
        and any other value gives ``leaf(value)``.
        """
        stack = [(self, self._values(), [])]  # open values, each with its items and done results
        while True:
            value, items, done = stack[-1]
            if len(done) < len(items):
                v = items[len(done)]
                if isinstance(v, Record):
                    stack.append((v, v._values(), []))
                elif v.__class__ is tuple:
                    stack.append((v, v, []))
                else:
                    done.append(leaf(v))
                continue
            stack.pop()
            result = combine(value, done)
            if not stack:
                return result
            stack[-1][2].append(result)

    def __hash__(self):
        """The hash of the tuple of the fields' hashes, where a record or a
        tuple among the values hashes the same way over its own values."""
        return self._fold(hash, lambda value, hashes: hash(tuple(hashes)))

    def __repr__(self):
        return self._fold(repr, _text)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        """Pickle as :func:`_rebuild` of the records and plain tuples under
        this one, found from one explicit stack and listed children first.
        Each is ``(class, slot values)``, with :class:`_Below` standing for
        each value that is one of them; a record keeps every slot."""
        todo, entries = [self], []
        while todo:  # each value after those below it, read backwards
            value = todo.pop()
            cls = value.__class__
            values = value if cls is tuple else [getattr(value, s) for s in cls._slots]
            below = [v.__class__ is tuple or isinstance(v, Record) for v in values]
            todo += compress(values, below)
            entries.append((cls, tuple([_Below if b else v for v, b in zip(values, below)])))
        return _rebuild, (entries[::-1],)


class _Below:
    """In a pickled record, a value that is a record or tuple listed before it."""


def _rebuild(entries):
    """The record that :meth:`Record.__reduce__` listed as ``entries``."""
    built = []
    for cls, values in entries:
        n = sum(v is _Below for v in values)
        below = iter(built[len(built) - n :])
        del built[len(built) - n :]
        values = [next(below) if v is _Below else v for v in values]
        if cls is tuple:
            built.append(tuple(values))
            continue
        record = cls.__new__(cls)
        for name, value in zip(cls._slots, values):
            set_field(record, name, value)
        built.append(record)
    return built[0]


def _text(value, texts):
    """The repr of a record or tuple ``value`` from the reprs of its values."""
    if isinstance(value, Record):
        fields = ", ".join([f"{name}={text}" for name, text in zip(value._fields, texts)])
        return f"{type(value).__qualname__}({fields})"
    return f"({texts[0]},)" if len(texts) == 1 else f"({', '.join(texts)})"
