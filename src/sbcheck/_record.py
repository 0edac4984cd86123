"""Immutable value records, the base of every node, model and result class.

A :class:`Record` subclass lists its slots in ``__slots__``, its fields
first and in the order its constructor takes them, and sets them in its
``__init__``.  A slot named ``pos`` (a source position) or starting with
``_`` (a table derived from the fields) is no field: ``==``, ``hash`` and
``repr`` read the fields alone, and ``==`` and ``hash`` walk nested
records and tuples without recursion, so formulas of any depth compare.
Assignment raises :class:`AttributeError`, so a changed value is built
with the constructor.
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

    def __hash__(self):
        """The hash of the tuple of the fields' hashes, where a record or a
        tuple among the values hashes the same way over its own values;
        computed bottom-up from an explicit stack."""
        stack = [(self._values(), [])]  # open values, each with its done hashes
        while True:
            values, hashes = stack[-1]
            if len(hashes) < len(values):
                v = values[len(hashes)]
                if isinstance(v, tuple):
                    stack.append((v, []))
                elif isinstance(v, Record):
                    stack.append((v._values(), []))
                else:
                    hashes.append(hash(v))
                continue
            stack.pop()
            h = hash(tuple(hashes))
            if not stack:
                return h
            stack[-1][1].append(h)

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
