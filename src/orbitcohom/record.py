"""Immutable records. No module of the package imports ``dataclasses``: with
the ``inspect`` chain it loads and the methods it execs per class, it cost
each CLI run about 28 ms of start-up. Records built per branch that must
equal only records of their own type, or that hold a private cache,
subclass ``Record``; the others, the per-page ``engine._Scan`` among them,
are ``typing.NamedTuple``, which builds faster.

Every ``Record`` sets its fields through ``set_field``, which is
``object.__setattr__`` bound once here: looking it up anew cost about
0.1 us a field on the records built per branch, ``engine.Page``,
``engine.DifferentialPattern`` and ``intervals.IntervalModule``."""

set_field = object.__setattr__


class Record:
    """Fields are the ``__slots__`` without a leading underscore (which marks
    a private cache), compared, hashed and shown in order. ``__init__`` sets
    them with ``set_field``; setting or deleting one later raises
    AttributeError."""

    __slots__ = ()

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__
                if name[0] != "_"}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(tuple(self._fields().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._fields().items())
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r}")

    __delattr__ = __setattr__
