"""`Record`: the base of xcflow's frozen value classes.

A subclass lists its fields as annotations, with optional defaults, as a
frozen dataclass would:

    class MetricDiag(Record):
        A: float
        B: float
        C: float

`__init_subclass__` reads them once into `_fields` (the class's own
annotations, in order) and `_field_defaults`; every subclass then shares the
methods below.  No source is generated and exec'd per class, which is what
makes `@dataclass` cost about a millisecond a class at import.  The names
`_fields`, `_field_defaults` and `_replace` are those of `typing.NamedTuple`,
so every record type in the package is listed and copied the same way; but a
record is no tuple: it does not iterate, and it equals only a record of its
own class.  A class holding arrays, whose `==` gives no bool, is declared
`class T(Record, eq=False)`: like a dataclass with `eq=False`, each instance
equals only itself and hashes by identity.

`to_dict` lists the fields by name, as declared; a subclass whose fields
do not serialize as they are overrides it.  `__post_init__` runs after
every construction, `_replace` included, and may set attributes of its own
through `object.__setattr__`; those are no fields: they take no part in
equality, hashing, `repr` or `to_dict`.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]

_set_field = object.__setattr__


class Record:
    """Frozen fields with value equality, a hash, the dataclass `repr`, `_replace` and `to_dict`."""

    _fields: tuple[str, ...] = ()
    _field_defaults: dict = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        names = tuple(cls.__annotations__)  # since Python 3.10, the class's own annotations only
        defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        for name, value in defaults.items():
            if type(value).__hash__ is None:  # one mutable default would be shared by every instance
                raise ValueError(f"{cls.__name__}.{name}: unhashable default {type(value).__name__} is not allowed")
        cls._fields = names
        cls._field_defaults = defaults
        # the field tuple in one C call; `attrgetter` of a single name gives no tuple
        values = attrgetter(*names) if len(names) > 1 else lambda record: tuple(getattr(record, n) for n in names)
        cls._values = staticmethod(values)

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            rest = names[len(args):]
            given = {**self._field_defaults, **kwargs}
            if len(args) > len(names) or kwargs and kwargs.keys() - rest:
                self._reject(args, kwargs)
            try:
                args = [*args, *map(given.__getitem__, rest)]
            except KeyError:
                self._reject(args, kwargs)
        # attribute by attribute, not through `__dict__`: a materialized
        # instance dict makes every later field read slower
        for name, value in zip(names, args):
            _set_field(self, name, value)
        self.__post_init__()

    def _reject(self, args: tuple, kwargs: dict) -> None:
        """Raise the TypeError a call with these arguments deserves."""
        names, title = self._fields, type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{title}() takes {len(names)} arguments but {len(args)} were given")
        for name in kwargs:
            if name in names[:len(args)]:
                raise TypeError(f"{title}() got multiple values for argument {name!r}")
            if name not in names:
                raise TypeError(f"{title}() got an unexpected argument {name!r}")
        missing = [name for name in names[len(args):] if name not in kwargs and name not in self._field_defaults]
        raise TypeError(f"{title}() missing argument {missing[0]!r}")

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(self._fields, self._values(self))])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def _replace(self, **changes):
        """A new record of the same class with `changes` applied; `__post_init__` runs on it."""
        return type(self)(**(dict(zip(self._fields, self._values(self))) | changes))

    def to_dict(self) -> dict:
        """The fields by name, in declaration order."""
        return dict(zip(self._fields, self._values(self)))
