"""ekdom: exact eternal distance-k domination on graphs.

Guards occupy a multiset of vertices that distance-k dominates a graph;
after each attack every guard may move up to distance k, and the new
configuration must dominate and cover the attacked vertex.  This package
computes the least number of guards that survives forever (by greatest-
fixed-point elimination over all configurations of a given size), emits
and verifies explicit strategy certificates, evaluates the closed forms
known for paths, cycles and perfect m-ary trees, applies tree-trimming
reductions with controlled deltas, and computes structural bounds.

Every ekdom record (a graph, a certificate, a solve report, ...) is a
``Record``: an immutable tuple whose fields are named by the class
body's annotations, with a field's class value as its default.  Records
behave as ``collections.namedtuple`` instances do (``_fields``,
``_make``, ``_replace``, ``_asdict``, value equality and hashing with
the plain tuple, no per-instance ``__dict__``), but building a record
class only installs one C field getter per field; it runs no ``eval``
and loads no ``typing``, so the package's start-up stays small.
"""
from _collections import _tuplegetter

__version__ = "0.1.0"


class _RecordType(type):
    """Makes each annotated field of a ``Record`` body a getter of its
    tuple slot, and the field's class value, if any, its default."""

    def __new__(mcls, name, bases, namespace):
        namespace["__slots__"] = ()
        cls = super().__new__(mcls, name, bases, namespace)
        cls._fields = fields = tuple(cls.__annotations__)
        cls._field_defaults = defaults = {}
        for i, field in enumerate(fields):
            if field in namespace:
                defaults[field] = namespace[field]
            elif defaults:
                raise TypeError(f"non-default field {field} cannot follow default "
                                f"field(s) {', '.join(defaults)}")
            setattr(cls, field, _tuplegetter(i, f"Alias for field number {i}"))
        return cls


class Record(tuple, metaclass=_RecordType):
    """Base of the package's named-tuple records; subclass it directly."""

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = _bind(cls, args, kwargs)
        return tuple.__new__(cls, args)

    @classmethod
    def _make(cls, iterable):
        """A record of the values of ``iterable``, built through ``cls()``."""
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
        return cls(*values)

    def _replace(self, /, **changes):
        """A copy of the record with the named fields set to new values."""
        result = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __repr__(self) -> str:
        values = ", ".join(f"{field}={value!r}" for field, value in zip(self._fields, self))
        return f"{self.__class__.__name__}({values})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)


def _bind(cls, args: tuple, kwargs: dict) -> tuple:
    """The field values that ``cls(*args, **kwargs)`` names, defaults filled
    in; a call that names too many, too few or unknown fields raises the
    ``TypeError`` a ``collections.namedtuple`` raises."""
    fields = cls._fields
    call = f"{cls.__name__}.__new__()"
    if len(args) > len(fields):
        raise TypeError(f"{call} takes {len(fields) + 1} positional arguments "
                        f"but {len(args) + 1} were given")
    for name in kwargs:
        if name not in fields:
            raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
        if fields.index(name) < len(args):
            raise TypeError(f"{call} got multiple values for argument {name!r}")
    rest = fields[len(args):]
    defaults = cls._field_defaults
    missing = [name for name in rest if name not in kwargs and name not in defaults]
    if missing:
        raise TypeError(f"{call} missing {len(missing)} required positional "
                        f"argument{'s' if len(missing) > 1 else ''}: "
                        f"{', '.join(map(repr, missing))}")
    return args + tuple(kwargs[name] if name in kwargs else defaults[name] for name in rest)
