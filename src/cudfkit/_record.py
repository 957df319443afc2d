"""Immutable slotted records, defined without generating code per class.

A record class is a class body of annotated fields, in order, each with
an optional default, under the ``record`` decorator:

    @record
    class VPkg:
        name: str
        constraint: VersionConstraint = TOP

        def __post_init__(self):
            ...

The decorator reads the annotations and defaults once and builds the
class again as a subclass of Record with ``__slots__`` for its fields.
Every record shares Record's methods: one ``__init__`` (positional or
keyword arguments, then ``__post_init__``), equality and hashing by
the tuple of field values within one class, a ``Name(field=value, ...)``
repr, and a ``__setattr__``/``__delattr__`` that refuse every attribute.  Pickling
and copying go back through the constructor.  The class body names no
base class, and its methods do not use zero-argument ``super()``, which
would find the class the decorator replaced.

A class body may also name non-field slots in ``__slots__``: private
state that is not a field, so equality, hashing, repr, pickling and
``replace`` never read it.  Code of the record's own module sets it
through its member descriptor, ``__post_init__`` included.  The
dependency records keep their canonical text in one (see
``types.VpkgFormula``), and ``model.PackageItem`` its (name, version)
key, set by its ``__post_init__`` and by the reader's slot-wise builder.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting an attribute of a record."""


class Record:
    """Base of every record class; see the module docstring."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        spec = self._init_spec
        if len(args) > len(spec):
            raise TypeError(f"{type(self).__name__}() takes {len(spec)} positional "
                            f"arguments but {len(args)} were given")
        for (_, set_field, _), value in zip(spec, args):
            set_field(self, value)
        for field, set_field, default in spec[len(args):]:
            value = kwargs.pop(field, default)
            if value is _MISSING:
                raise TypeError(f"{type(self).__name__}() missing required "
                                f"argument {field!r}")
            set_field(self, value)
        if kwargs:
            field = next(iter(kwargs))
            problem = ("multiple values for argument" if field in self._fields
                       else "an unexpected keyword argument")
            raise TypeError(f"{type(self).__name__}() got {problem} {field!r}")
        self.__post_init__()

    def __post_init__(self):
        """Check the field values; a record class overrides it to raise
        ValueError on values outside its domain."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        values = ", ".join(f"{field}={value!r}"
                           for field, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


def record(cls):
    """The record class of a class body; see the module docstring.

    The new class is a plain ``type``, as a dataclass is: under a
    metaclass, every ``isinstance`` test against it that fails would go
    through ``__instancecheck__``, and serialization and validation make
    such tests for each value."""
    namespace = dict(cls.__dict__)
    names = tuple(namespace.get("__annotations__", ()))
    defaults = [namespace.pop(field, _MISSING) for field in names]
    private = tuple(namespace.pop("__slots__", ()))
    for slot in private + ("__dict__", "__weakref__"):
        namespace.pop(slot, None)  # the replaced class's descriptors
    namespace["__slots__"] = names + private
    namespace["__match_args__"] = names
    namespace["__qualname__"] = cls.__qualname__
    new = type(cls.__name__, (Record,), namespace)
    new._fields = names
    new._init_spec = tuple(
        (field, new.__dict__[field].__set__, default)
        for field, default in zip(names, defaults)
    )
    # _values reads the field values as a tuple, in one C call when there
    # are several; equality (no hot path compares one-field records),
    # hashing, repr, pickling and replace read it.
    values = attrgetter(*names)
    new._values = staticmethod(values if len(names) > 1 else lambda record: (values(record),))
    return new


def fields(record):
    """Names of the fields of a record, in order."""
    return type(record)._fields


def replace(record, **changes):
    """A record of the same class with some fields changed, built
    through the constructor, so its checks run again."""
    values = dict(zip(record._fields, record._values(record)))
    values.update(changes)
    return type(record)(**values)
