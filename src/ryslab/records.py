"""Value records: the package's plain data classes, built without generated code.

A subclass of ``Record`` lists its fields as annotations, in constructor
order; a class attribute after a field is its default, and ``Fresh(list)``
a default made anew for each record.  ``__init_subclass__`` reads them
once, so creating the class runs no generated code, and the constructor
takes the fields positionally or by name and then calls
``__post_init__``, if the class has one.  A class that writes its own
``__init__`` keeps it.

A record is immutable, compares and hashes by its field values (the
tuple of them and its hash each kept on first use), and prints them.
``replace(**changes)`` gives a copy with some fields changed, checked
again by ``__post_init__``.  Class keywords adjust this: ``eq=False``
compares and hashes by identity; ``uncompared`` names fields that
equality, hashing and repr ignore.
"""

from __future__ import annotations

import inspect

_set = object.__setattr__


class Fresh:
    """A field default made by calling ``make()`` for each new record."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __repr__(self):
        return f"<fresh {self.make.__name__}>"


class _Signature:
    """``inspect.signature`` of a record class: its fields, as parameters."""

    def __get__(self, record, cls):
        types = {}
        for klass in reversed(cls.__mro__):
            types.update(vars(klass).get("__annotations__", {}))
        empty = inspect.Parameter.empty
        return inspect.Signature([
            inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                              default=cls._defaults.get(name, empty), annotation=types[name])
            for name in cls._fields
        ], return_annotation=None)


def _constructor(cls):
    """``cls.__init__``: the fields, positionally or by name, then
    ``__post_init__``.  What it reads of the class is read here, once."""
    fields = cls._fields
    arity = len(fields)
    post = cls.__post_init__ is not None

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = cls._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        if post:
            self.__post_init__()

    return __init__


class Record:
    """Base of the value records; see the module docstring."""

    # The compared field values and their hash, each kept on first use.
    __slots__ = ("_key", "_hash")
    __signature__ = _Signature()
    __post_init__ = None
    _fields = ()
    _defaults = {}
    _compared = ()

    def __init_subclass__(cls, eq=True, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = dict(cls._defaults)
        for name in own:
            if name in cls.__dict__:
                defaults[name] = cls.__dict__[name]
            elif defaults:
                raise TypeError(f"field {name!r} without a default follows one with a default")
        cls._fields = cls._fields + own
        cls._defaults = defaults
        cls._compared = tuple(name for name in cls._fields if name not in uncompared)
        if "__init__" not in cls.__dict__:
            cls.__init__ = _constructor(cls)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        """The constructor's arguments as one value per field, in order."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                default = cls._defaults[name]
                values.append(default.make() if isinstance(default, Fresh) else default)
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        return tuple(values)

    def _keep_key(self) -> tuple:
        """The compared field values, kept for every later ``==`` and hash."""
        key = tuple([getattr(self, name) for name in self._compared])
        _set(self, "_key", key)
        return key

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        try:
            mine, theirs = self._key, other._key
        except AttributeError:
            mine, theirs = self._keep_key(), other._keep_key()
        return mine == theirs

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash(self._keep_key()))
            return self._hash

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copies and pickles are built again through the constructor.
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        """A copy with ``changes`` to some fields, built and checked anew."""
        values = [changes.pop(name, getattr(self, name)) for name in self._fields]
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {next(iter(changes))!r}")
        return self.__class__(*values)
