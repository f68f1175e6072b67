"""Record: the one base class of gcgeo's plain data classes.

A subclass declares its fields as class annotations with optional defaults,
as a dataclass would: `class Chart(Record, frozen=True): names: tuple`.
Under `from __future__ import annotations` the class's own `__annotations__`
holds them as strings in definition order, so nothing is evaluated.  A Record
gets `__init__` (arguments, then defaults, then `__post_init__`), the
dataclass `repr` and same-class `==`; a frozen one also hashes its field tuple
and refuses assignment.  A `factory(list)` default is made anew per instance.
`_trusted` builds a Record from fields its caller has proved valid: the
constructor without `__post_init__`, for checks that hold by construction.
"""

from __future__ import annotations


class factory:
    """A field default built anew for each instance by calling `make()`."""

    def __init__(self, make):
        self.make = make


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")


def _field_hash(self):
    return hash(self._values())


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _frozen
            cls.__hash__ = _field_hash

    def __init__(self, *args, **kwargs):
        self._fill(args, kwargs)
        self.__post_init__()

    @classmethod
    def _trusted(cls, *args, **kwargs):
        out = object.__new__(cls)
        out._fill(args, kwargs)
        return out

    def _fill(self, args, kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} has {len(fields)} fields, got {len(args)}")
        setter = object.__setattr__
        for name, value in zip(fields, args):
            setter(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
                if type(value) is factory:
                    value = value.make()
            else:
                raise TypeError(f"{type(self).__name__} needs field {name!r}")
            setter(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unknown or repeated {sorted(kwargs)}")

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()
