"""Exception types shared across the package, and its record decorator.

Each exception class carries the CLI exit code it maps to, so library code
should raise the most specific one that applies rather than bare ValueError.
"""

import dataclasses
import inspect
import operator
import reprlib
import sys

__all__ = ["ConfigError", "CovpowError", "DomainError", "NumericalError"]


class CovpowError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(CovpowError):
    """Malformed or schema-violating run configuration."""

    exit_code = 2


class DomainError(CovpowError):
    """Input outside a model's or operation's domain."""

    exit_code = 3


class NumericalError(CovpowError):
    """A numerical routine failed its own validity check."""

    exit_code = 4


_METHODS = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")
_UNSET = object()  # the default of a field that has none


def frozen(cls):
    """``@dataclass(frozen=True)`` without generating code for each class.

    ``dataclass`` compiles six methods per class from source text, and no
    ``.pyc`` caches them, so every import of the package paid for 162
    compiles. Here ``dataclass`` only records the fields (so ``fields``,
    ``asdict`` and ``replace`` work), and the six methods are closures over
    them with dataclass's semantics, for Python 3.10 to 3.13. A call that does
    not bind raises dataclass's own TypeError, from a plain frozen dataclass
    built with the record's fields only then. A record takes plain fields,
    with at most a plain default, and needs its own docstring, since dataclass
    would otherwise derive one from a signature.
    """
    own = [name for name in _METHODS if name in cls.__dict__]
    if own:
        raise TypeError(f"{cls.__qualname__}: a record gets {own} from frozen")
    if not cls.__dict__.get("__doc__"):
        raise TypeError(f"{cls.__qualname__}: a record needs its own docstring")
    cls = dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
    params = cls.__dataclass_params__
    params.init = params.repr = params.eq = params.frozen = True
    flds = dataclasses.fields(cls)
    plain = (True, True, None, True, dataclasses.MISSING, False)
    options = ((f.init, f.repr, f.hash, f.compare, f.default_factory, f.kw_only) for f in flds)
    if any(option != plain for option in options):
        raise TypeError(f"{cls.__qualname__}: a record takes plain fields with plain defaults")
    names = tuple(f.name for f in flds)
    field_set = frozenset(names)
    n = len(names)
    # a call that names every field by keyword: its values in field order
    ordered = operator.itemgetter(*names) if n > 1 else lambda kwargs: tuple(kwargs.values())
    has_post_init = hasattr(cls, "__post_init__")
    setattr_ = object.__setattr__
    defaults = tuple(_UNSET if f.default is dataclasses.MISSING else f.default for f in flds)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            if args or kwargs.keys() != field_set:
                args = _bind(cls, names, defaults, args, kwargs)
            else:
                args = ordered(kwargs)
        # field by field through object.__setattr__, as dataclass's __init__ does:
        # writing self.__dict__ instead would make every later attribute read slower
        i = 0
        for name in names:
            setattr_(self, name, args[i])
            i += 1
        if has_post_init:
            self.__post_init__()

    @reprlib.recursive_repr()
    def __repr__(self):
        shows = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{self.__class__.__qualname__}({shows})"

    if sys.version_info >= (3, 13):  # field by field, as an `and` chain

        def __eq__(self, other):
            if self is other:
                return True
            if other.__class__ is not self.__class__:
                return NotImplemented
            result = True
            for name in names:
                result = getattr(self, name) == getattr(other, name)
                if not result:
                    return result
            return result

    else:  # as tuples

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return _values(self, names) == _values(other, names)

    def __hash__(self):
        return hash(_values(self, names))

    def __setattr__(self, name, value):
        if type(self) is cls or name in field_set:
            raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in field_set:
            raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    kind, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
    __init__.__signature__ = inspect.Signature(
        [inspect.Parameter("self", kind)]
        + [
            inspect.Parameter(f.name, kind, default=empty if d is _UNSET else d, annotation=f.type)
            for f, d in zip(flds, defaults)
        ],
        return_annotation=None,
    )
    for fn in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        fn.__module__ = cls.__module__
        setattr(cls, fn.__name__, fn)
    return cls


def _values(obj, names) -> tuple:
    return tuple([getattr(obj, name) for name in names])


def _bind(cls, names, defaults, args, kwargs) -> list:
    """A call's values in field order: its positionals, then each later field's
    keyword, or else its default. A call that does not bind goes to ``_twin``."""
    k = len(args)
    rest = names[k:]
    values = [*args, *[kwargs.get(name, default) for name, default in zip(rest, defaults[k:])]]
    # fields hold arrays, so an unset one is found by identity, never with `in`
    if k > len(names) or not kwargs.keys() <= set(rest) or any(v is _UNSET for v in values):
        _twin(cls)(*args, **kwargs)  # binds exactly when this does, so it raises
    return values


def _twin(cls):
    """A plain ``@dataclass(frozen=True)`` with cls's fields, defaults and names,
    whose generated ``__init__`` raises dataclass's own binding TypeErrors."""
    flds = dataclasses.fields(cls)
    namespace = {f.name: f.default for f in flds if f.default is not dataclasses.MISSING}
    namespace.update(
        __annotations__={f.name: f.type for f in flds},
        __qualname__=cls.__qualname__,
        __module__=cls.__module__,
    )
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))
