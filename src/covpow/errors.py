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


def frozen(cls):
    """``@dataclass(frozen=True)`` without generating code for each class.

    ``dataclass`` compiles six methods per class from source text, and no
    ``.pyc`` caches them, so every import of the package paid for 162
    compiles. Here ``dataclass`` only records the fields (so ``fields``,
    ``asdict`` and ``replace`` work), and the six methods are closures over
    them with dataclass's semantics and messages, for Python 3.10 to 3.13.
    A record takes plain fields, with at most a plain default, and needs its
    own docstring, since dataclass would otherwise derive one from a signature.
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
    bind = _binder(cls, flds)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            if args or kwargs.keys() != field_set:
                args = bind(args, kwargs)
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

    empty = inspect.Parameter.empty
    __init__.__signature__ = inspect.Signature(
        [inspect.Parameter("self", inspect.Parameter.POSITIONAL_OR_KEYWORD)]
        + [
            inspect.Parameter(
                f.name,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                default=empty if f.default is dataclasses.MISSING else f.default,
                annotation=f.type,
            )
            for f in flds
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


def _binder(cls, flds):
    """Bind a call's arguments to the fields, in field order, as CPython binds
    those of the ``__init__`` dataclass would generate, with the same TypeErrors."""
    qualname = f"{cls.__qualname__}.__init__"
    names = [f.name for f in flds]
    defaults = {f.name: f.default for f in flds if f.default is not dataclasses.MISSING}

    def bind(args, kwargs):
        bound = dict(zip(names, args))
        for key, value in kwargs.items():
            if key in bound:
                raise TypeError(f"{qualname}() got multiple values for argument {key!r}")
            if key not in names:
                hint = _suggestion(["self", *names], key)
                raise TypeError(f"{qualname}() got an unexpected keyword argument {key!r}{hint}")
            bound[key] = value
        if len(args) > len(names):
            takes = len(names) + 1  # self is the first positional argument
            if defaults:
                takes = f"from {len(names) - len(defaults) + 1} to {takes}"
            plural = "s" if names else ""
            raise TypeError(
                f"{qualname}() takes {takes} positional argument{plural} "
                f"but {len(args) + 1} were given"
            )
        missing = [repr(name) for name in names if name not in bound and name not in defaults]
        if missing:
            listed = " and ".join(missing) if len(missing) < 3 else (
                ", ".join(missing[:-1]) + ", and " + missing[-1]
            )
            plural = "s" if len(missing) > 1 else ""
            raise TypeError(
                f"{qualname}() missing {len(missing)} required positional "
                f"argument{plural}: {listed}"
            )
        return [bound[name] if name in bound else defaults[name] for name in names]

    return bind


def _suggestion(candidates, key) -> str:
    """CPython 3.13's "Did you mean" hint for an unexpected keyword; none before."""
    try:
        from _suggestions import _generate_suggestions
    except ImportError:
        return ""
    best = _generate_suggestions(candidates, key)
    return f". Did you mean {best!r}?" if best else ""
