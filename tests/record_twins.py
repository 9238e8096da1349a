"""Compare records made by ``covpow.errors.frozen`` with real frozen dataclasses.

``differences(cls, args, other)`` builds a ``@dataclass(frozen=True)`` twin
of a record class from the class's own annotations, defaults and methods,
and lists every check on which the two disagree. It needs only the standard
library, so it also runs as a script under any interpreter, numpy or not:

    python tests/record_twins.py src/covpow/errors.py

loads ``errors.py`` by path, decorates a few synthetic records with
``frozen``, and prints ``[]`` when each matches its twin.
"""

import copy
import dataclasses
import functools
import importlib.util
import inspect
import math
import sys

# what dataclass adds to a class; the twin regenerates all of it
_GENERATED = (
    "__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
    "__dataclass_fields__", "__dataclass_params__", "__match_args__", "__dict__", "__weakref__",
)


def twin(cls):
    """A real frozen dataclass with cls's name, annotations, defaults and methods."""
    namespace = {key: value for key, value in vars(cls).items() if key not in _GENERATED}
    namespace["__qualname__"] = cls.__qualname__  # a type slot, not in vars(cls)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def _outcome(check):
    """A check's result as text, or the type and message of what it raised."""
    try:
        return repr(check())
    except Exception as exc:  # the point is to compare what is raised
        return f"{type(exc).__name__}: {exc}"


def _checks(cls, args, other) -> dict:
    names = [f.name for f in dataclasses.fields(cls)]
    a, b, c = cls(*args), cls(**dict(zip(names, args))), cls(*other)

    def assign(obj, name):
        setattr(obj, name, None)

    checks = {
        "repr": lambda: repr(a),
        "vars order": lambda: list(vars(a)),
        "equal": lambda: (a == b, a != b),
        "itself": lambda: a == a,
        "different": lambda: a == c,
        "other type": lambda: (a.__eq__(object()), a == object()),
        "hash": lambda: hash(a),
        "equal hash": lambda: hash(a) == hash(b),
        "fields": lambda: [
            (f.name, f.type, f.default, f.init, f.repr, f.compare, f.hash, f.kw_only)
            for f in dataclasses.fields(cls)
        ],
        "asdict": lambda: dataclasses.asdict(a),
        "astuple": lambda: dataclasses.astuple(a),
        "replace": lambda: dataclasses.replace(a, **{names[-1]: other[-1]}),
        "copy": lambda: copy.copy(a),
        "match args": lambda: cls.__match_args__,
        "is dataclass": lambda: (dataclasses.is_dataclass(cls), dataclasses.is_dataclass(a)),
        "params": lambda: cls.__dataclass_params__,
        "signature": lambda: str(inspect.signature(cls)),
        "init signature": lambda: str(inspect.signature(cls.__init__)),
        "doc": lambda: cls.__doc__,
        "qualnames": lambda: [getattr(cls, name).__qualname__ for name in _GENERATED[:6]],
        "missing all": lambda: cls(),
        "missing last": lambda: cls(*args[:-1]),
        "extra positional": lambda: cls(*args, None),
        "duplicate": lambda: cls(args[0], **{names[0]: args[0]}),
        "unexpected keyword": lambda: cls(*args, unknown=None),
        "misspelt keyword": lambda: cls(*args[:-1], **{names[-1] + "_": args[-1]}),
        "assign field": lambda: assign(a, names[0]),
        "assign other": lambda: assign(a, "unknown"),
        "delete field": lambda: delattr(a, names[0]),
        "delete other": lambda: delattr(a, "unknown"),
    }
    for name, value in vars(cls).items():
        if isinstance(value, functools.cached_property):
            # cached in the instance dict on first read, past the frozen setattr
            checks[f"cached {name}"] = lambda name=name: (
                name in vars(a), getattr(a, name) is getattr(a, name), name in vars(a)
            )
    return {name: _outcome(check) for name, check in checks.items()}


def differences(cls, args, other) -> list:
    """(check, record outcome, twin outcome) for every check where they differ.

    args builds a record, positionally and by keyword; other builds one
    that differs from it, in its last field at least.
    """
    mine, theirs = _checks(cls, args, other), _checks(twin(cls), args, other)
    return [(check, mine[check], theirs[check]) for check in mine if mine[check] != theirs[check]]


def synthetic_records(frozen) -> list:
    """(class, args, other) triples of numpy-free records decorated with frozen."""

    @frozen
    class Point:
        """Two plain fields."""

        x: float
        y: float

    @frozen
    class Span:
        """A normalizing __post_init__, defaults, and a cached property."""

        start: int
        stop: int = 10
        tag: str = ""

        def __post_init__(self):
            if self.stop < self.start:
                raise ValueError("stop before start")
            object.__setattr__(self, "start", int(self.start))

        @functools.cached_property
        def width(self):
            return [self.stop - self.start]

    @frozen
    class Bag:
        """One unhashable field."""

        items: list

    @frozen
    class Triple:
        """Three required fields, so three can go missing."""

        a: object
        b: object
        c: object

    nan = math.nan
    return [
        (Point, (1.0, 2.0), (1.0, 3.0)),
        (Point, (nan, nan), (nan, 0.0)),  # the same nan object: tuples say equal, == does not
        (Span, (1.5, 4, "t"), (1, 5, "u")),
        (Bag, ([1, 2],), ([3],)),
        (Triple, (1, "b", None), (1, "b", 0)),
    ]


def main(errors_path) -> list:
    spec = importlib.util.spec_from_file_location("covpow_errors", errors_path)
    errors = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(errors)
    return [
        (cls.__name__, diff)
        for cls, args, other in synthetic_records(errors.frozen)
        for diff in differences(cls, args, other)
    ]


if __name__ == "__main__":
    print(main(sys.argv[1]))
