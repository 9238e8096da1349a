"""The package's public names are exactly its library modules' ``__all__`` lists."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import covpow
from covpow import features, graphs, spd

# the command line and its entry point are not library API
NOT_EXPORTED = ("cli", "__main__")
_ROOT = Path(__file__).resolve().parents[1]


def test_package_exports_exactly_its_modules_all():
    submodules = [info.name for info in pkgutil.iter_modules(covpow.__path__)]
    modules = {
        name: importlib.import_module(f"covpow.{name}")
        for name in submodules
        if name not in NOT_EXPORTED
    }
    owners = defaultdict(list)
    for module_name, module in modules.items():
        for name in module.__all__:
            owners[name].append(module_name)
    assert {name: where for name, where in owners.items() if len(where) > 1} == {}

    assert len(covpow.__all__) == len(set(covpow.__all__))
    assert sorted(covpow.__all__) == sorted([*owners, "__version__"])
    for name, (module_name,) in owners.items():
        assert getattr(covpow, name) is getattr(modules[module_name], name), name

    workloads = _ROOT / "perfbench" / "workloads.py"
    used = set(re.findall(r"\bcovpow\.(\w+)", workloads.read_text())) - set(submodules)
    assert used
    assert sorted(used - set(covpow.__all__)) == []


def test_perfbench_traced_names_resolve():
    """Every (module, attribute) the benchmark tracer wraps still exists."""
    path = _ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS
    for module_name, attr, _ in tracer.FUNCTIONS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            # the tracer reads the class's own __dict__, not an inherited method
            assert method in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr)), f"{module_name}.{attr}"


def _reads(node, strings=False) -> set:
    """Every name a piece of code reads: bare names, attributes and imported names.

    With ``strings``, the dotted parts of string constants count too, as in the
    tracer's (module, "Class.method") targets.
    """
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(sub.value.split("."))
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _orphans(exported: bool, *readers: set) -> list:
    """Module-level functions and classes, exported or not, that nothing reads.

    A definition counts as read when another statement of the package reads
    its name (an ``__all__`` string does not), or when one of ``readers`` holds it.
    """
    src = Path(covpow.__file__).resolve().parent
    trees = {path.stem: _parse(path) for path in sorted(src.glob("*.py"))}
    statements = [(stmt, _reads(stmt)) for tree in trees.values() for stmt in tree.body]
    outside = set().union(*readers)
    orphans = []
    for module, tree in trees.items():
        defs = [s for s in tree.body if isinstance(s, (ast.FunctionDef, ast.ClassDef))]
        if not defs:  # the package's __init__ and __main__
            continue
        names = importlib.import_module(f"covpow.{module}").__all__
        for stmt in defs:
            if (stmt.name in names) != exported or stmt.name in outside:
                continue
            if not any(stmt.name in reads for other, reads in statements if other is not stmt):
                orphans.append(f"{module}.{stmt.name}")
    return orphans


def _benchmark_reads() -> set:
    """Every name the benchmark's workloads and tracer read, tracer targets included."""
    perfbench = _ROOT / "perfbench"
    return set().union(
        *(_reads(_parse(perfbench / name), strings=True) for name in ("workloads.py", "tracer.py"))
    )


def test_every_unexported_definition_has_a_caller():
    """No helper whose only caller is its own test.

    A module-level function or class outside its module's ``__all__`` must be
    read by some package module, its own body aside, or by the benchmark's
    workloads or tracer.
    """
    assert _orphans(False, _benchmark_reads()) == []


# exported definitions that only tests read, each kept for its reason
EXPORTED_WITHOUT_READER = {
    # the independent reference test_graphs compares interaction_operator against
    "graphs.laplacian",
}


def test_every_exported_definition_has_a_reader():
    """No exported name whose only reader is its own unit test.

    A module-level function or class in its module's ``__all__`` must be read
    by another package statement, by the benchmark's workloads or tracer, or
    by the acceptance suite.
    """
    acceptance = _reads(_parse(_ROOT / "tests" / "test_acceptance.py"))
    orphans = _orphans(True, _benchmark_reads(), acceptance)
    assert sorted(set(orphans) - EXPORTED_WITHOUT_READER) == []
    # each exemption is still needed: a name that gains a reader, or goes, leaves the list
    assert sorted(EXPORTED_WITHOUT_READER - set(orphans)) == []


def _run_child(code):
    """Run code in a fresh interpreter that imports covpow from this checkout."""
    src = str(_ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    """Only the Stieltjes oracle needs scipy; importing covpow must not pay for it."""
    code = (
        "import sys, covpow, covpow.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _run_child(code) == "[]"


def test_import_compiles_no_record_methods():
    """No method of a covpow class is compiled from source text at import.

    ``@dataclass`` execs six methods per class, and no ``.pyc`` caches them;
    ``errors.frozen`` builds them as closures, so every covpow function
    comes from a file.
    """
    code = (
        "import inspect, sys, covpow, covpow.cli\n"
        "found = []\n"
        "for name, module in sorted(sys.modules.items()):\n"
        "    if name.split('.')[0] != 'covpow':\n"
        "        continue\n"
        "    for cls in [v for v in vars(module).values() if isinstance(v, type)]:\n"
        "        for attr, value in vars(cls).items():\n"
        "            value = getattr(value, '__func__', getattr(value, 'func', value))\n"
        "            code = getattr(inspect.unwrap(value), '__code__', None)\n"
        "            if code is not None and code.co_filename == '<string>':\n"
        "                found.append(f'{cls.__qualname__}.{attr}')\n"
        "print(sorted(set(found)))"
    )
    assert _run_child(code) == "[]"


def test_stieltjes_power_resolves_its_deferred_import():
    code = (
        "import numpy as np\n"
        "from covpow.spd import SpdMatrix, spd_power_eig, spd_power_stieltjes\n"
        "x = SpdMatrix(np.array([[2.0, 0.5, 0.1], [0.5, 1.5, 0.3], [0.1, 0.3, 1.0]]))\n"
        "diff = spd_power_stieltjes(x, 0.5).values - spd_power_eig(x, -0.5).values\n"
        "print(float(np.max(np.abs(diff))))"
    )
    assert float(_run_child(code)) <= 1e-8


def test_only_the_schema_catches_shape_errors():
    """Input files are checked by their schema tables, not by per-reader handlers.

    An ``except`` that catches KeyError or TypeError is how a hand-written
    check of a parsed file's shape starts; no module but ``schema`` has one.
    """
    src = Path(covpow.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "schema.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and {"KeyError", "TypeError"} & _reads(node.type)
    ]
    assert found == []


def test_only_errors_reads_dataclass():
    """Records are declared with ``errors.frozen``, the one caller of ``dataclass``."""
    src = Path(covpow.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "errors.py"
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.Name, ast.Attribute, ast.ImportFrom)) and "dataclass" in _reads(node)
    ]
    assert found == []


def test_only_spd_holds_the_stack_kernel_rules():
    """The block size and the first-failure reporters live in ``spd`` alone.

    A module that reads ``_BLOCK`` loops over blocks by hand, and one that
    defines a ``_require*`` helper names failing elements its own way; both
    go through ``spd._blockwise`` and ``spd._require`` instead.
    """
    src = Path(covpow.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "spd.py"
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.Name, ast.Attribute, ast.ImportFrom)) and "_BLOCK" in _reads(node)
        or isinstance(node, ast.FunctionDef) and node.name.startswith("_require")
    ]
    assert found == []


def test_only_spd_builds_a_container_past_its_constructor():
    """No module but ``spd`` calls ``__new__``.

    A container built past its constructor skips its checks and its copy of
    the caller's arrays; ``spd`` does so only where its kernel has already
    validated and owns the arrays.
    """
    src = Path(covpow.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "spd.py"
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
    ]
    assert found == []


def test_no_module_rebinds_its_globals():
    """No module-level record: a ``global`` statement in ``src/covpow`` fails.

    State that one call leaves for the next is a cache keyed on the caller's
    inputs; the caller hands the value on instead.
    """
    src = Path(covpow.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Global)
    ]
    assert found == []


def _sym(rng, k, dtype):
    """A nonnegative symmetric k x k matrix of the dtype, with a zero diagonal."""
    a = np.triu(rng.integers(0, 3, (k, k)), 1)
    a = a + a.T
    return a > 0 if dtype is bool else a.astype(dtype)


def _spd(rng, k, dtype):
    """A k x k SPD matrix of the dtype: diagonally dominant, or the identity for bool."""
    if dtype is bool:
        return np.eye(k, dtype=bool)
    return _sym(rng, k, dtype) + 2 * k * np.eye(k, dtype=dtype)


def _series(rng, k, dtype):
    t = int(rng.integers(1, 7))
    return rng.integers(0, 2, (t, k)).astype(dtype), rng.integers(0, 2, t).astype(dtype)


# each constructor that takes arrays: its inputs, drawn as (rng, k, dtype) -> arrays,
# and the names of the arrays it keeps
_CONSTRUCTORS = {
    "LabeledSeries": (features.LabeledSeries, _series, ("samples", "labels")),
    "WeightedGraph": (graphs.WeightedGraph, lambda *a: (_sym(*a),), ("adjacency",)),
    "SymMatrix": (spd.SymMatrix, lambda *a: (_sym(*a),), ("values",)),
    "SpdMatrix": (spd.SpdMatrix, lambda *a: (_spd(*a),), ("values", "eigenvalues", "eigenvectors")),
    "SpdStack": (
        spd.SpdStack,
        lambda rng, k, dtype: (np.stack([_spd(rng, k, dtype) for _ in range(rng.integers(1, 4))]),),
        ("values", "eigenvalues", "eigenvectors"),
    ),
}


def _laid_out(a: np.ndarray, layout: str) -> np.ndarray:
    """A new caller's array equal to a: C- or Fortran-ordered, or a view into a larger array."""
    if layout in ("C", "F"):
        return np.array(a, order=layout)
    big = np.zeros((2 * len(a) + 1, *a.shape[1:]), a.dtype)
    view = big[1::2] if layout == "strided" else big[1 : len(a) + 1]
    view[...] = a
    return view


@pytest.mark.parametrize("name", _CONSTRUCTORS)
@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    dtype=st.sampled_from([float, int, bool]),
    layouts=st.lists(st.sampled_from(["C", "F", "strided", "view"]), min_size=2, max_size=2),
)
def test_constructors_keep_their_own_copy(name, seed, k, dtype, layouts):
    """A constructor neither freezes nor shares its caller's arrays, and a later
    write to them does not reach the object, whose own arrays are read-only."""
    cls, inputs, kept = _CONSTRUCTORS[name]
    arrays = inputs(np.random.default_rng(seed), k, dtype)
    arrays = [_laid_out(a, layout) for a, layout in zip(arrays, layouts)]
    obj = cls(*arrays)
    held = [getattr(obj, attr) for attr in kept]
    before = [h.copy() for h in held]
    for a in arrays:
        assert a.flags.writeable
        assert not any(np.shares_memory(a, h) for h in held)
        if a.dtype == bool:
            np.logical_not(a, out=a)
        else:
            a += 1
    for h, b in zip(held, before):
        assert not h.flags.writeable
        assert_array_equal(h, b)
