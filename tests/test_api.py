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

import covpow

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
