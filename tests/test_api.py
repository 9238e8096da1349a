"""The package's public names are exactly its library modules' ``__all__`` lists."""

import importlib
import importlib.util
import pkgutil
import re
from collections import defaultdict
from pathlib import Path

import covpow

# the command line and its entry point are not library API
NOT_EXPORTED = ("cli", "__main__")


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

    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    used = set(re.findall(r"\bcovpow\.(\w+)", workloads.read_text())) - set(submodules)
    assert used
    assert sorted(used - set(covpow.__all__)) == []


def test_perfbench_traced_names_resolve():
    """Every (module, attribute) the benchmark tracer wraps still exists."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
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
