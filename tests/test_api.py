"""The package's public names are exactly its library modules' ``__all__`` lists."""

import importlib
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
