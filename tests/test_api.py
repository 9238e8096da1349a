"""The package's public names are exactly its library modules' ``__all__`` lists."""

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


def _run_child(code):
    """Run code in a fresh interpreter that imports covpow from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
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
