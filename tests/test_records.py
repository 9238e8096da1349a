"""Every record made by ``errors.frozen`` behaves as ``@dataclass(frozen=True)`` would."""

import dataclasses
import functools
import importlib
import os
import pkgutil
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import covpow
from covpow.consistency import ConsistencyReport, ContourGate, FractionalGate, StructureCheck
from covpow.errors import frozen
from covpow.features import FeatureMatrix, LabeledSeries, Window, WindowSpec
from covpow.geometry import IdentifiabilityReport
from covpow.graphs import NodePartition, ShiftSpectrum, WeightedGraph
from covpow.matern import MaternModel
from covpow.pipeline import FeatureSplit, LinearClassifier, Metrics, SelectionResult, SplitSpec
from covpow.schema import _AtLeast, _OneOf, _SizedBy, _Text, _Variant
from covpow.signatures import ClassSignature, GmmFit, SupportMetrics
from covpow.spd import ContourSpec, SpdMatrix
from record_twins import differences, twin
from record_twins import main as synthetic_differences

_ROOT = Path(__file__).resolve().parents[1]
_PATH = WeightedGraph(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]]))
_FRACTIONAL = FractionalGate(2.0, 0.5, 0.25, 0.25, 0.0, True)
_CONTOUR = ContourGate(0.1, 0.5, 2.0, 0.7, 1.1, 3.0, 0.4, 0.2, 0.1, 0.1, 0.0, True)
_CLASSIFIER = LinearClassifier(np.zeros(3), np.zeros(2), np.ones(2), 2, ("a",), 4, "gradient")
_FIT = GmmFit((0.25, 0.75), (0.0, 1.0), (1.0, 2.0), -3.5, 7, True, (-4.0, -3.5))

# args, then other args that differ in the last field at least
EXAMPLES = {
    FractionalGate: ((2.0, 0.5, 0.25, 0.25, 0.0, True), (2.0, 0.5, 0.25, 0.25, 0.0, False)),
    ContourGate: (
        (0.1, 0.5, 2.0, 0.7, 1.1, 3.0, 0.4, 0.2, 0.1, 0.1, 0.0, True),
        (0.1, 0.5, 2.0, 0.7, 1.1, 3.0, 0.4, 0.2, 0.1, 0.1, 0.0, False),
    ),
    StructureCheck: (("consistent", True, 0.25), ("inconsistent", False, -0.5)),
    ConsistencyReport: (
        (0.5, 0.01, 0.02, 0.3, 0.05, True, 0.2, _FRACTIONAL, _CONTOUR, 0.03, ""),
        (0.5, 0.01, 0.02, 0.3, 0.05, True, 0.2, None, None, None, "no gate"),
    ),
    LabeledSeries: ((np.arange(6.0).reshape(3, 2), np.array([0, 1, 1])),
                    (np.ones((3, 2)), np.array([1, 0, 0]))),
    WindowSpec: ((8, 0.5), (8, 0.25)),
    Window: ((0, 4, np.ones((4, 2)), 1), (0, 4, np.ones((4, 2)), 0)),
    FeatureMatrix: ((SpdMatrix(np.eye(2)), 1), (SpdMatrix(np.eye(2)), None)),
    IdentifiabilityReport: (
        ((0.5, None), (0.1, None), 2.0, 0.3, {"intra": 1, "inter": 2}, True),
        ((0.5, None), (0.1, None), 2.0, 0.3, {"intra": 1, "inter": 2}, False),
    ),
    WeightedGraph: ((_PATH.adjacency,), (np.zeros((2, 2)),)),
    NodePartition: (((0,), (1,)), ((0,), ())),
    ShiftSpectrum: ((0.5, -0.25), (0.5, -0.5)),
    MaternModel: ((_PATH, 1.0, 2.0, 1.0), (_PATH, 1.0, 2.0, 1.5)),
    SplitSpec: ((0.6, 0.2, 0.2, 3, True), (0.6, 0.2, 0.2, 3, False)),
    Metrics: ((3, 1, 4, 2, 0.6, 0.8, 0.7, 0.6, 0.75), (3, 1, 4, 2, 0.6, 0.8, 0.7, 0.6, None)),
    LinearClassifier: (
        (np.zeros(3), np.zeros(2), np.ones(2), 2, ("a",), 4, "gradient"),
        (np.zeros(3), np.zeros(2), np.ones(2), 2, ("a",), 4, None),
    ),
    FeatureSplit: (("t", "v", "s", (0, 1), (2,), (3,)), ("t", "v", "s", (0, 1), (2,), ())),
    SelectionResult: (
        (0.5, 0.9, [{"beta": 0.5}], WindowSpec(8), _CLASSIFIER),
        (0.5, 0.9, [{"beta": 0.5}], WindowSpec(8), None),
    ),
    _AtLeast: ((0.0, float), (0.0, int)),
    _OneOf: ((("a", "b"), str), (("a", "b"), int)),
    _SizedBy: (([float], "n", 1), ([float], "n", 0)),
    _Text: ((float,), (int,)),
    _Variant: (({"er": {}}, "er", "type"), ({"er": {}}, "er", "kind")),
    GmmFit: (
        ((0.25, 0.75), (0.0, 1.0), (1.0, 2.0), -3.5, 7, True, (-4.0, -3.5)),
        ((0.25, 0.75), (0.0, 1.0), (1.0, 2.0), -3.5, 7, True, ()),
    ),
    ClassSignature: ((1, np.eye(2), 0.5, _FIT, 10), (1, np.eye(2), 0.5, None, 11)),
    SupportMetrics: ((1.0, 0.5, 2 / 3, 0.25), (1.0, 0.5, 2 / 3, 0.0)),
    ContourSpec: ((2.0, 1.0, 64), (2.0, 1.0, 32)),
}


def _records() -> set:
    found = set()
    for info in pkgutil.iter_modules(covpow.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"covpow.{info.name}")
        found.update(
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
            and dataclasses.is_dataclass(value)
        )
    return found


def test_every_record_has_an_example():
    assert sorted(cls.__qualname__ for cls in _records()) == sorted(
        cls.__qualname__ for cls in EXAMPLES
    )
    assert len(EXAMPLES) == 27


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__qualname__)
def test_record_matches_its_dataclass_twin(cls):
    # repr, ==, hash, fields, asdict, __match_args__, the binding TypeErrors,
    # the FrozenInstanceError messages and cached properties, among others
    args, other = EXAMPLES[cls]
    assert differences(cls, args, other) == []


def test_a_call_that_binds_builds_no_dataclass(monkeypatch):
    # only a call that does not bind builds a dataclass twin to raise its TypeError
    def refuse(*args, **kwargs):
        raise AssertionError("a call that binds built a dataclass")

    monkeypatch.setattr(dataclasses, "dataclass", refuse)
    for cls, (args, _) in EXAMPLES.items():
        flds = dataclasses.fields(cls)
        names = [f.name for f in flds]
        want = repr(cls(*args))
        for k in range(len(args)):  # all by keyword, then positionals and keywords mixed
            assert repr(cls(*args[:k], **dict(zip(names[k:], args[k:])))) == want, cls
        defaulted = [i for i, f in enumerate(flds) if f.default is not dataclasses.MISSING]
        if defaulted:  # the defaults left out, positionally and by keyword
            i = defaulted[0]
            want = repr(cls(*args[:i], *[f.default for f in flds[i:]]))
            assert repr(cls(*args[:i])) == want, cls
            assert repr(cls(**dict(zip(names[:i], args[:i])))) == want, cls


@pytest.mark.parametrize("cls", [LabeledSeries, LinearClassifier], ids=lambda cls: cls.__name__)
def test_a_misused_array_record_raises_the_dataclass_type_error(cls):
    # the unset marker is found by identity: comparing it with an array field
    # would raise ValueError instead of the TypeError a dataclass raises
    args, _ = EXAMPLES[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    calls = (
        lambda c: c(args[0]),  # fields missing after an array
        lambda c: c(**{names[0]: args[0]}),
        lambda c: c(*args, **{names[1]: args[1]}),  # an array given twice
        lambda c: c(*args, None),
        lambda c: c(**dict(zip(names, args)), unknown=None),
        lambda c: c(args[0], **{names[1] + "_": args[1]}),  # "Did you mean" from 3.13
    )
    for call in calls:
        with pytest.raises(TypeError) as mine:
            call(cls)
        with pytest.raises(TypeError) as theirs:
            call(twin(cls))
        assert str(mine.value) == str(theirs.value)


def test_node_partition_meshes_stay_a_cached_property():
    assert isinstance(vars(NodePartition)["_meshes"], functools.cached_property)
    part = NodePartition((0, 2), (1,))
    assert "_meshes" not in vars(part)
    assert part._meshes is part._meshes and "_meshes" in vars(part)


def test_synthetic_records_match_their_twins_here():
    assert synthetic_differences(_ROOT / "src" / "covpow" / "errors.py") == []


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_synthetic_records_match_their_twins_under(version):
    """The decorator alone, under each interpreter found on PATH as python3.X.

    errors.py imports no numpy, so an interpreter without it can load the
    file by path; one that is not installed, or reports another version, is
    skipped.
    """
    exe = shutil.which(f"python{version}")
    probe = exe and subprocess.run(
        [exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
        capture_output=True, text=True,
    )
    if not probe or probe.returncode or probe.stdout.strip() != version:
        pytest.skip(f"no python{version} on PATH")
    script, errors = _ROOT / "tests" / "record_twins.py", _ROOT / "src" / "covpow" / "errors.py"
    proc = subprocess.run(
        [exe, str(script), str(errors)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _refused(namespace) -> str:
    with pytest.raises(TypeError) as info:
        frozen(type("Odd", (), {"__annotations__": {"x": "int"}, "__doc__": "Odd.", **namespace}))
    return str(info.value)


def test_frozen_refuses_what_it_does_not_generate():
    assert _refused({"x": dataclasses.field(default_factory=list)}) == (
        "Odd: a record takes plain fields with plain defaults"
    )
    for option in ({"init": False}, {"repr": False}, {"compare": False}, {"kw_only": True}):
        assert _refused({"x": dataclasses.field(default=0, **option)}) == (
            "Odd: a record takes plain fields with plain defaults"
        )
    assert _refused({"__repr__": repr}) == "Odd: a record gets ['__repr__'] from frozen"
    assert _refused({"__doc__": None}) == "Odd: a record needs its own docstring"
