"""Shared pytest hooks: echo acceptance verdict lines after the run.

The acceptance tests record one PASS/FAIL line per shipped guarantee; the
default fd-level capture would swallow them, so they are replayed here in a
summary section that always reaches the terminal.
"""

import os
import sys
from pathlib import Path

# pyproject.toml puts src on sys.path for this process; the CLI tests that run
# covpow in a child process need it on PYTHONPATH as well
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "_VERDICTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)
