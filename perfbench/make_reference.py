"""Write reference.json: each workload's checked outputs at the default seed.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it from the root of a checkout. It refuses to write a reference whose
outputs fail their own checks. Regenerate only when a change is meant to
alter covpow's outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    work_root = HERE.parent / ".perfbench-work" / "reference"
    reference = {}
    for name, workload in WORKLOADS.items():
        work = work_root / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = workload(DEFAULT_SEED, work)
        wl.prepare()
        res = wl.run(work / "out")
        summary = wl.summary(work / "out")
        errors = res.errors + wl.verdict(summary)
        if errors:
            print(f"{name}: not writing a failing reference: {errors[:5]}", file=sys.stderr)
            return 1
        reference[name] = summary
        print(f"{name}: {summary['exact'].get('beta_star', summary['exact'].get('gated'))}")
    shutil.rmtree(work_root, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
