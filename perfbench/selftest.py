"""Show that every output check can fail: feed it a deliberately altered output.

    PYTHONPATH=src python3 perfbench/selftest.py

Run it from the root of a checkout. For each workload it runs one real
operation at the default seed, confirms the untouched outputs pass, and then
replays them through the benchmark's own accounting (``child.Run``) once per
alteration below, confirming each run is counted as failed. Exits 0 only
when every alteration was caught.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from child import Run
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent


def _edit_json(path: Path, edit) -> None:
    rec = json.loads(path.read_text())
    edit(rec)
    path.write_text(json.dumps(rec, sort_keys=True) + "\n")


def flip_beta_star(out: Path) -> None:
    _edit_json(out / "selection.json", lambda r: r.update(beta_star=-r["beta_star"]))


def perturb_weight(out: Path) -> None:
    def edit(rec):
        rec["weights"][0] *= 1 + 1e-6

    _edit_json(out / "classifier.json", edit)


def inconsistent_report(out: Path) -> None:
    path = out / "reports.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["report"]["empirically_consistent"] = False
    lines[0] = json.dumps(rec, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


def drop_report(out: Path) -> None:
    path = out / "reports.jsonl"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))


def change_pairwise_entry(out: Path) -> None:
    path = out / "pairwise.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[5] = repr(float(cells[5]) * (1 + 1e-6))
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def not_separated(out: Path) -> None:
    _edit_json(out / "identifiability.json", lambda r: r.update(separated=False))


ALTERATIONS = {
    "select-acc07": [flip_beta_star, perturb_weight],
    "verify-gated": [inconsistent_report, drop_report],
    "pipeline-air": [change_pairwise_entry, not_separated],
}


class Replay:
    """A workload whose operations copy saved outputs, altered on chosen ops."""

    def __init__(self, workload, saved: Path, result, alter, alter_from: int) -> None:
        self.workload, self.saved, self.result = workload, saved, result
        self.alter, self.alter_from, self.ops = alter, alter_from, 0

    def run(self, out: Path):
        shutil.copytree(self.saved, out)
        if self.alter is not None and self.ops >= self.alter_from:
            self.alter(out)
        self.ops += 1
        return self.result

    def summary(self, out: Path) -> dict:
        return self.workload.summary(out)

    def verdict(self, summary: dict) -> list[str]:
        return self.workload.verdict(summary)


def replay(name, workload, saved, result, alter, alter_from, state) -> Run:
    """Two operations through Run, as a measured run makes them."""
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir(parents=True)
    run = Run(name, DEFAULT_SEED, state, state)
    run.wl = Replay(workload, saved, result, alter, alter_from)
    run.op("warmup", check=True)
    run.op("0")
    return run


def main() -> int:
    root = HERE.parent / ".perfbench-work" / "selftest"
    missed = []
    for name, alterations in ALTERATIONS.items():
        work = root / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload = WORKLOADS[name](DEFAULT_SEED, work)
        workload.prepare()
        saved = work / "saved"
        result = workload.run(saved)
        cases = [("untouched", None, 0)]
        cases += [(alter.__name__, alter, 0) for alter in alterations]
        cases += [(f"{alterations[0].__name__} on the second operation only", alterations[0], 1)]
        for label, alter, alter_from in cases:
            run = replay(name, workload, saved, result, alter, alter_from, work / "state")
            caught = run.failed > 0
            ok = caught == (alter is not None)
            print(f"{name} {label}: failed {run.failed} of {run.attempted}"
                  f" {'ok' if ok else 'NOT AS EXPECTED'} {run.errors[:1]}")
            if not ok:
                missed.append(f"{name} {label}")
    shutil.rmtree(root, ignore_errors=True)
    if missed:
        print(f"checks that did not behave: {missed}", file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
