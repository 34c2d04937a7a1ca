"""Write perfbench/characterisation.json: what each workload is made of.

    PYTHONPATH=src python3 perfbench/record.py

For workload seed 0 it records, per workload: why it was chosen, its config
and commands, slots and runs, the share of runs that become periodic within
their horizon with the median and maximum of transient + period, LQR solves
per distinct LQ model, and which known baseline failures it shows; plus the
machine it ran on.  A change that helps only runs with one of these
properties names it and quotes the share from this file.  Nothing here is
timed.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from characterise import characterise
from checks import check_pass
from tracer import Tracer
from worker import machine_info, run_pass, set_up
from workloads import KNOWN_BASELINE_FAILURES, WORKLOADS

HERE = Path(__file__).resolve().parent
SEED = 0


def record_workload(w, run_dir: Path) -> dict:
    run_dir.mkdir(parents=True)
    cfg_path, cfg, t = set_up(w, SEED, run_dir)
    tracer = Tracer()
    with tracer.installed():
        _, ok = run_pass(w, cfg_path, run_dir / "pass")
    report = check_pass(w, t, SEED, run_dir / "pass", ok)
    solves = sum(s.name == "control.solve_lqr" for s in tracer.spans)
    models = len(tracer.lqr_models)
    return {
        "why": w.why,
        "commands": list(w.commands),
        "config": cfg_path.read_text(),
        "runs": len(report.runs),
        "characterisation": characterise(w, SEED, cfg, t),
        "lqr_solves": solves,
        "lqr_distinct_models": models,
        "lqr_solves_per_distinct_model": solves / models if models else None,
        "known_baseline_failures": sorted(
            set(report.failures) & set(KNOWN_BASELINE_FAILURES)),
        "unexpected_failures": sorted(
            set(report.failures) - set(KNOWN_BASELINE_FAILURES)),
    }


def main() -> None:
    work = HERE.parent / ".bench_build" / "perfbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    out = {
        "seed": SEED,
        "machine": machine_info(),
        "known_baseline_failures": KNOWN_BASELINE_FAILURES,
        "workloads": {name: record_workload(w, work / name)
                      for name, w in WORKLOADS.items()},
    }
    shutil.rmtree(work)
    path = HERE / "characterisation.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
