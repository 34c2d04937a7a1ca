"""roadphases benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is used from the checkout's
``src`` directory.  Set-up is measured in several fresh processes (the
median is reported); the workload then runs in one more fresh process, with
the BLAS thread count pinned to the number of usable cores.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics, and the full trace is written under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import KNOWN_BASELINE_FAILURES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6            # set-up-only processes per untraced run
DEADLINE_S = 170            # the whole run, set-up probes included


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_worker(args, run_dir: Path, name: str, extra: list[str],
               timeout: float) -> dict:
    result = run_dir / f"{name}.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--run-dir", str(run_dir / name), "--result", str(result),
           "--spawned", repr(time.monotonic()), *extra]
    # the program's own prints go to stderr: stdout carries only results
    proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} exited with code {proc.returncode}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    start = time.monotonic()
    if not (ROOT / "src" / "roadphases" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'roadphases'}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS or args.seed < 0 \
            or not 1 <= args.seconds <= 60:
        print("error: need a known workload, a seed >= 0 and 1..60 seconds "
              f"(workloads: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    bench_dir = ROOT / ".bench_build" / "perfbench"
    run_dir = bench_dir / (f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}-{os.getpid()}")
    run_dir.mkdir(parents=True)
    # set-up probes before and after the workload process, so that their
    # median spans the run's whole time on a machine whose speed drifts
    probes = 0 if args.trace else SETUP_PROBES // 2

    def probe(i):
        return run_worker(args, run_dir, f"setup{i}", ["--setup-only"],
                          30)["setup_s"]
    try:
        setups = [probe(i) for i in range(probes)]
        extra = ["--trace-file", str(bench_dir / (
            f"trace-{args.workload}-seed{args.seed}.json"))] \
            if args.trace else []
        res = run_worker(args, run_dir, "main", extra,
                         DEADLINE_S - probes * 10
                         - (time.monotonic() - start))
        setups += [res["setup_s"]] + [probe(probes + i)
                                      for i in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    values = dict(res["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    w = WORKLOADS[args.workload]
    print(f"workload {w.name}: {res['runs_per_pass']} runs per pass, "
          f"{res['attempted'] // res['runs_per_pass']} passes; {w.why}")
    print("machine: " + json.dumps(res["machine"], sort_keys=True))
    if args.trace:
        print("characterisation: " + json.dumps(res["characterisation"]))
    else:
        print("pass wall_s: " + ", ".join(f"{v:.4f}" for v in res["walls"])
              + "; set-up s: " + ", ".join(f"{v:.4f}" for v in setups))
    for message in res["messages"]:
        known = message.split(":", 1)[0] in KNOWN_BASELINE_FAILURES
        print(("known baseline failure: " if known else "FAILED: ")
              + message)
    for m in wanted:
        print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
