"""One benchmark process for one workload: set up, run passes, check, trace.

Started by run.py, with the checkout's ``src`` on PYTHONPATH and the BLAS
thread count pinned in the environment.  A pass runs the workload's CLI
commands in-process through ``roadphases.cli.main``, one after another
(a closed loop with one caller), and is timed from the first command's
start to the last command's end.  Passes repeat until the run's seconds are
used; every pass's outputs are checked and must match the first pass byte
for byte.  With tracing, the first half of the time runs untraced passes and
the second half traced ones; an untimed characterisation follows.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from roadphases import cli, dynamics

from characterise import characterise
from checks import CheckReport, check_pass
from tracer import Tracer
from workloads import WORKLOADS, Workload

POLICY_IDS = ("open_loop", "local_feedback", "global_feedback")


def warm_up_blas() -> None:
    """One BLAS/LAPACK solve, so first-call costs land in set-up."""
    m = np.random.default_rng(0).standard_normal((128, 128))
    np.linalg.solve(m @ m.T + 128 * np.eye(128), m)


def set_up(w: Workload, seed: int, run_dir: Path):
    """Config parse, topology and kernel build, BLAS warm-up."""
    text = w.config_text(seed)
    cfg_path = run_dir / "workload.cfg"
    cfg_path.write_text(text)
    cfg = cli.parse_config(text)
    t = cfg.build_topology()
    dynamics.kernel_for(t)
    warm_up_blas()
    return cfg_path, cfg, t


def run_pass(w: Workload, cfg_path: Path, out_dir: Path):
    """Run the workload's commands; return (wall seconds, {command: ok})."""
    out_dir.mkdir(parents=True)
    ok = {}
    start = time.perf_counter()
    for command in w.commands:
        try:
            rc = cli.main(["--out", str(out_dir), command,
                           "--config", str(cfg_path)])
        except Exception:
            traceback.print_exc()
            rc = None
        ok[command] = rc == 0
    return time.perf_counter() - start, ok


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class Passes:
    """Runs, checks and compares passes of one workload."""

    def __init__(self, w: Workload, seed: int, run_dir: Path, cfg_path, t):
        self.w, self.seed, self.run_dir = w, seed, run_dir
        self.cfg_path, self.t = cfg_path, t
        self.reference: dict[str, bytes] | None = None
        self.reports: list[CheckReport] = []
        self.count = 0

    def run(self, traced: bool = False) -> float:
        out_dir = self.run_dir / f"pass{self.count}"
        self.count += 1
        wall, ok = run_pass(self.w, self.cfg_path, out_dir)
        report = check_pass(self.w, self.t, self.seed, out_dir, ok)
        outputs = read_outputs(out_dir)
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            check = "outputs.traced_identical" if traced else \
                "outputs.repeatable"
            report.fail(check, report.runs,
                        "output files differ from the first pass")
        shutil.rmtree(out_dir)
        self.reports.append(report)
        return wall

    def failures(self, include_known: bool) -> int:
        return sum(len(r.failed_runs(include_known)) for r in self.reports)

    @property
    def attempted(self) -> int:
        return sum(len(r.runs) for r in self.reports)

    def messages(self) -> list[str]:
        return sorted({m for r in self.reports for m in r.messages})


def run_for(passes: Passes, seconds: float, traced: bool = False) -> list:
    """Run passes for `seconds`: at least one, and none that would overrun."""
    walls = []
    start = last = time.perf_counter()
    cycle = 0.0
    while not walls or last - start + cycle <= seconds:
        walls.append(passes.run(traced))
        now = time.perf_counter()
        cycle, last = now - last, now
    return walls


def _sum_calls(tr: Tracer, name: str) -> tuple[int, float, float]:
    count = total = own = 0
    for s in (tr.root, *tr.spans):
        c, t, o, _ = s.calls.get(name, (0, 0.0, 0.0, 0))
        count, total, own = count + c, total + t, own + o
    return count, total, own


def _per(part: float, whole: float) -> float:
    """part / whole, or 0 when nothing was measured."""
    return part / whole if whole else 0.0


def layer_metrics(tr: Tracer, n_passes: int, untraced: list, traced: list,
                  char: dict) -> dict:
    """Per-layer values, each per traced pass unless it is a ratio."""
    def spans(name, **attrs):
        return [s for s in tr.spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def total(name, **attrs):
        return sum(s.duration for s in spans(name, **attrs)) / n_passes

    def count(name):
        return len(spans(name)) / n_passes

    m = {}
    m["topology.build_calls"] = count("topology.build")
    m["topology.build_s"] = total("topology.build")
    m["dynamics.kernel_build_calls"] = count("dynamics.kernel_build")
    m["dynamics.kernel_build_s"] = total("dynamics.kernel_build")
    m["dynamics.init_occupancy_s"] = total("dynamics.init_occupancy")
    calls, apply_s, _ = _sum_calls(tr, "dynamics.apply")
    lanes = tr.apply_lanes()
    m["dynamics.apply_calls"] = calls / n_passes
    m["dynamics.lane_steps"] = lanes / n_passes
    m["dynamics.apply_s"] = apply_s / n_passes
    m["dynamics.apply_us_per_lane_step"] = _per(apply_s * 1e6, lanes)
    samples = np.frombuffer(tr.apply_us) if tr.apply_us else np.zeros(1)
    p50, p99 = np.percentile(samples, [50, 99])
    m["dynamics.apply_us_p50"] = float(p50)
    m["dynamics.apply_us_p99"] = float(p99)
    m["dynamics.apply_samples"] = len(tr.apply_us)
    m["dynamics.bytes_per_lane_step"] = _per(tr.apply_bytes(), lanes)
    calls, occ_s, _ = _sum_calls(tr, "dynamics.occupancy")
    m["dynamics.occupancy_calls"] = calls / n_passes
    m["dynamics.occupancy_s"] = occ_s / n_passes
    greens_calls = 0
    for pid in POLICY_IDS:
        calls, _, own = _sum_calls(tr, f"control.greens.{pid}")
        greens_calls += calls
        m[f"control.greens_s.{pid}"] = own / n_passes
    m["control.greens_calls"] = greens_calls / n_passes
    calls, timing_s, _ = _sum_calls(tr, "control.timing")
    m["control.timing_calls"] = calls / n_passes
    m["control.timing_s"] = timing_s / n_passes
    solves = count("control.solve_lqr")
    m["control.solve_lqr_calls"] = solves
    m["control.solve_lqr_s"] = total("control.solve_lqr")
    m["control.riccati_iterations"] = tr.riccati_iterations / n_passes
    m["control.lqr_distinct_models"] = len(tr.lqr_models)
    # distinct models per solve; 1 when nothing is solved (nothing wasted)
    m["control.lqr_useful_frac"] = _per(len(tr.lqr_models), solves) \
        if solves else 1.0
    runs = (sum(s.attrs["runs"] for s in spans("metrics.sweep"))
            + len(spans("metrics.response"))) / n_passes
    m["metrics.runs"] = runs
    m["metrics.sweep_s"] = total("metrics.sweep")
    m["metrics.sweep_self_s"] = sum(
        s.self_s for s in spans("metrics.sweep")) / n_passes
    m["metrics.lane_steps_per_run"] = _per(lanes / n_passes, runs)
    m["metrics.useful_step_frac"] = _per(
        char["sweep"]["useful_steps"],
        tr.apply_lanes("metrics.sweep") / n_passes)
    m["metrics.response_s"] = total("metrics.response")
    calls, dist_s, _ = _sum_calls(tr, "metrics.distance")
    m["metrics.distance_calls"] = calls / n_passes
    m["metrics.distance_s"] = dist_s / n_passes
    for command in ("diagram", "response"):
        m[f"cli.command_s.{command}"] = total("cli.main", command=command)
    m["cli.self_s"] = sum(s.self_s for s in spans("cli.main")) / n_passes
    m["cli.make_policy_calls"] = count("cli.make_policy")
    m["trace.overhead_frac"] = \
        statistics.median(traced) / statistics.median(untraced) - 1
    return m


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
        info["l3_cache"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/"
                                "size").read_text().strip()
    except (OSError, StopIteration):
        pass
    return info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--run-dir", required=True, type=Path)
    p.add_argument("--result", required=True, type=Path)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() when the parent started us")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-file", type=Path,
                   help="trace the second half of the passes, write here")
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    args.run_dir.mkdir(parents=True, exist_ok=True)
    cfg_path, cfg, t = set_up(w, args.seed, args.run_dir)
    result = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        passes = Passes(w, args.seed, args.run_dir, cfg_path, t)
        if args.trace_file:
            untraced = run_for(passes, args.seconds / 2)
            tracer = Tracer()
            with tracer.installed():
                traced = run_for(passes, args.seconds / 2, traced=True)
            char = characterise(w, args.seed, cfg, t)
            metrics = layer_metrics(tracer, len(traced), untraced, traced,
                                    char)
            metrics["nonconverged_frac"] = _per(
                sum(r.nonconverged for r in passes.reports),
                sum(r.points for r in passes.reports))
            metrics["failed_frac"] = passes.failures(True) / passes.attempted
            tracer.write(args.trace_file)
            result["characterisation"] = char
        else:
            walls = run_for(passes, args.seconds)
            metrics = {
                "wall_s": statistics.median(walls),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            result["walls"] = walls
        result.update(
            metrics=metrics, attempted=passes.attempted,
            failed=passes.failures(False),
            runs_per_pass=len(passes.reports[0].runs),
            messages=passes.messages(), machine=machine_info())
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
