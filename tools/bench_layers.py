"""Layer timings of the roadphases engine, for before/after comparisons.

Times only public APIs that every recent tree has, so one script measures
two checkouts alike:

* L1  ``Simulation.advance`` with no policy, in us per lane-step, on the
      Fig-8 45/15 (60 slots), the 8x8x9 city (1,280 slots) and the
      32x32x45 grid (94,208 slots), at 1, 12 and 180 lanes (the grid
      skips 180 lanes);
* L2  each policy's gated ``Simulation.advance`` on the 12-lane discrete
      8x8x9 city, in us per step; every step gates a fresh state, so no
      policy reads a count cached by the call before.  ``priority`` steps
      the same stack with no gate, so an entry less it is the gate's cost;
* L4  the 60-density x 3-seed Fig-8 45/15 sweep at horizon 5,900
      (continuous), in seconds;
* L6  the ``diagram`` and ``response`` commands of the benchmark's
      ``city_policies`` config (workload seed 0), each through
      ``cli.main`` in the child process, in seconds (a command that
      exits nonzero raises, here and in L7 and L8);
* L7  the ``simulate`` command on the 8x8x9 city (discrete, density 0.3,
      seed 0, 2,000 steps) through ``cli.main``, in seconds: stepping,
      ``counters.tsv`` and ``occupancy.txt`` together;
* L8  the paper's Section 4 policy comparison: the ``diagram`` command on
      the 8x8x9 city with ``policy_list = priority, open_loop,
      local_feedback, global_feedback``, the default 20-density grid,
      seeds 0-2, discrete, at a quarter of the default horizon (15,200
      steps), through ``cli.main``, in seconds (about a minute).

Each timing is the mean over ``steps`` calls.  Every tree, given as
``label=src`` (a checkout's ``src`` directory), is timed REPEATS times, and
each repeat is a fresh child process with that tree first on the path.  The
trees take turns, one child each per repeat, and every other repeat
reverses their order (A B B A A B ...), so host drift that lasts longer
than a child reaches every tree alike instead of reading as a layer change.
Each entry records the median, quartiles and minimum of its REPEATS
timings; results are merged into the output file under ``trees.<label>``:

    python tools/bench_layers.py --out BENCH.json \\
        --tree parent=../parent/src --tree change=src
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread on purpose, so that a timing does not depend on how many
# cores are free (perfbench/run.py pins the usable core count instead).
# Children inherit it.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# the program's modules (cli, control, dynamics, metrics, topology) are
# imported by measure(), in each child, from the tree that child times

NETWORKS = {
    "fig8_45_15": lambda: topology.build_figure_eight(45, 15),
    "city_8x8x9": lambda: topology.build_torus_city(8, 8, 9),
    "grid_32x32x45": lambda: topology.build_torus_city(32, 32, 45),
}
LANES = (1, 12, 180)
REPEATS = 7
# steps per timing, sized so that one timing takes roughly 10-100 ms
L1_STEPS = {"fig8_45_15": 1000, "city_8x8x9": 300, "grid_32x32x45": 8}
L2_STEPS = 400


def placements(t, lanes: int, density: float = 0.3) -> np.ndarray:
    return np.stack([dynamics.init_occupancy(t, density=density, seed=s)
                     for s in range(lanes)])


def timed(fn, steps: int) -> float:
    """Seconds per call of ``fn``, called ``steps`` times."""
    start = time.perf_counter()
    for _ in range(steps):
        fn()
    return (time.perf_counter() - start) / steps


def entry(seconds: float, scale: float, steps: int, **extra) -> dict:
    """One timing (``seconds`` x ``scale``) of an entry, with its facts."""
    return {"sample": seconds * scale, "steps": steps, **extra}


def layer1() -> dict:
    out = {}
    for name, build in NETWORKS.items():
        t = build()
        for lanes in LANES:
            if t.n_slots * lanes > 10 ** 7:
                continue  # 94,208 x 180 would need 135 MB per array
            sim = dynamics.Simulation(t, placements(t, lanes),
                                      dynamics.CONTINUOUS)
            sim.advance(5)  # first-call costs
            steps = L1_STEPS[name]
            out[f"{name}/{lanes}"] = entry(
                timed(sim.advance, steps), 1e6 / lanes, steps,
                slots=t.n_slots, lanes=lanes, unit="us per lane-step")
    return out


def layer2() -> dict:
    t = NETWORKS["city_8x8x9"]()
    solution = control.solve_lqr(control.build_lq_model(t))
    policies = {"priority": None,
                "open_loop": control.OpenLoopPolicy(),
                "local_feedback": control.LocalFeedbackPolicy(),
                "global_feedback": control.GlobalFeedbackPolicy(solution)}
    out = {}
    for name, policy in policies.items():
        sim = dynamics.Simulation(t, placements(t, 12), dynamics.DISCRETE,
                                  policy)
        sim.advance(20)  # first-call costs
        out[name] = entry(timed(sim.advance, L2_STEPS), 1e6, L2_STEPS,
                          lanes=12, unit="us per step")
    return out


def layer4() -> dict:
    t = NETWORKS["fig8_45_15"]()
    grid = [n / 59 for n in range(60)]
    seconds = timed(lambda: metrics.sweep_diagram(
        t, grid, dynamics.CONTINUOUS, seeds=(0, 1, 2),
        horizon=100 * t.counting_size), 1)
    return {"fig8_45_15_sweep": entry(seconds, 1.0, 1, runs=180,
                                      horizon=100 * t.counting_size,
                                      unit="s per sweep")}


def run_command(argv: list[str]) -> None:
    """One quiet ``cli.main`` call; a command that fails raises, since it
    would otherwise time as a fast one."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"roadphases {' '.join(argv)} exited with code "
                           f"{code}: {err.getvalue().strip()}")


def layer6() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import CITY_POLICIES  # imports nothing from the program
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "city_policies.cfg"
        cfg.write_text(CITY_POLICIES.config_text(0))
        for command in CITY_POLICIES.commands:
            argv = ["--out", tmp, command, "--config", str(cfg)]
            run_command(argv)  # first-call costs
            out[f"city_policies/{command}"] = entry(
                timed(lambda: run_command(argv), 1), 1.0, 1,
                unit="s per command")
    return out


L7_CFG = """\
[topology]
family = torus_city
rows = 8
cols = 8
segment_len = 9

[run]
mode = discrete
horizon = 2000
seeds = 0

[occupancy]
density = 0.3
"""


def layer7() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "simulate.cfg"
        cfg.write_text(L7_CFG)
        argv = ["--out", tmp, "simulate", "--config", str(cfg)]
        return {"city_8x8x9/simulate": entry(
            timed(lambda: run_command(argv), 1), 1.0, 1, horizon=2000,
            unit="s per command")}


L8_CFG = """\
[topology]
family = torus_city
rows = 8
cols = 8
segment_len = 9

[run]
mode = discrete
horizon = 15200
seeds = 0,1,2

[diagram]
densities = linspace(0,1,20)
policy_list = priority,open_loop,local_feedback,global_feedback
"""


def layer8() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "policies.cfg"
        cfg.write_text(L8_CFG)
        argv = ["--out", tmp, "diagram", "--config", str(cfg)]
        return {"city_8x8x9/policies_diagram": entry(
            timed(lambda: run_command(argv), 1), 1.0, 1, horizon=15200,
            runs=240, unit="s per command")}


def machine() -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    blas = {k: deps[k]["name"] for k in ("blas", "lapack")}
    cpu = next(line.split(":", 1)[1].strip() for line in
               Path("/proc/cpuinfo").read_text().splitlines()
               if line.startswith("model name"))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "cpu": cpu, "cpu_count": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def measure() -> dict:
    """One timing of every entry, of the program first on ``sys.path``."""
    global cli, control, dynamics, metrics, topology
    from roadphases import cli, control, dynamics, metrics, topology
    return {"src": str(Path(cli.__file__).resolve().parent.parent),
            "L1": layer1(), "L2": layer2(), "L4": layer4(), "L6": layer6(),
            "L7": layer7(), "L8": layer8()}


def run_child(src: Path) -> dict:
    """measure() in a fresh process that imports the program from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, __file__, "--child"], env=env,
                          check=True, capture_output=True, text=True)
    out = json.loads(done.stdout)
    if Path(out.pop("src")) != src:
        raise RuntimeError(f"the child did not import the program from {src}")
    return out


def summary(samples: list[dict]) -> dict:
    """An entry's REPEATS timings as median, quartiles and minimum."""
    values = [s["sample"] for s in samples]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    facts = {k: v for k, v in samples[0].items() if k != "sample"}
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "repeats": len(values), **facts}


def tree_arg(text: str) -> tuple[str, Path]:
    label, sep, src = text.partition("=")
    if not (label and sep and (Path(src) / "roadphases").is_dir()):
        raise argparse.ArgumentTypeError(
            f"need label=src with a roadphases package in src: {text!r}")
    return label, Path(src).resolve()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", type=tree_arg, action="append", default=[],
                   metavar="LABEL=SRC",
                   help="a tree to time, e.g. change=src (repeatable)")
    p.add_argument("--out", type=Path)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(measure()))
        return 0
    if not args.tree or args.out is None:
        p.error("give --out and at least one --tree")
    runs = {label: [] for label, _ in args.tree}
    if len(runs) < len(args.tree):
        p.error("each --tree needs a label of its own")
    for repeat in range(REPEATS):
        # every other repeat reverses the order, so no tree always goes first
        for label, src in args.tree[::-1] if repeat % 2 else args.tree:
            runs[label].append(run_child(src))
            print(f"repeat {repeat + 1}/{REPEATS}: {label} done",
                  file=sys.stderr)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("script", "tools/bench_layers.py")
    info = machine()
    for label, src in args.tree:
        first = runs[label][0]
        doc.setdefault("trees", {})[label] = {
            "machine": info, "src": str(src),
            **{layer: {key: summary([r[layer][key] for r in runs[label]])
                       for key in first[layer]} for layer in first}}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
