"""Layer timings of the roadphases engine, for before/after comparisons.

Times only public APIs that every recent tree has, so one script measures
two checkouts alike:

* L1  ``Simulation.advance`` with no policy, in us per lane-step, on the
      Fig-8 45/15 (60 slots), the 8x8x9 city (1,280 slots) and the
      32x32x45 grid (94,208 slots), at 1, 12 and 180 lanes (the grid
      skips 180 lanes), continuous; and on the city at 12 and 180 lanes,
      discrete (``city_8x8x9/discrete/<lanes>``), whose counters a
      Simulation may step in another dtype than continuous ones.  Each
      entry records ``kernel_bytes``, the bytes of every array the
      network's ``StepKernel`` holds after its timing, and ``terms_bytes``,
      those of the step its Simulation laid out for its placement
      (``sim._terms``: the terms, and in a tree that keeps its blocks
      there, their gathers, one block's being the kernel's own);
* L2  each policy's gated ``Simulation.advance`` on the 12-lane discrete
      8x8x9 city, in us per step.  ``priority`` steps the same stack with
      no gate, so an entry less it is the gate's cost.
      ``lane_groups/diagram`` and ``lane_groups/response`` step the lane
      group stacks of the benchmark's ``city_policies`` workload (seeds
      0-2): 24 lanes of local and global feedback at densities 0.1, 0.3,
      0.5 and 0.7, and 9 lanes of open loop, local and global feedback at
      density 0.3;
* L3  one measured run: ``metrics.estimate_growth_rate`` of one Fig-8
      45/15 placement (density 0.3, seed 0, continuous) at its default
      horizon, in seconds per run, with the ``StepKernel.apply`` calls one
      run executed (counted in an untimed run);
* L4  the 60-density x 3-seed Fig-8 45/15 sweep at horizon 5,900
      (continuous), in seconds;
* L5  ``control.solve_lqr(control.build_lq_model(t))`` on the 4x4, 8x8
      and 12x12 cities of segment length 9 (32, 128 and 288 roads), in
      ms per solve: the LQR solve each global-feedback series pays once;
* L6  the ``diagram`` and ``response`` commands of the benchmark's
      ``city_policies`` config (workload seed 0), each through
      ``cli.main`` in the child process, in seconds (a command that
      exits nonzero raises, here and in L7 and L8); it raises unless
      ``diagram.csv``, ``diagram_roads.csv`` and ``response_summary.csv``
      have the SHA-256 recorded for this config (L6_SHA256);
* L7  the ``simulate`` command on the 8x8x9 city (discrete, density 0.3,
      seed 0, 2,000 steps) through ``cli.main``, in seconds: stepping,
      ``counters.tsv`` and ``occupancy.txt`` together;
* L8  the paper's Section 4 policy comparison: the ``diagram`` command on
      the 8x8x9 city with ``policy_list = priority, open_loop,
      local_feedback, global_feedback``, the default 20-density grid,
      seeds 0-2, discrete, at a quarter of the default horizon (15,200
      steps), through ``cli.main``, in seconds (about a minute); it
      raises unless ``diagram.csv`` and ``diagram.dat`` have the SHA-256
      recorded for this config (L8_SHA256);
* L9  ``metrics.detect_period`` on a 60-lane discrete 8x8x9 city stack
      (densities n / 19 for n = 0..19, seeds 0-2), under the priority rule
      at ``max_steps`` 1,500 and under local feedback at 800, in seconds
      per call; it raises unless the ``repr`` of each call's results has
      the SHA-256 recorded for it (L9_SHA256).

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
import hashlib
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
DISCRETE_LANES = {"city_8x8x9": (12, 180)}  # L1's discrete stacks
REPEATS = 7
# steps per timing, sized so that one timing takes roughly 10-100 ms
L1_STEPS = {"fig8_45_15": 1000, "city_8x8x9": 300, "grid_32x32x45": 8}
L2_STEPS = 400
L3_RUNS = 3
L5_STEPS = {4: 100, 8: 8, 12: 2}  # solves per timing, by city side


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


def held_bytes(obj) -> int:
    """Bytes of the arrays in ``obj``, and in the lists, tuples and dict
    values it holds, at any depth."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return 0
    return sum(held_bytes(v) for v in obj)


def layer1() -> dict:
    out = {}
    for name, build in NETWORKS.items():
        t = build()
        runs = [(f"{name}/{lanes}", dynamics.CONTINUOUS, lanes)
                for lanes in LANES]
        runs += [(f"{name}/discrete/{lanes}", dynamics.DISCRETE, lanes)
                 for lanes in DISCRETE_LANES.get(name, ())]
        for key, mode, lanes in runs:
            if t.n_slots * lanes > 10 ** 7:
                continue  # 94,208 x 180 would need 135 MB per array
            sim = dynamics.Simulation(t, placements(t, lanes), mode)
            sim.advance(5)  # first-call costs
            steps = L1_STEPS[name]
            out[key] = entry(
                timed(sim.advance, steps), 1e6 / lanes, steps,
                slots=t.n_slots, lanes=lanes, mode=mode,
                kernel_bytes=held_bytes(vars(sim.kernel)),
                terms_bytes=held_bytes(sim._terms),
                unit="us per lane-step")
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
    for name, densities, groups in (
            ("diagram", (0.1, 0.3, 0.5, 0.7), ("local_feedback",
                                               "global_feedback")),
            ("response", (0.3,), ("open_loop", "local_feedback",
                                  "global_feedback"))):
        a = np.stack([dynamics.init_occupancy(t, density=d, seed=s)
                      for d in densities for s in range(3)])
        sim = dynamics.Simulation(
            t, np.tile(a, (len(groups), 1)), dynamics.DISCRETE,
            control.LaneGroups([policies[g] for g in groups]))
        sim.advance(20)  # first-call costs
        out[f"lane_groups/{name}"] = entry(
            timed(sim.advance, L2_STEPS), 1e6, L2_STEPS,
            lanes=len(a) * len(groups), unit="us per step")
    return out


def apply_calls(fn) -> int:
    """``StepKernel.apply`` calls made by one call of ``fn``."""
    real, calls = dynamics.StepKernel.apply, []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    dynamics.StepKernel.apply = counted
    try:
        fn()
    finally:
        dynamics.StepKernel.apply = real
    return len(calls)


def layer3() -> dict:
    t = NETWORKS["fig8_45_15"]()
    a = dynamics.init_occupancy(t, density=0.3, seed=0)

    def run():
        metrics.estimate_growth_rate(t, a, dynamics.CONTINUOUS)

    run()  # first-call costs
    return {"fig8_45_15/estimate_growth_rate": entry(
        timed(run, L3_RUNS), 1.0, L3_RUNS, executed=apply_calls(run),
        unit="s per run")}


def layer4() -> dict:
    t = NETWORKS["fig8_45_15"]()
    grid = [n / 59 for n in range(60)]
    seconds = timed(lambda: metrics.sweep_diagram(
        t, grid, dynamics.CONTINUOUS, seeds=(0, 1, 2),
        horizon=100 * t.counting_size), 1)
    return {"fig8_45_15_sweep": entry(seconds, 1.0, 1, runs=180,
                                      horizon=100 * t.counting_size,
                                      unit="s per sweep")}


def layer5() -> dict:
    out = {}
    for side, steps in L5_STEPS.items():
        t = topology.build_torus_city(side, side, 9)
        control.solve_lqr(control.build_lq_model(t))  # first-call costs
        out[f"city_{side}x{side}x9"] = entry(
            timed(lambda: control.solve_lqr(control.build_lq_model(t)),
                  steps), 1e3, steps, roads=len(t.roads), unit="ms per solve")
    return out


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


def check_sha256(layer: str, directory: str, want: dict) -> None:
    """Raise unless each file named in ``want`` has its SHA-256 there: a
    tree that writes other bytes is not timing the same results."""
    for name, digest in want.items():
        check_bytes(layer, name, (Path(directory) / name).read_bytes(),
                    digest)


def check_bytes(layer: str, name: str, data: bytes, digest: str) -> None:
    """Raise unless ``data``, the bytes of ``name``, has SHA-256 ``digest``."""
    got = hashlib.sha256(data).hexdigest()
    if got != digest:
        raise RuntimeError(f"{layer} wrote a {name} with SHA-256 {got}, "
                           f"not {digest}")


# SHA-256 of L6's output files, from the city_policies config at workload
# seed 0
L6_SHA256 = {
    "diagram.csv":
        "a195b81103b0a380c6c7460ab8f2114c5a2cc99234cfc8e7ef49fbc80e9e5f39",
    "diagram_roads.csv":
        "969de719414e2c3471adbc3c3321362e59bc9066fc8a1357295458840ce44d76",
    "response_summary.csv":
        "03bc21727cbeb5418dfcaebca0fccf2aaa96ad0a0205011b413e6ff08bbc9579",
}


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
        check_sha256("L6", tmp, L6_SHA256)
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


# SHA-256 of L8's output files
L8_SHA256 = {
    "diagram.csv":
        "0a4f7bb770644c5c51c2811be0465058976b230660f75d6b89bac70d316b210f",
    "diagram.dat":
        "c13fcaebfcdd2db0c381a3155dd95a9f126803961e0f60ffc098e0ba0d4c59f0",
}


def layer8() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "policies.cfg"
        cfg.write_text(L8_CFG)
        argv = ["--out", tmp, "diagram", "--config", str(cfg)]
        seconds = timed(lambda: run_command(argv), 1)
        check_sha256("L8", tmp, L8_SHA256)
        return {"city_8x8x9/policies_diagram": entry(
            seconds, 1.0, 1, horizon=15200, runs=240, unit="s per command")}


# SHA-256 of the repr of L9's results, per entry
L9_SHA256 = {
    "priority":
        "3a9bab6717aab764464175b5b6d663da32b530edb69c1272e021e0d01780bd88",
    "local_feedback":
        "51a3f58504c6cc37d13a555a396f753a24635d25d489d9b2a9e77b5181ffa0f7",
}


def layer9() -> dict:
    t = NETWORKS["city_8x8x9"]()
    a = np.stack([dynamics.init_occupancy(t, density=n / 19, seed=seed)
                  for n in range(20) for seed in range(3)])
    out = {}
    for name, policy, steps in (
            ("priority", None, 1500),
            ("local_feedback", control.LocalFeedbackPolicy(), 800)):
        metrics.detect_period(t, a, policy, max_steps=10)  # first-call costs
        found = []
        seconds = timed(lambda: found.append(metrics.detect_period(
            t, a, policy, steps)), 1)
        check_bytes("L9", f"{name} result repr", repr(found[0]).encode(),
                    L9_SHA256[name])
        out[f"city_8x8x9/detect_period/{name}"] = entry(
            seconds, 1.0, 1, lanes=len(a), max_steps=steps,
            unit="s per call")
    return out


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
            "L1": layer1(), "L2": layer2(), "L3": layer3(),
            "L4": layer4(), "L5": layer5(),
            "L6": layer6(), "L7": layer7(), "L8": layer8(), "L9": layer9()}


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
    for label, samples in runs.items():
        first = samples[0]
        doc.setdefault("trees", {})[label] = {
            "machine": info,
            **{layer: {key: summary([r[layer][key] for r in samples])
                       for key in first[layer]} for layer in first}}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
