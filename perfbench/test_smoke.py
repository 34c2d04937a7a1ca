"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from roadphases import cli

from characterise import characterise
from checks import check_pass
from tracer import Tracer
from worker import layer_metrics, read_outputs, run_pass, set_up
from workloads import (CITY_POLICIES, FIG8_SWEEP, KNOWN_BASELINE_FAILURES,
                       METRO_GRID, WORKLOADS)

HERE = Path(__file__).resolve().parent
SMALL_CITY = (("family", "torus_city"), ("rows", 4), ("cols", 4),
              ("segment_len", 9))

TINY = {
    "fig8_sweep": replace(FIG8_SWEEP, seeds_per_run=1,
                          densities="counts(10,14)"),
    "city_policies": replace(CITY_POLICIES, topology=SMALL_CITY,
                             seeds_per_run=1, horizon=200,
                             densities="0.1,0.5", response_horizon=100),
    "metro_grid": replace(METRO_GRID, topology=SMALL_CITY, horizon=300),
}


def one_pass(w, tmp_path: Path, name: str = "pass", seed: int = 1):
    tmp_path.mkdir(exist_ok=True)
    cfg_path, cfg, t = set_up(w, seed, tmp_path)
    out = tmp_path / name
    _, ok = run_pass(w, cfg_path, out)
    return out, t, ok


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    assert listed == {name: WORKLOADS[name].why for name in listed}
    assert {"fig8_sweep", "city_policies"} <= set(listed)


def test_seed_maps_to_config_seeds():
    assert CITY_POLICIES.seeds(2) == (6, 7, 8)
    assert "seeds = 6,7,8\n" in CITY_POLICIES.config_text(2)
    assert METRO_GRID.seeds(5) == (5,)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    w = TINY[name]
    out, t, ok = one_pass(w, tmp_path)
    report = check_pass(w, t, 1, out, ok)
    assert all(ok.values())
    assert len(report.runs) > 0
    assert report.failed_runs(include_known=False) == set(), report.messages
    assert set(report.failures) <= set(KNOWN_BASELINE_FAILURES)


def test_corrupted_outputs_count_as_failures(tmp_path):
    w = TINY["fig8_sweep"]
    out, t, ok = one_pass(w, tmp_path)
    path = out / "diagram.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[-4] = "0.9"                    # the flow of the second point
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    report = check_pass(w, t, 1, out, ok)
    assert report.failed_runs(include_known=False) == {
        ("diagram", "priority", 1, 0)}

    w = TINY["city_policies"]
    out, t, ok = one_pass(w, tmp_path / "city")
    trace = out / "response_open_loop_seed1.csv"
    trace.write_text(trace.read_text().replace("\n1,", "\n1,nan,", 1))
    report = check_pass(w, t, 1, out, ok)
    assert report.failed_runs(include_known=False) == {
        ("response", "open_loop", 1)}


def test_tracing_leaves_outputs_unchanged(tmp_path):
    w = TINY["city_policies"]
    out, t, _ = one_pass(w, tmp_path, "plain")
    original = cli.main
    tracer = Tracer()
    with tracer.installed():
        traced_out, _, _ = one_pass(w, tmp_path, "traced")
    assert cli.main is original
    assert read_outputs(traced_out) == read_outputs(out)
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "metrics.sweep", "metrics.response",
            "control.solve_lqr", "topology.build"} <= names
    cfg = cli.parse_config(w.config_text(1))
    metrics = layer_metrics(tracer, 1, [1.0], [1.0],
                            characterise(w, 1, cfg, t))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]}
    assert wanted - set(metrics) == {"failed_frac", "nonconverged_frac"}
    assert metrics["control.solve_lqr_calls"] > 0
    assert metrics["dynamics.lane_steps"] == metrics["dynamics.apply_calls"]


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig8_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
