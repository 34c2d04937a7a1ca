"""Output checks for one pass of a workload.

Every simulation run of a pass has an id: ("diagram", policy, density index,
seed index) or ("response", policy, seed).  A run fails when its command
raised or exited non-zero, or when an output row it feeds fails a check.
The tolerances are the acceptance suite's, unchanged.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from roadphases.analytic import flow_approx, phase_boundaries
from roadphases.topology import NetworkTopology

from workloads import KNOWN_BASELINE_FAILURES, Workload

FLOW_APPROX_TOL = 0.03      # criterion 5, away from the kinks
FLOW_APPROX_KINK_TOL = 0.06  # criterion 5, within KINK_WINDOW of a kink
KINK_WINDOW = 0.05
FREE_TOL = 0.02             # flow tracks density in the free regime
CITY_FREE_DENSITY = 0.15    # criterion 10's free-regime density

DIAGRAM_FIELDS = ("policy", "density", "flow", "converged", "seed_count")
ROAD_FIELDS = ("policy", "r", "density", "flow", "road_id", "road_density",
               "road_flow")
SUMMARY_FIELDS = ("policy", "seed", "response_time", "settled", "plateau")


@dataclass
class CheckReport:
    runs: list[tuple] = field(default_factory=list)
    failures: dict[str, set] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)
    points: int = 0
    nonconverged: int = 0

    def fail(self, check: str, runs, message: str) -> None:
        self.failures.setdefault(check, set()).update(runs)
        self.messages.append(f"{check}: {message}")

    def failed_runs(self, include_known: bool) -> set:
        out = set()
        for check, runs in self.failures.items():
            if include_known or check not in KNOWN_BASELINE_FAILURES:
                out |= runs
        return out


def expected_densities(w: Workload, t: NetworkTopology) -> list[float]:
    """Grid points as the sweep realises them (car count / positions)."""
    size = t.counting_size
    spec = w.densities
    if spec.startswith("counts("):
        lo, hi = (int(v) for v in spec[len("counts("):-1].split(","))
        return [n / size for n in range(lo, hi + 1)]
    return [round(float(v) * size) / size for v in spec.split(",")]


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


def _read_rows(path: Path, fields: tuple[str, ...]) -> list[dict] | None:
    """Rows of a CSV file, or None when it is missing or lacks a column."""
    if not path.is_file():
        return None
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not set(fields) <= set(reader.fieldnames or ()):
            return None
        return list(reader)


def _free_limit(t: NetworkTopology) -> float:
    if t.family == "figure_eight":
        return float(phase_boundaries(t.params["n"], t.params["m"]).d1)
    return CITY_FREE_DENSITY


def check_diagram(w: Workload, t: NetworkTopology, n_seeds: int,
                  out_dir: Path, ok: bool, report: CheckReport) -> None:
    densities = expected_densities(w, t)
    runs_of = {(pol, i): [("diagram", pol, i, s) for s in range(n_seeds)]
               for pol in w.series() for i in range(len(densities))}
    all_runs = [r for runs in runs_of.values() for r in runs]
    report.runs.extend(all_runs)
    if not ok:
        report.fail("diagram.exit", all_runs, "command failed")
        return
    rows = _read_rows(out_dir / "diagram.csv", DIAGRAM_FIELDS)
    if rows is None:
        report.fail("diagram.rows", all_runs, "diagram.csv missing")
        return
    K = w.horizon
    cap = 0.25 * t.params.get("capacity", 1)
    free_limit = _free_limit(t)
    kinks = ()
    if t.family == "figure_eight":
        b = phase_boundaries(t.params["n"], t.params["m"])
        kinks, ratio = (float(b.d1), float(b.d2), float(b.r)), b.r
    for pol in w.series():
        series = [r for r in rows if r["policy"] == pol]
        if len(series) != len(densities):
            report.fail("diagram.rows",
                        [r for i in range(len(densities))
                         for r in runs_of[pol, i]],
                        f"{pol}: {len(series)} rows, want {len(densities)}")
            continue
        for i, (row, d) in enumerate(zip(series, densities)):
            runs = runs_of[pol, i]
            cells = (row["density"], row["flow"])
            if not all(_finite(c) for c in cells) \
                    or abs(float(row["density"]) - d) > 1e-12 \
                    or row["converged"] not in ("0", "1") \
                    or row["seed_count"] != str(n_seeds):
                report.fail("diagram.rows", runs, f"{pol}: bad row {row}")
                continue
            f = float(row["flow"])
            report.points += 1
            report.nonconverged += row["converged"] == "0"
            if f > cap + 2 / K or f > d + 2 / K:
                report.fail("diagram.flow_bounds", runs,
                            f"{pol} d={d:.4f}: flow {f} above its bound")
            if d <= free_limit and abs(f - d) > FREE_TOL:
                report.fail("diagram.free_flow", runs,
                            f"{pol} d={d:.4f}: free-regime flow {f}")
            if kinks:
                err = abs(f - flow_approx(d, ratio, 1))
                near = min(abs(d - k) for k in kinks) < KINK_WINDOW
                if err > (FLOW_APPROX_KINK_TOL if near else FLOW_APPROX_TOL):
                    report.fail("diagram.flow_approx", runs,
                                f"d={d:.4f}: |flow - flow_approx| = {err:.4f}")
    if w.per_road:
        _check_roads(w, t, densities, runs_of, out_dir, report)


def _check_roads(w: Workload, t: NetworkTopology, densities, runs_of,
                 out_dir: Path, report: CheckReport) -> None:
    rows = _read_rows(out_dir / "diagram_roads.csv", ROAD_FIELDS) or []
    want = len(densities) * len(t.roads)
    for pol in w.series():
        runs = [r for i in range(len(densities)) for r in runs_of[pol, i]]
        series = [r for r in rows if r["policy"] == pol]
        if len(series) != want:
            report.fail("diagram_roads.series", runs,
                        f"{pol}: {len(series)} rows, want {want}")
            continue
        numeric = ("r", "density", "flow", "road_density", "road_flow")
        bad = sum(not all(_finite(r[c]) for c in numeric) for r in series)
        if bad:
            report.fail("diagram_roads.numeric", runs,
                        f"{pol}: {bad} of {want} rows not numeric")


def check_response(w: Workload, seeds, out_dir: Path, ok: bool,
                   report: CheckReport) -> None:
    runs = {(pol, str(s)): ("response", pol, s)
            for pol in w.response_policies for s in seeds}
    report.runs.extend(runs.values())
    if not ok:
        report.fail("response.exit", runs.values(), "command failed")
        return
    rows = _read_rows(out_dir / "response_summary.csv",
                      SUMMARY_FIELDS) or []
    seen: dict[tuple, int] = {}
    for row in rows:
        key = (row["policy"], row["seed"])
        seen[key] = seen.get(key, 0) + 1
        if key in runs and not (
                (row["response_time"] or "").isdigit()
                and int(row["response_time"]) <= w.response_horizon + 1
                and row["settled"] in ("0", "1")
                and _finite(row["plateau"])):
            report.fail("response.summary", [runs[key]], f"bad row {row}")
    for key, run in runs.items():
        if seen.get(key) != 1:
            report.fail("response.summary", [run],
                        f"{seen.get(key, 0)} summary rows for {key}")
        pol, s = key
        trace = _read_rows(out_dir / f"response_{pol}_seed{s}.csv",
                           ("step", "distance"))
        steps = w.response_horizon + 1
        if trace is None or len(trace) != steps or any(
                r["step"] != str(k) or not _finite(r["distance"])
                or float(r["distance"]) < 0 for k, r in enumerate(trace)):
            report.fail("response.trace", [run],
                        f"response_{pol}_seed{s}.csv is not {steps} "
                        f"finite rows")


def check_pass(w: Workload, t: NetworkTopology, seed: int, out_dir: Path,
               command_ok: dict[str, bool]) -> CheckReport:
    """Check every output file of one pass (commands run into out_dir)."""
    report = CheckReport()
    seeds = w.seeds(seed)
    if "diagram" in w.commands:
        check_diagram(w, t, len(seeds), out_dir, command_ok["diagram"],
                      report)
    if "response" in w.commands:
        check_response(w, seeds, out_dir, command_ok["response"], report)
    return report
