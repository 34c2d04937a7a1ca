"""Command-line front end: config parsing, subcommands, result files.

Subcommands
-----------
simulate   counter trajectory (TSV) and, in discrete mode, car positions
diagram    fundamental-diagram sweep -> CSV, plot data, optional SVG
eigen      closed-form eigenvalue / flow curves -> CSV
phases     phase segmentation of an existing diagram CSV
response   distance-to-uniform traces per policy after a clustered start

Configuration is an INI file (key = value under sections); command-line
flags override config keys.  Exit codes: 0 ok, 1 invalid config or inputs,
2 numerical failure (Riccati), 3 non-converged sweep points under --strict.
"""

from __future__ import annotations

import argparse
import configparser
import io
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analytic, control, metrics
from .dynamics import (CONTINUOUS, DISCRETE, init_occupancy, occupancy_lines,
                       counter_lines, simulate)
from .topology import NetworkTopology, build_figure_eight, parse_topology_text

POLICY_NAMES = ("priority", "open_loop", "local_feedback", "global_feedback")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs; round-trips through INI text."""

    topology: str                      # key = value block, one per line
    mode: str = DISCRETE
    policy: str = "priority"
    horizon: int | None = None
    burn_in: int | None = None
    seeds: tuple[int, ...] = (0, 1, 2)
    # policy parameters
    cycle: int = 4
    green_first: int = 2
    offset: int = 0
    q_scale: float = 1.0
    r_scale: float = 10.0
    # initial occupancy (simulate)
    occupancy_values: tuple[float, ...] | None = None
    occupancy_count: int | None = None
    occupancy_density: float | None = None
    # diagram sweep
    densities: str = "linspace(0,1,20)"
    eps: float = 0.02
    per_road: bool = False
    r_list: tuple[float, ...] = ()
    r_size: int = 60
    policy_list: tuple[str, ...] = ()
    # response scenario
    response_density: float = 0.3
    response_horizon: int | None = None
    response_band_fraction: float = 0.1
    response_policies: tuple[str, ...] = ("open_loop", "local_feedback",
                                          "global_feedback")

    def build_topology(self) -> NetworkTopology:
        return parse_topology_text(self.topology)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _tuple_of(cast):
    """Parser of a comma-separated list; an empty value gives ()."""
    def parse(text: str) -> tuple:
        text = text.strip()
        return tuple(cast(p.strip()) for p in text.split(",")) if text else ()
    return parse


# The INI schema: (RunConfig field, section, key, parse).  parse_config and
# serialize_config both walk this table; [topology] is handled apart.
_FIELDS = (
    ("mode", "run", "mode", str.strip),
    ("policy", "run", "policy", str.strip),
    ("horizon", "run", "horizon", int),
    ("burn_in", "run", "burn_in", int),
    ("seeds", "run", "seeds", _tuple_of(int)),
    ("cycle", "policy", "cycle", int),
    ("green_first", "policy", "green_first", int),
    ("offset", "policy", "offset", int),
    ("q_scale", "policy", "q_scale", float),
    ("r_scale", "policy", "r_scale", float),
    ("occupancy_values", "occupancy", "explicit", _tuple_of(float)),
    ("occupancy_count", "occupancy", "count", int),
    ("occupancy_density", "occupancy", "density", float),
    ("densities", "diagram", "densities", str.strip),
    ("eps", "diagram", "eps", float),
    ("per_road", "diagram", "per_road", _parse_bool),
    ("r_list", "diagram", "r_list", _tuple_of(float)),
    ("r_size", "diagram", "r_size", int),
    ("policy_list", "diagram", "policy_list", _tuple_of(str.strip)),
    ("response_density", "response", "density", float),
    ("response_horizon", "response", "horizon", int),
    ("response_band_fraction", "response", "band_fraction", float),
    ("response_policies", "response", "policies", _tuple_of(str.strip)),
)


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config syntax: {exc}") from exc
    if not cp.has_section("topology"):
        raise ConfigError("missing [topology] section")
    topo_lines = [f"{k} = {v}" for k, v in cp.items("topology")]
    cfg = RunConfig(topology="\n".join(topo_lines) + "\n")
    try:
        parse_topology_text(cfg.topology)
    except ValueError as exc:
        raise ConfigError(f"bad [topology] section: {exc}") from exc
    updates = {}
    for name, section, key, parse in _FIELDS:
        if not cp.has_option(section, key):
            continue
        raw = cp.get(section, key)
        try:
            updates[name] = parse(raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(
                f"bad value for [{section}] {key}: {raw!r}") from exc
    cfg = replace(cfg, **updates)
    if cfg.mode not in (CONTINUOUS, DISCRETE):
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    for name in (cfg.policy, *cfg.policy_list, *cfg.response_policies):
        if name not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {name!r}")
    return cfg


def _format_value(value) -> str:
    """INI text of a config value; repr keeps floats exact."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, str):
        return value
    return repr(value)


def serialize_config(cfg: RunConfig) -> str:
    cp = configparser.ConfigParser()
    cp.add_section("topology")
    for line in cfg.topology.strip().splitlines():
        key, val = (s.strip() for s in line.split("=", 1))
        cp.set("topology", key, val)
    for name, section, key, _parse in _FIELDS:
        value = getattr(cfg, name)
        if value is None:
            continue
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, _format_value(value))
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


def parse_density_grid(spec: str, t: NetworkTopology) -> list[float]:
    """Grid forms: linspace(a,b,n) | counts(lo,hi) | comma list."""
    spec = spec.strip()
    m = re.fullmatch(r"linspace\(([^,]+),([^,]+),\s*(\d+)\s*\)", spec)
    if m:
        lo, hi, num = float(m.group(1)), float(m.group(2)), int(m.group(3))
        if num < 1:
            raise ConfigError("linspace needs at least one point")
        return [float(v) for v in np.linspace(lo, hi, num)]
    m = re.fullmatch(r"counts\(\s*(\d+)\s*,\s*(\d+)\s*\)", spec)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if not 0 <= lo <= hi <= t.counting_size:
            raise ConfigError(f"counts range outside [0, {t.counting_size}]")
        return [n / t.counting_size for n in range(lo, hi + 1)]
    try:
        return [float(part) for part in spec.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad density grid: {spec!r}") from exc


def make_policy(name: str, cfg: RunConfig, t: NetworkTopology, d=None):
    """Instantiate a gate policy; global feedback solves once for network t.

    ``d`` is ignored (global feedback reads each run's own density); it is
    accepted for callers that still pass an operating density.
    """
    if name == "priority":
        return None
    if name == "open_loop":
        plan = control.OpenLoopPlan(cycle=cfg.cycle,
                                    green_first=cfg.green_first,
                                    offset=cfg.offset)
        return control.OpenLoopPolicy(plan)
    if name == "local_feedback":
        return control.LocalFeedbackPolicy()
    if name == "global_feedback":
        model = control.build_lq_model(t, q_scale=cfg.q_scale,
                                       r_scale=cfg.r_scale)
        return control.GlobalFeedbackPolicy(control.solve_lqr(model),
                                            cycle=cfg.cycle)
    raise ConfigError(f"unknown policy {name!r}")


def _initial_occupancy(cfg: RunConfig, t: NetworkTopology) -> np.ndarray:
    given = [cfg.occupancy_values, cfg.occupancy_count,
             cfg.occupancy_density]
    if sum(v is not None for v in given) != 1:
        raise ConfigError("[occupancy] needs exactly one of "
                          "explicit / count / density")
    seed = cfg.seeds[0]
    if cfg.occupancy_values is not None:
        return init_occupancy(t, values=list(cfg.occupancy_values))
    if cfg.occupancy_count is not None:
        return init_occupancy(t, count=cfg.occupancy_count, seed=seed)
    return init_occupancy(t, density=cfg.occupancy_density, seed=seed)


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    t = cfg.build_topology()
    a = _initial_occupancy(cfg, t)
    horizon = cfg.horizon if cfg.horizon is not None else 50
    policy = make_policy(cfg.policy, cfg, t)
    states = simulate(t, a, cfg.mode, horizon, policy)
    (out_dir / "counters.tsv").write_text(counter_lines(states))
    written = ["counters.tsv"]
    if cfg.mode == DISCRETE:
        (out_dir / "occupancy.txt").write_text(occupancy_lines(t, states, a))
        written.append("occupancy.txt")
    print(f"simulate: {horizon} steps of {t.topology_id} "
          f"({cfg.mode}, policy {cfg.policy}) -> {', '.join(written)}")
    return 0


def _series_for_diagram(cfg: RunConfig):
    """Yield (label, topology, policy name) per requested series."""
    if cfg.r_list and cfg.policy_list:
        raise ConfigError("choose one of r_list / policy_list, not both")
    if cfg.r_list:
        for r in cfg.r_list:
            if not 0 < r < 1:
                raise ConfigError(f"r must lie in (0, 1): {r}")
            n = max(2, round(r * cfg.r_size))
            m = max(2, cfg.r_size + 1 - n)
            yield f"r={r:g}", build_figure_eight(n, m), cfg.policy
    elif cfg.policy_list:
        t = cfg.build_topology()
        for name in cfg.policy_list:
            yield f"policy={name}", t, name
    else:
        yield "diagram", cfg.build_topology(), cfg.policy


def cmd_diagram(cfg: RunConfig, out_dir: Path, strict: bool = False,
                plot: bool = False) -> int:
    metrics.check_tolerance("eps", cfg.eps)
    series_data = []
    all_converged = True
    for label, t, policy_name in _series_for_diagram(cfg):
        densities = parse_density_grid(cfg.densities, t)
        diagram = metrics.sweep_diagram(
            t, densities, cfg.mode, make_policy(policy_name, cfg, t),
            seeds=cfg.seeds, horizon=cfg.horizon, burn_in=cfg.burn_in,
            per_road=cfg.per_road)
        seg = metrics.classify_phases_empirical(diagram, cfg.eps)
        series_data.append((label, diagram, seg))
        all_converged &= all(p.converged for p in diagram.points)
    metrics.write_diagram_csv([(d, seg) for _, d, seg in series_data],
                              out_dir / "diagram.csv")
    (out_dir / "diagram.dat").write_text(plot_data_text(series_data))
    written = ["diagram.csv", "diagram.dat"]
    if cfg.per_road:
        metrics.write_road_csv([d for _, d, _ in series_data],
                               out_dir / "diagram_roads.csv")
        written.append("diagram_roads.csv")
    if plot:
        if _render_svg(series_data, out_dir / "diagram.svg"):
            written.append("diagram.svg")
    print(f"diagram: {len(series_data)} series -> {', '.join(written)}")
    if not all_converged:
        print("warning: some points did not converge", file=sys.stderr)
        if strict:
            return 3
    return 0


def plot_data_text(series_data) -> str:
    """Two-column series separated by blank lines, # comment headers."""
    chunks = []
    for label, diagram, _seg in series_data:
        lines = [f"# series: {label}",
                 f"# topology: {diagram.topology_id}  policy: "
                 f"{diagram.policy_id}  r: {diagram.r!r}"]
        for p in diagram.points:
            lines.append(f"{p.density!r}\t{p.flow!r}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def _render_svg(series_data, path: Path) -> bool:
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("warning: matplotlib not installed, skipping SVG",
              file=sys.stderr)
        return False
    fig, ax = plt.subplots(figsize=(6, 4))
    for label, diagram, _seg in series_data:
        ax.plot(diagram.densities, diagram.flows, marker=".", label=label)
    ax.set_xlabel("density")
    ax.set_ylabel("average flow")
    ax.legend(fontsize=7)
    fig.tight_layout()
    fig.savefig(path)
    plt.close(fig)
    return True


def cmd_eigen(n: int, m: int, capacity: int, points: int,
              out_dir: Path) -> int:
    if points < 2:
        raise ConfigError("need at least 2 grid points")
    b = analytic.phase_boundaries(n, m)
    lines = [f"# n={n} m={m} capacity={capacity}",
             f"# r={b.r} rho={b.rho} d1={b.d1} d2={b.d2}",
             "density,case,candidates,selected,flow_approx"]
    for k in range(points):
        d = k / (points - 1)
        res = analytic.eigen_candidates(d, n, m, capacity)
        fa = analytic.flow_approx(d, b.r, capacity) if 0 < b.r < 1 else 0.0
        cands = ";".join(repr(c) for c in res.candidates)
        lines.append(f"{d!r},{res.case},{cands},{res.selected!r},{fa!r}")
    path = out_dir / "eigen.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"eigen: {points} densities -> eigen.csv")
    return 0


def cmd_phases(input_csv: Path, eps: float, out_dir: Path) -> int:
    diagram = metrics.read_diagram_csv(input_csv)
    seg = metrics.classify_phases_empirical(diagram, eps)
    lines = ["d_lo,d_hi,phase"]
    for s in seg.segments:
        lines.append(f"{s.d_lo!r},{s.d_hi!r},{s.label}")
    (out_dir / "phases.csv").write_text("\n".join(lines) + "\n")
    print(f"phases: {len(seg.segments)} segments -> phases.csv")
    return 0


def cmd_response(cfg: RunConfig, out_dir: Path) -> int:
    t = cfg.build_topology()
    if cfg.mode != DISCRETE:
        raise ConfigError("response scenarios run in discrete mode")
    metrics.check_tolerance("band_fraction", cfg.response_band_fraction)
    horizon = 8 * t.counting_size if cfg.response_horizon is None \
        else cfg.response_horizon
    count = round(cfg.response_density * t.counting_size)
    starts = np.array([metrics.clustered_occupancy(t, count, seed)
                       for seed in cfg.seeds])
    summary = ["policy,seed,response_time,settled,plateau"]
    for name in cfg.response_policies:
        policy = make_policy(name, cfg, t)
        traces = metrics.run_response_trace(t, starts, policy, horizon)
        for seed, trace in zip(cfg.seeds, traces):
            band = cfg.response_band_fraction * trace.distances[0]
            rt, settled = metrics.response_time(trace, band)
            plateau = metrics.plateau_level(trace)
            metrics.write_response_csv(
                trace, out_dir / f"response_{name}_seed{seed}.csv")
            summary.append(f"{name},{seed},{rt},{int(settled)},{plateau!r}")
    (out_dir / "response_summary.csv").write_text("\n".join(summary) + "\n")
    print(f"response: {len(cfg.response_policies)} policies x "
          f"{len(cfg.seeds)} seeds -> response_summary.csv")
    return 0


def _load_config(args) -> RunConfig:
    if not args.config:
        raise ConfigError("--config is required for this subcommand")
    cfg = parse_config(Path(args.config).read_text())
    if args.mode:
        cfg = replace(cfg, mode=args.mode)
    if args.policy:
        cfg = replace(cfg, policy=args.policy)
    if args.seeds is not None:
        cfg = replace(cfg, seeds=tuple(range(args.seeds)))
    if not cfg.seeds:
        raise ConfigError("seeds must name at least one seed")
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="roadphases",
        description="cell-based road-network traffic simulator and "
                    "fundamental-diagram toolkit")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI config path")
        p.add_argument("--mode", choices=(CONTINUOUS, DISCRETE))
        p.add_argument("--policy", choices=POLICY_NAMES)
        p.add_argument("--seeds", type=int,
                       help="use seeds 0..N-1, overriding the config")

    p_sim = sub.add_parser("simulate", help="dump a counter trajectory")
    add_common(p_sim)
    p_diag = sub.add_parser("diagram", help="density sweep")
    add_common(p_diag)
    p_diag.add_argument("--strict", action="store_true",
                        help="exit 3 when any point fails to converge")
    p_diag.add_argument("--plot", action="store_true",
                        help="also render an SVG (needs matplotlib)")
    p_eig = sub.add_parser("eigen", help="closed-form curves")
    p_eig.add_argument("--n", type=int, required=True)
    p_eig.add_argument("--m", type=int, required=True)
    p_eig.add_argument("--capacity", type=int, default=1, choices=(1, 2))
    p_eig.add_argument("--points", type=int, default=101)
    p_ph = sub.add_parser("phases", help="segment an existing diagram CSV")
    p_ph.add_argument("--input", required=True)
    p_ph.add_argument("--eps", type=float, default=metrics.DEFAULT_EPS)
    p_resp = sub.add_parser("response", help="disturbance response traces")
    add_common(p_resp)

    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(_load_config(args), out_dir)
        if args.command == "diagram":
            return cmd_diagram(_load_config(args), out_dir,
                               strict=args.strict, plot=args.plot)
        if args.command == "eigen":
            return cmd_eigen(args.n, args.m, args.capacity, args.points,
                             out_dir)
        if args.command == "phases":
            return cmd_phases(Path(args.input), args.eps, out_dir)
        if args.command == "response":
            return cmd_response(_load_config(args), out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except control.RiccatiError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
