"""Command-line front end: config parsing, subcommands, result files.

Subcommands
-----------
simulate   counter trajectory (TSV) and, in discrete mode, car positions
diagram    fundamental-diagram sweep -> CSV, plot data, optional SVG
eigen      closed-form eigenvalue / flow curves -> CSV
phases     phase segmentation of an existing diagram CSV
response   distance-to-uniform traces per policy after a clustered start

Configuration is an INI file (key = value under sections, each value
checked as it is read); command-line flags override config keys.  Exit
codes: 0 ok, 1 invalid config, flags or inputs (or a refused allocation),
2 numerical failure (Riccati), 3 non-converged sweep points under --strict.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import itertools
import re
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import analytic, control, metrics
from .dynamics import (DISCRETE, MODES, Simulation, car_count,
                       init_occupancy, kernel_for, occupancy_at)
from .topology import NetworkTopology, build_figure_eight, build_topology

# each junction policy by name: how a RunConfig builds it on network t
_POLICIES = {
    "priority": lambda cfg, t: None,
    "open_loop": lambda cfg, t: control.OpenLoopPolicy(
        cfg.cycle, cfg.green_first, cfg.offset),
    "local_feedback": lambda cfg, t: control.LocalFeedbackPolicy(),
    "global_feedback": lambda cfg, t: control.GlobalFeedbackPolicy(
        control.solve_lqr(control.build_lq_model(
            t, q_scale=cfg.q_scale, r_scale=cfg.r_scale)), cycle=cfg.cycle),
}


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    """One of configparser's boolean words, in any letter case."""
    states = configparser.ConfigParser.BOOLEAN_STATES
    return states[_choice(states)(text.lower())]


def _within(cast, lo, hi=np.inf):
    """Parser of one ``cast`` value in [lo, hi]; NaN lies in none."""
    def parse(text: str):
        if not lo <= cast(text) <= hi:
            raise ValueError(text)
        return cast(text)
    return parse


_tolerance = _within(float, 0, sys.float_info.max)  # finite and >= 0


def _tuple_of(cast):
    """Parser of a comma-separated list; an empty value gives ()."""
    def parse(text: str) -> tuple:
        text = text.strip()
        return tuple(cast(p.strip()) for p in text.split(",")) if text else ()
    return parse


def _distinct(cast):
    """_tuple_of(cast), rejecting a list that repeats an entry."""
    def parse(text: str) -> tuple:
        values = _tuple_of(cast)(text)
        if len(set(values)) < len(values):
            raise ValueError(text)
        return values
    return parse


def _choice(names):
    """Parser of one name out of ``names``."""
    def parse(text: str) -> str:
        if text.strip() not in names:
            raise ValueError(text)
        return text.strip()
    return parse


def _ini(section: str, key: str, parse, default=None):
    """A RunConfig field read from ``key`` under ``[section]`` by ``parse``."""
    return field(default=default, metadata={"ini": (section, key, parse)})


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs.

    Each field but ``topology`` declares its INI section, key and parser
    once, in its metadata: that is the whole schema, and parse_config
    rejects any other section or key.  A mode or policy name must be one
    of MODES or _POLICIES.  ``topology`` holds the (key, value) pairs of
    ``[topology]``, checked by the family builder's signature.
    """

    topology: tuple[tuple[str, str], ...]
    mode: str = _ini("run", "mode", _choice(MODES), DISCRETE)
    policy: str = _ini("run", "policy", _choice(_POLICIES), "priority")
    horizon: int | None = _ini("run", "horizon", _within(int, 1))
    burn_in: int | None = _ini("run", "burn_in", int)
    seeds: tuple[int, ...] = _ini(
        "run", "seeds", _distinct(_within(int, 0)), (0, 1, 2))
    cycle: int = _ini("policy", "cycle", int, 4)
    green_first: int = _ini("policy", "green_first", int, 2)
    offset: int = _ini("policy", "offset", int, 0)
    q_scale: float = _ini("policy", "q_scale", float, 1.0)
    r_scale: float = _ini("policy", "r_scale", float, 10.0)
    occupancy_values: tuple[float, ...] | None = _ini(
        "occupancy", "explicit", _tuple_of(float))
    occupancy_count: int | None = _ini("occupancy", "count", int)
    occupancy_density: float | None = _ini("occupancy", "density", float)
    densities: str = _ini("diagram", "densities", str.strip,
                          "linspace(0,1,20)")
    eps: float = _ini("diagram", "eps", _tolerance, metrics.DEFAULT_EPS)
    per_road: bool = _ini("diagram", "per_road", _parse_bool, False)
    r_list: tuple[float, ...] = _ini("diagram", "r_list",
                                     _distinct(_within(float, 0, 1)), ())
    # the smallest size from which a ratio builds: n = 2, m = r_size + 1 - n
    r_size: int = _ini("diagram", "r_size", _within(int, 3), 60)
    policy_list: tuple[str, ...] = _ini("diagram", "policy_list",
                                        _distinct(_choice(_POLICIES)), ())
    response_density: float = _ini("response", "density",
                                     _within(float, 0, 1), 0.3)
    response_horizon: int | None = _ini("response", "horizon", _within(int, 1))
    response_band_fraction: float = _ini("response", "band_fraction",
                                         _tolerance, 0.1)
    response_policies: tuple[str, ...] = _ini(
        "response", "policies", _distinct(_choice(_POLICIES)),
        ("open_loop", "local_feedback", "global_feedback"))

    def build_topology(self) -> NetworkTopology:
        return build_topology(self.topology)


# (field, section, key, parse) of every INI key, in field order
_SCHEMA = tuple((f.name, *f.metadata["ini"]) for f in fields(RunConfig)
                if "ini" in f.metadata)


def parse_config(text: str) -> RunConfig:
    return _parse_config(text)[0]


def _parse_config(text: str) -> tuple[RunConfig, NetworkTopology]:
    """The config and its network, built once here to check [topology]."""
    # no [...] header can name the section "", so [DEFAULT] is an ordinary
    # (unknown) section and none is copied into the others
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   interpolation=None, default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config syntax: {exc}") from exc
    if not cp.has_section("topology"):
        raise ConfigError("missing [topology] section")
    schema = {(section, key): (name, parse)
              for name, section, key, parse in _SCHEMA}
    sections = {section for section, _ in schema}
    unknown, given = [], []
    for section in cp.sections():
        if section not in sections | {"topology"}:
            unknown.append(f"[{section}]")
        for key, raw in cp.items(section) if section in sections else ():
            if (section, key) in schema:
                given.append((section, key, raw))
            else:
                unknown.append(f"[{section}] {key}")
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg = RunConfig(topology=tuple(cp.items("topology")))
    try:
        t = cfg.build_topology()
    except ValueError as exc:
        raise ConfigError(f"bad [topology] section: {exc}") from exc
    updates = {}
    for section, key, raw in given:
        name, parse = schema[section, key]
        try:
            updates[name] = parse(raw)
        except ValueError as exc:
            raise ConfigError(
                f"bad value for [{section}] {key}: {raw!r}") from exc
    return replace(cfg, **updates), t


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

    ``name`` is one of _POLICIES, as its config parser or argparse checked;
    ``d`` is ignored (global feedback reads each run's own density), and
    accepted for callers that still pass an operating density.
    """
    return _POLICIES[name](cfg, t)


def _initial_occupancy(cfg: RunConfig, t: NetworkTopology) -> np.ndarray:
    given = [cfg.occupancy_values, cfg.occupancy_count,
             cfg.occupancy_density]
    if sum(v is not None for v in given) != 1:
        raise ConfigError("[occupancy] needs exactly one of "
                          "explicit / count / density")
    return init_occupancy(t, *given, seed=cfg.seeds[0])


def _write_csv(path: Path, rows, eol: str) -> None:
    """Stream ``rows`` (header first) to ``path``; each file passes its
    own line ending ``eol`` and keeps it, so that its bytes never change."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator=eol).writerows(rows)


def write_diagram_csv(series: list[tuple[metrics.FundamentalDiagram,
                                         metrics.Segmentation]], path) -> None:
    """One row per point of each (diagram, segmentation) series."""
    _write_csv(path, itertools.chain([
        ["topology_id", "policy", "r", "density", "flow", "phase",
         "converged", "seed_count"]],
        ([d.topology_id, d.policy_id, repr(d.r), repr(p.density),
          repr(p.flow), str(label), int(p.converged), p.seed_count]
         for d, seg in series for p, label in zip(d.points, seg.labels))),
        "\r\n")


def write_road_csv(diagrams: list[metrics.FundamentalDiagram], path) -> None:
    """Per-road density and flow, one block of rows per diagram."""
    _write_csv(path, itertools.chain([
        ["topology_id", "policy", "r", "density", "flow", "road_id",
         "road_density", "road_flow"]],
        ([d.topology_id, d.policy_id, repr(d.r), repr(p.density),
          repr(p.flow), rid, repr(rd), repr(rf)]
         for d in diagrams for p in d.points if p.road_flow is not None
         for rid, (rd, rf) in enumerate(zip(p.road_density, p.road_flow)))),
        "\r\n")


def write_response_csv(trace: list[float], path) -> None:
    _write_csv(path, itertools.chain([["step", "distance"]], (
        [k, repr(dist)] for k, dist in enumerate(trace))), "\r\n")


def read_diagram_csv(path) -> metrics.FundamentalDiagram:
    """Rebuild a diagram (points only) from the CSV dump of one series; a
    row that is unreadable, short or not finite names its line."""
    points, series = [], set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            for row in reader:  # a short row, or a missing column, reads None
                lacking = [c for c in ("topology_id", "policy", "r", "density",
                                       "flow", "converged", "seed_count")
                           if row.get(c) is None]
                if lacking:
                    raise ValueError(f"no value for {', '.join(lacking)}")
                p = metrics.DiagramPoint(
                    float(row["density"]), float(row["flow"]),
                    bool(int(row["converged"])), int(row["seed_count"]), ())
                if not np.isfinite([p.density, p.flow]).all():
                    raise ValueError("density and flow must be finite, got "
                                     f"{p.density}, {p.flow}")
                points.append(p)
                series.add((row["topology_id"], row["policy"], row["r"]))
        except (csv.Error, ValueError) as exc:  # csv.Error: e.g. a huge field
            line = reader.reader.line_num  # DictReader's own lags a failure
            raise ValueError(f"{path} line {line}: {exc}") from exc
    if not points:
        raise ValueError(f"empty diagram CSV: {path}")
    if len(series) > 1:
        raise ValueError(f"{path} holds {len(series)} diagram series "
                         "(topology_id, policy, r), expected one")
    topology_id, policy_id, r = series.pop()
    return metrics.FundamentalDiagram(topology_id, float(r), policy_id, points)


def counter_lines(states: np.ndarray) -> str:
    """Trajectory dump: one line per step, tab-separated exact decimals."""
    return "\n".join(
        "\t".join(np.format_float_positional(v, trim="-") for v in x)
        for x in np.asarray(states, float)) + "\n"


# per-position codes: a road cell is 0 or 1, a junction 2 + west + 2 * south
_LINE_CHARS = np.frombuffer(b"010WSB", np.uint8)


def occupancy_lines(t: NetworkTopology, states: np.ndarray, a) -> str:
    """Occupancy dump: one line per state, one 0/1 character per counting
    position, junctions as 0, W, S or B."""
    kern = kernel_for(t)
    code = (occupancy_at(states, a, t) != 0).astype(np.intp)
    code[:, kern.slot_a] += 2 + 2 * code[:, kern.slot_b]
    chars = _LINE_CHARS.take(code[:, kern.counting])  # C-contiguous for view
    lines = chars.view(f"S{chars.shape[1]}").ravel().tolist()
    return b"\n".join(lines).decode() + "\n"


def cmd_simulate(args, out_dir: Path) -> int:
    cfg, t = _load_config(args)
    a = _initial_occupancy(cfg, t)
    horizon = cfg.horizon or 50
    sim = Simulation(t, a, cfg.mode, make_policy(cfg.policy, cfg, t))
    written = ["counters.tsv"] + ["occupancy.txt"] * (cfg.mode == DISCRETE)
    with contextlib.ExitStack() as stack:  # each state written as reached
        files = [stack.enter_context(open(out_dir / n, "w")) for n in written]
        for s in sim.trajectory(horizon):
            files[0].write(counter_lines([s.x]))
            for occupancy in files[1:]:  # discrete mode only
                occupancy.write(occupancy_lines(t, [s.x], a))
    print(f"simulate: {horizon} steps of {t.topology_id} "
          f"({cfg.mode}, policy {cfg.policy}) -> {', '.join(written)}")
    return 0


def _series_for_diagram(cfg: RunConfig, t: NetworkTopology):
    """Yield (network, [(label, policy name)]) per network of the diagram's
    series; t is the config's."""
    if cfg.r_list and cfg.policy_list:
        raise ConfigError("choose one of r_list / policy_list, not both")
    if cfg.r_list:
        for r in cfg.r_list:
            n = round(r * cfg.r_size)
            if not 2 <= n <= cfg.r_size - 1:
                raise ConfigError(f"r = {r:g} with r_size = {cfg.r_size}: "
                                  f"round(r * r_size) = {n} lies outside "
                                  f"[2, {cfg.r_size - 1}]")
            m = cfg.r_size + 1 - n
            yield build_figure_eight(n, m), [(f"r={r:g}", cfg.policy)]
    elif cfg.policy_list:
        yield t, [(f"policy={name}", name) for name in cfg.policy_list]
    else:
        yield t, [("diagram", cfg.policy)]


def cmd_diagram(args, out_dir: Path) -> int:
    cfg, t = _load_config(args)
    series_data = []
    all_converged = True
    for net, series in _series_for_diagram(cfg, t):
        diagrams = metrics.sweep_diagrams(
            net, parse_density_grid(cfg.densities, net), cfg.mode,
            [make_policy(name, cfg, net) for _, name in series],
            seeds=cfg.seeds, horizon=cfg.horizon, burn_in=cfg.burn_in,
            per_road=cfg.per_road)
        for (label, _), diagram in zip(series, diagrams):
            seg = metrics.classify_phases_empirical(diagram, cfg.eps)
            series_data.append((label, diagram, seg))
            all_converged &= all(p.converged for p in diagram.points)
    write_diagram_csv([(d, seg) for _, d, seg in series_data],
                      out_dir / "diagram.csv")
    (out_dir / "diagram.dat").write_text(plot_data_text(series_data))
    written = ["diagram.csv", "diagram.dat"]
    if cfg.per_road:
        write_road_csv([d for _, d, _ in series_data],
                       out_dir / "diagram_roads.csv")
        written.append("diagram_roads.csv")
    if args.plot and _render_svg(series_data, out_dir / "diagram.svg"):
        written.append("diagram.svg")
    print(f"diagram: {len(series_data)} series -> {', '.join(written)}")
    if not all_converged:
        print("warning: some points did not converge", file=sys.stderr)
        if args.strict:
            return 3
    return 0


def plot_data_text(series_data) -> str:
    """Two-column series separated by blank lines, # comment headers."""
    chunks = []
    for label, diagram, _seg in series_data:
        lines = [f"# series: {label}",
                 f"# topology: {diagram.topology_id}  policy: "
                 f"{diagram.policy_id}  r: {diagram.r!r}"]
        lines += [f"{p.density!r}\t{p.flow!r}" for p in diagram.points]
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


def cmd_eigen(args, out_dir: Path) -> int:
    n, m, capacity, points = args.n, args.m, args.capacity, args.points
    if points < 2:
        raise ConfigError("need at least 2 grid points")
    b = analytic.phase_boundaries(n, m)
    rows = [[f"# n={n} m={m} capacity={capacity}"],
            [f"# r={b.r} rho={b.rho} d1={b.d1} d2={b.d2}"],
            ["density", "case", "candidates", "selected", "flow_approx"]]
    for k in range(points):
        d = k / (points - 1)
        res = analytic.eigen_candidates(d, n, m, capacity)
        fa = analytic.flow_approx(d, b.r, capacity)
        cands = ";".join(repr(c) for c in res.candidates)
        rows.append([repr(d), res.case, cands, repr(res.selected), repr(fa)])
    _write_csv(out_dir / "eigen.csv", rows, "\n")
    print(f"eigen: {points} densities -> eigen.csv")
    return 0


def cmd_phases(args, out_dir: Path) -> int:
    seg = metrics.classify_phases_empirical(read_diagram_csv(args.input),
                                            args.eps)
    rows = [[repr(s.d_lo), repr(s.d_hi), str(s.label)] for s in seg.segments]
    _write_csv(out_dir / "phases.csv", [["d_lo", "d_hi", "phase"], *rows],
               "\n")
    print(f"phases: {len(seg.segments)} segments -> phases.csv")
    return 0


def cmd_response(args, out_dir: Path) -> int:
    cfg, t = _load_config(args)
    if cfg.mode != DISCRETE:
        raise ConfigError("response scenarios run in discrete mode")
    if not cfg.response_policies:
        raise ConfigError("[response] policies must name at least one policy")
    horizon = cfg.response_horizon or 8 * t.counting_size
    count = car_count(t, cfg.response_density)
    if count > kernel_for(t).rc.size:  # a clustered start fills road cells
        raise ConfigError(f"[response] density {cfg.response_density!r} needs "
                          f"{count} road cells (has {kernel_for(t).rc.size})")
    starts = np.array([metrics.clustered_occupancy(t, count, seed)
                       for seed in cfg.seeds])
    summary = [["policy", "seed", "response_time", "settled", "plateau"]]
    policies = [make_policy(name, cfg, t) for name in cfg.response_policies]
    by_policy = metrics.run_response_traces(t, starts, policies, horizon)
    for name, traces in zip(cfg.response_policies, by_policy):
        for seed, trace in zip(cfg.seeds, traces):
            band = cfg.response_band_fraction * trace[0]
            rt, settled = metrics.response_time(trace, band)
            plateau = metrics.plateau_level(trace)
            write_response_csv(
                trace, out_dir / f"response_{name}_seed{seed}.csv")
            summary.append([name, seed, rt, int(settled), repr(plateau)])
    _write_csv(out_dir / "response_summary.csv", summary, "\n")
    print(f"response: {len(cfg.response_policies)} policies x "
          f"{len(cfg.seeds)} seeds -> response_summary.csv")
    return 0


def _load_config(args) -> tuple[RunConfig, NetworkTopology]:
    cfg, t = _parse_config(Path(args.config).read_text())
    if args.mode:
        cfg = replace(cfg, mode=args.mode)
    if args.policy:
        cfg = replace(cfg, policy=args.policy)
    if args.seeds is not None:
        cfg = replace(cfg, seeds=tuple(range(args.seeds)))
    if not cfg.seeds:
        raise ConfigError("seeds must name at least one seed")
    return cfg, t


class _ArgumentParser(argparse.ArgumentParser):
    """Bad arguments exit 1, as any other invalid input does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="roadphases",
        description="cell-based road-network traffic simulator and "
                    "fundamental-diagram toolkit")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    def add_common(name, run, help):  # a command that reads a config
        p = add_command(name, run, help)
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--mode", choices=MODES)
        p.add_argument("--policy", choices=tuple(_POLICIES))
        p.add_argument("--seeds", type=int,
                       help="use seeds 0..N-1, overriding the config")
        return p

    add_common("simulate", cmd_simulate, "dump a counter trajectory")
    p_diag = add_common("diagram", cmd_diagram, "density sweep")
    p_diag.add_argument("--strict", action="store_true",
                        help="exit 3 when any point fails to converge")
    p_diag.add_argument("--plot", action="store_true",
                        help="also render an SVG (needs matplotlib)")
    p_eig = add_command("eigen", cmd_eigen, "closed-form curves")
    p_eig.add_argument("--n", type=int, required=True)
    p_eig.add_argument("--m", type=int, required=True)
    p_eig.add_argument("--capacity", type=int, default=1, choices=(1, 2))
    p_eig.add_argument("--points", type=int, default=101)
    p_ph = add_command("phases", cmd_phases, "segment an existing diagram CSV")
    p_ph.add_argument("--input", required=True)
    p_ph.add_argument("--eps", type=float, default=metrics.DEFAULT_EPS)
    add_common("response", cmd_response, "disturbance response traces")

    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.run(args, out_dir)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except control.RiccatiError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
