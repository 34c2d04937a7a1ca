"""Asymptotic flow estimation, period detection, fundamental-diagram sweeps.

The average flow of a run is the mean per-step counter increment over a
measurement window [burn_in, K]; the estimate is flagged converged when the
half-window estimate agrees within 1e-3, or when an exact periodic regime
was found (the per-period average is then exact).  Diagram sweeps take the
median over seeds per density.  All runs are independent and sequential;
sweep points could be farmed out, aggregation happens at the end either way.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, field

import numpy as np

from .analytic import PhaseLabel
from .dynamics import DISCRETE, Simulation, init_occupancy, kernel_for
from .topology import NetworkTopology, ratio_r

CONVERGENCE_TOL = 1e-3
DEFAULT_EPS = 0.02


@dataclass(frozen=True)
class DiagramPoint:
    density: float
    flow: float
    converged: bool
    seed_count: int
    seed_flows: tuple[float, ...]
    road_density: tuple[float, ...] | None = None
    road_flow: tuple[float, ...] | None = None


@dataclass
class FundamentalDiagram:
    topology_id: str
    r: float
    policy_id: str
    mode: str
    points: list[DiagramPoint] = field(default_factory=list)

    @property
    def densities(self) -> list[float]:
        return [p.density for p in self.points]

    @property
    def flows(self) -> list[float]:
        return [p.flow for p in self.points]


@dataclass(frozen=True)
class PeriodResult:
    period: int
    start: int
    flow: float


@dataclass(frozen=True)
class PhaseSegment:
    d_lo: float
    d_hi: float
    label: PhaseLabel


@dataclass(frozen=True)
class Segmentation:
    labels: tuple[PhaseLabel, ...]
    segments: tuple[PhaseSegment, ...]


@dataclass
class ResponseTrace:
    policy_id: str
    distances: list[float]


def default_horizon(t: NetworkTopology) -> int:
    return 50 * t.counting_size


def _policy_id(policy) -> str:
    if policy is None:
        return "priority"
    return getattr(policy, "policy_id", type(policy).__name__)


def _measure(t: NetworkTopology, a, mode: str, policy, horizon: int,
             burn_in: int, per_road: bool):
    """One run; returns (flow, converged, road_flow, road_density)."""
    if not horizon > burn_in >= 0:
        raise ValueError("need horizon > burn_in >= 0")
    sim = Simulation(t, a, mode, policy)
    sim.advance(burn_in)
    x_burn = sim.x.copy()
    mid = (horizon + burn_in) // 2
    x_mid = x_burn
    road_cells_acc = np.zeros(len(t.roads))
    for _ in range(burn_in, horizon):
        sim.advance()
        if per_road:
            road_cells_acc += sim.road_counts()
        if sim.k == mid:
            x_mid = sim.x.copy()
    window = horizon - burn_in
    flow = float(np.mean(sim.x - x_burn)) / window
    half = float(np.mean(x_mid - x_burn)) / (mid - burn_in) if mid > burn_in \
        else flow
    converged = abs(flow - half) < CONVERGENCE_TOL
    road_flow = road_density = None
    if per_road:
        kern = sim.kernel
        sums = kern.road_sums(sim.x - x_burn)
        road_flow = tuple((sums / kern.road_lengths / window).tolist())
        road_density = tuple(
            (road_cells_acc / window / kern.road_lengths).tolist())
    return flow, converged, road_flow, road_density


def estimate_growth_rate(t: NetworkTopology, a, mode: str = DISCRETE,
                         policy=None, horizon: int | None = None,
                         burn_in: int | None = None) -> tuple[float, bool]:
    """Average per-step counter increment over [burn_in, horizon]."""
    horizon = default_horizon(t) if horizon is None else horizon
    burn_in = horizon // 2 if burn_in is None else burn_in
    flow, converged, _, _ = _measure(t, a, mode, policy, horizon, burn_in,
                                     per_road=False)
    return flow, converged


def detect_period(t: NetworkTopology, a, policy=None,
                  max_steps: int | None = None) -> PeriodResult | None:
    """Earliest exact recurrence of (occupancy, junction parities, light phase).

    Discrete mode only.  Counters themselves never repeat (they grow), but an
    occupancy recurrence with equal junction-entry parities and light phase
    pins the state up to a uniform counter shift, which the dynamics carry
    along unchanged, so the regime is exactly periodic from there on.
    """
    max_steps = 20 * t.counting_size if max_steps is None else max_steps
    sim = Simulation(t, a, DISCRETE, policy)
    phase_key = getattr(policy, "phase_key", lambda k: ())
    seen: dict[bytes | tuple, int] = {}
    snapshots: list[np.ndarray] = []
    for k in range(max_steps + 1):
        key = (sim.occupancy().tobytes(),
               sim.junction_entry_parity().tobytes(),
               phase_key(k))
        if key in seen:
            start = seen[key]
            period = k - start
            flow = float(np.mean(sim.x - snapshots[start])) / period
            return PeriodResult(period=period, start=start, flow=flow)
        seen[key] = k
        snapshots.append(sim.x.copy())
        sim.advance()
    return None


def sweep_diagram(t: NetworkTopology, densities, mode: str = DISCRETE,
                  policy=None, seeds=(0, 1, 2), horizon: int | None = None,
                  burn_in: int | None = None,
                  per_road: bool = False) -> FundamentalDiagram:
    """Fundamental diagram over a density grid, median flow across seeds.

    ``policy`` is None or one gate policy, reset at the start of every run.
    """
    horizon = default_horizon(t) if horizon is None else horizon
    burn_in = horizon // 2 if burn_in is None else burn_in
    seeds = tuple(seeds)
    diagram = FundamentalDiagram(
        topology_id=t.topology_id, r=float(ratio_r(t)),
        policy_id=_policy_id(policy), mode=mode)
    for d in densities:
        if not 0 <= d <= 1:
            raise ValueError(f"density {d} outside [0, 1]")
        count = round(d * t.counting_size)
        flows, flags, rf, rd = [], [], [], []
        for seed in seeds:
            a = init_occupancy(t, count=count, seed=seed)
            flow, ok, road_flow, road_density = _measure(
                t, a, mode, policy, horizon, burn_in, per_road)
            flows.append(flow)
            flags.append(ok)
            if per_road:
                rf.append(road_flow)
                rd.append(road_density)
        point = DiagramPoint(
            density=count / t.counting_size,
            flow=statistics.median(flows),
            converged=all(flags),
            seed_count=len(seeds),
            seed_flows=tuple(flows),
            road_flow=tuple(statistics.median(col) for col in zip(*rf))
            if per_road else None,
            road_density=tuple(statistics.median(col) for col in zip(*rd))
            if per_road else None,
        )
        diagram.points.append(point)
    return diagram


def classify_phases_empirical(diagram: FundamentalDiagram,
                              eps: float = DEFAULT_EPS) -> Segmentation:
    """Label each diagram point and merge runs into phase segments.

    Free when flow tracks density, freeze when flow vanishes, saturation
    when flow sits at the diagram's maximum, recession otherwise.
    """
    if not diagram.points:
        return Segmentation(labels=(), segments=())
    max_flow = max(p.flow for p in diagram.points)

    def label(p: DiagramPoint) -> PhaseLabel:
        if abs(p.flow - p.density) <= eps:
            return PhaseLabel.FREE
        if p.flow <= eps:
            return PhaseLabel.FREEZE
        if abs(p.flow - max_flow) <= eps:
            return PhaseLabel.SATURATION
        return PhaseLabel.RECESSION

    labels = tuple(label(p) for p in diagram.points)
    ordered = sorted(zip(diagram.points, labels), key=lambda pl: pl[0].density)
    segments = []
    seg_start = 0.0
    for (prev, prev_lab), (cur, cur_lab) in zip(ordered, ordered[1:]):
        if cur_lab != prev_lab:
            boundary = 0.5 * (cur.density + prev.density)
            segments.append(PhaseSegment(seg_start, boundary, prev_lab))
            seg_start = boundary
    segments.append(PhaseSegment(seg_start, ordered[-1][0].density,
                                 ordered[-1][1]))
    return Segmentation(labels=labels, segments=tuple(segments))


def distance_to_uniform(y: np.ndarray, t: NetworkTopology) -> float:
    """Euclidean distance of per-road densities from the uniform level.

    The uniform level is total road-cell occupancy over total road cells;
    junction interiors are not part of any road.
    """
    kern = kernel_for(t)
    counts = kern.road_sums(np.asarray(y, dtype=float))
    uniform = float(counts.sum()) / int(kern.road_lengths.sum())
    return float(np.linalg.norm(counts / kern.road_lengths - uniform))


def response_time(trace, band: float) -> tuple[int, bool]:
    """First step after which the trace stays within band of its plateau.

    The plateau is the mean of the last 10% of samples.  A trace that never
    settles reports its full length with a False flag.
    """
    values = np.asarray(
        trace.distances if isinstance(trace, ResponseTrace) else trace,
        dtype=float)
    if values.size == 0:
        raise ValueError("empty response trace")
    tail = values[-max(1, values.size // 10):]
    plateau = float(tail.mean())
    bad = np.nonzero(np.abs(values - plateau) > band)[0]
    if bad.size == 0:
        return 0, True
    settle = int(bad[-1]) + 1
    if settle >= values.size:
        return int(values.size), False
    return settle, True


def plateau_level(trace: ResponseTrace) -> float:
    values = np.asarray(trace.distances, dtype=float)
    return float(values[-max(1, values.size // 10):].mean())


def clustered_occupancy(t: NetworkTopology, count: int,
                        seed: int | None = None) -> np.ndarray:
    """Pack cars into consecutive road cells starting at a seeded offset."""
    cells = np.sort(kernel_for(t).rc)
    if not 0 <= count <= len(cells):
        raise ValueError(f"cluster of {count} cars exceeds {len(cells)} cells")
    offset = int(np.random.default_rng(seed).integers(len(cells)))
    a = np.zeros(t.n_slots, dtype=np.int64)
    a[cells[(offset + np.arange(count)) % len(cells)]] = 1
    return a


def run_response_trace(t: NetworkTopology, a, policy,
                       horizon: int) -> ResponseTrace:
    """Distance-to-uniform time series under one policy."""
    if horizon < 1:
        raise ValueError("response horizon must be >= 1")
    sim = Simulation(t, a, DISCRETE, policy)
    distances = [distance_to_uniform(sim.occupancy(), t)]
    for _ in range(horizon):
        sim.advance()
        distances.append(distance_to_uniform(sim.occupancy(), t))
    return ResponseTrace(policy_id=_policy_id(policy), distances=distances)


def write_diagram_csv(
        series: list[tuple[FundamentalDiagram, Segmentation]], path) -> None:
    """One row per point of each (diagram, segmentation) series."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["topology_id", "policy", "r", "density", "flow",
                    "phase", "converged", "seed_count"])
        for diagram, seg in series:
            for p, label in zip(diagram.points, seg.labels):
                w.writerow([diagram.topology_id, diagram.policy_id,
                            repr(diagram.r), repr(p.density), repr(p.flow),
                            str(label), int(p.converged), p.seed_count])


def write_road_csv(diagrams: list[FundamentalDiagram], path) -> None:
    """Per-road density and flow, one block of rows per diagram."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["topology_id", "policy", "r", "density", "flow",
                    "road_id", "road_density", "road_flow"])
        for diagram in diagrams:
            for p in diagram.points:
                if p.road_flow is None:
                    continue
                for rid, (rd, rf) in enumerate(zip(p.road_density,
                                                   p.road_flow)):
                    w.writerow([diagram.topology_id, diagram.policy_id,
                                repr(diagram.r), repr(p.density),
                                repr(p.flow), rid, repr(rd), repr(rf)])


def write_response_csv(trace: ResponseTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "distance"])
        for k, dist in enumerate(trace.distances):
            w.writerow([k, repr(dist)])


def read_diagram_csv(path) -> FundamentalDiagram:
    """Rebuild a diagram (points only) from its CSV dump."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = [c for c in ("topology_id", "policy", "r", "density", "flow",
                           "converged", "seed_count")
               if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"{path} lacks diagram columns: {', '.join(missing)}")
    if not rows:
        raise ValueError(f"empty diagram CSV: {path}")
    diagram = FundamentalDiagram(
        topology_id=rows[0]["topology_id"], r=float(rows[0]["r"]),
        policy_id=rows[0]["policy"], mode="?")
    for row in rows:
        diagram.points.append(DiagramPoint(
            density=float(row["density"]), flow=float(row["flow"]),
            converged=bool(int(row["converged"])),
            seed_count=int(row["seed_count"]), seed_flows=()))
    return diagram
