"""Asymptotic flow estimation, period detection, fundamental-diagram sweeps.

The average flow of a run is the mean per-step counter increment over a
measurement window [burn_in, K]; the estimate is flagged converged when the
half-window estimate agrees within 1e-3, or when an exact periodic regime
was found (the per-period average is then exact).  Diagram sweeps take the
median over seeds per density.  Sweeps and response traces advance all of
their runs together, as the lanes of one stacked simulation; lanes never
interact, so every run's results are exactly those it has when run alone.
"""

from __future__ import annotations

import csv
import itertools
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
             burn_in: int, per_road: bool) -> tuple:
    """Runs from a stack of placements (lanes, slots), advanced together;
    returns per-lane arrays (flow, converged, road_flow, road_density); the
    road densities are zero unless ``per_road`` accumulates them."""
    if not horizon > burn_in >= 0:
        raise ValueError("need horizon > burn_in >= 0")
    sim = Simulation(t, a, mode, policy)
    sim.advance(burn_in)
    x_burn = sim.x.copy()
    mid = (horizon + burn_in) // 2
    x_mid = x_burn
    road_cells_acc = np.zeros((len(sim.x), len(t.roads)))
    for _ in range(burn_in, horizon):
        sim.advance()
        if per_road:
            road_cells_acc += sim.road_counts()
        if sim.k == mid:
            x_mid = sim.x.copy()
    window = horizon - burn_in
    # C order: each lane's row is contiguous, so a row mean sums it exactly
    # as np.mean sums the counters of a lone run
    gained = np.ascontiguousarray(sim.x - x_burn)
    flow = gained.mean(axis=1) / window
    half = (x_mid - x_burn).mean(axis=1) / (mid - burn_in) \
        if mid > burn_in else flow
    kern = sim.kernel
    return (flow, np.abs(flow - half) < CONVERGENCE_TOL,
            kern.road_sums(gained) / kern.road_lengths / window,
            road_cells_acc / window / kern.road_lengths)


def estimate_growth_rate(t: NetworkTopology, a, mode: str = DISCRETE,
                         policy=None, horizon: int | None = None,
                         burn_in: int | None = None) -> tuple[float, bool]:
    """Average per-step counter increment over [burn_in, horizon]."""
    horizon = default_horizon(t) if horizon is None else horizon
    burn_in = horizon // 2 if burn_in is None else burn_in
    flow, converged, _, _ = _measure(t, [a], mode, policy, horizon, burn_in,
                                     per_road=False)
    return float(flow[0]), bool(converged[0])


def detect_period(t: NetworkTopology, a, policy=None,
                  max_steps: int | None = None) -> PeriodResult | None:
    """Earliest exact recurrence of (counters up to a shift, light phase).

    Discrete mode only.  Counters never repeat (they grow), but when x - x[0]
    at step k equals its value at an earlier step s under the same phase, x
    at k is x at s plus a uniform shift c, which the dynamics carry along
    unchanged: the regime is periodic from s on, with flow c per period.
    """
    max_steps = 20 * t.counting_size if max_steps is None else max_steps
    sim = Simulation(t, a, DISCRETE, policy)
    phase_key = getattr(sim.policy, "phase_key", lambda k: ())
    seen: dict[tuple, int] = {}
    x0: list[int] = []  # x[0] at each step
    for k in range(max_steps + 1):
        key = ((sim.x - sim.x[0]).tobytes(), phase_key(k))
        if key in seen:
            start = seen[key]
            period = k - start
            flow = float(sim.x[0] - x0[start]) / period
            return PeriodResult(period=period, start=start, flow=flow)
        seen[key] = k
        x0.append(sim.x[0])
        sim.advance()
    return None


def sweep_diagram(t: NetworkTopology, densities, mode: str = DISCRETE,
                  policy=None, seeds=(0, 1, 2), horizon: int | None = None,
                  burn_in: int | None = None,
                  per_road: bool = False) -> FundamentalDiagram:
    """Fundamental diagram over a density grid, median flow across seeds.

    ``policy`` is None or one gate policy; every (density, seed) run is a
    lane of one stacked simulation, for which the policy is reset once.
    """
    horizon = default_horizon(t) if horizon is None else horizon
    burn_in = horizon // 2 if burn_in is None else burn_in
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("sweep_diagram needs at least one seed")
    diagram = FundamentalDiagram(
        topology_id=t.topology_id, r=float(ratio_r(t)),
        policy_id=_policy_id(policy), mode=mode)
    counts = []
    for d in densities:
        if not 0 <= d <= 1:
            raise ValueError(f"density {d} outside [0, 1]")
        counts.append(round(d * t.counting_size))
    placements = np.zeros((len(counts) * len(seeds), t.n_slots), np.int64)
    for lane, (count, seed) in enumerate(itertools.product(counts, seeds)):
        placements[lane] = init_occupancy(t, count=count, seed=seed)
    # lane i * len(seeds) + j is the run of counts[i] and seeds[j]
    flows, flags, road_flow, road_density = (
        v.reshape(len(counts), len(seeds), *v.shape[1:])
        for v in _measure(t, placements, mode, policy, horizon, burn_in,
                          per_road))
    flow, road_flow, road_density = (
        np.median(v, axis=1) for v in (flows, road_flow, road_density))
    for i, count in enumerate(counts):
        diagram.points.append(DiagramPoint(
            density=count / t.counting_size,
            flow=float(flow[i]),
            converged=bool(flags[i].all()),
            seed_count=len(seeds),
            seed_flows=tuple(flows[i].tolist()),
            road_flow=tuple(road_flow[i].tolist()) if per_road else None,
            road_density=tuple(road_density[i].tolist()) if per_road else None,
        ))
    return diagram


def check_tolerance(name: str, value: float) -> None:
    """Reject a tolerance no result can meet: negative, infinite or NaN."""
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def classify_phases_empirical(diagram: FundamentalDiagram,
                              eps: float = DEFAULT_EPS) -> Segmentation:
    """Label each diagram point and merge runs into phase segments.

    Free when flow tracks density, freeze when flow vanishes, saturation
    when flow sits at the diagram's maximum, recession otherwise.
    """
    check_tolerance("eps", eps)
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


def distance_to_uniform(y: np.ndarray, t: NetworkTopology):
    """Euclidean distance of per-road densities from the uniform level, as
    a float, or per lane of a (lanes, slots) stack as an array.

    The uniform level is total road-cell occupancy over total road cells;
    junction interiors are not part of any road.
    """
    kern = kernel_for(t)
    return _distances(kern.road_sums(np.ascontiguousarray(y, float)), kern)


def _distances(counts: np.ndarray, kern):
    """distance_to_uniform from per-road car counts, one lane or a stack."""
    counts = np.ascontiguousarray(counts, dtype=float)
    uniform = counts.sum(axis=-1, keepdims=True) / int(kern.road_lengths.sum())
    # one 1-D norm (a BLAS dot) per lane: norm(axis=-1) sums in another order
    dist = [float(np.linalg.norm(v))
            for v in np.atleast_2d(counts / kern.road_lengths - uniform)]
    return dist[0] if counts.ndim == 1 else np.array(dist)


def response_time(trace, band: float) -> tuple[int, bool]:
    """First step after which the trace stays within band of its plateau.

    The plateau is plateau_level's.  A trace that never settles reports its
    full length with a False flag.
    """
    check_tolerance("band", band)
    values = np.asarray(getattr(trace, "distances", trace), dtype=float)
    if values.size == 0:
        raise ValueError("empty response trace")
    bad = np.flatnonzero(np.abs(values - plateau_level(values)) > band)
    settle = int(bad[-1]) + 1 if bad.size else 0
    return settle, settle < values.size


def plateau_level(trace) -> float:
    """Mean of the last 10% of a trace's samples."""
    values = np.asarray(getattr(trace, "distances", trace), dtype=float)
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


def run_response_trace(t: NetworkTopology, a, policy, horizon: int):
    """Distance-to-uniform time series under one policy: a ResponseTrace,
    or a list of one per lane of a (lanes, slots) stack."""
    if horizon < 1:
        raise ValueError("response horizon must be >= 1")
    sim = Simulation(t, a, DISCRETE, policy)
    distances = [_distances(sim.road_counts(), sim.kernel)]
    for _ in range(horizon):
        sim.advance()
        distances.append(_distances(sim.road_counts(), sim.kernel))
    traces = [ResponseTrace(policy_id=_policy_id(policy), distances=lane)
              for lane in np.column_stack(distances).tolist()]
    return traces if sim.x.ndim == 2 else traces[0]


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
