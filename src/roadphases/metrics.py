"""Asymptotic flow estimation, period detection, fundamental-diagram sweeps.

The average flow of a run is the mean per-step counter increment over a
measurement window [burn_in, K]; the estimate is flagged converged when the
half-window estimate, over [burn_in, (burn_in + K) // 2], agrees within
1e-3.  Exact periodic regimes are found separately, by ``detect_period``.
Diagram sweeps take the median over seeds per density.  Sweeps and response
traces advance all of their runs together, as the lanes of one stacked
simulation, and so do those of several gate policies: each policy steps its
own lane group (control.LaneGroups), while the priority rule, which is no
gate, keeps a stack of its own.  Lanes never interact, so every run's
results are exactly those it has when run alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .analytic import PhaseLabel
from .control import LaneGroups
from .dynamics import (DISCRETE, Simulation, car_count, init_occupancy,
                       kernel_for)
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


def _policy_id(policy) -> str:
    if policy is None:
        return "priority"
    return getattr(policy, "policy_id", type(policy).__name__)


def _measure(t: NetworkTopology, a, mode: str, policy, horizon: int | None,
             burn_in: int | None, per_road: bool) -> tuple:
    """Runs from a stack of placements (lanes, slots) on one trajectory,
    burn-in included: per-lane arrays (flow, converged, road_flow,
    road_density), the road densities zero unless ``per_road`` sums them."""
    horizon = 50 * t.counting_size if horizon is None else horizon
    burn_in = horizon // 2 if burn_in is None else burn_in
    if not horizon > burn_in >= 0:
        raise ValueError("need horizon > burn_in >= 0")
    mid = (horizon + burn_in) // 2
    road_cells_acc = np.zeros((len(a), len(t.roads)))
    sim = Simulation(t, a, mode, policy)
    x_at = {}  # C order, so a lane's row mean sums as a lone run's mean
    for _ in sim.trajectory(horizon):
        if sim.k in (burn_in, mid):
            x_at[sim.k] = sim.x
        if per_road and sim.k > burn_in:
            road_cells_acc += sim.road_counts()
    window, kern = horizon - burn_in, sim.kernel
    gained = sim.x - x_at[burn_in]
    flow = gained.mean(axis=1) / window
    half = (x_at[mid] - x_at[burn_in]).mean(axis=1) / (mid - burn_in) \
        if mid > burn_in else flow
    return (flow, np.abs(flow - half) < CONVERGENCE_TOL,
            kern.road_sums(gained) / kern.road_lengths / window,
            road_cells_acc / window / kern.road_lengths)


def estimate_growth_rate(t: NetworkTopology, a, mode: str = DISCRETE,
                         policy=None, horizon: int | None = None,
                         burn_in: int | None = None) -> tuple[float, bool]:
    """Average per-step counter increment over [burn_in, horizon]."""
    flow, converged, _, _ = _measure(t, [a], mode, policy, horizon, burn_in,
                                     per_road=False)
    return float(flow[0]), bool(converged[0])


def detect_period(t: NetworkTopology, a, policy=None,
                  max_steps: int | None = None):
    """Earliest exact recurrence of (counters up to a shift, light phase),
    of one run, or as a list of one per lane of a stack; None if none.

    Discrete mode only.  When the counters at step k less those at step
    s < k are one shift c throughout, under the same phase, the dynamics
    carry c along: the regime is periodic from s on, with flow c per
    period.  A lane's first match with its one state saved at steps 0, 1,
    2, 4, ... or max_steps is its period p (Brent, BIT 20, 1980) by step
    2 max_steps; runs p steps apart then meet at the start.
    """
    max_steps = 20 * t.counting_size if max_steps is None else max_steps
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    sim = Simulation(t, a, DISCRETE, policy)
    period, start = np.zeros((2, len(np.atleast_2d(sim.a))), int)
    flow = np.zeros(len(period))
    for s in sim.trajectory(2 * max_steps):
        x, phase = _state(s)
        if s.k and (hit := (period == 0) & _recurs(x, phase, *saved)).any():
            period[hit] = s.k - saved_at
            flow[hit] = (x[hit, 0] - saved[0][hit, 0]) / period[hit]
            if period.all():
                break
        if s.k <= max_steps and (not s.k & (s.k - 1) or s.k == max_steps):
            saved_at, saved = s.k, (x.copy(), phase)  # x lasts one step
    for p in np.unique(period[(period > 0) & (period <= max_steps)]):
        lag, lead = (Simulation(t, a, DISCRETE, policy) for _ in "ab")
        for _ in zip(lag.trajectory(max_steps - p),  # lead runs p steps ahead
                     itertools.islice(lead.trajectory(max_steps), p, None)):
            apart = ~_recurs(*_state(lead), *_state(lag))
            start += apart & (period == p)  # once met, two runs stay met
            if not apart[period == p].any():
                break
    found = [PeriodResult(int(p), int(k), float(f)) if 0 < p <= max_steps - k
             else None for p, k, f in zip(period, start, flow)]
    return found[0] if sim.a.ndim == 1 else found


def _state(sim) -> tuple:  # per lane: kernel-order counters (a view), phase
    x, phase = np.atleast_2d(sim.counters), getattr(sim.policy, "phase", None)
    return x, phase(sim.k) if phase else x[:, :0]


def _recurs(x, phase, x0, phase0) -> np.ndarray:  # order-blind, per lane:
    d = x - x0  # one shift on every counter (dtypes promote), equal phases
    return (d.min(-1) == d.max(-1)) & (phase == phase0).all(-1)


def sweep_diagram(t: NetworkTopology, densities, mode: str = DISCRETE,
                  policy=None, seeds=(0, 1, 2), horizon: int | None = None,
                  burn_in: int | None = None,
                  per_road: bool = False) -> FundamentalDiagram:
    """Fundamental diagram of one policy: its sweep_diagrams."""
    return sweep_diagrams(t, densities, mode, [policy], seeds, horizon,
                          burn_in, per_road)[0]


def sweep_diagrams(t: NetworkTopology, densities, mode: str, policies,
                   seeds=(0, 1, 2), horizon: int | None = None,
                   burn_in: int | None = None,
                   per_road: bool = False) -> list[FundamentalDiagram]:
    """Fundamental diagram of each policy over a density grid, median flow
    across seeds.  Each distinct (car count, seed) run is one lane of a stack
    stepped by ``_by_policy``, one ``_measure`` call per stack, and every
    density that rounds to its count reads its results.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("sweep_diagrams needs at least one seed")
    counts = [car_count(t, d) for d in densities]
    runs = list(itertools.product(counts, seeds))
    lane = {run: i for i, run in enumerate(dict.fromkeys(runs))}
    placements = np.zeros((len(lane), t.n_slots), np.int64)
    for (count, seed), i in lane.items():
        placements[i] = init_occupancy(t, count=count, seed=seed)
    lanes = np.array([lane[r] for r in runs], np.intp).reshape(-1, len(seeds))
    by_policy = _by_policy(policies, placements, lambda a, policy: _measure(
        t, a, mode, policy, horizon, burn_in, per_road))
    diagrams = []
    for policy, measured in zip(policies, by_policy):
        diagram = FundamentalDiagram(
            topology_id=t.topology_id, r=float(ratio_r(t)),
            policy_id=_policy_id(policy))
        flows, flags, road_flow, road_density = (v[lanes] for v in measured)
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
                road_density=tuple(road_density[i].tolist()) if per_road
                else None,
            ))
        diagrams.append(diagram)
    return diagrams


def _by_policy(policies, a, run) -> list[tuple]:
    """``run(stack, policy)`` of the placements ``a`` under each policy,
    split into each policy's tuple of results.  The gate policies step as
    lane groups of one stack; the priority rule (None) is not a gate and
    steps a stack of its own.  ``run`` returns a tuple of per-lane results.
    """
    a = np.atleast_2d(a)
    n, out = len(a), [None] * len(policies)
    gated = [i for i, policy in enumerate(policies) if policy is not None]
    stacks = [([i], None) for i, policy in enumerate(policies)
              if policy is None]
    if gated:
        stacks.append((gated, LaneGroups(policies[i] for i in gated)))
    for group, policy in stacks:
        results = run(np.tile(a, (len(group), 1)), policy)
        for g, i in enumerate(group):
            out[i] = tuple(v[g * n:(g + 1) * n] for v in results)
    return out


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
    v = np.atleast_2d(counts / kern.road_lengths - uniform)
    # one BLAS dot per lane, as np.linalg.norm(v) (norm(axis=-1) differs)
    dist = np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])
    return float(dist[0]) if counts.ndim == 1 else dist


def response_time(trace, band: float) -> tuple[int, bool]:
    """First step after which the trace stays within band of its plateau.

    The plateau is plateau_level's.  A trace that never settles reports its
    full length with a False flag.
    """
    check_tolerance("band", band)
    values = np.asarray(trace, dtype=float)
    if values.size == 0:
        raise ValueError("empty response trace")
    bad = np.flatnonzero(np.abs(values - plateau_level(values)) > band)
    settle = int(bad[-1]) + 1 if bad.size else 0
    return settle, settle < values.size


def plateau_level(trace) -> float:
    """Mean of the last 10% of a trace's samples."""
    values = np.asarray(trace, dtype=float)
    return float(values[-max(1, values.size // 10):].mean())


def clustered_occupancy(t: NetworkTopology, count: int,
                        seed: int | None = None) -> np.ndarray:
    """Pack cars into consecutive road cells starting at a seeded offset."""
    cells = np.sort(kernel_for(t).rc)
    if not 0 <= count <= len(cells):
        raise ValueError(f"cluster of {count} cars outside [0, {len(cells)}]")
    offset = int(np.random.default_rng(seed).integers(len(cells)))
    a = np.zeros(t.n_slots, dtype=np.int64)
    a[cells[(offset + np.arange(count)) % len(cells)]] = 1
    return a


def run_response_trace(t: NetworkTopology, a, policy, horizon: int):
    """Distance-to-uniform time series under one policy: a list of floats,
    or one such list per lane of a (lanes, slots) stack."""
    if horizon < 1:
        raise ValueError("response horizon must be >= 1")
    sim = Simulation(t, a, DISCRETE, policy)
    trace = [_distances(s.road_counts(), s.kernel)
             for s in sim.trajectory(horizon)]
    return trace if sim.a.ndim == 1 else np.column_stack(trace).tolist()


def run_response_traces(t: NetworkTopology, a, policies,
                        horizon: int) -> list[list[list[float]]]:
    """run_response_trace of each policy, in order, from one placement or
    a (lanes, slots) stack of them: one list of traces per policy, all runs
    stacked by ``_by_policy``."""
    return [traces for (traces,) in _by_policy(policies, a, lambda a, policy: (
        run_response_trace(t, a, policy, horizon),))]
