"""Cumulative-counter traffic dynamics on a network topology.

State is a vector x of cumulative inflow counters, one per slot: x[c] counts
vehicles that have entered road cell c since time 0, and each junction slot
counts vehicles that have entered the junction from one incoming road.  One
synchronous update advances every counter by a min of an upstream supply term
and a downstream space term:

* road cell:          min(a_prev + x_prev,  1 - a + x_next)
* junction entry (priority road):
                      min(a_last + x_last,  cap - a_J + x_out1 + x_out2 - x_other)
* junction entry (non-priority road): same, but subtracts the priority
  entry already advanced to k+1 -- that asymmetry is the priority rule.
* first cell of a road leaving a junction:
                      min(a_slot + half of total junction entries,  1 - a + x_next)

Two arithmetic modes: "continuous" keeps fractional counters (all reachable
values are dyadic; float64 carries them exactly until a long transient
pushes the fraction depth past the 53-bit mantissa); "discrete" keeps
integer counters by rounding the junction split up for one outgoing road
and down for the other (odd entrants one way, even the other), and is exact
unconditionally.

Traffic lights are an optional per-junction gate: when gating, the priority
subtraction becomes symmetric (both entries read the other at time k) and an
entry counter may grow only under a green light.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .topology import NetworkTopology

CONTINUOUS = "continuous"
DISCRETE = "discrete"
_MODES = (CONTINUOUS, DISCRETE)


@dataclass
class CounterState:
    """Cumulative counters at time k."""

    k: int
    x: np.ndarray
    mode: str

    def copy(self) -> "CounterState":
        return CounterState(self.k, self.x.copy(), self.mode)


class StepKernel:
    """Precomputed index arrays for one synchronous update of a topology."""

    def __init__(self, t: NetworkTopology):
        interior: list[int] = []
        interior_prev: list[int] = []
        rc: list[int] = []
        nxt: list[int] = []
        for r in t.roads:
            dest = t.junctions[r.to_junction]
            entry = dest.slot_b if r.id == dest.in_priority else dest.slot_a
            for c in r.cells:
                rc.append(c)
                nxt.append(c + 1 if c < r.last_cell else entry)
                if c > r.first_cell:
                    interior.append(c)
                    interior_prev.append(c - 1)
        ix = lambda v: np.asarray(v, dtype=np.intp)
        self.rc = ix(rc)
        self.nxt = ix(nxt)
        self.interior = ix(interior)
        self.interior_prev = ix(interior_prev)
        self.first = ix([r.first_cell for r in t.roads])
        self.feed_junction = ix([r.from_junction for r in t.roads])
        self.feed_ceil = np.asarray(
            [r.id == t.junctions[r.from_junction].out_ceil for r in t.roads])
        self.feed_slot = ix([
            t.junctions[r.from_junction].slot_b if ceil
            else t.junctions[r.from_junction].slot_a
            for r, ceil in zip(t.roads, self.feed_ceil)])
        self.slot_a = ix([j.slot_a for j in t.junctions])
        self.slot_b = ix([j.slot_b for j in t.junctions])
        self.pr_last = ix([t.roads[j.in_priority].last_cell
                           for j in t.junctions])
        self.np_last = ix([t.roads[j.in_nonpriority].last_cell
                           for j in t.junctions])
        self.out1_first = ix([t.roads[j.out_ceil].first_cell
                              for j in t.junctions])
        self.out2_first = ix([t.roads[j.out_floor].first_cell
                              for j in t.junctions])
        self.capacity = np.asarray([j.capacity for j in t.junctions])
        # (start, end) pairs for per-road occupancy sums via reduceat
        bounds = []
        for r in t.roads:
            bounds.extend((r.first_cell, r.first_cell + r.length_cells))
        self.road_bounds = ix(bounds)
        self.road_lengths = np.asarray([r.length_cells for r in t.roads])
        self.road_last = ix([r.last_cell for r in t.roads])

    def junction_shares(self, x: np.ndarray, discrete: bool
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Per-junction (ceil share, floor share) of total entries."""
        entries = x[self.slot_a] + x[self.slot_b]
        if discrete:
            return (entries + 1) // 2, entries // 2
        half = entries * 0.5
        return half, half

    def apply(self, x: np.ndarray, a: np.ndarray, discrete: bool,
              gate: np.ndarray | None = None) -> np.ndarray:
        share_c, share_f = self.junction_shares(x, discrete)
        shares = np.where(self.feed_ceil, share_c[self.feed_junction],
                          share_f[self.feed_junction])
        x_new = np.empty_like(x)
        up = np.empty_like(x)
        up[self.interior] = a[self.interior_prev] + x[self.interior_prev]
        up[self.first] = a[self.feed_slot] + shares
        x_new[self.rc] = np.minimum(up[self.rc],
                                    1 - a[self.rc] + x[self.nxt])
        auth = (self.capacity - (a[self.slot_a] + a[self.slot_b])
                + x[self.out1_first] + x[self.out2_first])
        up_pr = a[self.pr_last] + x[self.pr_last]
        up_np = a[self.np_last] + x[self.np_last]
        if gate is None:
            x_pr = np.minimum(up_pr, auth - x[self.slot_a])
            x_np = np.minimum(up_np, auth - x_pr)
        else:
            g = gate.astype(x.dtype)
            x_pr = np.minimum(np.minimum(up_pr, auth - x[self.slot_a]),
                              x[self.slot_b] + g)
            x_np = np.minimum(np.minimum(up_np, auth - x[self.slot_b]),
                              x[self.slot_a] + (1 - g))
        x_new[self.slot_b] = x_pr
        x_new[self.slot_a] = x_np
        return x_new

    def occupancy(self, x: np.ndarray, a: np.ndarray,
                  discrete: bool) -> np.ndarray:
        """Reconstruct per-slot occupancies from counters."""
        share_c, share_f = self.junction_shares(x, discrete)
        y = np.empty_like(x)
        y[self.rc] = a[self.rc] + x[self.rc] - x[self.nxt]
        y[self.slot_b] = (a[self.slot_b] + share_c - x[self.out1_first])
        y[self.slot_a] = (a[self.slot_a] + share_f - x[self.out2_first])
        return y


# Topologies hash by identity; a kernel holds no reference to its topology,
# so an entry goes away with the topology it was built for.
_KERNELS: weakref.WeakKeyDictionary[NetworkTopology, StepKernel] = (
    weakref.WeakKeyDictionary())


def kernel_for(t: NetworkTopology) -> StepKernel:
    k = _KERNELS.get(t)
    if k is None:
        k = _KERNELS[t] = StepKernel(t)
    return k


def check_occupancy(t: NetworkTopology, a: np.ndarray) -> np.ndarray:
    """Validate an initial car placement against the topology constraints."""
    a = np.asarray(a)
    if a.shape != (t.n_slots,):
        raise ValueError(f"occupancy must have {t.n_slots} entries, "
                         f"got shape {a.shape}")
    if not np.all((a >= 0) & (a <= 1)):
        raise ValueError("occupancies must lie in [0, 1]")
    for j in t.junctions:
        if a[j.slot_a] + a[j.slot_b] > j.capacity:
            raise ValueError(
                f"junction {j.id} holds more than its capacity {j.capacity}")
    return a


def density(a: np.ndarray, t: NetworkTopology) -> float:
    """Vehicles per counting position (each junction counts once)."""
    return float(np.sum(a)) / t.counting_size


def init_occupancy(t: NetworkTopology, values=None, count: int | None = None,
                   density: float | None = None,
                   seed: int | None = None) -> np.ndarray:
    """Build an initial placement from explicit values, a car count or a density.

    Seeded placements draw car positions uniformly over counting positions;
    a junction receives at most one car, assigned to a direction sub-cell by
    the same RNG.
    """
    given = sum(arg is not None for arg in (values, count, density))
    if given != 1:
        raise ValueError("specify exactly one of values / count / density")
    if values is not None:
        arr = np.asarray(values, dtype=float)
        if np.all(arr == np.round(arr)):
            arr = arr.astype(np.int64)
        return check_occupancy(t, arr)
    if density is not None:
        if not 0 <= density <= 1:
            raise ValueError("density must lie in [0, 1]")
        count = round(density * t.counting_size)
    assert count is not None
    if not 0 <= count <= t.counting_size:
        raise ValueError(
            f"car count {count} outside [0, {t.counting_size}]")
    rng = np.random.default_rng(seed)
    positions = t.counting_positions()
    chosen = rng.choice(len(positions), size=count, replace=False)
    a = np.zeros(t.n_slots, dtype=np.int64)
    for idx in sorted(chosen):
        kind, ref = positions[idx]
        if kind == "cell":
            a[ref] = 1
        else:
            j = t.junctions[ref]
            a[j.slot_b if rng.integers(2) else j.slot_a] = 1
    return check_occupancy(t, a)


class Simulation:
    """A single self-contained simulation run (single-threaded).

    ``policy`` is any object with ``reset(sim)`` and
    ``greens(k, sim) -> bool array`` (True = priority approach green), or
    None for the bare priority-to-the-right rule.
    """

    def __init__(self, t: NetworkTopology, a, mode: str = DISCRETE,
                 policy=None):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        a = check_occupancy(t, np.asarray(a))
        self.topology = t
        self.mode = mode
        self.kernel = kernel_for(t)
        if mode == DISCRETE:
            if np.any(a != np.round(a)):
                raise ValueError("discrete mode needs integer occupancies")
            self.a = a.astype(np.int64)
            self.x = np.zeros(t.n_slots, dtype=np.int64)
        else:
            self.a = a.astype(np.float64)
            self.x = np.zeros(t.n_slots, dtype=np.float64)
        self.k = 0
        self.policy = policy
        if policy is not None:
            policy.reset(self)

    @property
    def discrete(self) -> bool:
        return self.mode == DISCRETE

    def advance(self, steps: int = 1) -> None:
        for _ in range(steps):
            gate = None
            if self.policy is not None:
                gate = self.policy.greens(self.k, self)
            self.x = self.kernel.apply(self.x, self.a, self.discrete, gate)
            self.k += 1

    def state(self) -> CounterState:
        return CounterState(self.k, self.x.copy(), self.mode)

    def occupancy(self) -> np.ndarray:
        return self.kernel.occupancy(self.x, self.a, self.discrete)

    def road_counts(self) -> np.ndarray:
        """Vehicles currently on each road (junction interiors excluded)."""
        y = self.occupancy()
        return np.add.reduceat(y, self.kernel.road_bounds)[::2]

    def junction_entry_parity(self) -> np.ndarray:
        return (self.x[self.kernel.slot_a] + self.x[self.kernel.slot_b]) % 2


def step(state: CounterState, a, t: NetworkTopology,
         gate: np.ndarray | None = None) -> CounterState:
    """One synchronous update of all counters (pure function)."""
    a = check_occupancy(t, np.asarray(a))
    x = np.asarray(state.x)
    if x.shape != (t.n_slots,):
        raise ValueError(f"state has {x.shape} entries, need {t.n_slots}")
    if gate is not None:
        gate = np.asarray(gate)
        if gate.shape != (len(t.junctions),):
            raise ValueError("gate needs one entry per junction")
    discrete = state.mode == DISCRETE
    if discrete and (np.any(a != np.round(a)) or np.any(x != np.round(x))):
        raise ValueError("discrete mode needs integer occupancies and counters")
    x_new = kernel_for(t).apply(x.astype(np.int64 if discrete else np.float64),
                                a.astype(np.int64 if discrete else np.float64),
                                discrete, gate)
    return CounterState(state.k + 1, x_new, state.mode)


def simulate(t: NetworkTopology, a, mode: str = DISCRETE, horizon: int = 1,
             policy=None) -> list[CounterState]:
    """Run ``horizon`` steps from x = 0 and return all K+1 states."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    sim = Simulation(t, a, mode, policy)
    out = [sim.state()]
    for _ in range(horizon):
        sim.advance()
        out.append(sim.state())
    return out


def occupancy_at(state: CounterState, a, t: NetworkTopology,
                 diagnostic: bool = False) -> np.ndarray:
    """Per-slot occupancies reconstructed from counters.

    Exact booleans in discrete mode; continuous states are rejected unless
    ``diagnostic`` is set (fractional occupancies are then returned as-is).
    """
    if state.mode != DISCRETE and not diagnostic:
        raise ValueError("occupancy reconstruction needs discrete mode "
                         "(pass diagnostic=True for fractional output)")
    a = check_occupancy(t, np.asarray(a))
    return kernel_for(t).occupancy(state.x, a, state.mode == DISCRETE)


def counter_lines(states: list[CounterState]) -> str:
    """Trajectory dump: one line per step, tab-separated counter values."""
    return "\n".join(
        "\t".join(format(float(v), "g") for v in s.x) for s in states) + "\n"


def occupancy_line(t: NetworkTopology, y: np.ndarray) -> str:
    """One 0/1 character per counting position; junctions as 0, W, S or B."""
    chars = []
    for kind, ref in t.counting_positions():
        if kind == "cell":
            chars.append("1" if y[ref] else "0")
        else:
            j = t.junctions[ref]
            west, south = y[j.slot_a], y[j.slot_b]
            chars.append("B" if west and south else
                         "W" if west else "S" if south else "0")
    return "".join(chars)


def occupancy_lines(t: NetworkTopology, states: list[CounterState],
                    a) -> str:
    a = check_occupancy(t, np.asarray(a))
    kern = kernel_for(t)
    lines = [occupancy_line(t, kern.occupancy(s.x, a, s.mode == DISCRETE))
             for s in states]
    return "\n".join(lines) + "\n"
