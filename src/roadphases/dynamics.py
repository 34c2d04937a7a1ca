"""Cumulative-counter traffic dynamics on a network topology.

State is a vector x of cumulative inflow counters, one per slot: x[c] counts
vehicles that have entered road cell c since time 0, and each junction slot
counts vehicles that have entered the junction from one incoming road; they
are the whole state (a road holds its placed cars + x[its first cell] - x[the
entry slot it feeds]).  One synchronous update advances every counter by a
min of an upstream supply term and a downstream space term:

* road cell:          min(a_prev + x_prev,  1 - a + x_next)
* junction entry (priority road):
                      min(a_last + x_last,  cap - a_J + x_out1 + x_out2 - x_other)
* junction entry (non-priority road): same, but subtracts the priority
  entry already advanced to k+1 -- that asymmetry is the priority rule.
* first cell of a road leaving a junction:
                      min(a_slot + half of total junction entries,  1 - a + x_next)

Two arithmetic modes: "continuous" keeps fractional counters, and
"discrete" keeps integer counters by rounding the junction split up for one
outgoing road and down for the other (odd entrants one way, even the other),
which is exact unconditionally.  Continuous values are all dyadic, but
their fraction depth grows each step and soon passes the 53-bit mantissa of
float64: on the Fig-8 45/15 network, 9 of 18 runs (5 to 55 cars, seeds 0 to
2) leave the exact rational dynamics within 1,475 steps, the first at step
122.  Nothing reports that loss yet.

Traffic lights are an optional per-junction gate: when gating, the priority
subtraction becomes symmetric (both entries read the other at time k) and an
entry counter may grow only under a green light.

Independent runs on one network can be stacked as the rows of a (lanes,
slots) array and advanced by the same update; every operation is
elementwise per lane, so each lane matches its run stepped alone bit for bit.
"""

from __future__ import annotations

import copy
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


def _fields(items, *names) -> list[np.ndarray]:
    """One index array per attribute name, in item order."""
    return [np.array([getattr(i, n) for i in items], dtype=np.intp)
            for n in names]


class StepKernel:
    """The topology as index arrays, shared by the update, the policies and
    the measurements.  Per-road arrays are indexed by road id, per-junction
    arrays by junction id; ``counting`` lists the counting positions."""

    def __init__(self, t: NetworkTopology):
        self.first, self.road_lengths = _fields(
            t.roads, "first_cell", "length_cells")
        self.road_last = self.first + self.road_lengths - 1
        # (start, end) pairs for per-road sums via reduceat
        self.road_bounds = np.column_stack(
            [self.first, self.road_last + 1]).ravel()
        (self.slot_a, self.slot_b, self.capacity, self.pr_road, self.np_road,
         self.out_ceil, self.out_floor) = _fields(
            t.junctions, "slot_a", "slot_b", "capacity", "in_priority",
            "in_nonpriority", "out_ceil", "out_floor")
        self.pr_last = self.road_last[self.pr_road]
        self.np_last = self.road_last[self.np_road]
        self.out1_first = self.first[self.out_ceil]
        self.out2_first = self.first[self.out_floor]
        # road cells in road order; a road's last cell feeds its entry slot
        entry = self.entry = np.empty_like(self.first)
        entry[self.pr_road], entry[self.np_road] = self.slot_b, self.slot_a
        self.rc = np.concatenate([np.arange(f, l + 1) for f, l
                                  in zip(self.first, self.road_last)])
        self.nxt = self.rc + 1
        self.nxt[np.cumsum(self.road_lengths) - 1] = entry
        # counting positions in slot order: every road cell, and each
        # junction at its slot_a (on a figure-eight: the non-priority cells,
        # the junction, the priority cells)
        self.counting = np.sort(np.concatenate([self.rc, self.slot_a]))
        # upstream supply of each road cell in rc order, as an index into
        # [a + x, a_b + ceil share, a_a + floor share]: the previous cell,
        # or the junction sub-cell that feeds the first cell of an exit
        n, n_junctions = t.n_slots, len(self.slot_a)
        supply = np.arange(-1, n - 1)
        supply[self.out1_first] = n + np.arange(n_junctions)
        supply[self.out2_first] = n + n_junctions + np.arange(n_junctions)
        self.rc_supply = supply[self.rc]
        # a step yields road cells in rc order, then the slot_b values, then
        # the slot_a values; this gather puts them back in slot order
        self.slot_order = np.argsort(
            np.concatenate([self.rc, self.slot_b, self.slot_a]))

    # apply and occupancy take one run's (slots,) vector or a (lanes,
    # slots) stack and work slots-first on its transpose, so that each
    # gather along axis 0 copies a whole row of lanes.  A stack in Fortran
    # order, as Simulation keeps it, makes those transposes free; results
    # come back as (lanes, slots) in Fortran order.

    def apply(self, x: np.ndarray, a: np.ndarray, discrete: bool,
              gate: np.ndarray | None = None) -> np.ndarray:
        """One synchronous update of every lane.  ``a`` has the shape of
        ``x``; ``gate`` is (junctions,) for every lane, or (lanes,
        junctions)."""
        x, a = x.T, a.T
        x_a, x_b = x.take(self.slot_a, 0), x.take(self.slot_b, 0)
        a_a, a_b = a.take(self.slot_a, 0), a.take(self.slot_b, 0)
        share_c, share_f = _shares(x_a + x_b, discrete)
        supply = np.concatenate([a + x, a_b + share_c, a_a + share_f])
        road = np.minimum(supply.take(self.rc_supply, 0),
                          1 - a.take(self.rc, 0) + x.take(self.nxt, 0))
        auth = (_junction_rows(self.capacity, x.ndim) - (a_a + a_b)
                + x.take(self.out1_first, 0) + x.take(self.out2_first, 0))
        up_pr = supply.take(self.pr_last, 0)
        up_np = supply.take(self.np_last, 0)
        if gate is None:
            x_pr = np.minimum(up_pr, auth - x_a)
            x_np = np.minimum(up_np, auth - x_pr)
        else:
            g = _junction_rows(gate, x.ndim).astype(x.dtype)
            x_pr = np.minimum(np.minimum(up_pr, auth - x_a), x_b + g)
            x_np = np.minimum(np.minimum(up_np, auth - x_b), x_a + (1 - g))
        return self._in_slot_order(road, x_pr, x_np)

    def occupancy(self, x: np.ndarray, a: np.ndarray,
                  discrete: bool) -> np.ndarray:
        """Reconstruct per-slot occupancies from counters (for dumps)."""
        x, a = x.T, a.T
        share_c, share_f = _shares(
            x.take(self.slot_a, 0) + x.take(self.slot_b, 0), discrete)
        return self._in_slot_order(
            a.take(self.rc, 0) + x.take(self.rc, 0) - x.take(self.nxt, 0),
            a.take(self.slot_b, 0) + share_c - x.take(self.out1_first, 0),
            a.take(self.slot_a, 0) + share_f - x.take(self.out2_first, 0))

    def _in_slot_order(self, road: np.ndarray, at_b: np.ndarray,
                       at_a: np.ndarray) -> np.ndarray:
        return np.concatenate([road, at_b, at_a]).take(self.slot_order, 0).T

    def road_sums(self, v: np.ndarray) -> np.ndarray:
        """Per-road sums of a per-slot vector, or of each lane of a (lanes,
        slots) stack (junction slots excluded)."""
        return np.add.reduceat(v, self.road_bounds, axis=-1)[..., ::2]


def _shares(entries: np.ndarray, discrete: bool
            ) -> tuple[np.ndarray, np.ndarray]:
    """(ceil share, floor share) of each junction's total entries."""
    if discrete:
        return (entries + 1) // 2, entries // 2
    half = entries * 0.5
    return half, half


def _junction_rows(v: np.ndarray, ndim: int) -> np.ndarray:
    """A (junctions,) or (lanes, junctions) array as junction rows that
    broadcast against the slots-first gathers of an ``ndim``-axis state."""
    return v.T.reshape(v.shape[-1:] + (-1,) * (ndim - 1))


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
    kern = kernel_for(t)
    over = np.flatnonzero(a[kern.slot_a] + a[kern.slot_b] > kern.capacity)
    if over.size:
        j = over[0]
        raise ValueError(
            f"junction {j} holds more than its capacity {kern.capacity[j]}")
    return a


def _validated(t: NetworkTopology, mode: str, a,
               x=None) -> tuple[np.ndarray, np.ndarray]:
    """(a, x) checked for ``mode`` and cast to its dtype.

    ``a`` is one placement (slots,) or a stack of them (lanes, slots), each
    checked by check_occupancy; ``x`` defaults to zeros and must have the
    shape of ``a``.  Fortran order keeps each slot's lanes adjacent, so the
    kernel's gathers copy whole rows.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    a = np.asarray(a)
    for lane in (a if a.ndim == 2 else [a]):
        check_occupancy(t, lane)
    x = np.zeros(a.shape) if x is None else np.asarray(x)
    if x.shape != a.shape:
        raise ValueError(f"state has shape {x.shape}, need {a.shape}")
    if mode == DISCRETE and (np.any(a != np.round(a))
                             or np.any(x != np.round(x))):
        raise ValueError("discrete mode needs integer occupancies and counters")
    dtype = np.int64 if mode == DISCRETE else np.float64
    return a.astype(dtype, order="F"), x.astype(dtype, order="F")


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
    kern = kernel_for(t)
    rng = np.random.default_rng(seed)
    picked = rng.choice(kern.counting.size, size=count, replace=False)
    a = np.zeros(t.n_slots, dtype=np.int64)
    a[kern.counting[picked]] = 1
    # a car placed at a junction sits at its slot_a; one more draw per such
    # junction, in counting (slot_a) order, moves it to slot_b
    held = np.flatnonzero(a[kern.slot_a])
    held = held[np.argsort(kern.slot_a[held])]
    to_b = held[rng.integers(2, size=held.size) == 1]
    a[kern.slot_a[to_b]], a[kern.slot_b[to_b]] = 0, 1
    return check_occupancy(t, a)


class Simulation:
    """A stack of independent runs on one network, advanced together.

    ``a`` is one initial placement (slots,) or a stack of them (lanes,
    slots), one lane per run; ``x`` and every per-slot result take its
    shape, and a 1-D ``a`` is a single run.  Lanes share the mode, the step
    count and the policy but nothing else, so each lane follows exactly the
    trajectory it would follow alone.  The counters ``x`` are the only state
    that changes; road counts are read from them, not from occupancies.

    ``policy`` is any object with ``reset(sim)`` and
    ``greens(k, sim) -> bool array`` (True = priority approach green), of
    shape (junctions,) for every lane or (lanes, junctions), or None for the
    bare priority-to-the-right rule.  The simulation resets and steps its
    own shallow copy, ``sim.policy``, so one policy object may serve any
    number of live runs.
    """

    def __init__(self, t: NetworkTopology, a, mode: str = DISCRETE,
                 policy=None):
        self.a, self.x = _validated(t, mode, a)
        self.topology = t
        self.mode = mode
        self.kernel = kernel_for(t)
        self.k = 0
        self._placed = self.kernel.road_sums(self.a)
        self.policy = copy.copy(policy)
        if policy is not None:
            self.policy.reset(self)

    def advance(self, steps: int = 1) -> None:
        for _ in range(steps):
            gate = (None if self.policy is None
                    else self.policy.greens(self.k, self))
            self.x = self.kernel.apply(self.x, self.a, self.mode == DISCRETE,
                                       gate)
            self.k += 1

    def state(self) -> CounterState:
        return CounterState(self.k, self.x.copy(), self.mode)

    def road_counts(self) -> np.ndarray:
        """Vehicles currently on each road (junction interiors excluded)."""
        x, kern = self.x, self.kernel
        # the difference first: exact whenever the counters are
        return self._placed + (x[..., kern.first] - x[..., kern.entry])


def step(state: CounterState, a, t: NetworkTopology,
         gate: np.ndarray | None = None) -> CounterState:
    """One synchronous update of all counters (pure function)."""
    a, x = _validated(t, state.mode, a, state.x)
    kern = kernel_for(t)
    if gate is not None:
        gate = np.asarray(gate)
        if gate.shape != kern.slot_a.shape:
            raise ValueError("gate needs one entry per junction")
    x_new = kern.apply(x, a, state.mode == DISCRETE, gate)
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
    a, x = _validated(t, state.mode, a, state.x)
    return kernel_for(t).occupancy(x, a, state.mode == DISCRETE)


def counter_lines(states: list[CounterState]) -> str:
    """Trajectory dump: one line per step, tab-separated counter values."""
    return "\n".join(
        "\t".join(format(float(v), "g") for v in s.x) for s in states) + "\n"


# per-position codes: a road cell is 0 or 1, a junction 2 + west + 2 * south
_LINE_CHARS = np.array(list("010WSB"))


def occupancy_line(t: NetworkTopology, y: np.ndarray) -> str:
    """One 0/1 character per counting position; junctions as 0, W, S or B."""
    kern = kernel_for(t)
    code = (np.asarray(y) != 0).astype(np.intp)
    code[kern.slot_a] += 2 + 2 * code[kern.slot_b]
    return "".join(_LINE_CHARS[code[kern.counting]])


def occupancy_lines(t: NetworkTopology, states: list[CounterState],
                    a) -> str:
    return "\n".join(occupancy_line(t, occupancy_at(s, a, t, diagnostic=True))
                     for s in states) + "\n"
