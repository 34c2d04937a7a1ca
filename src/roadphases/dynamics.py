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

Two arithmetic modes, and the counters' dtype is the mode (_validated casts
to it): "continuous" float64 counters halve the junction split, and
"discrete" int64 counters round it up for one outgoing road and down for the
other (odd entrants one way, even the other), which is exact unconditionally.
Continuous values are all dyadic, but their fraction depth grows each step
and soon passes the 53-bit mantissa of float64: on the Fig-8 45/15 network, 9
of 18 runs (5 to 55 cars, seeds 0 to 2) leave the exact rational dynamics
within 1,475 steps, the first at step 122.  Nothing reports that loss yet.

Traffic lights are an optional per-junction gate: when gating, the priority
subtraction becomes symmetric (both entries read the other at time k) and an
entry counter may grow only under a green light.

Independent runs on one network can be stacked as the rows of a (lanes,
slots) array and advanced by the same update; every operation is
elementwise per lane, so each lane matches its run stepped alone bit for bit.
A step works in kernel order (StepKernel), a layout private to this module.
"""

from __future__ import annotations

import copy
import weakref

import numpy as np

from .topology import NetworkTopology

CONTINUOUS = "continuous"
DISCRETE = "discrete"
MODES = (CONTINUOUS, DISCRETE)


def _fields(items, *names) -> list[np.ndarray]:
    """One index array per attribute name, in item order."""
    return [np.array([getattr(i, n) for i in items], dtype=np.intp)
            for n in names]


class StepKernel:
    """The topology as index arrays, shared by the update, the policies and
    the measurements.  Per-road arrays are indexed by road id, per-junction
    arrays by junction id; ``counting`` lists the counting positions.

    A step runs in kernel order, the order it produces counters in: road
    cells road by road, then every ``slot_b``, then every ``slot_a``
    (``order`` maps it to slots; ``row_*`` arrays index it).  A stack is
    worked slots-first on its transpose, free in Fortran order (apply's).
    """

    def __init__(self, t: NetworkTopology):
        self.first, self.road_lengths = _fields(
            t.roads, "first_cell", "length_cells")
        self.road_last = self.first + self.road_lengths - 1
        (self.slot_a, self.slot_b, self.capacity, self.pr_road, self.np_road,
         self.out_ceil, self.out_floor) = _fields(
            t.junctions, "slot_a", "slot_b", "capacity", "in_priority",
            "in_nonpriority", "out_ceil", "out_floor")
        self.rc = np.concatenate([np.arange(f, l + 1) for f, l
                                  in zip(self.first, self.road_last)])
        self.order = np.concatenate([self.rc, self.slot_b, self.slot_a])
        # each road's last and first row, and the entry row its last cell feeds
        self.row_last = np.cumsum(self.road_lengths) - 1
        self.row_first = self.row_last - self.road_lengths + 1
        into = np.concatenate([self.pr_road, self.np_road])
        self.row_entry = self.rc.size + np.argsort(into)
        # per junction: its exits' first rows, and the supply rows feeding it
        outs = np.concatenate([self.out_ceil, self.out_floor])
        self.row_exit = self.row_first[outs]
        self.row_feed = self.row_last[into] + 1
        # the slot whose counter each slot's occupancy is read against
        self.succ = np.empty_like(self.order)
        self.succ[self.order] = np.concatenate([self.rc + 1, self.first[outs]])
        self.succ[self.road_last] = self.order[self.row_entry]
        # counting positions in slot order: every road cell, and each
        # junction at its slot_a (on a figure-eight: the non-priority cells,
        # the junction, the priority cells)
        self.counting = np.sort(np.concatenate([self.rc, self.slot_a]))

    def to_kernel(self, v: np.ndarray) -> np.ndarray:
        """A slot-order stack in kernel order (Fortran order)."""
        return np.asarray(v).T[self.order].T

    def to_slots(self, v: np.ndarray) -> np.ndarray:
        """A kernel-order stack in slot order (C order)."""
        out = np.empty(v.shape, v.dtype)
        out[..., self.order] = v
        return out

    def terms(self, a: np.ndarray) -> np.ndarray:
        """apply's view of a slot-order placement: a in kernel order, 1 - a
        at road cells and at last cells, and capacity - a_a - a_b."""
        a, j = self.to_kernel(a).T, len(self.slot_a)
        free = 1 - a[:self.rc.size]
        room = _junction_rows(self.capacity, a.ndim) - (a[-j:] + a[-2 * j:-j])
        return np.concatenate([a, free, free[self.row_last], room]).T

    def apply(self, x: np.ndarray, p: np.ndarray,
              gate: np.ndarray | None = None) -> np.ndarray:
        """One synchronous update of every lane, in kernel order, in the
        mode of x's dtype.  ``p`` is ``terms`` of the placement; ``gate`` is
        (junctions,) for every lane, or (lanes, junctions)."""
        x, p = x.T, p.T
        c, n, j = self.rc.size, len(x), len(self.slot_a)
        a, free, free_last, room = p[:n], p[n:n + c], p[n + c:-j], p[-j:]
        x_b, x_a = x[c:-j], x[-j:]
        out = np.empty(x.shape, x.dtype)
        # supply: up[r + 1] = a + x at road row r, or a junction's share
        up = np.empty((c + 1,) + x.shape[1:], x.dtype)
        np.add(a[:c], x[:c], out=up[1:])
        up_in = up.take(self.row_feed, 0)
        up[self.row_exit] = a[c:] + np.concatenate(_shares(x_a + x_b))
        # space: 1 - a + x of the next row, or of a last cell's entry slot
        road = np.add(free, x[1:c + 1], out=out[:c])
        road[self.row_last] = free_last + x.take(self.row_entry, 0)
        np.minimum(up[:c], road, out=road)
        x_out = x.take(self.row_exit, 0)
        auth = room + x_out[:j] + x_out[j:]
        if gate is not None:
            # an entry grows only under green, and neither has priority
            g = _junction_rows(gate, x.ndim).astype(x.dtype)
            up_in = np.minimum(up_in, np.concatenate([x_b + g, x_a + (1 - g)]))
        x_pr = np.minimum(up_in[:j], auth - x_a, out=out[c:-j])
        np.minimum(up_in[j:], auth - (x_pr if gate is None else x_b),
                   out=out[-j:])
        return out.T

    def occupancy(self, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Per-slot occupancies of slot-order counters (for dumps)."""
        v = x.copy()  # a sub-cell holds its share of the junction's entries
        v[..., self.slot_b], v[..., self.slot_a] = _shares(
            x[..., self.slot_a] + x[..., self.slot_b])
        return a + v - x[..., self.succ]

    def road_sums(self, v: np.ndarray) -> np.ndarray:
        """Per-road sums of a per-slot vector, or of each lane of a (lanes,
        slots) stack (junction slots excluded)."""
        return np.add.reduceat(v[..., self.rc], self.row_first, axis=-1)


def _shares(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ceil, floor) shares of each junction's entries; halves if float."""
    if entries.dtype.kind != "f":
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
    """Validate one car placement (slots,), or a (lanes, slots) stack of
    them, against the topology constraints.  An overfull stack is reported
    at the lowest overfull junction of its first faulty lane."""
    a = np.asarray(a)
    if a.ndim not in (1, 2) or a.shape[-1] != t.n_slots:
        raise ValueError(f"occupancy must have {t.n_slots} entries, "
                         f"got shape {a.shape}")
    if not np.all((a >= 0) & (a <= 1)):
        raise ValueError("occupancies must lie in [0, 1]")
    kern = kernel_for(t)
    over = np.argwhere(a[..., kern.slot_a] + a[..., kern.slot_b]
                       > kern.capacity)
    if over.size:
        j = over[0, -1]
        raise ValueError(
            f"junction {j} holds more than its capacity {kern.capacity[j]}")
    return a


def _validated(t: NetworkTopology, mode: str, a, x=None,
               states: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(a, x) checked for ``mode`` and cast to its dtype.

    ``a`` is one placement (slots,) or a stack of them (lanes, slots),
    checked by check_occupancy; ``x`` defaults to zeros and must have the
    shape of ``a``, or with ``states`` be a stack of states of that shape.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    a = check_occupancy(t, a)
    x = np.zeros(a.shape) if x is None else np.asarray(x)
    shape = x.shape[1:] if states else x.shape
    if shape != a.shape:
        raise ValueError(f"state has shape {shape}, need {a.shape}")
    if mode == DISCRETE and (np.any(a != np.round(a))
                             or np.any(x != np.round(x))):
        raise ValueError("discrete mode needs integer occupancies and counters")
    dtype = np.int64 if mode == DISCRETE else np.float64
    return a.astype(dtype), x.astype(dtype)


def density(a: np.ndarray, t: NetworkTopology) -> float | np.ndarray:
    """Vehicles per counting position (each junction counts once), of one
    placement, or of each lane of a (lanes, slots) stack."""
    return np.asarray(a).sum(-1) / t.counting_size


def car_count(t: NetworkTopology, density: float) -> int:
    """Cars at ``density`` on t, rounded half to even; NaN or a density
    outside [0, 1] is rejected."""
    if not 0 <= density <= 1:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    return round(density * t.counting_size)


def init_occupancy(t: NetworkTopology, values=None, count: int | None = None,
                   density: float | None = None,
                   seed: int | None = None) -> np.ndarray:
    """Build an initial placement from explicit values, a car count or a density.

    Seeded placements draw car positions uniformly over counting positions;
    a junction receives at most one car, assigned to a direction sub-cell by
    the same RNG, so a draw is valid by construction and only explicit
    ``values`` are checked.
    """
    given = sum(arg is not None for arg in (values, count, density))
    if given != 1:
        raise ValueError("specify exactly one of values / count / density")
    if values is not None:  # checked before the cast: inf has no int64
        arr = check_occupancy(t, np.asarray(values, dtype=float))
        return arr.astype(np.int64) if np.all(arr == np.round(arr)) else arr
    if density is not None:
        count = car_count(t, density)
    if not 0 <= count <= t.counting_size:
        raise ValueError(f"car count {count} outside [0, {t.counting_size}]")
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
    return a


class Simulation:
    """A stack of independent runs on one network, advanced together.

    ``a`` is one initial placement (slots,) or a stack of them (lanes,
    slots), one lane per run; ``x`` and every per-slot result take its
    shape, and a 1-D ``a`` is a single run.  Lanes share the mode, the step
    count and the policy but nothing else, so each lane follows exactly the
    trajectory it would follow alone.  A run is read through ``x`` (slot
    order), ``road_counts()`` and ``poised()``: read-only arrays, valid until
    the next step, the per-road ones computed once per state and cached.

    ``policy`` is any object with ``reset(sim)`` and
    ``greens(k, sim) -> bool array`` (True = priority approach green), of
    shape (junctions,) for every lane or (lanes, junctions), or None for the
    bare priority-to-the-right rule.  The simulation resets and steps its
    own shallow copy, ``sim.policy``, so one policy object may serve any
    number of live runs.
    """

    def __init__(self, t: NetworkTopology, a, mode: str = DISCRETE,
                 policy=None):
        self.a, x = _validated(t, mode, a)
        self.topology = t
        self.kernel = kern = kernel_for(t)
        self.k = 0
        self.counters = kern.to_kernel(x)  # the state, kernel order (no API)
        self._terms = kern.terms(self.a)
        self._placed = kern.road_sums(self.a)
        self._placed_last = self.a[..., kern.road_last]
        self._reads: dict[str, np.ndarray] = {}  # this state's, by name
        self.policy = copy.copy(policy)
        if policy is not None:
            self.policy.reset(self)

    @property
    def x(self) -> np.ndarray:
        """The counters in slot order, as a read-only copy."""
        x = self.kernel.to_slots(self.counters)
        x.flags.writeable = False
        return x

    def advance(self, steps: int = 1) -> None:
        for _ in range(steps):
            gate = (None if self.policy is None
                    else self.policy.greens(self.k, self))
            self.counters = self.kernel.apply(self.counters, self._terms, gate)
            self.k += 1
            self._reads = {}

    def trajectory(self, steps: int):
        """Yield this simulation now and after each of ``steps`` more steps."""
        yield self
        for _ in range(steps):
            self.advance()
            yield self

    def road_counts(self) -> np.ndarray:
        """Vehicles currently on each road (junction interiors excluded)."""
        return self._read("road_counts", self._placed, self.kernel.row_first)

    def poised(self) -> np.ndarray:
        """Vehicles on each road's last cell, poised to enter its junction."""
        return self._read("poised", self._placed_last, self.kernel.row_last)

    def _read(self, name: str, placed, rows) -> np.ndarray:
        """Per road: ``placed`` + x at ``rows`` - x at its entry, exact when
        x is; computed once per state, and cached as ``name``."""
        if name not in self._reads:
            x = self.counters.T
            v = placed + (x.take(rows, 0) - x.take(self.kernel.row_entry, 0)).T
            v.flags.writeable = False
            self._reads[name] = v
        return self._reads[name]


def step(x, a, t: NetworkTopology, mode: str = DISCRETE,
         gate: np.ndarray | None = None) -> np.ndarray:
    """The slot-order counters one synchronous update after ``x`` (pure)."""
    a, x = _validated(t, mode, a, x)
    kern = kernel_for(t)
    if gate is not None:
        gate = np.asarray(gate)
        if gate.shape != kern.slot_a.shape:
            raise ValueError("gate needs one entry per junction")
    return kern.to_slots(kern.apply(kern.to_kernel(x), kern.terms(a), gate))


def simulate(t: NetworkTopology, a, mode: str = DISCRETE, horizon: int = 1,
             policy=None) -> np.ndarray:
    """The counters of ``horizon`` steps from x = 0, row k at step k."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    sim = Simulation(t, a, mode, policy)
    xs = np.empty((horizon + 1, *sim.a.shape), sim.a.dtype)
    for s in sim.trajectory(horizon):
        xs[s.k] = s.x
    return xs


def occupancy_at(x, a, t: NetworkTopology) -> np.ndarray:
    """Per-slot occupancies (exact 0/1) of placement ``a``, rebuilt from one
    state or a trajectory of discrete counters; float ones are rejected."""
    x = np.asarray(x)
    if x.dtype.kind == "f":
        raise ValueError("occupancy reconstruction needs discrete mode")
    a, x = _validated(t, DISCRETE, a, x, states=x.ndim > np.ndim(a))
    return kernel_for(t).occupancy(x, a)
