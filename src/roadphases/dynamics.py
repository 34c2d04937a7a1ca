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
"discrete" integer counters round it up for one outgoing road and down for
the other (odd entrants one way, even the other), which is exact
unconditionally.  Discrete counters are int64 wherever they are read, but a
Simulation steps them in the narrowest int that holds every value a step
can form: int16 for its first 16,382 steps, int32 until step 2**30 - 2,
then int64.
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
A step works in kernel order (StepKernel), a layout private to this module:
the counters, then each junction's two shares of its entries, which the
step that moves the entries writes.  A gather of that state reads every
supply and space term of the next step, and a minimum moves every road
cell, both in blocks of road rows that fit in cache (a narrow stack is one
block); only the junction rule works on rows of its own.
"""

from __future__ import annotations

import copy
import math
import weakref

import numpy as np

from .topology import NetworkTopology

CONTINUOUS = "continuous"
DISCRETE = "discrete"
MODES = (CONTINUOUS, DISCRETE)
# Bytes of gathered terms per block of a step, so that a block's take, add
# and minimum work in cache; a term takes the state's itemsize.  Of 64 KB to
# 1 MB, 256 KB stepped the 8x8x9 city at 180 lanes and the 32x32x45 grid
# fastest on a 2-vCPU Xeon with a 4 MB L2.  A float64 step of Fig-8 45/15 up
# to 282 lanes, or of the city up to 14, is one block, an int32 step of the
# city up to 28 and an int16 one up to 56.
BLOCK_BYTES = 1 << 18


def _fields(items, *names) -> list[np.ndarray]:
    """One index array per attribute name, in item order."""
    return [np.array([getattr(i, n) for i in items], dtype=np.intp)
            for n in names]


class _Terms(list):
    """terms' blocks; ``nbytes``, their terms' bytes, is read by perfbench."""
    nbytes = property(lambda self: sum(b[-1].nbytes for b in self))


class StepKernel:
    """The topology as index arrays, shared by the update, the policies and
    the measurements.  Per-road arrays are indexed by road id, per-junction
    arrays by junction id; ``counting`` lists the counting positions.

    A step runs in kernel order, the order it produces counters in: road
    cells road by road, then every ``slot_b``, then every ``slot_a``
    (``order`` maps these n rows to slots; ``row_*`` arrays index them),
    then each junction's ceil share and each one's floor share of its
    entries, which feed its exits' first cells at the next step.  A stack
    is worked rows-first on its transpose, free in Fortran order (apply's).

    ``gather`` lists, for one step, the rows that every term reads: each
    road row's supply (the row before it, or its junction's share at an
    exit's first row), each entry's supply (its road's last cell), each
    road row's space (the row after it, or its entry slot at a last cell)
    and each junction's two exits (``row_exit``); the slot a space term
    reads is the one whose counter ``occupancy`` subtracts (``succ``).  Its
    halves match row for row, as do ``terms``', which lays out both in
    blocks of rows.  Nothing writes to a kernel after it is built.
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
        c, n = self.rc.size, self.order.size
        # each road's last and first row, and the entry row its last cell feeds
        self.row_last = np.cumsum(self.road_lengths) - 1
        self.row_first = self.row_last - self.road_lengths + 1
        # the road into each approach, priority approaches first (as the
        # entry rows c..n are), and its first and last row
        self.into = np.concatenate([self.pr_road, self.np_road])
        self.row_entry = c + np.argsort(self.into)
        self.row_into = np.stack([self.row_first, self.row_last], 1)[self.into]
        # per junction: its exits' first rows, ceil exits then floor exits
        outs = np.concatenate([self.out_ceil, self.out_floor])
        self.row_exit = self.row_first[outs]
        supply, space = np.arange(-1, c - 1), np.arange(1, c + 1)
        supply[self.row_exit] = n + np.arange(outs.size)  # the share rows
        space[self.row_last] = self.row_entry
        self.gather = np.concatenate([supply, self.row_last[self.into], space,
                                      self.row_exit])
        # the slot whose counter each slot's occupancy is read against
        self.succ = np.empty_like(self.order)
        self.succ[self.order] = self.order[self.gather[n:]]
        # counting positions in slot order: every road cell, and each
        # junction at its slot_a (on a figure-eight: the non-priority cells,
        # the junction, the priority cells)
        self.counting = np.sort(np.concatenate([self.rc, self.slot_a]))

    def to_kernel(self, v: np.ndarray) -> np.ndarray:
        """A slot-order stack in kernel order (Fortran order), each
        junction's shares of its entries included."""
        x, j = np.asarray(v).T[self.order], len(self.slot_a)
        return np.concatenate([x, _shares(x[-j:] + x[-2 * j:-j])]).T

    def to_slots(self, v: np.ndarray) -> np.ndarray:
        """A kernel-order stack in slot order (C order), shares dropped,
        int64 or float64 as counters are read (a narrower int widens)."""
        out = np.empty(v.shape[:-1] + self.order.shape,
                       np.promote_types(v.dtype, np.int64))
        out[..., self.order] = v[..., :self.order.size]
        return out

    def terms(self, a: np.ndarray) -> _Terms:
        """A slot-order placement's step for apply, in a's dtype (the
        state's): the gather's two halves of terms (the a each supply adds;
        1 - a at each road row, capacity - a_a - a_b at each junction's ceil
        exit and 0 at its floor exit) in blocks of road rows, of about
        BLOCK_BYTES of terms, so that a block's take, add and minimum work in
        cache.  A block is a (rows lo:hi, row count, gather rows lo:to, terms
        rows lo:to) tuple, the last one on to row n; one block's gather is
        ``gather``, several are copies (take copies a strided index)."""
        a, c, j = np.asarray(a).T[self.order], self.rc.size, len(self.slot_a)
        n = len(a)
        room = (_junction_rows(self.capacity, a.ndim, a.dtype)
                - (a[-j:] + a[-2 * j:-j]))
        # the n slot rows, the share rows (the ceil share adds its junction's
        # slot_b's a, the floor share slot_a's), the space terms: freed, they
        # lift glibc's mmap threshold above every array that a step allocates
        v = np.concatenate([a, a[c:], 1 - a[:c], room, np.zeros_like(room)])
        p = v.take(np.r_[self.gather[:n], n + 2 * j:len(v)].reshape(2, -1), 0)
        count = min(-(-c * p.nbytes // (n * BLOCK_BYTES)), c) or 1
        ends = [c * i // count for i in range(count + 1)]
        return _Terms((slice(lo, hi), hi - lo, np.ascontiguousarray(
            self.gather.reshape(2, n)[:, lo:to]), p[:, lo:to])
            for lo, hi, to in zip(ends, ends[1:], ends[1:-1] + [n]))

    def apply(self, x: np.ndarray, p: _Terms,
              gate: np.ndarray | None = None) -> np.ndarray:
        """One synchronous update of every lane, in kernel order, in the
        mode of x's dtype.  ``p`` is ``terms`` of the placement; ``gate`` is
        (junctions,) for every lane, or (lanes, junctions).  Per block of
        ``p``, one take and one add give every term and one minimum gives
        every road cell; the last block's take reads the junctions' terms
        too."""
        x = x.T
        c, n, j = self.rc.size, self.order.size, len(self.slot_a)
        out = np.empty(x.shape, x.dtype)
        for rows, m, gather, terms in p:
            g = x.take(gather, 0)
            g += terms
            np.minimum(g[0, :m], g[1, :m], out=out[rows])
        up_in, exits = g[0, m:], g[1, m:]  # each entry's supply; exits
        auth = exits[:j] + exits[j:]
        x_b, x_a = x[c:c + j], x[c + j:n]
        if gate is not None:
            # an entry grows only under green, and neither has priority
            green = _junction_rows(gate, x.ndim, x.dtype)
            up_in = np.minimum(up_in, np.concatenate([x_b + green,
                                                      x_a + (1 - green)]))
        x_pr = np.minimum(up_in[:j], auth - x_a, out=out[c:c + j])
        x_np = np.minimum(up_in[j:], auth - (x_pr if gate is None else x_b),
                          out=out[c + j:n])
        _shares(x_np + x_pr, out[n:])
        return out.T

    def occupancy(self, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Per-slot occupancies of slot-order counters (for dumps)."""
        v = x.copy()  # a sub-cell holds its share of the junction's entries
        v[..., self.order[self.rc.size:]] = _shares(
            (x[..., self.slot_a] + x[..., self.slot_b]).T).T
        return a + v - x[..., self.succ]

    def road_sums(self, v: np.ndarray) -> np.ndarray:
        """Per-road sums of a per-slot vector, or of each lane of a (lanes,
        slots) stack (junction slots excluded)."""
        return np.add.reduceat(v[..., self.rc], self.row_first, axis=-1)


def _shares(entries: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each junction's ceil share of its entries (rows of ``entries``), then
    each one's floor share, as rows of ``out``; halves if float."""
    j = len(entries)
    if out is None:
        out = np.empty((2 * j,) + entries.shape[1:], entries.dtype)
    ceil, floor = out[:j], out[j:]
    if entries.dtype.kind == "f":
        ceil[...] = floor[...] = entries * 0.5
    else:  # a shift by one is a floor division by 2 for every int
        np.add(entries, 1, out=ceil)
        ceil >>= 1
        np.right_shift(entries, 1, out=floor)
    return out


def _junction_rows(v: np.ndarray, ndim: int, dtype) -> np.ndarray:
    """A (junctions,) or (lanes, junctions) array as C-ordered ``dtype``
    junction rows that broadcast against the slots-first gathers of an
    ``ndim``-axis state."""
    return np.ascontiguousarray(v.T, dtype).reshape(
        v.shape[-1:] + (-1,) * (ndim - 1))


def _light(gate, sim) -> np.ndarray:
    """A policy's gate for ``sim`` or a lane group's view, checked to be a
    bool array of shape (junctions,) or (lanes, junctions), not by value."""
    gate, j = np.asarray(gate), sim.kernel.slot_a.shape
    if gate.dtype != bool or gate.shape not in (j, sim.a.shape[:-1] + j):
        raise ValueError(f"gate {gate.dtype} {gate.shape} is not a bool "
                         f"array of shape {j} or (lanes,) + {j}")
    return gate


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
    order), ``road_counts()``, ``approaches()`` and, for order-blind
    comparisons of whole states only, ``counters``: read-only arrays, valid
    until the next step, each computed at each read.

    ``policy`` is None for the bare priority-to-the-right rule, or any
    object with ``reset(sim)``, ``greens(k, sim) -> bool array`` (True =
    priority approach green) of shape (junctions,) or (lanes, junctions),
    which ``advance`` enforces (dtype and shape, not values), and
    optionally ``phase(k)``: the gate state at step k that the counters
    do not hold, one int row per lane, read before ``greens(k)``.  The
    simulation resets and steps its own shallow copy, ``sim.policy``, so
    one policy may serve many live runs.
    """

    def __init__(self, t: NetworkTopology, a, mode: str = DISCRETE,
                 policy=None):
        self.a, x = _validated(t, mode, a)
        self.topology = t
        self.kernel = kern = kernel_for(t)
        self.k = 0
        # the state in kernel order, share rows included (no API)
        self.state = kern.to_kernel(x)
        self._cast(np.int16 if mode == DISCRETE else self.a.dtype)
        self._placed = kern.road_sums(self.a)
        # per approach, junction-major: the cars placed on its road, then
        # those on its last cell
        self._placed_into = np.stack(
            [self._placed, self.a[..., kern.road_last]], -2)[
            ..., kern.into].T.copy()
        self.policy = copy.copy(policy)
        if policy is not None:
            self.policy.reset(self)

    @property
    def x(self) -> np.ndarray:
        """The counters in slot order, as a read-only copy."""
        x = self.kernel.to_slots(self.state)
        x.flags.writeable = False
        return x

    @property
    def counters(self) -> np.ndarray:
        """The counters in kernel order: a read-only view of the state,
        share rows dropped, in its dtype (int16 for the first 16,382 steps
        of a discrete run, then int32 until step 2**30 - 2).  It is valid
        only until the next step, which may reuse its memory."""
        v = self.state[..., :self.kernel.order.size]
        v.flags.writeable = False
        return v

    def advance(self, steps: int = 1) -> None:
        for _ in range(steps):
            if self.k >= self._wide_at:
                self._cast(np.dtype(f"i{2 * self.state.itemsize}"))
            gate = None if self.policy is None else _light(
                self.policy.greens(self.k, self), self)
            self.state = self.kernel.apply(self.state, self._terms, gate)
            self.k += 1

    def _cast(self, dtype) -> None:
        """Step the state, and the terms it adds, in ``dtype`` from now on,
        and widen it at step ``_wide_at``.  A discrete counter gains at most
        one car a step from x = 0, so the step to k + 1 forms no value above
        2(k + 1) + capacity + 1: an int narrower than int64 steps while
        that fits in it."""
        self.state = self.state.astype(dtype, copy=False)
        self._terms = self.kernel.terms(self.a.astype(dtype, copy=False))
        self._wide_at = math.inf if self.state.itemsize == 8 else (
            np.iinfo(dtype).max - 1 - int(self.kernel.capacity.max())) // 2

    def trajectory(self, steps: int):
        """Yield this simulation now and after each of ``steps`` more steps."""
        yield self
        for _ in range(steps):
            self.advance()
            yield self

    def road_counts(self) -> np.ndarray:
        """Vehicles currently on each road (junction interiors excluded),
        exact when x is; read from the whole stack at each call."""
        x, kern = self.state.T, self.kernel
        v = self._placed + (x.take(kern.row_first, 0)
                            - x.take(kern.row_entry, 0)).T
        v.flags.writeable = False
        return v

    def approaches(self) -> np.ndarray:
        """Per junction approach, priority approaches first: the cars on
        its road, then those on its road's last cell, as (2, approaches)
        per lane; read from the whole stack at each call."""
        x, c, n = self.state.T, self.kernel.rc.size, self.kernel.order.size
        v = (x.take(self.kernel.row_into, 0) - x[c:n, None]
             ) + self._placed_into
        v.flags.writeable = False
        return v.T


def step(x, a, t: NetworkTopology, mode: str = DISCRETE,
         gate: np.ndarray | None = None) -> np.ndarray:
    """The slot-order counters one synchronous update after ``x`` (pure)."""
    a, x = _validated(t, mode, a, x)
    kern = kernel_for(t)
    if gate is not None:
        gate = np.asarray(gate)
        if gate.shape != kern.slot_a.shape or not np.isin(gate, (0, 1)).all():
            raise ValueError("gate needs one True/False entry per junction")
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
