"""Junction management policies: periodic lights, local and global feedback.

Every policy answers one question per junction per step, for every lane of
a stacked simulation: which of the two incoming approaches is green.  The
priority-to-the-right rule is the absence of a policy (gate None).  The
global feedback solves a discrete-time LQR around a nominal operating point:
roads are car inventories, the control is the per-road outflow during green,
and the interconnection matrix routes half of each road's outflow to each of
its junction's exits.  Inventories carry over unchanged from step to step
(A = I), so the Riccati equation is solved exactly, in closed form, with no
iteration and no tolerance.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .analytic import flow_approx
from .dynamics import density, kernel_for
from .topology import NetworkTopology, ratio_r

FLOW_CAP = 0.25  # a capacity-1 junction approach cannot exceed this


@dataclass(frozen=True)
class LQModel:
    """Road-inventory model x+ = x + B(u - ubar) with weights Q and R.

    Nothing here depends on density: the nominal point (xbar, ubar) comes
    from nominal_point, so one solution serves every run on the network.
    """

    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray


def build_lq_model(t: NetworkTopology, q_scale: float = 1.0,
                   r_scale: float = 10.0) -> LQModel:
    """Interconnection and weights for a network.

    Column i of B sends road i's outflow half-and-half to the two exits of
    its destination junction and removes it from road i, so columns sum to
    zero (cars are conserved).
    """
    for name, w in (("q_scale", q_scale), ("r_scale", r_scale)):
        if not np.isfinite(w):
            raise ValueError(f"{name} must be finite, got {w!r}")
    kern = kernel_for(t)
    n = len(kern.road_lengths)
    # every road enters one junction, as its priority or non-priority road
    road = np.concatenate([kern.pr_road, kern.np_road])
    B = np.zeros((n, n))
    np.add.at(B, (road, road), -1.0)
    for out in (kern.out_ceil, kern.out_floor):
        np.add.at(B, (np.tile(out, 2), road), 0.5)
    return LQModel(B=B, Q=q_scale * np.eye(n), R=r_scale * np.eye(n))


def nominal_point(t: NetworkTopology, d) -> tuple[np.ndarray, np.ndarray]:
    """(xbar, ubar) at density d, or per density of an array d with roads as
    the last axis: density d and the analytic flow approximation at d on
    every road.  The approximation assumes one capacity at every junction."""
    kern = kernel_for(t)
    if np.any(kern.capacity != kern.capacity[0]):
        raise ValueError("the nominal point needs one junction capacity, got "
                         f"capacities {sorted(set(kern.capacity.tolist()))}")
    flow = np.vectorize(flow_approx, otypes=[float], excluded={1, 2})
    d = np.asarray(d, dtype=float)[..., None]
    ubar = flow(d, ratio_r(t), int(kern.capacity[0]))
    return d * kern.road_lengths, np.repeat(ubar, len(kern.road_lengths), -1)


class RiccatiError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class LQRSolution:
    gain: np.ndarray        # full-space feedback: u = ubar - gain @ (x - xbar)
    P: np.ndarray           # Riccati solution on the solved subspace
    residual: float         # Riccati defect max|Q - P B gain| on that subspace
    spectral_radius: float  # closed loop on the solved subspace


def _mass_projection(B: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis of the complement of an uncontrollable 1 direction."""
    n = B.shape[0]
    ones = np.ones(n)
    if n > 1 and np.allclose(ones @ B, 0.0, atol=1e-12):
        q, _ = np.linalg.qr(np.column_stack([ones, np.eye(n)]))
        return q[:, 1:n]
    return None


def solve_lqr(model: LQModel) -> LQRSolution:
    """Exact solution of the discrete Riccati equation with A = I.

    When the columns of B sum to zero the total-inventory direction cannot
    be moved by any control, so it is projected out first; the returned gain
    acts on full-space deviations.  With A = I the equation reads
    P (I + G P)^-1 G P = Q for G = B R^-1 B', and its positive semidefinite
    solution is P = G^-1/2 W diag(p) W' G^-1/2, where W diag(s) W' is
    G^1/2 Q G^1/2 and p = (s + sqrt(s^2 + 4s)) / 2: G^1/2 P G^1/2 commutes
    with G^1/2 Q G^1/2, and each of its eigenvalues solves p^2 = s (1 + p).
    Raises RiccatiError when G is singular (a mode no control moves), or if
    rounding leaves a defect above 1e-9 max(1, max|Q|).
    """
    if np.linalg.eigvalsh(model.R).min() <= 0:
        raise ValueError("R must be positive definite")
    q_eigs = np.linalg.eigvalsh(model.Q)  # zeros may round to just below 0
    if q_eigs.min() < -1e-12 * max(1.0, q_eigs.max()):
        raise ValueError("Q must be positive semidefinite")
    B, Q, R = model.B, model.Q, model.R
    V = _mass_projection(B)
    if V is not None:
        B, Q = V.T @ B, V.T @ Q @ V
    g, U = np.linalg.eigh(B @ np.linalg.solve(R, B.T))
    if g.min() <= 1e-12 * g.max():
        raise RiccatiError("uncontrollable mode: B R^-1 B' has eigenvalues "
                           f"{g.min():.3e} to {g.max():.3e}", np.inf)
    root = np.sqrt(g)
    half = (U * root) @ U.T  # G^1/2
    s, W = np.linalg.eigh(half @ Q @ half)
    s = np.clip(s, 0.0, None)  # Q's zero modes may round to just below 0
    p = 0.5 * (s + np.sqrt(s * s + 4 * s))
    X = (U / root) @ (U.T @ W) * np.sqrt(p)
    P = X @ X.T  # exactly symmetric: NumPy forms X X' with one syrk
    gain_sub = np.linalg.solve(R + B.T @ P @ B, B.T @ P)
    residual = float(np.max(np.abs(Q - P @ B @ gain_sub)))
    if not residual <= 1e-9 * max(1.0, float(np.max(np.abs(Q)))):  # or NaN
        raise RiccatiError("Riccati solution is inaccurate", residual)
    gain = gain_sub @ V.T if V is not None else gain_sub
    # I - B gain = (I + G P)^-1, and G P is similar to W diag(p) W'
    return LQRSolution(gain=gain, P=P, residual=residual,
                       spectral_radius=float(1 / (1 + p.min())))


def global_feedback_timing(t: NetworkTopology, gain: np.ndarray,
                           xbar: np.ndarray, ubar: np.ndarray,
                           inventories: np.ndarray,
                           cycle: int = 4) -> np.ndarray:
    """Green slots per cycle for each junction's priority approach.

    The LQ control u = ubar - gain (x - xbar) is clipped to [0, 1/4] per
    road and turned into per-cycle green slots proportionally, with at
    least one slot per approach; half-slot ties round to even, and an
    approach pair with no control splits the cycle evenly.  Inventories,
    ``xbar`` and ``ubar`` may be (roads,) or stacked (lanes, roads); the
    slots then come per lane.
    """
    if cycle < 2:
        raise ValueError("cycle must be >= 2")
    kern = kernel_for(t)
    v = np.asarray(inventories, float) - xbar
    # gain @ v per lane, with the same BLAS product as for one vector
    # (v @ gain.T sums in another order and can flip a rint tie)
    u = ubar - np.matmul(gain, v[..., None])[..., 0]
    u = np.clip(u, 0.0, FLOW_CAP)
    u_pr = u[..., kern.pr_road]
    total = u_pr + u[..., kern.np_road]
    share = np.divide(cycle * u_pr, total, where=total > 0,
                      out=np.full(total.shape, cycle / 2))
    return np.clip(np.rint(share), 1, cycle - 1).astype(np.int64)


class OpenLoopPolicy:
    """Fixed-cycle lights: the priority approach is green first, for
    ``green_first`` steps of each ``cycle``, shifted by ``offset`` (one int
    for every junction, or a sequence of one per junction)."""

    policy_id = "open_loop"

    def __init__(self, cycle: int = 4, green_first: int = 2, offset=0):
        if cycle < 2:
            raise ValueError("cycle must be >= 2")
        if not 1 <= green_first <= cycle - 1:
            raise ValueError("green_first must lie in [1, cycle-1]")
        self.cycle, self.green_first, self.offset = cycle, green_first, offset

    def reset(self, sim):
        n, cycle = sim.kernel.slot_a.size, self.cycle
        offsets = self.offset if np.ndim(self.offset) else [self.offset] * n
        if len(offsets) != n:
            raise ValueError(f"offset needs one entry per junction ({n}), "
                             f"got {len(offsets)}")
        # (cycle, junctions): row k holds the greens of phase k; offsets are
        # reduced as Python ints first, so that none wraps in int64
        phase = np.arange(cycle)[:, None] + [o % cycle for o in offsets]
        self._greens_by_phase = phase % cycle < self.green_first

    def greens(self, k: int, sim) -> np.ndarray:
        return self._greens_by_phase[k % self.cycle]

    def phase_key(self, k: int):
        return k % self.cycle


class LocalFeedbackPolicy:
    """Per-junction comparison of crowding and poised vehicles, every step."""

    policy_id = "local_feedback"

    def reset(self, sim):
        kern = sim.kernel
        self._npr = kern.road_lengths[kern.pr_road]
        self._nnp = kern.road_lengths[kern.np_road]

    def greens(self, k: int, sim) -> np.ndarray:
        kern, z, b = sim.kernel, sim.road_counts(), sim.poised()
        lhs = self._nnp * b.take(kern.pr_road, -1) + z.take(kern.pr_road, -1)
        rhs = self._npr * b.take(kern.np_road, -1) + z.take(kern.np_road, -1)
        return lhs >= rhs


class GlobalFeedbackPolicy:
    """LQ feedback quantized into green slots, refreshed each cycle.

    The gain is the network's; each run (each lane of a stack) linearizes
    at its own density, which ``reset`` reads from its initial occupancy.
    """

    policy_id = "global_feedback"

    def __init__(self, solution: LQRSolution, cycle: int = 4):
        if cycle < 2:
            raise ValueError("cycle must be >= 2")
        self.solution = solution
        self.cycle = cycle

    def reset(self, sim):
        self._xbar, self._ubar = nominal_point(
            sim.topology, density(sim.a, sim.topology))
        self._slots = self._timing(sim)

    def _timing(self, sim) -> np.ndarray:
        return global_feedback_timing(sim.topology, self.solution.gain,
                                      self._xbar, self._ubar,
                                      sim.road_counts(), self.cycle)

    def greens(self, k: int, sim) -> np.ndarray:
        phase = k % self.cycle
        if phase == 0 and k:  # reset timed step 0
            self._slots = self._timing(sim)
        return phase < self._slots

    def phase_key(self, k: int):
        return k % self.cycle, self._slots.tobytes()  # of every lane


class LaneGroups:
    """Gate policies on lane groups of one stack: the stack splits into one
    equal, consecutive block of lanes per policy, in order.  Each policy is
    reset and stepped on a view of its own lanes only, as on a stack of
    their own."""

    def __init__(self, policies):
        self.policies = tuple(policies)

    def reset(self, sim):
        shape, groups = np.shape(sim.a), len(self.policies)
        if len(shape) != 2 or not groups or shape[0] % groups:
            raise ValueError(f"a placement of shape {shape} does not split "
                             f"into {groups} equal lane groups")
        n = shape[0] // groups
        self._views = [
            (copy.copy(policy), _LaneView(sim, slice(g * n, (g + 1) * n)))
            for g, policy in enumerate(self.policies)]
        for policy, view in self._views:
            policy.reset(view)

    def greens(self, k: int, sim) -> np.ndarray:
        gate = np.empty((len(sim.a), sim.kernel.slot_a.size), bool)
        for policy, view in self._views:
            gate[view.lanes] = policy.greens(k, view)
        return gate


class _LaneView:
    """A lane group of a stack, as its policy reads it."""

    def __init__(self, sim, lanes: slice):
        self.kernel, self.topology = sim.kernel, sim.topology
        self.a, self.lanes, self._sim = sim.a[lanes], lanes, sim

    def road_counts(self) -> np.ndarray:
        return self._sim.road_counts()[self.lanes]

    def poised(self) -> np.ndarray:
        return self._sim.poised()[self.lanes]
