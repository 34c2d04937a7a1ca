"""Junction management policies: periodic lights, local and global feedback.

Every policy answers one question per junction per step, for every lane of
a stacked simulation: which of the two incoming approaches is green.  The
priority-to-the-right rule is the absence of a policy (gate None).  The
global feedback solves a discrete-time LQR around a nominal operating point:
roads are car inventories, the control is the per-road outflow during green,
and the interconnection matrix routes half of each road's outflow to each of
its junction's exits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import flow_approx
from .dynamics import kernel_for
from .topology import NetworkTopology, ratio_r

FLOW_CAP = 0.25  # a capacity-1 junction approach cannot exceed this


@dataclass(frozen=True)
class OpenLoopPlan:
    """Fixed-cycle light plan; priority-labelled approach is green first."""

    cycle: int = 4
    green_first: int = 2
    offset: int = 0  # common phase shift, or per-junction via offsets
    offsets: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.cycle < 2:
            raise ValueError("cycle must be >= 2")
        if not 1 <= self.green_first <= self.cycle - 1:
            raise ValueError("green_first must lie in [1, cycle-1]")


def open_loop_green(plan: OpenLoopPlan, junction: int, k: int) -> bool:
    """True when the priority-labelled approach is green at step k (the
    scalar reference rule of OpenLoopPolicy)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    offset = plan.offsets[junction] if plan.offsets else plan.offset
    return (k + offset) % plan.cycle < plan.green_first


@dataclass(frozen=True)
class LocalFeedbackInputs:
    n1: int
    n2: int
    z1: int
    z2: int
    b1: int
    b2: int

    def __post_init__(self):
        if not (0 <= self.z1 <= self.n1 and 0 <= self.z2 <= self.n2):
            raise ValueError("vehicle counts exceed road sizes")
        if self.b1 not in (0, 1) or self.b2 not in (0, 1):
            raise ValueError("poised flags must be 0 or 1")


def local_feedback_green(inputs: LocalFeedbackInputs) -> bool:
    """True when road 1 gets green: n2*b1 + z1 >= n1*b2 + z2 (the scalar
    reference rule of LocalFeedbackPolicy).

    Grants green to the single approach with a vehicle poised to enter, and
    otherwise to the relatively more crowded road; ties go to road 1.
    """
    return (inputs.n2 * inputs.b1 + inputs.z1
            >= inputs.n1 * inputs.b2 + inputs.z2)


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
    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} "
                         f"after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class LQRSolution:
    gain: np.ndarray        # full-space feedback: u = ubar - gain @ (x - xbar)
    P: np.ndarray           # Riccati fixed point on the solved subspace
    residual: float
    iterations: int
    spectral_radius: float  # closed loop on the solved subspace


def _mass_projection(B: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis of the complement of an uncontrollable 1 direction."""
    n = B.shape[0]
    ones = np.ones(n)
    if n > 1 and np.allclose(ones @ B, 0.0, atol=1e-12):
        q, _ = np.linalg.qr(np.column_stack([ones, np.eye(n)]))
        return q[:, 1:n]
    return None


def solve_lqr(model: LQModel, tol: float = 1e-10,
              max_iter: int = 20000) -> LQRSolution:
    """Fixed-point iteration for the discrete Riccati equation with A = I.

    When the columns of B sum to zero the total-inventory direction cannot
    be moved by any control, so it is projected out before iterating; the
    returned gain acts on full-space deviations.  Raises RiccatiError if the
    residual does not reach tol within max_iter sweeps.
    """
    if np.linalg.eigvalsh(model.R).min() <= 0:
        raise ValueError("R must be positive definite")
    q_eigs = np.linalg.eigvalsh(model.Q)  # zeros may round to just below 0
    if q_eigs.min() < -1e-12 * max(1.0, q_eigs.max()):
        raise ValueError("Q must be positive semidefinite")
    V = _mass_projection(model.B)
    if V is not None:
        B = V.T @ model.B
        Q = V.T @ model.Q @ V
    else:
        B = model.B
        Q = model.Q
    R = model.R
    P = Q.copy()

    def riccati_map(P):
        inner = np.linalg.solve(R + B.T @ P @ B, B.T @ P)
        return Q + P - P @ B @ inner

    residual = np.inf
    for iteration in range(1, max_iter + 1):
        P_next = riccati_map(P)
        P_next = 0.5 * (P_next + P_next.T)
        residual = float(np.max(np.abs(P_next - P)))
        P = P_next
        if residual <= tol:
            break
    else:
        raise RiccatiError("Riccati iteration did not converge",
                           residual, max_iter)
    gain_sub = np.linalg.solve(R + B.T @ P @ B, B.T @ P)
    closed = np.eye(P.shape[0]) - B @ gain_sub
    radius = float(np.max(np.abs(np.linalg.eigvals(closed))))
    gain = gain_sub @ V.T if V is not None else gain_sub
    return LQRSolution(gain=gain, P=P, residual=residual,
                       iterations=iteration, spectral_radius=radius)


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
    """Gate adapter for a periodic plan (same plan at every junction)."""

    def __init__(self, plan: OpenLoopPlan | None = None):
        self.plan = plan or OpenLoopPlan()
        self.policy_id = "open_loop"
        self._greens_by_phase: np.ndarray | None = None

    def reset(self, sim):
        plan, n = self.plan, sim.kernel.slot_a.size
        if plan.offsets and len(plan.offsets) != n:
            raise ValueError(f"offsets needs one entry per junction ({n}), "
                             f"got {len(plan.offsets)}")
        # reduced as Python ints first, so that no offset wraps in int64
        offsets = [o % plan.cycle for o in plan.offsets or (plan.offset,)]
        # (cycle, junctions): row k holds the greens of phase k
        phase = np.arange(plan.cycle)[:, None] + np.broadcast_to(offsets, n)
        self._greens_by_phase = phase % plan.cycle < plan.green_first

    def greens(self, k: int, sim) -> np.ndarray:
        return self._greens_by_phase[k % self.plan.cycle]

    def phase_key(self, k: int):
        return k % self.plan.cycle


class LocalFeedbackPolicy:
    """Per-junction comparison of crowding and poised vehicles, every step."""

    policy_id = "local_feedback"

    def reset(self, sim):
        kern = sim.kernel
        self._npr = kern.road_lengths[kern.pr_road]
        self._nnp = kern.road_lengths[kern.np_road]

    def greens(self, k: int, sim) -> np.ndarray:
        kern, x, z = sim.kernel, sim.x, sim.road_counts()
        # a car poised to enter: the occupancy of each road's last cell
        b = sim.a[..., kern.road_last] + (x[..., kern.road_last]
                                          - x[..., kern.entry])
        lhs = self._nnp * b[..., kern.pr_road] + z[..., kern.pr_road]
        rhs = self._npr * b[..., kern.np_road] + z[..., kern.np_road]
        return lhs >= rhs

    def phase_key(self, k: int):
        return ()


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
        d = sim.a.sum(-1) / sim.topology.counting_size
        self._xbar, self._ubar = nominal_point(sim.topology, d)
        self._slots = self._timing(sim)

    def _timing(self, sim) -> np.ndarray:
        return global_feedback_timing(sim.topology, self.solution.gain,
                                      self._xbar, self._ubar,
                                      sim.road_counts(), self.cycle)

    def greens(self, k: int, sim) -> np.ndarray:
        phase = k % self.cycle
        if phase == 0:
            self._slots = self._timing(sim)
        return phase < self._slots

    def phase_key(self, k: int):
        return (k % self.cycle, tuple(int(s) for s in self._slots))
