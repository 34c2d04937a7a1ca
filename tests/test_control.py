"""Light policies: plans, feedback laws, Riccati solver, timing allocation."""

import copy
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadphases.control import (
    FLOW_CAP,
    GlobalFeedbackPolicy,
    LaneGroups,
    LQRSolution,
    LocalFeedbackPolicy,
    LQModel,
    OpenLoopPolicy,
    RiccatiError,
    build_lq_model,
    global_feedback_timing,
    nominal_point,
    solve_lqr,
)
from roadphases.dynamics import DISCRETE, Simulation, density, init_occupancy
from roadphases.topology import (
    build_figure_eight,
    build_torus_city,
    build_two_junction,
)

import reference
from reference import (LocalFeedbackInputs, local_feedback_green,
                       open_loop_green)

GOLDEN = (1 + 5 ** 0.5) / 2

# capacity-2 networks included: the index arrays do not depend on it
WALK_NETWORKS = {
    "figure_eight": build_figure_eight(5, 5),
    "figure_eight_cap2": build_figure_eight(6, 4, capacity=2),
    "two_junction": build_two_junction(3, 2, 4, 2),
    "city_2x2x2": build_torus_city(2, 2, 2),
    "city_3x4x2_cap2": build_torus_city(3, 4, 2, capacity=2),
    "city_8x8x9": build_torus_city(8, 8, 9),
}


class TestOpenLoop:
    def test_default_cycle(self):
        policy = OpenLoopPolicy(cycle=4, green_first=2, offset=0)
        assert open_loop_green(policy, 0, 0) is True
        assert open_loop_green(policy, 0, 1) is True
        assert open_loop_green(policy, 0, 2) is False
        assert open_loop_green(policy, 0, 3) is False
        assert open_loop_green(policy, 0, 4) is True

    def test_offset_shifts(self):
        policy = OpenLoopPolicy(cycle=4, green_first=2, offset=2)
        assert open_loop_green(policy, 0, 0) is False

    def test_per_junction_offsets(self):
        policy = OpenLoopPolicy(cycle=4, green_first=2, offset=(0, 2))
        assert open_loop_green(policy, 0, 0) is True
        assert open_loop_green(policy, 1, 0) is False

    def test_rejects_bad_plan(self):
        with pytest.raises(ValueError):
            OpenLoopPolicy(cycle=1)
        with pytest.raises(ValueError):
            OpenLoopPolicy(cycle=4, green_first=4)

    @pytest.mark.parametrize("cycle", [2, 3, 4, 7])
    @pytest.mark.parametrize("name", sorted(WALK_NETWORKS))
    def test_policy_table_matches_scalar_rule(self, name, cycle):
        t = WALK_NETWORKS[name]
        n = len(t.junctions)
        sim = Simulation(t, np.zeros(t.n_slots, dtype=np.int64))
        for green_first in range(1, cycle):
            policies = [OpenLoopPolicy(cycle, green_first, offset)
                        for offset in (0, 1, -3, cycle + 2, 2 ** 63 - 1)]
            policies += [OpenLoopPolicy(cycle, green_first, offset=offset)
                         for offset in (tuple(range(n)),
                                        tuple(5 - 3 * j for j in range(n)))]
            for policy in policies:
                policy.reset(sim)
                table = [[open_loop_green(policy, j, k) for j in range(n)]
                         for k in range(cycle)]
                for k in range(2 * cycle + 1):
                    greens = policy.greens(k, sim)
                    assert greens.dtype == bool
                    assert greens.tolist() == table[k % cycle], (
                        policy.offset, k)

    # offsets far outside int64 and cycles up to the 2**53 bound: the old
    # per-phase table's row k % cycle, computed with Python ints
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), cycle=st.integers(2, 2 ** 53),
           k=st.integers(0, 2 ** 64),
           offset=st.one_of(
               st.integers(-2 ** 70, 2 ** 70),
               st.tuples(*[st.integers(-2 ** 70, 2 ** 70)] * 4),
               st.sampled_from([2 ** 64, -2 ** 64 - 1,
                                (2 ** 64, -1, 0, 2 ** 63)])))
    def test_greens_equal_the_phase_table_row(self, data, cycle, k, offset):
        t = build_torus_city(2, 2, 2)  # 4 junctions
        green_first = data.draw(st.integers(1, cycle - 1), "green_first")
        sim = Simulation(t, np.zeros(t.n_slots, dtype=np.int64),
                         policy=OpenLoopPolicy(cycle, green_first, offset))
        offsets = offset if isinstance(offset, tuple) else (offset,) * 4
        row = [(k % cycle + o % cycle) % cycle < green_first for o in offsets]
        assert sim.policy.greens(k, sim).tolist() == row

    @pytest.mark.parametrize("offset", [(0,), (0, 1, 2, 3, 0)])
    def test_policy_rejects_wrong_offset_count(self, offset):
        t = build_torus_city(2, 2, 2)
        policy = OpenLoopPolicy(offset=offset)
        with pytest.raises(ValueError, match=r"^offset needs one entry per "
                                             r"junction \(4\), "
                                             rf"got {len(offset)}$"):
            Simulation(t, np.zeros(t.n_slots, dtype=np.int64), policy=policy)

    def test_flow_cap_under_cycle_four(self):
        # a single approach can enter at most once per cycle
        t = build_figure_eight(8, 8)
        a = init_occupancy(t, count=10, seed=1)
        sim = Simulation(t, a, policy=OpenLoopPolicy())
        K = 400
        sim.advance(K)
        j = t.junctions[0]
        for entry in (j.slot_a, j.slot_b):
            assert sim.x[entry] / K <= 0.25 + 2 / K


class TestLocalFeedback:
    @pytest.mark.parametrize("inputs,expected", [
        ((10, 10, 5, 3, 1, 1), True),
        ((10, 10, 0, 9, 1, 0), True),   # the poised vehicle wins
        ((10, 10, 4, 4, 1, 1), True),   # tie goes to road 1
        ((10, 10, 3, 5, 1, 1), False),
        ((10, 10, 0, 1, 0, 1), False),
    ])
    def test_examples(self, inputs, expected):
        assert local_feedback_green(LocalFeedbackInputs(*inputs)) is expected

    def test_exhaustive_against_inequality(self):
        for n1 in range(1, 11):
            for n2 in range(1, 11):
                for z1 in range(n1 + 1):
                    for z2 in range(n2 + 1):
                        for b1 in (0, 1):
                            for b2 in (0, 1):
                                got = local_feedback_green(
                                    LocalFeedbackInputs(n1, n2, z1, z2, b1, b2))
                                assert got == (n2 * b1 + z1 >= n1 * b2 + z2)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            LocalFeedbackInputs(5, 5, 6, 0, 1, 1)
        with pytest.raises(ValueError):
            LocalFeedbackInputs(5, 5, 1, 0, 2, 0)


class TestLQModel:
    def test_figure_eight_aggregated_matrix(self):
        t = build_figure_eight(5, 5)
        model = build_lq_model(t)
        assert model.B.tolist() == [[-0.5, 0.5], [0.5, -0.5]]

    def test_city_columns(self):
        t = build_torus_city(2, 2, 2)
        model = build_lq_model(t)
        for col in model.B.T:
            assert col.sum() == pytest.approx(0.0)
            assert sorted(col[col != 0].tolist())[-2:] in (
                [0.5, 0.5], [-0.5, 0.5])
        # diagonal -1 plus two +1/2 entries unless a road feeds itself
        offdiag = model.B - np.diag(np.diag(model.B))
        assert np.all((offdiag == 0) | (offdiag == 0.5))

    @pytest.mark.parametrize("name", sorted(WALK_NETWORKS))
    def test_matches_road_walk(self, name):
        t = WALK_NETWORKS[name]
        n = len(t.roads)
        B = np.zeros((n, n))
        for j in t.junctions:
            for road in (j.in_priority, j.in_nonpriority):
                B[road, road] -= 1.0
                B[j.out_ceil, road] += 0.5
                B[j.out_floor, road] += 0.5
        got = build_lq_model(t).B
        assert got.dtype == B.dtype and got.tobytes() == B.tobytes()

    def test_nominal_point(self):
        t = build_torus_city(2, 2, 3)
        xbar, ubar = nominal_point(t, 0.25)
        assert xbar.tolist() == [0.25 * 3] * len(t.roads)
        assert ubar[0] <= 0.25

    def test_nominal_point_of_density_array(self):
        t = build_figure_eight(9, 3)
        d = np.array([[0.0, 0.2, 0.5], [0.7, 0.3, 1.0]])
        xbar, ubar = nominal_point(t, d)
        assert xbar.shape == ubar.shape == (2, 3, len(t.roads))
        for i, j in np.ndindex(d.shape):
            one = nominal_point(t, float(d[i, j]))
            assert xbar[i, j].tolist() == one[0].tolist()
            assert ubar[i, j].tolist() == one[1].tolist()
        empty = nominal_point(t, np.zeros(0))
        assert [v.shape for v in empty] == [(0, len(t.roads))] * 2

    def test_nominal_point_needs_one_capacity(self):
        t = build_two_junction(5, 4, 4, 5)
        mixed = dataclasses.replace(t, junctions=(
            t.junctions[0], dataclasses.replace(t.junctions[1], capacity=2)))
        mixed.validate()
        with pytest.raises(ValueError, match=r"capacities \[1, 2\]"):
            nominal_point(mixed, 0.3)


def scalar_model(q=1.0, r=1.0, b=1.0):
    return LQModel(B=np.array([[b]]), Q=q, R=r)


def projected(B):
    """B with the total-inventory row projected out, and the projection."""
    n = len(B)
    V = np.linalg.qr(np.column_stack([np.ones(n), np.eye(n)]))[0][:, 1:]
    return V.T @ B, V


class TestRiccati:
    def test_scalar_golden_ratio(self):
        sol = solve_lqr(scalar_model())
        assert sol.P[0, 0] == pytest.approx(GOLDEN, abs=1e-9)
        assert sol.gain[0, 0] == pytest.approx(GOLDEN / (1 + GOLDEN), abs=1e-9)
        assert sol.spectral_radius < 1

    def test_zero_state_cost(self):
        sol = solve_lqr(scalar_model(q=0.0))
        assert sol.gain[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_solve_leaves_model_untouched(self):
        t = build_torus_city(2, 2, 2)
        model = build_lq_model(t)
        before = model.B.copy()
        solve_lqr(model)
        assert np.array_equal(model.B, before)
        assert (model.Q, model.R) == (1.0, 10.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.B = np.zeros((1, 1))

    def test_requires_positive_definite_R(self):
        for r in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match=r"need Q >= 0 and R > 0, "
                               rf"got Q = 1\.0, R = {r!r}"):
                solve_lqr(scalar_model(r=r))

    @pytest.mark.parametrize("q", [-1.0, -1e-6, float("nan")])
    def test_requires_positive_semidefinite_Q(self, q):
        with pytest.raises(ValueError, match=r"need Q >= 0 and R > 0"):
            solve_lqr(scalar_model(q=q))

    def test_uncontrollable_mode_raises(self):
        with pytest.raises(RiccatiError, match="uncontrollable mode"):
            solve_lqr(scalar_model(b=0.0))
        # zero column sums (the mass direction is projected out) and rank 1,
        # so one of the two remaining modes is out of reach too
        B = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(RiccatiError, match="uncontrollable mode"):
            solve_lqr(LQModel(B, 1.0, 1.0))

    @pytest.mark.parametrize("model", [
        scalar_model(), scalar_model(q=0.0), scalar_model(q=3.0, r=0.5, b=2.0),
        build_lq_model(build_figure_eight(5, 5)),
        build_lq_model(build_two_junction(5, 4, 4, 5), q_scale=2.0),
        build_lq_model(build_torus_city(2, 2, 2)),
        build_lq_model(build_torus_city(4, 4, 9))],
        ids=["golden", "zero_cost", "scaled", "figure_eight", "two_junction",
             "city_2x2x2", "city_4x4x9"])
    def test_spectral_radius_of_closed_loop(self, model):
        # the closed form 1 / (1 + min p) against the eigenvalues of
        # I - B gain on the solved subspace
        sol = solve_lqr(model)
        B, V = projected(model.B) if len(model.B) > 1 else (model.B, np.eye(1))
        closed = np.eye(len(V.T)) - B @ sol.gain @ V
        radius = np.max(np.abs(np.linalg.eigvals(closed)))
        assert abs(sol.spectral_radius - radius) <= 1e-12

    def test_city_model_stabilized(self):
        t = build_torus_city(4, 4, 9)
        model = build_lq_model(t)
        sol = solve_lqr(model)
        assert sol.spectral_radius < 1
        assert sol.residual <= 1e-10

    def test_residual_is_fixed_point_defect(self):
        t = build_torus_city(2, 2, 2)
        model = build_lq_model(t)
        sol = solve_lqr(model)
        (B, _), P = projected(model.B), sol.P
        inner = np.linalg.solve(model.R * np.eye(len(B.T)) + B.T @ P @ B,
                                B.T @ P)
        defect = P - (model.Q * np.eye(len(B)) + P - P @ B @ inner)
        assert np.max(np.abs(defect)) <= 1e-10

    # build_lq_model's default weights keep the bare shape as their id
    @pytest.mark.parametrize("shape,q,r", [
        pytest.param(shape, q, r, id="x".join(map(str, shape)) + (
            "" if (q, r) == (1.0, 10.0) else f"-q{q:g}-r{r:g}"))
        for shape in [(2, 4, 3), (8, 8, 9)]
        for q, r in [(1.0, 10.0), (0.0, 10.0), (2.0, 0.5), (1.0, 1e3)]])
    def test_matches_scipy_on_projected_city(self, shape, q, r):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        model = build_lq_model(build_torus_city(*shape), q, r)
        sol = solve_lqr(model)
        if q == 0:  # no mode is weighed, so P = 0; scipy finds no solution,
            assert not sol.P.any()  # as A = I puts every mode on |z| = 1
            return
        B, _ = projected(model.B)
        I, R = np.eye(len(B)), r * np.eye(len(B.T))
        P = scipy_linalg.solve_discrete_are(I, B, q * I, R)
        # one Newton step polishes scipy's answer, which is off by 1.4e-10
        # on 8x8x9 at q/r = 1e-3 (a slow closed loop, radius 0.9994)
        K = np.linalg.solve(R + B.T @ P @ B, B.T @ P)
        P_ref = scipy_linalg.solve_discrete_lyapunov((I - B @ K).T,
                                                     q * I + K.T @ R @ K)
        assert np.allclose(sol.P, P_ref, rtol=0.0, atol=1e-11)


@pytest.fixture(scope="module")
def city():
    """(topology, gain, xbar, ubar) of a small city at density 0.3."""
    t = build_torus_city(2, 2, 3)
    return (t, solve_lqr(build_lq_model(t)).gain, *nominal_point(t, 0.3))


class TestGlobalTiming:

    def test_nominal_point_splits_evenly(self, city):
        t, gain, xbar, ubar = city
        slots = global_feedback_timing(t, gain, xbar, ubar, xbar)
        assert slots.tolist() == [2] * 4

    def test_skewed_control_clamps_to_three(self, city):
        t, gain, xbar, _ = city
        ubar = np.zeros(len(t.roads))
        ubar[t.junctions[0].in_priority] = 0.25
        slots = global_feedback_timing(t, np.zeros_like(gain), xbar, ubar,
                                       xbar)
        assert slots[0] == 3
        assert slots.tolist()[1:] == [2] * 3

    def test_zero_gain_reduces_to_open_loop_split(self, city):
        t, gain, xbar, ubar = city
        far = xbar + 3.0
        assert global_feedback_timing(t, np.zeros_like(gain), xbar, ubar,
                                      far).tolist() == [2] * 4

    def test_allocation_within_cycle(self, city):
        t, gain, xbar, ubar = city
        rng = np.random.default_rng(0)
        for _ in range(25):
            x = rng.uniform(0, 3, size=len(xbar))
            slots = global_feedback_timing(t, gain, xbar, ubar, x)
            assert np.all(slots >= 1) and np.all(slots <= 3)

    @pytest.mark.parametrize("cycle", [0, 1, 2 ** 53 + 1])
    def test_rejects_short_cycle(self, city, cycle):
        # np.clip(share, 1, cycle - 1) would give no green slot at all, and
        # above 2**53 the float64 share no longer counts slots exactly
        t, gain, xbar, ubar = city
        with pytest.raises(ValueError, match=re.escape(
                f"cycle must lie in [2, 2**53], got {cycle}") + "$"):
            global_feedback_timing(t, gain, xbar, ubar, xbar, cycle)


def loop_timing(t, gain, xbar, ubar, inventories, cycle):
    """Per-junction reference for global_feedback_timing."""
    u = ubar - gain @ (np.asarray(inventories, float) - xbar)
    u = np.clip(u, 0.0, FLOW_CAP)
    slots = np.empty(len(t.junctions), dtype=np.int64)
    for jid, j in enumerate(t.junctions):
        u_pr, u_np = u[j.in_priority], u[j.in_nonpriority]
        total = u_pr + u_np
        share = cycle / 2 if total <= 0 else cycle * u_pr / total
        slots[jid] = min(max(int(round(share)), 1), cycle - 1)
    return slots


TIMING_NETWORKS = {
    "city_2x2x3": lambda: build_torus_city(2, 2, 3),
    "city_8x8x9": lambda: build_torus_city(8, 8, 9),
    "figure_eight": lambda: build_figure_eight(9, 3),
    "two_junction": lambda: build_two_junction(20, 10, 10, 20),
}


@pytest.fixture(scope="module", params=sorted(TIMING_NETWORKS))
def solved_network(request):
    """(topology, solved gain) of each timing network."""
    t = TIMING_NETWORKS[request.param]()
    return t, solve_lqr(build_lq_model(t)).gain


@pytest.mark.parametrize("cycle", [2, 3, 4, 7])
class TestTimingMatchesLoop:
    def test_random_inventories(self, solved_network, cycle):
        t, gain = solved_network
        n = len(t.roads)
        lengths = np.array([r.length_cells for r in t.roads])
        rng = np.random.default_rng(cycle)
        for g in (np.zeros_like(gain), gain):
            for _ in range(40):
                xbar, _ = nominal_point(t, rng.uniform())
                # outside [0, 1/4] on both sides, so clipping and
                # zero-control pairs occur
                ubar = rng.uniform(-0.1, 0.35, n)
                x = rng.uniform(0, 1, n) * lengths
                got = global_feedback_timing(t, g, xbar, ubar, x, cycle)
                assert got.dtype == np.int64
                assert got.tolist() == \
                    loop_timing(t, g, xbar, ubar, x, cycle).tolist()

    def test_ties_round_half_to_even(self, solved_network, cycle):
        t, gain = solved_network
        n = len(t.roads)
        zero, xbar = np.zeros_like(gain), np.zeros(n)
        rng = np.random.default_rng(cycle)
        pr = [j.in_priority for j in t.junctions]
        nonpr = [j.in_nonpriority for j in t.junctions]
        for _ in range(10):
            # u_pr / total = (k + 1/2) / cycle exactly
            k = rng.integers(0, cycle, len(t.junctions))
            ubar = np.empty(n)
            ubar[pr] = (2 * k + 1) / 64
            ubar[nonpr] = (2 * cycle - 2 * k - 1) / 64
            share = cycle * ubar[pr] / (ubar[pr] + ubar[nonpr])
            assert share.tolist() == (k + 0.5).tolist()
            got = global_feedback_timing(t, zero, xbar, ubar, xbar, cycle)
            assert got.tolist() == \
                loop_timing(t, zero, xbar, ubar, xbar, cycle).tolist()
        # total = 0: no control on either approach splits the cycle
        got = global_feedback_timing(t, zero, xbar, np.zeros(n), xbar, cycle)
        assert got.tolist() == \
            loop_timing(t, zero, xbar, np.zeros(n), xbar, cycle).tolist()


    def test_stacked_lanes_match_single_calls(self, solved_network, cycle):
        t, gain = solved_network
        n, lanes = len(t.roads), 7
        lengths = np.array([r.length_cells for r in t.roads])
        rng = np.random.default_rng(cycle)
        pr = [j.in_priority for j in t.junctions]
        nonpr = [j.in_nonpriority for j in t.junctions]
        for g in (np.zeros_like(gain), gain):
            xbar = np.stack([nominal_point(t, d)[0]
                             for d in rng.uniform(size=lanes)])
            ubar = rng.uniform(-0.1, 0.35, (lanes, n))
            x = rng.uniform(0, 1, (lanes, n)) * lengths
            # lane 0 sits at its nominal point with share = k + 1/2 at
            # every junction, lane 1 has no control anywhere
            k = rng.integers(0, cycle, len(t.junctions))
            x[:2] = xbar[:2]
            ubar[0, pr] = (2 * k + 1) / 64
            ubar[0, nonpr] = (2 * cycle - 2 * k - 1) / 64
            ubar[1] = 0.0
            got = global_feedback_timing(t, g, xbar, ubar, x, cycle)
            assert got.shape == (lanes, len(t.junctions))
            assert got.dtype == np.int64
            for lane in range(lanes):
                single = global_feedback_timing(t, g, xbar[lane], ubar[lane],
                                                x[lane], cycle)
                assert got[lane].tolist() == single.tolist()
            assert got[0].tolist() == \
                loop_timing(t, g, xbar[0], ubar[0], x[0], cycle).tolist()


class TestLocalFeedbackPolicy:
    @pytest.mark.parametrize("t", [build_torus_city(4, 4, 3),
                                   build_two_junction(7, 3, 5, 4)],
                             ids=["city_4x4x3", "two_junction"])
    def test_matches_scalar_rule_along_a_run(self, t):
        policy = LocalFeedbackPolicy()
        seen = set()
        for seed in range(3):
            a = init_occupancy(t, density=0.4, seed=seed)
            sim = Simulation(t, a, policy=policy)
            for _ in range(60):
                y = sim.kernel.occupancy(sim.x, sim.a)
                z = [int(sum(y[c] for c in r.cells)) for r in t.roads]
                b = [int(y[r.last_cell]) for r in t.roads]
                expected = []
                for j in t.junctions:
                    i1, i2 = j.in_priority, j.in_nonpriority
                    expected.append(local_feedback_green(LocalFeedbackInputs(
                        n1=t.roads[i1].length_cells,
                        n2=t.roads[i2].length_cells,
                        z1=z[i1], z2=z[i2], b1=b[i1], b2=b[i2])))
                assert sim.policy.greens(sim.k, sim).tolist() == expected
                seen.update(expected)
                sim.advance()
        assert seen == {True, False}


class GateRecorder:
    """A policy wrapper that keeps every gate the policy returns, as one
    (lanes, junctions) array per step."""

    def __init__(self, policy):
        self.policy = policy
        self.gates = []

    def reset(self, sim):
        # the simulation's copy of the recorder gets its own policy and log
        self.policy, self.gates = copy.copy(self.policy), []
        self.policy.reset(sim)
        self.shape = (len(sim.a), len(sim.topology.junctions))

    def greens(self, k, sim):
        g = self.policy.greens(k, sim)
        self.gates.append(np.broadcast_to(g, self.shape).copy())
        return g


GATE_NETWORKS = {
    "figure_eight": build_figure_eight(5, 4),
    "figure_eight_cap2": build_figure_eight(4, 6, capacity=2),
    "two_junction": build_two_junction(3, 2, 4, 2),
    "city_2x2x2": build_torus_city(2, 2, 2),
    "city_2x3x1_cap2": build_torus_city(2, 3, 1, capacity=2),
}


class TestEmittedGates:
    """The gates each policy emits along a stacked discrete run, replayed
    in tests/reference.py, and checked against the scalar rules on the
    reference's own road counts and last-cell cars."""

    @pytest.mark.parametrize("name", ["open_loop", "local_feedback",
                                      "global_feedback"])
    @pytest.mark.parametrize("t", GATE_NETWORKS.values(),
                             ids=GATE_NETWORKS.keys())
    def test_gates_replay_and_follow_the_rules(self, t, name):
        a = self.placements(t)
        policy = self.policies(t)[name]
        xs, gates = self.recorded(t, a, policy)
        self.check(t, a, xs, gates, name, policy)

    @pytest.mark.parametrize("t", GATE_NETWORKS.values(),
                             ids=GATE_NETWORKS.keys())
    def test_lane_groups_replay_and_follow_the_rules(self, t):
        # the three policies share one stack, three lanes each
        a = self.placements(t)
        policies = self.policies(t)
        groups = LaneGroups(policies.values())
        xs, gates = self.recorded(t, np.tile(a, (3, 1)), groups)
        for g, (name, policy) in enumerate(policies.items()):
            lanes = slice(3 * g, 3 * g + 3)
            self.check(t, a, [x[lanes] for x in xs], gates[:, lanes], name,
                       policy)

    @pytest.mark.parametrize("lanes,policies", [(5, 2), (None, 2), (4, 0)],
                             ids=["uneven", "one_run", "no_policies"])
    def test_lane_groups_reject_a_stack_they_cannot_split(self, lanes,
                                                          policies):
        # each lane needs a gate of its own policy: 5 lanes do not split
        # into 2 equal blocks, and a 1-D placement has no lanes to split
        t = GATE_NETWORKS["figure_eight"]
        a = init_occupancy(t, count=4, seed=0)
        if lanes is not None:
            a = np.tile(a, (lanes, 1))
        groups = LaneGroups([OpenLoopPolicy(), LocalFeedbackPolicy()]
                            [:policies])
        with pytest.raises(ValueError, match=re.escape(
                f"a placement of shape {a.shape} does not split into "
                f"{policies} equal lane groups")):
            Simulation(t, a, DISCRETE, groups)

    @staticmethod
    def placements(t):
        size = t.counting_size
        return np.stack([init_occupancy(t, count=c, seed=c)
                         for c in (size // 5, size // 2, 4 * size // 5)])

    @staticmethod
    def policies(t):
        return {"open_loop": OpenLoopPolicy(cycle=5),
                "local_feedback": LocalFeedbackPolicy(),
                "global_feedback": GlobalFeedbackPolicy(
                    solve_lqr(build_lq_model(t)))}

    @staticmethod
    def recorded(t, a, policy):
        """Slot-order counters at every step, and every emitted gate."""
        sim = Simulation(t, a, DISCRETE, GateRecorder(policy))
        xs = [sim.x]
        for _ in range(3 * t.counting_size):
            sim.advance()
            xs.append(sim.x)
        return xs, np.array(sim.policy.gates)

    @staticmethod
    def check(t, a, xs, gates, name, policy):
        horizon = 3 * t.counting_size
        assert gates.shape == (horizon, len(a), len(t.junctions))
        assert gates.any() and not gates.all()
        for lane, a_lane in enumerate(a.tolist()):
            ref = reference.reference_trajectory(
                t, a_lane, horizon, discrete=True, gates=gates[:, lane])
            assert [x[lane].tolist() for x in xs] == ref
            xbar, ubar = nominal_point(t, density(a[lane], t))
            for k, gate in enumerate(gates[:, lane].tolist()):
                y = reference.reference_occupancy(t, ref[k], a_lane)
                z = [int(sum(y[c] for c in r.cells)) for r in t.roads]
                b = [int(y[r.last_cell]) for r in t.roads]
                if name == "local_feedback":
                    assert gate == [local_feedback_green(LocalFeedbackInputs(
                        n1=t.roads[j.in_priority].length_cells,
                        n2=t.roads[j.in_nonpriority].length_cells,
                        z1=z[j.in_priority], z2=z[j.in_nonpriority],
                        b1=b[j.in_priority], b2=b[j.in_nonpriority]))
                        for j in t.junctions]
                elif name == "global_feedback":
                    phase = k % policy.cycle
                    if phase == 0:
                        slots = global_feedback_timing(
                            t, policy.solution.gain, xbar, ubar, z,
                            policy.cycle)
                    assert gate == (phase < slots).tolist()
                else:
                    assert gate == [open_loop_green(policy, j, k)
                                    for j in range(len(t.junctions))]


class TestGlobalFeedbackPolicy:
    @pytest.mark.parametrize("cycle", [0, 1])
    def test_rejects_short_cycle(self, cycle):
        solution = solve_lqr(build_lq_model(build_torus_city(2, 2, 2)))
        with pytest.raises(ValueError):
            GlobalFeedbackPolicy(solution, cycle=cycle)

    @pytest.mark.parametrize("cycle", [2, 3, 4])
    def test_times_each_cycle_once(self, monkeypatch, cycle):
        import roadphases.control as control_mod
        t = build_torus_city(2, 2, 3)
        policy = GlobalFeedbackPolicy(solve_lqr(build_lq_model(t)), cycle)
        a = init_occupancy(t, density=0.4, seed=0)
        calls = []
        real = control_mod.global_feedback_timing

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(control_mod, "global_feedback_timing", counting)
        for steps in (1, cycle, cycle + 1, 5 * cycle - 1):
            calls.clear()
            Simulation(t, a, DISCRETE, policy).advance(steps)
            # reset times step 0; each later cycle start retimes
            assert len(calls) == -(-steps // cycle)

    def test_linearizes_at_run_density(self):
        # unequal roads: xbar is not a uniform shift, so the gain sees it
        t = build_figure_eight(9, 3)
        solution = solve_lqr(build_lq_model(t))
        policy = GlobalFeedbackPolicy(solution, cycle=6)
        for count in (2, 5, 9):
            a = init_occupancy(t, count=count, seed=1)
            sim = Simulation(t, a, policy=policy)
            sim.advance(12)
            xbar, ubar = nominal_point(t, density(a, t))
            slots = global_feedback_timing(t, solution.gain, xbar, ubar,
                                           sim.road_counts(), cycle=6)
            greens = [bool(sim.policy.greens(12 + p, sim)[0])
                      for p in range(6)]
            assert greens == [p < slots[0] for p in range(6)]


class TestGlobalPhaseKey:
    """One hashable key per run or stack: the cycle phase and the green
    slots of every lane."""

    def test_keys_of_stacks(self):
        t = build_torus_city(3, 3, 4)
        policy = GlobalFeedbackPolicy(solve_lqr(build_lq_model(t)))
        a = np.stack([init_occupancy(t, density=d, seed=1)
                      for d in (0.2, 0.45, 0.7)])
        sims = [Simulation(t, lanes, policy=policy)
                for lanes in (a[0], a[:1], a, a[::-1])]
        lanes_differ = False
        for k in range(24):
            lone, one, stack, flipped = (s.policy.phase_key(k) for s in sims)
            hash((lone, one, stack, flipped))  # TypeError if one is unhashable
            assert lone == one  # a (1, slots) stack is its lone run
            assert {lone[0], stack[0], flipped[0]} == {k % policy.cycle}
            lanes_differ |= stack != flipped
            for s in sims:
                s.advance()
        # the lanes get different slots, and the key tells them apart
        assert lanes_differ


class TestMutualExclusion:
    @pytest.mark.parametrize("policy_factory", [
        lambda s: OpenLoopPolicy(),
        lambda s: LocalFeedbackPolicy(),
        lambda s: GlobalFeedbackPolicy(s),
    ])
    def test_exactly_one_green(self, policy_factory):
        t = build_torus_city(2, 2, 3)
        solution = solve_lqr(build_lq_model(t))
        a = init_occupancy(t, density=0.4, seed=3)
        policy = policy_factory(solution)
        sim = Simulation(t, a, policy=policy)
        for k in range(60):
            greens = sim.policy.greens(sim.k, sim)
            assert greens.shape == (len(t.junctions),)
            assert greens.dtype == bool  # one approach green <=> other red
            sim.advance()


class TestSharedPolicy:
    """Each Simulation resets and steps its own copy of the policy."""

    @staticmethod
    def lone_x(t, a, policy, steps):
        sim = Simulation(t, a, policy=policy)
        sim.advance(steps)
        return sim.x

    def test_interleaved_runs_share_global_feedback(self):
        t = build_torus_city(3, 3, 4)
        shared = GlobalFeedbackPolicy(solve_lqr(build_lq_model(t)))
        starts = [init_occupancy(t, density=d, seed=1) for d in (0.2, 0.6)]
        sims = [Simulation(t, a, policy=shared) for a in starts]
        for _ in range(200):
            for sim in sims:
                sim.advance()
        for a, sim in zip(starts, sims):
            lone = self.lone_x(t, a, GlobalFeedbackPolicy(shared.solution),
                               200)
            assert np.array_equal(sim.x, lone)

    @pytest.mark.parametrize("make", [OpenLoopPolicy, LocalFeedbackPolicy])
    def test_one_policy_serves_two_networks(self, make):
        shared = make()
        nets = [build_torus_city(3, 3, 4), build_torus_city(2, 2, 7)]
        starts = [init_occupancy(t, density=0.3, seed=2) for t in nets]
        sims = [Simulation(t, a, policy=shared)
                for t, a in zip(nets, starts)]
        for _ in range(50):
            for sim in sims:
                sim.advance()
        for t, a, sim in zip(nets, starts, sims):
            assert sim.policy is not shared
            assert np.array_equal(sim.x, self.lone_x(t, a, make(), 50))
