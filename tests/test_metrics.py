"""Flow estimation, period detection, sweeps, phases, response traces."""

import statistics
from types import SimpleNamespace

import numpy as np
import pytest

from roadphases.analytic import PhaseLabel, flow_approx, phase_boundaries
from roadphases.cli import (read_diagram_csv, write_diagram_csv,
                            write_response_csv, write_road_csv)
from roadphases.control import (
    GlobalFeedbackPolicy,
    LocalFeedbackPolicy,
    OpenLoopPolicy,
    build_lq_model,
    solve_lqr,
)
from roadphases.dynamics import (
    CONTINUOUS,
    DISCRETE,
    Simulation,
    StepKernel,
    init_occupancy,
)
from roadphases.metrics import (
    _distances,
    DiagramPoint,
    FundamentalDiagram,
    PeriodResult,
    classify_phases_empirical,
    clustered_occupancy,
    detect_period,
    distance_to_uniform,
    estimate_growth_rate,
    response_time,
    run_response_trace,
    run_response_traces,
    sweep_diagram,
    sweep_diagrams,
)
from roadphases.topology import (
    build_figure_eight,
    build_torus_city,
    build_two_junction,
)

A55 = [0, 1, 0, 1, 0, 1, 0, 0, 1, 0]

SWEEP_POLICIES = {
    "priority": lambda t: None,
    "open_loop": lambda t: OpenLoopPolicy(),
    "local_feedback": lambda t: LocalFeedbackPolicy(),
    "global_feedback": lambda t: GlobalFeedbackPolicy(
        solve_lqr(build_lq_model(t)), cycle=3),
}

PERIOD_NETWORKS = {
    "figure_eight": build_figure_eight(7, 4),
    "figure_eight_cap2": build_figure_eight(6, 5, capacity=2),
    "two_junction": build_two_junction(4, 3, 5, 2),
    "two_junction_cap2": build_two_junction(3, 4, 2, 3, capacity=2),
    "city": build_torus_city(2, 2, 3),
    "city_cap2": build_torus_city(2, 3, 2, capacity=2),
}


class TestGrowthRate:
    def test_empty_network(self):
        t = build_figure_eight(6, 6)
        f, ok = estimate_growth_rate(t, np.zeros(t.n_slots, dtype=int))
        assert f == 0.0 and ok

    def test_jammed_network(self):
        t = build_figure_eight(8, 6)
        a = init_occupancy(t, count=t.counting_size, seed=0)
        f, ok = estimate_growth_rate(t, a)
        assert f == 0.0 and ok

    def test_saturated_figure_eight_quarter_flow(self):
        t = build_figure_eight(45, 15)
        a = init_occupancy(t, density=0.5, seed=1)
        f, ok = estimate_growth_rate(t, a, horizon=20 * t.counting_size)
        assert ok
        assert f == pytest.approx(0.25, abs=0.02)

    def test_rejects_bad_window(self):
        t = build_figure_eight(5, 5)
        with pytest.raises(ValueError):
            estimate_growth_rate(t, A55, horizon=10, burn_in=10)


class TestDetectPeriod:
    def test_table_instance_period_four(self):
        t = build_figure_eight(5, 5)
        res = detect_period(t, A55)
        assert res is not None
        assert res.period == 4
        assert res.start <= 1
        assert res.flow == pytest.approx(0.25)

    def test_frozen_state_period_one(self):
        t = build_figure_eight(5, 5)
        a = init_occupancy(t, count=9, seed=2)
        res = detect_period(t, a)
        assert res is not None
        assert res.period == 1 and res.flow == 0.0

    def test_empty_network_period_one(self):
        t = build_figure_eight(5, 5)
        res = detect_period(t, np.zeros(10, dtype=int))
        assert res == type(res)(period=1, start=0, flow=0.0)

    def test_period_flow_matches_long_estimate(self):
        t = build_figure_eight(12, 8)
        for seed in range(4):
            a = init_occupancy(t, count=7, seed=seed)
            res = detect_period(t, a, max_steps=40 * t.counting_size)
            assert res is not None
            K = 60 * t.counting_size
            f, _ = estimate_growth_rate(t, a, horizon=K)
            assert abs(res.flow - f) <= 2 / K + 1e-9

    def test_open_loop_regime_detected(self):
        t = build_torus_city(2, 2, 2)
        a = init_occupancy(t, density=0.25, seed=0)
        res = detect_period(t, a, policy=OpenLoopPolicy(),
                            max_steps=60 * t.counting_size)
        assert res is not None
        assert res.period % 4 == 0  # in phase with the light cycle

    # (network, density, seed) -> (start, period) found when phase keys
    # held the slots as a tuple of ints, one run per call
    GLOBAL_PERIODS = {
        ("city", 0.2, 0): (22, 12), ("city", 0.2, 1): (34, 12),
        ("city", 0.4, 0): (19, 4), ("city", 0.4, 1): (23, 4),
        ("city", 0.6, 0): (17, 12), ("city", 0.6, 1): (46, 4),
        ("two_junction", 0.2, 0): (25, 20), ("two_junction", 0.2, 1): (57, 20),
        ("two_junction", 0.4, 0): (17, 4), ("two_junction", 0.4, 1): (4, 4),
        ("two_junction", 0.6, 0): (16, 4), ("two_junction", 0.6, 1): (54, 4),
    }

    def test_global_feedback_periods_unchanged(self):
        nets = {"city": build_torus_city(2, 2, 3),
                "two_junction": build_two_junction(4, 3, 5, 2)}
        for (name, d, seed), expect in self.GLOBAL_PERIODS.items():
            t = nets[name]
            policy = GlobalFeedbackPolicy(solve_lqr(build_lq_model(t)))
            res = detect_period(t, init_occupancy(t, density=d, seed=seed),
                                policy)
            assert (res.start, res.period) == expect, (name, d, seed)

    @pytest.mark.parametrize("lanes", [1, 3])
    def test_rejects_a_stack(self, lanes):
        # one lane would first match x - x[0] = 0 against itself at step 0
        t = build_figure_eight(5, 5)
        with pytest.raises(ValueError, match="one placement"):
            detect_period(t, np.tile(A55, (lanes, 1)))

    def test_none_when_horizon_too_short(self):
        t = build_figure_eight(30, 20)
        a = init_occupancy(t, density=0.45, seed=5)
        assert detect_period(t, a, max_steps=3) is None

    @pytest.mark.parametrize("policy", sorted(SWEEP_POLICIES))
    @pytest.mark.parametrize("t", PERIOD_NETWORKS.values(),
                             ids=PERIOD_NETWORKS.keys())
    def test_matches_occupancy_walk(self, t, policy):
        policy = SWEEP_POLICIES[policy](t)
        found = []
        for count in range(1, t.counting_size, 3):
            for seed in (0, 1):
                a = init_occupancy(t, count=count, seed=seed)
                res = detect_period(t, a, policy)
                assert res == occupancy_walk_period(
                    t, a, policy, 20 * t.counting_size)
                found.append(res is not None)
        assert any(found)


def occupancy_walk_period(t, a, policy, max_steps):
    """The reference detect_period is pinned to: the earliest recurrence of
    (occupancy, junction-entry parities, light phase)."""
    sim = Simulation(t, a, DISCRETE, policy)
    kern = sim.kernel
    phase_key = getattr(sim.policy, "phase_key", lambda k: ())
    seen, snapshots = {}, []
    for k in range(max_steps + 1):
        parity = (sim.x[kern.slot_a] + sim.x[kern.slot_b]) % 2
        y = kern.occupancy(sim.x, sim.a)
        key = (y.tobytes(), parity.tobytes(), phase_key(k))
        if key in seen:
            start = seen[key]
            period = k - start
            flow = float(np.mean(sim.x - snapshots[start])) / period
            return PeriodResult(period=period, start=start, flow=flow)
        seen[key] = k
        snapshots.append(sim.x.copy())
        sim.advance()
    return None


class TestSweep:
    def test_single_zero_density(self):
        t = build_figure_eight(10, 10)
        diag = sweep_diagram(t, [0.0], seeds=(0,))
        assert len(diag.points) == 1
        assert diag.points[0].flow == 0.0
        assert diag.points[0].converged

    def test_fig8_sweep_tracks_formula(self):
        # the growth rate of the continuous system tracks the closed form;
        # discrete recession flows run up to ~0.035 above it at this size
        t = build_figure_eight(45, 15)
        b = phase_boundaries(45, 15)
        densities = [k / 59 for k in range(0, 60, 6)]
        diag = sweep_diagram(t, densities, mode="continuous", seeds=(0, 1),
                             horizon=50 * t.counting_size)
        for p in diag.points:
            near_kink = min(abs(p.density - float(v))
                            for v in (b.d1, b.d2, b.r)) < 0.05
            tol = 0.06 if near_kink else 0.03
            assert abs(p.flow - flow_approx(p.density, b.r)) <= tol

    def test_seed_robustness_at_half_density(self):
        # initial placements barely move the estimate in saturation
        t = build_figure_eight(45, 15)
        flows = []
        for seed in range(10):
            a = init_occupancy(t, density=0.5, seed=seed)
            f, _ = estimate_growth_rate(t, a, horizon=20 * t.counting_size)
            flows.append(f)
        assert max(flows) - min(flows) <= 0.02

    def test_seed_median_and_metadata(self):
        t = build_figure_eight(20, 10)
        diag = sweep_diagram(t, [0.3], seeds=(0, 1, 2),
                             horizon=20 * t.counting_size)
        p = diag.points[0]
        assert p.seed_count == 3
        assert len(p.seed_flows) == 3
        assert p.flow == sorted(p.seed_flows)[1]
        assert diag.topology_id.startswith("figure_eight")

    def test_seeds_may_be_a_generator(self):
        t = build_figure_eight(12, 6)
        kwargs = dict(densities=[0.2, 0.4], horizon=200)
        once = sweep_diagram(t, seeds=(s for s in (0, 1)), **kwargs)
        assert once.points == sweep_diagram(t, seeds=(0, 1), **kwargs).points
        assert [p.seed_count for p in once.points] == [2, 2]

    def test_one_global_feedback_policy_serves_every_run(self):
        t = build_figure_eight(9, 3)
        solution = solve_lqr(build_lq_model(t))
        kwargs = dict(horizon=200, burn_in=100)
        diag = sweep_diagram(t, [0.2, 0.5, 0.8], seeds=(0, 1),
                             policy=GlobalFeedbackPolicy(solution), **kwargs)
        assert diag.policy_id == "global_feedback"
        for p in diag.points:
            count = round(p.density * t.counting_size)
            fresh = [estimate_growth_rate(
                t, init_occupancy(t, count=count, seed=seed),
                policy=GlobalFeedbackPolicy(solution), **kwargs)[0]
                for seed in (0, 1)]
            assert list(p.seed_flows) == fresh

    def test_per_road_outputs_satisfy_relation(self):
        t = build_figure_eight(45, 15)
        diag = sweep_diagram(t, [0.2, 0.45, 0.7], seeds=(0,),
                             horizon=20 * t.counting_size, per_road=True)
        r = diag.r
        for p in diag.points:
            d_n, d_m = p.road_density
            # densities over cells vs counting positions differ by the
            # junction share, within one position's weight
            n_pos, m_pos = 45, 14
            combined = (d_n * n_pos + d_m * m_pos) / t.counting_size
            assert abs(combined - p.density) <= 1 / t.counting_size + 1e-9

    def test_diagram_endpoint_constraints(self):
        t = build_figure_eight(12, 6)
        K = 30 * t.counting_size
        diag = sweep_diagram(t, [0.0, 0.5, 1.0], seeds=(0, 1), horizon=K)
        assert diag.points[0].flow == 0.0
        assert diag.points[-1].flow == 0.0  # a full network is frozen
        assert all(p.flow <= 0.25 + 2 / K for p in diag.points)

    def test_rejects_outside_grid(self):
        t = build_figure_eight(5, 5)
        with pytest.raises(ValueError):
            sweep_diagram(t, [1.2], seeds=(0,), horizon=20)
        with pytest.raises(ValueError, match="at least one seed"):
            sweep_diagram(t, [0.2], seeds=(), horizon=20)


def lone_run(t, a, mode, policy, horizon, burn_in):
    """One run stepped on its own: (flow, converged, road_flow,
    road_density), measured as sweeps did before runs were stacked."""
    sim = Simulation(t, a, mode, policy)
    sim.advance(burn_in)
    x_burn = sim.x.copy()
    mid = (horizon + burn_in) // 2
    x_mid = x_burn
    road_cells_acc = np.zeros(len(t.roads))
    for _ in range(burn_in, horizon):
        sim.advance()
        road_cells_acc += sim.road_counts()
        if sim.k == mid:
            x_mid = sim.x.copy()
    window = horizon - burn_in
    flow = float(np.mean(sim.x - x_burn)) / window
    half = float(np.mean(x_mid - x_burn)) / (mid - burn_in)
    kern = sim.kernel
    sums = kern.road_sums(sim.x - x_burn)
    return (flow, abs(flow - half) < 1e-3,
            tuple((sums / kern.road_lengths / window).tolist()),
            tuple((road_cells_acc / window / kern.road_lengths).tolist()))


class TestStackedSweep:
    @pytest.mark.parametrize("policy", sorted(SWEEP_POLICIES))
    @pytest.mark.parametrize("mode", [CONTINUOUS, DISCRETE])
    @pytest.mark.parametrize("t", [build_two_junction(7, 3, 5, 4),
                                   build_torus_city(3, 3, 4)],
                             ids=["two_junction", "city"])
    def test_points_match_lone_runs(self, t, mode, policy):
        policy = SWEEP_POLICIES[policy](t)
        densities = [0.1, 0.35, 0.6]
        lone = {(d, seed): lone_run(
                    t, init_occupancy(t, count=round(d * t.counting_size),
                                      seed=seed), mode, policy, 90, 40)
                for d in densities for seed in range(4)}
        # an odd seed count takes the middle flow, an even one averages two
        for seeds in ((0, 1, 2), (0, 1, 2, 3)):
            diag = sweep_diagram(t, densities, mode, policy, seeds=seeds,
                                 horizon=90, burn_in=40, per_road=True)
            for d, p in zip(densities, diag.points):
                flows, flags, road_flow, road_density = zip(
                    *(lone[d, seed] for seed in seeds))
                assert p.seed_flows == flows
                assert p.flow == statistics.median(flows)
                assert type(p.flow) is float
                assert p.converged == all(flags)
                assert p.road_flow == tuple(
                    statistics.median(col) for col in zip(*road_flow))
                assert p.road_density == tuple(
                    statistics.median(col) for col in zip(*road_density))

    def test_one_measure_call_per_sweep(self, monkeypatch):
        import roadphases.metrics as metrics_mod
        t = build_torus_city(2, 2, 3)
        calls = []
        real = metrics_mod._measure

        def counting(t, a, *args):
            calls.append(np.shape(a))
            return real(t, a, *args)

        monkeypatch.setattr(metrics_mod, "_measure", counting)
        diag = sweep_diagram(t, [0.2, 0.5], DISCRETE, LocalFeedbackPolicy(),
                             seeds=(0, 1, 2), horizon=60, per_road=True)
        assert calls == [(6, t.n_slots)]
        assert len(diag.points) == 2
        # every gate policy of a list shares one call; priority has its own
        for names, shapes in ((["open_loop", "local_feedback",
                                "global_feedback"], [(18, t.n_slots)]),
                              (["local_feedback", "priority", "open_loop"],
                               [(6, t.n_slots), (12, t.n_slots)])):
            calls.clear()
            diagrams = sweep_diagrams(
                t, [0.2, 0.5], DISCRETE,
                [SWEEP_POLICIES[name](t) for name in names],
                seeds=(0, 1, 2), horizon=60, per_road=True)
            assert calls == shapes
            assert [d.policy_id for d in diagrams] == names

    def test_repeated_car_counts_share_their_runs(self, monkeypatch):
        import roadphases.metrics as metrics_mod
        t = build_figure_eight(5, 5)
        densities = np.linspace(0, 1, 20).tolist()  # 10 distinct car counts
        policies = [None, OpenLoopPolicy()]
        kwargs = dict(seeds=(0, 1, 2), horizon=100)
        lone = [[sweep_diagram(t, [d], DISCRETE, policy, **kwargs).points[0]
                 for d in densities] for policy in policies]
        lanes = []
        real = metrics_mod._measure

        def counting(t, a, *args):
            lanes.append(len(a))
            return real(t, a, *args)

        monkeypatch.setattr(metrics_mod, "_measure", counting)
        diagrams = sweep_diagrams(t, densities, DISCRETE, policies, **kwargs)
        assert lanes == [30, 30]  # one per (car count, seed), not 60
        assert [d.points for d in diagrams] == lone

    @pytest.mark.parametrize("mode", [CONTINUOUS, DISCRETE])
    @pytest.mark.parametrize("t", [build_figure_eight(9, 4),
                                   build_torus_city(2, 3, 3)],
                             ids=["figure_eight", "city"])
    def test_diagrams_match_lone_sweeps(self, t, mode):
        names = ["open_loop", "local_feedback", "priority", "global_feedback"]
        policies = [SWEEP_POLICIES[name](t) for name in names]
        densities = [0.15, 0.4, 0.7]
        kwargs = dict(seeds=(0, 1, 2), horizon=90, burn_in=40, per_road=True)
        diagrams = sweep_diagrams(t, densities, mode, policies, **kwargs)
        assert [d.policy_id for d in diagrams] == names
        for policy, diagram in zip(policies, diagrams):
            # every field: flows, flags, seed flows, per-road values
            assert diagram == sweep_diagram(t, densities, mode, policy,
                                            **kwargs)
            assert len(diagram.points) == len(densities)

    @pytest.mark.parametrize("mode", [DISCRETE, CONTINUOUS])
    def test_empty_density_grid(self, mode):
        t = build_torus_city(2, 2, 3)
        solution = solve_lqr(build_lq_model(t))
        policies = (None, OpenLoopPolicy(), LocalFeedbackPolicy(),
                    GlobalFeedbackPolicy(solution))
        for policy in policies:
            diag = sweep_diagram(t, [], mode, policy, seeds=(0,),
                                 horizon=20, per_road=True)
            assert diag.points == []
        diagrams = sweep_diagrams(t, [], mode, policies, seeds=(0,),
                                  horizon=20, per_road=True)
        assert [d.points for d in diagrams] == [[]] * len(policies)

    def test_no_occupancy_rebuild_while_stepping(self, monkeypatch):
        t = build_torus_city(2, 2, 3)
        solution = solve_lqr(build_lq_model(t))
        rebuilds = []
        real = StepKernel.occupancy

        def counting(self, x, a, discrete):
            rebuilds.append(x.shape)
            return real(self, x, a, discrete)

        monkeypatch.setattr(StepKernel, "occupancy", counting)
        for policy in (LocalFeedbackPolicy(), GlobalFeedbackPolicy(solution)):
            sweep_diagram(t, [0.3, 0.5], DISCRETE, policy, seeds=(0, 1),
                          horizon=40, burn_in=10, per_road=True)
        starts = np.array([clustered_occupancy(t, 5, seed=s) for s in (0, 1)])
        run_response_trace(t, starts, LocalFeedbackPolicy(), horizon=25)
        # road counts and poised cars are read from the counters
        assert rebuilds == []


class TestClassifyEmpirical:
    def _diagram(self, pairs):
        diag = FundamentalDiagram("t", 0.75, "priority")
        for d, f in pairs:
            diag.points.append(DiagramPoint(d, f, True, 1, (f,)))
        return diag

    def test_analytic_curve_segments(self):
        r = 0.75
        pairs = [(k / 100, flow_approx(k / 100, r)) for k in range(0, 101, 2)]
        seg = classify_phases_empirical(self._diagram(pairs), eps=0.02)
        order = [s.label for s in seg.segments]
        assert order == [PhaseLabel.FREE, PhaseLabel.SATURATION,
                         PhaseLabel.RECESSION, PhaseLabel.FREEZE]
        bounds = phase_boundaries(45, 15)
        step = 0.02
        for s, target in zip(seg.segments[1:],
                             (0.25, (2 * 0.75 + 1) / 4, 0.75)):
            assert abs(s.d_lo - target) <= step + 0.03

    def test_all_freeze(self):
        pairs = [(d, 0.0) for d in (0.1, 0.4, 0.8)]
        seg = classify_phases_empirical(self._diagram(pairs))
        assert all(l is PhaseLabel.FREEZE for l in seg.labels)
        assert len(seg.segments) == 1

    def test_small_r_free_then_freeze(self):
        r = 0.2
        pairs = [(k / 50, flow_approx(k / 50, r)) for k in range(51)]
        seg = classify_phases_empirical(self._diagram(pairs), eps=0.02)
        labels = {s.label for s in seg.segments}
        assert labels == {PhaseLabel.FREE, PhaseLabel.FREEZE}

    @pytest.mark.parametrize("eps", [-0.01, float("nan"), float("inf")])
    def test_rejects_eps_that_cannot_be_met(self, eps):
        diag = self._diagram([(0.1, 0.1), (0.5, 0.25)])
        with pytest.raises(ValueError, match="eps"):
            classify_phases_empirical(diag, eps)

    def test_segments_tile_the_axis(self):
        pairs = [(k / 20, flow_approx(k / 20, 0.6)) for k in range(21)]
        seg = classify_phases_empirical(self._diagram(pairs))
        assert seg.segments[0].d_lo == 0.0
        assert seg.segments[-1].d_hi == 1.0
        for a, b in zip(seg.segments, seg.segments[1:]):
            assert a.d_hi == b.d_lo


class TestDistanceAndResponse:
    def test_uniform_distribution_is_zero(self):
        t = build_torus_city(2, 2, 3)
        a = np.zeros(t.n_slots, dtype=int)
        for r in t.roads:  # one car per road, same per-road density
            a[r.first_cell] = 1
        assert distance_to_uniform(a, t) == pytest.approx(0.0)

    def test_one_road_loaded(self):
        t = build_figure_eight(11, 11)  # two equal 10-cell roads
        a = np.zeros(t.n_slots, dtype=int)
        for c in t.roads[0].cells:
            a[c] = 1
        assert distance_to_uniform(a, t) == pytest.approx(2 ** 0.5 / 2)

    def test_response_time_constant_trace(self):
        assert response_time([3.0] * 40, band=0.1) == (0, True)

    def test_response_time_step_decay(self):
        trace = [4.0, 2.0] + [1.0] * 30
        assert response_time(trace, band=0.1) == (2, True)

    def test_never_settles(self):
        trace = list(np.linspace(5, 0, 20))  # keeps drifting to the end
        steps, settled = response_time(trace, band=0.01)
        assert not settled
        assert steps == 20

    @pytest.mark.parametrize("band", [-0.5, float("nan"), float("inf")])
    def test_response_time_rejects_band_that_cannot_be_met(self, band):
        with pytest.raises(ValueError, match="band"):
            response_time([4.0, 2.0, 1.0, 1.0], band)

    def test_stacked_distance_matches_lone_formula(self):
        t = build_torus_city(3, 3, 4)
        y = np.random.default_rng(7).integers(0, 9, (5, t.n_slots)) / 8
        assert distance_to_uniform(y, t).tolist() == [
            lone_distance(lane, t) for lane in y]
        assert distance_to_uniform(y[0], t) == lone_distance(y[0], t)

    @staticmethod
    def lane_norms(counts, lengths):
        uniform = counts.sum(axis=-1, keepdims=True) / int(lengths.sum())
        return [float(np.linalg.norm(v))
                for v in np.atleast_2d(counts / lengths - uniform)]

    @pytest.mark.parametrize("roads", [8, 9, 33, 128, 517, 2048])
    def test_distances_equal_per_lane_norms(self, roads):
        rng = np.random.default_rng(roads)
        # _distances reads only the road lengths of the kernel
        kern = SimpleNamespace(road_lengths=rng.integers(1, 46, roads))
        counts = rng.uniform(0, 1, (7, roads)) * kern.road_lengths
        expect = self.lane_norms(counts, kern.road_lengths)
        assert _distances(counts, kern).tolist() == expect  # bit for bit
        assert _distances(counts[3], kern) == expect[3]

    def test_distances_equal_per_lane_norms_on_city_trace(self):
        t = build_torus_city(4, 4, 9)
        a = np.stack([init_occupancy(t, density=0.3, seed=s)
                      for s in range(3)])
        sim = Simulation(t, a, DISCRETE, LocalFeedbackPolicy())
        for _ in range(120):
            z = sim.road_counts()
            assert _distances(z, sim.kernel).tolist() == self.lane_norms(
                z.astype(float), sim.kernel.road_lengths)
            sim.advance()

    @pytest.mark.parametrize("policy", ["open_loop", "local_feedback",
                                        "global_feedback"])
    def test_stacked_traces_match_lone_runs(self, policy):
        t = build_torus_city(3, 3, 4)
        starts = np.array([clustered_occupancy(t, 14, seed=s)
                           for s in range(3)])
        # the lane-group case: every policy's runs in one call, priority
        # in a stack of its own and the gate policies as lane groups
        names = ["priority", "open_loop", "local_feedback", "global_feedback"]
        grouped = run_response_traces(
            t, starts, [SWEEP_POLICIES[name](t) for name in names],
            horizon=80)[names.index(policy)]
        policy = SWEEP_POLICIES[policy](t)
        traces = run_response_trace(t, starts, policy, horizon=80)
        assert len(traces) == len(grouped) == len(starts)
        for a, trace, in_group in zip(starts, traces, grouped):
            lone = run_response_trace(t, a, policy, horizon=80)
            assert trace == lone
            assert type(trace) is type(lone) is list  # of floats, no wrapper
            assert trace == lone_trace(t, a, policy, horizon=80)
            assert in_group == lone  # this policy's trace, every distance

    def test_clustered_start_relaxes_under_local_feedback(self):
        t = build_torus_city(2, 2, 4)
        a = clustered_occupancy(t, count=10, seed=0)
        trace = run_response_trace(t, a, LocalFeedbackPolicy(),
                                   horizon=30 * t.counting_size)
        head = trace[0]
        tail = np.mean(trace[-len(trace) // 10:])
        assert tail < head

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_response_rejects_empty_horizon(self, horizon):
        t = build_torus_city(2, 2, 2)
        a = clustered_occupancy(t, count=3, seed=0)
        with pytest.raises(ValueError):
            run_response_trace(t, a, LocalFeedbackPolicy(), horizon)

    def test_cluster_respects_count(self):
        t = build_torus_city(2, 2, 2)
        a = clustered_occupancy(t, count=7, seed=3)
        assert a.sum() == 7
        with pytest.raises(ValueError):
            clustered_occupancy(t, count=t.n_slots + 1)

    @pytest.mark.parametrize("extra", [-4, -1, 1])
    def test_cluster_rejects_count_outside_road_cells(self, extra):
        t = build_torus_city(2, 2, 2)
        cells = sum(r.length_cells for r in t.roads)
        count = extra if extra < 0 else cells + extra
        with pytest.raises(ValueError, match=rf"^cluster of {count} cars "
                                             rf"outside \[0, {cells}\]$"):
            clustered_occupancy(t, count=count)


def lone_trace(t, a, policy, horizon):
    """distance_to_uniform of the rebuilt occupancy, one step at a time."""
    sim = Simulation(t, a, DISCRETE, policy)
    distances = []
    for _ in range(horizon + 1):
        y = sim.kernel.occupancy(sim.x, sim.a)
        distances.append(distance_to_uniform(y, t))
        sim.advance()
    return distances


def lone_distance(y, t):
    """The one-run distance formula, one BLAS dot per call."""
    kern = StepKernel(t)
    counts = kern.road_sums(np.asarray(y, dtype=float))
    uniform = float(counts.sum()) / int(kern.road_lengths.sum())
    return float(np.linalg.norm(counts / kern.road_lengths - uniform))


class TestCsvRoundTrips:
    def test_diagram_csv(self, tmp_path):
        t = build_figure_eight(10, 10)
        diag = sweep_diagram(t, [0.1, 0.5], seeds=(0,), horizon=200)
        seg = classify_phases_empirical(diag)
        path = tmp_path / "diag.csv"
        write_diagram_csv([(diag, seg)], path)
        again = read_diagram_csv(path)
        assert again.topology_id == diag.topology_id
        assert again.densities == diag.densities
        assert again.flows == diag.flows

    def test_deterministic_bytes(self, tmp_path):
        t = build_figure_eight(12, 6)
        out = []
        for name in ("a.csv", "b.csv"):
            diag = sweep_diagram(t, [0.2, 0.4], seeds=(0, 1), horizon=400)
            write_diagram_csv([(diag, classify_phases_empirical(diag))],
                              tmp_path / name)
            out.append((tmp_path / name).read_bytes())
        assert out[0] == out[1]

    def test_road_and_response_csv(self, tmp_path):
        t = build_figure_eight(8, 8)
        diag = sweep_diagram(t, [0.3], seeds=(0,), horizon=300, per_road=True)
        write_road_csv([diag], tmp_path / "roads.csv")
        lines = (tmp_path / "roads.csv").read_text().splitlines()
        assert lines[0] == ("topology_id,policy,r,density,flow,"
                            "road_id,road_density,road_flow")
        assert len(lines) == 1 + len(t.roads)
        write_response_csv([1.0, 0.5, 0.25], tmp_path / "resp.csv")
        assert (tmp_path / "resp.csv").read_text().splitlines()[1] == "0,1.0"
