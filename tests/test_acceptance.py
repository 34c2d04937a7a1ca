"""Acceptance suite: one test per criterion, printing a PASS line each.

Run as: pytest tests/test_acceptance.py -v -s

Mode choices per criterion (documented here once): flow-vs-formula and
network-equivalence checks (5, 6, 7) measure the growth rate of the
continuous counter system, the system for which that limit is defined;
gridlock and light-rescue checks at high density (10a) use discrete
dynamics, where car positions and blocking are meaningful; the free-phase
policy check (10b) uses the continuous growth rate.  Criterion 1 pins its
modes explicitly, and 2 and 3 hold in the stated arithmetic exactly.
"""

import statistics
import time

import numpy as np
import pytest

from roadphases.analytic import (
    eigen_candidates,
    flow_approx,
    phase_boundaries,
)
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
    init_occupancy,
    occupancy_at,
    simulate,
    step,
)
from roadphases.metrics import (
    clustered_occupancy,
    plateau_level,
    response_time,
    run_response_trace,
    sweep_diagram,
    sweep_diagrams,
)
from roadphases.topology import (
    build_figure_eight,
    build_torus_city,
    build_two_junction,
)

A55 = [0, 1, 0, 1, 0, 1, 0, 0, 1, 0]

TABLE1 = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 0, 0, 1],
    [0.5, 0, 1, 0, 0, 0.5, 1, 1, 0, 1],
    [0.5, 0.5, 1, 0, 1, 0.5, 1.5, 1, 1, 1],
    [1, 0.5, 1, 1, 1, 1, 1.5, 1.5, 1, 1],
    [1, 1, 1.5, 1, 1, 1, 2, 1.5, 1, 2],
]
TABLE2 = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 0, 0, 1],
    [1, 0, 1, 0, 0, 0, 1, 1, 0, 1],
    [1, 1, 1, 0, 1, 0, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 2, 1, 1, 1, 2, 1, 1, 2],
]
TABLE3 = [
    [0, 1, 0, 1, 0, 1, 0, 0, 1, 0],
    [0, 0, 1, 1, 0, 0, 1, 0, 0, 1],
    [1, 0, 1, 1, 0, 0, 0, 1, 0, 0],
    [0, 1, 1, 0, 1, 0, 0, 0, 1, 0],
    [0, 1, 0, 1, 0, 1, 0, 0, 1, 0],
    [0, 0, 1, 1, 0, 0, 1, 0, 0, 1],
]


def report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def median_flow(t, d, mode, policy_builder=None, seeds=(0, 1, 2),
                horizon=None):
    """Median growth rate over seeds at density d (burn-in horizon // 2)."""
    policy = policy_builder() if policy_builder else None
    return sweep_diagram(t, [d], mode, policy, seeds=seeds,
                         horizon=horizon).points[0].flow


def test_criterion_1_table_reproduction():
    start = time.time()
    t = build_figure_eight(5, 5)
    cont = simulate(t, A55, CONTINUOUS, horizon=5)
    assert cont.tolist() == TABLE1
    disc = simulate(t, A55, DISCRETE, horizon=5)
    assert disc.tolist() == TABLE2
    for state, row in zip(disc, TABLE3):
        assert occupancy_at(state, A55, t).tolist() == row
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"tables reproduced exactly (60+60+60 values) in "
              f"{elapsed:.3f}s")


def test_criterion_2_counter_properties():
    # integer dynamics: the exactness demand is unconditional there, while
    # float64 dyadics lose exactness once deep transients outrun 53 bits.
    # An instance's three seeds advance as the lanes of one stack; every
    # assertion holds for each lane.
    start = time.time()
    rng = np.random.default_rng(20240810)
    instances = 0
    seeds = range(3)
    while instances < 50:
        n = int(rng.integers(2, 61))
        m = int(rng.integers(2, 61))
        d = float(rng.uniform(0, 1))
        t = build_figure_eight(n, m)
        count = round(d * t.counting_size)
        a = np.stack([init_occupancy(t, count=count, seed=seed)
                      for seed in seeds])
        sim = Simulation(t, a, DISCRETE)
        k10 = 10 * t.counting_size
        K = 100 * t.counting_size
        # every assertion is on all of a lane's counters, whatever their
        # order, so it reads them in the order the kernel keeps them
        prev = sim.counters
        spread10 = x_half = None
        for k in range(1, K + 1):
            sim.advance()
            assert np.all(sim.counters >= prev), "counters decreased"
            assert sim.counters.min() >= 0, "negative counter"
            prev = sim.counters
            if k == k10:
                spread10 = sim.counters.max(axis=1) - sim.counters.min(axis=1)
            if k == K // 2:
                x_half = sim.counters.copy()
        spread100 = sim.counters.max(axis=1) - sim.counters.min(axis=1)
        window = K - K // 2
        for seed in seeds:
            grown = float(spread10[seed]), float(spread100[seed])
            assert grown[1] <= grown[0] + 1 + 1e-9, \
                f"spread grew: {grown[0]} -> {grown[1]} " \
                f"(n={n}, m={m}, seed={seed})"
            per_slot = float(np.max(sim.counters[seed] - x_half[seed])) \
                / window
            assert per_slot <= 0.25 + 2 / K, \
                f"flow cap broken: {per_slot} (n={n}, m={m}, d={d}, " \
                f"seed={seed})"
        instances += 1
    elapsed = time.time() - start
    assert elapsed < 120
    report(2, f"50 instances x 3 seeds: monotone, bounded spread, "
              f"flow <= 1/4 + 2/K in {elapsed:.1f}s")


def test_criterion_3_additive_homogeneity():
    t = build_figure_eight(7, 6)
    a = init_occupancy(t, count=6, seed=1)
    rng = np.random.default_rng(99)
    for trial in range(1000):
        x = rng.integers(0, 400, size=t.n_slots) / 16.0
        alpha = float(rng.integers(-320, 320)) / 16.0
        base = step(x, a, t, CONTINUOUS)
        shifted = step(x + alpha, a, t, CONTINUOUS)
        assert np.array_equal(shifted, base + alpha), f"trial {trial}"
    report(3, "step(x + a*1) == step(x) + a*1 exactly on 1000 dyadic states")


def test_criterion_4_eigen_fixed_point():
    cases = 0
    for n, m in [(45, 15), (15, 45), (5, 5), (40, 20), (10, 30), (30, 10),
                 (2, 2), (60, 3)]:
        b = phase_boundaries(n, m)
        for capacity in (1, 2):
            for k in range(0, 11):
                d = k / 10
                res = eigen_candidates(d, n, m, capacity)
                assert res.candidates, "no eigenvalue returned"
                for lam in res.candidates:
                    terms = [d - (1 + float(b.rho)) * lam,
                             float(b.r) - d
                             - (2 * float(b.r) - 1 + float(b.rho)) * lam]
                    if capacity == 1:
                        terms.insert(1, 0.25 - lam)
                    residual = max(min(terms), -lam)
                    assert abs(residual) <= 1e-12, (n, m, capacity, d, lam)
                    cases += 1
    assert cases >= 100
    report(4, f"max-min identity residual <= 1e-12 for {cases} candidate "
              f"evaluations (capacities 1 and 2)")


@pytest.fixture(scope="module")
def fig8_45_15_sweep():
    """Median continuous growth rate for every car count of the 45/15 ring."""
    t = build_figure_eight(45, 15)
    K = 100 * t.counting_size
    diagram = sweep_diagram(t, [N / 59 for N in range(60)], CONTINUOUS,
                            seeds=(0, 1, 2), horizon=K)
    assert [round(p.density * 59) for p in diagram.points] == list(range(60))
    return t, dict(enumerate(diagram.flows))


def test_criterion_5_diagram_vs_formula(fig8_45_15_sweep):
    start = time.time()
    t, flows = fig8_45_15_sweep
    b = phase_boundaries(45, 15)
    worst_out = worst_in = 0.0
    for N, f in flows.items():
        d = N / 59
        err = abs(f - flow_approx(d, b.r, 1))
        near = min(abs(d - float(v)) for v in (b.d1, b.d2, b.r)) < 0.05
        if near:
            worst_in = max(worst_in, err)
            assert err <= 0.06, f"N={N}: err {err:.4f} (kink window)"
        else:
            worst_out = max(worst_out, err)
            assert err <= 0.03, f"N={N}: err {err:.4f}"
    report(5, f"all 60 densities: max err {worst_out:.4f} (<=0.03 away "
              f"from kinks), {worst_in:.4f} (<=0.06 near kinks); "
              f"{time.time() - start:.1f}s on shared sweep")


def test_criterion_6_phase_endpoints(fig8_45_15_sweep):
    t, flows = fig8_45_15_sweep
    b = phase_boundaries(45, 15)
    free_checked = frozen_checked = 0
    for N, f in flows.items():
        d = N / 59
        if d <= float(b.d1):
            assert abs(f - d) <= 0.01, f"free phase: N={N}, f={f}"
            free_checked += 1
        if d >= float(b.r):
            assert f <= 0.01, f"freeze phase: N={N}, f={f}"
            frozen_checked += 1
    assert free_checked >= 10 and frozen_checked >= 10
    report(6, f"flow == density on {free_checked} free points (+-0.01); "
              f"flow <= 0.01 on {frozen_checked} frozen points")


def test_criterion_7_r_invariance():
    start = time.time()
    grid = [k / 19 for k in range(20)]
    flows = {}
    for name, t in [
        ("tj_a", build_two_junction(20, 10, 10, 20)),
        ("tj_b", build_two_junction(30, 10, 10, 30)),
        ("fig8", build_figure_eight(30, 31)),  # ratio 30/60 = 1/2
    ]:
        K = 100 * t.counting_size
        flows[name] = sweep_diagram(t, grid, CONTINUOUS, seeds=(0, 1, 2),
                                    horizon=K).flows
    diff_sizes = max(abs(x - y) for x, y in zip(flows["tj_a"], flows["tj_b"]))
    assert diff_sizes <= 0.03, f"size invariance broken: {diff_sizes:.4f}"
    diff_equiv = max(abs(x - y) for x, y in zip(flows["tj_a"], flows["fig8"]))
    assert diff_equiv <= 0.03, f"one-vs-two junctions: {diff_equiv:.4f}"
    report(7, f"same-ratio two-junction nets agree to {diff_sizes:.4f}; "
              f"two junctions vs one junction at r=1/2 agree to "
              f"{diff_equiv:.4f} ({time.time() - start:.0f}s)")


def test_criterion_8_large_junction():
    start = time.time()
    t = build_figure_eight(45, 15, capacity=2)
    K = 50 * t.counting_size
    f = median_flow(t, 0.5, CONTINUOUS, horizon=K)
    assert f >= 0.45, f"capacity-2 peak flow {f:.4f}"
    r = 45 / 59
    curve = [flow_approx(k / 100, r, 2) for k in range(101)]
    peak = max(curve)
    assert peak > 0.26, "quarter plateau still caps capacity-2 formula"
    rises = [i for i in range(100) if curve[i + 1] > curve[i] + 1e-12]
    falls = [i for i in range(100) if curve[i + 1] < curve[i] - 1e-12]
    assert rises and falls and max(rises) < min(falls), "not a tent curve"
    assert not any(abs(v - 0.25) < 1e-9 and curve[i + 1] == v
                   for i, v in enumerate(curve[:-1])), "plateau at 1/4"
    report(8, f"capacity-2 junction: simulated flow {f:.3f} >= 0.45 at "
              f"d=0.5; formula is a tent peaking at {peak:.3f} "
              f"({time.time() - start:.0f}s)")


def test_criterion_9_riccati():
    from roadphases.control import LQModel
    scalar = LQModel(B=np.array([[1.0]]), Q=1.0, R=1.0)
    sol = solve_lqr(scalar)
    golden = (1 + 5 ** 0.5) / 2
    assert abs(sol.P[0, 0] - golden) <= 1e-9
    city = build_torus_city(4, 4, 9)
    city_sol = solve_lqr(build_lq_model(city))
    assert city_sol.spectral_radius < 1
    report(9, f"scalar Riccati solution = {sol.P[0, 0]:.10f} (golden ratio "
              f"to 1e-9); 4x4-city closed-loop spectral radius "
              f"{city_sol.spectral_radius:.4f} < 1")


def _city_policy_builders(t):
    solution = solve_lqr(build_lq_model(t))
    return {
        "priority": lambda: None,
        "open_loop": OpenLoopPolicy,
        "local_feedback": LocalFeedbackPolicy,
        "global_feedback": lambda: GlobalFeedbackPolicy(solution),
    }


def test_criterion_10_policy_comparison():
    start = time.time()
    t = build_torus_city(4, 4, 9)
    K = 50 * t.counting_size
    builders = _city_policy_builders(t)

    def median_flows(d, mode, names):
        """median_flow of each named policy, from one sweep_diagrams call:
        its gate policies step as the lane groups of one stack."""
        diagrams = sweep_diagrams(t, [d], mode,
                                  [builders[name]() for name in names],
                                  horizon=K)
        return {name: diagram.points[0].flow
                for name, diagram in zip(names, diagrams)}

    # congested regime: gridlock under priority, rescued by local feedback
    congested = median_flows(0.6, DISCRETE,
                             ("priority", "local_feedback", "open_loop"))
    f_priority, f_local = congested["priority"], congested["local_feedback"]
    assert f_priority <= 0.01, f"priority rule flows at d=0.6: {f_priority}"
    assert f_local >= 0.05, f"local feedback stuck at d=0.6: {f_local}"
    # open-loop flow cap at both densities
    for f_ol in (median_flows(0.15, DISCRETE, ("open_loop",))["open_loop"],
                 congested["open_loop"]):
        assert f_ol <= 0.25 + 2 / K, f"open-loop flow {f_ol} above cap"
    # free regime: every policy carries the demand (continuous growth rate)
    free_flows = median_flows(0.15, CONTINUOUS, tuple(builders))
    for name, f in free_flows.items():
        assert abs(f - 0.15) <= 0.02, f"{name} at d=0.15: f={f:.4f}"
    report(10, "d=0.6: priority {:.4f} <= 0.01, local {:.3f} >= 0.05; "
               "d=0.15: flows {} all within 0.02 of density; open-loop "
               "capped ({:.0f}s)".format(
                   f_priority, f_local,
                   {k: round(v, 3) for k, v in free_flows.items()},
                   time.time() - start))


def test_criterion_11_response_times():
    start = time.time()
    t = build_torus_city(4, 4, 9)
    d = 0.3
    count = round(d * t.counting_size)
    horizon = 8 * t.counting_size
    results = {"open_loop": [], "local_feedback": [], "global_feedback": []}
    builders = _city_policy_builders(t)
    starts = np.array([clustered_occupancy(t, count, seed=seed)
                       for seed in (0, 1, 2)])
    for name in results:
        # the three seeds advance together, as lanes of one simulation
        for trace in run_response_trace(t, starts, builders[name](), horizon):
            band = 0.1 * trace[0]
            rt, _settled = response_time(trace, band)
            results[name].append((rt, plateau_level(trace)))
    rt_local = statistics.median(r for r, _ in results["local_feedback"])
    rt_open = statistics.median(r for r, _ in results["open_loop"])
    assert rt_local <= rt_open, f"local {rt_local} slower than open {rt_open}"
    pl_global = statistics.median(p for _, p in results["global_feedback"])
    pl_local = statistics.median(p for _, p in results["local_feedback"])
    assert pl_global <= pl_local, \
        f"global plateau {pl_global:.4f} above local {pl_local:.4f}"
    report(11, f"median response: local {rt_local} <= open-loop {rt_open} "
               f"steps; plateau distance: global {pl_global:.3f} <= local "
               f"{pl_local:.3f} ({time.time() - start:.0f}s)")
